"""Molecular integrals: Boys function, McMurchie-Davidson one- and
two-electron integrals, Cauchy-Schwarz screening."""

from .boys import boys, boys_single
from .mcmurchie import hermite_e, hermite_r_tri, gaussian_product
from .overlap import overlap_matrix, overlap_block
from .kinetic import kinetic_matrix, kinetic_block
from .nuclear import nuclear_matrix, nuclear_block
from .eri import eri_quartet, eri_tensor, ERIEngine
from .ri import (AuxShellPair, aux_shard_slices, inv_sqrt_metric, metric_2c,
                 three_center_slab)
from .batch import eri_quartet_batch, quartet_class_groups, flatten_pairs
from .schwarz import schwarz_bounds, surviving_partners
from .moments import dipole_block, dipole_matrices, dipole_moment
from .gradients import (DerivativePairs, overlap_gradient,
                        kinetic_gradient, nuclear_gradient)

__all__ = [
    "boys", "boys_single",
    "hermite_e", "hermite_r_tri", "gaussian_product",
    "overlap_matrix", "overlap_block",
    "kinetic_matrix", "kinetic_block",
    "nuclear_matrix", "nuclear_block",
    "eri_quartet", "eri_tensor", "ERIEngine",
    "AuxShellPair", "aux_shard_slices", "inv_sqrt_metric", "metric_2c",
    "three_center_slab",
    "eri_quartet_batch", "quartet_class_groups", "flatten_pairs",
    "schwarz_bounds", "surviving_partners",
    "dipole_block", "dipole_matrices", "dipole_moment",
    "DerivativePairs", "overlap_gradient", "kinetic_gradient",
    "nuclear_gradient",
]
