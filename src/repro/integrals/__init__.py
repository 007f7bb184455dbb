"""Molecular integrals: Boys function, McMurchie-Davidson one- and
two-electron integrals, Cauchy-Schwarz screening."""

from .boys import boys, boys_single
from .mcmurchie import hermite_e, hermite_r_tri, gaussian_product
from .overlap import overlap_matrix
from .kinetic import kinetic_matrix
from .nuclear import nuclear_matrix
from .pairclass import PairClasses, pair_classes
from .eri import eri_quartet, eri_tensor, ERIEngine
from .ri import (aux_shard_slices, inv_sqrt_metric, metric_2c,
                 three_center_slab)
from .batch import eri_quartet_batch, flatten_pairs
from .schwarz import schwarz_bounds, surviving_partners
from .moments import dipole_matrices, dipole_moment
from .gradients import DerivativePairs

__all__ = [
    "boys", "boys_single",
    "hermite_e", "hermite_r_tri", "gaussian_product",
    "overlap_matrix", "kinetic_matrix", "nuclear_matrix",
    "PairClasses", "pair_classes",
    "eri_quartet", "eri_tensor", "ERIEngine",
    "aux_shard_slices", "inv_sqrt_metric", "metric_2c",
    "three_center_slab",
    "eri_quartet_batch", "flatten_pairs",
    "schwarz_bounds", "surviving_partners",
    "dipole_matrices", "dipole_moment",
    "DerivativePairs",
]
