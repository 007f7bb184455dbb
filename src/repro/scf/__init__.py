"""Self-consistent field methods: RHF, Fock builds, DIIS, DFT (PBE/PBE0)."""

from .diis import DIIS
from .fock import (DirectJKBuilder, JKEngine, TensorJKEngine,
                   coulomb_from_tensor, exchange_from_tensor, jk_from_tensor,
                   make_jk_engine)
from .guess import (ASPCExtrapolator, aspc_coefficients, core_guess,
                    density_from_orbitals, orthogonalizer)
from .rhf import RHF, SCFResult, run_rhf
from .ri_jk import RIJKBuilder
from .soscf import ADIIS, NewtonSOSCF
from .uhf import UHF, UHFResult, run_uhf
from .route import scf_driver
from .gradient import scf_gradient, nuclear_repulsion_gradient

__all__ = [
    "DIIS",
    "DirectJKBuilder", "JKEngine", "TensorJKEngine", "make_jk_engine",
    "coulomb_from_tensor", "exchange_from_tensor", "jk_from_tensor",
    "ASPCExtrapolator", "aspc_coefficients",
    "core_guess", "density_from_orbitals", "orthogonalizer",
    "RHF", "SCFResult", "run_rhf",
    "RIJKBuilder",
    "ADIIS", "NewtonSOSCF",
    "UHF", "UHFResult", "run_uhf", "scf_driver",
    "scf_gradient", "nuclear_repulsion_gradient",
]
