"""Multipole-moment integrals (dipole) over contracted Gaussians.

The 1-D matrix element of the position operator about an origin O is

    <G_i | (x - O_x) | G_j> = [E_1^{ij} + (P_x - O_x) E_0^{ij}] sqrt(pi/p)

from the Hermite expansion (the Lambda_1 Hermite Gaussian integrates to
zero except through its first moment).  Dipole moments are what the
solvent-screening chemistry reports (carbonate vs sulfinyl polarity).
"""

from __future__ import annotations

import numpy as np

from ..basis.basisset import BasisSet
from ..chem.molecule import Molecule
from .pairclass import pair_classes

__all__ = ["dipole_matrices", "dipole_moment"]


def dipole_matrices(basis: BasisSet, origin=None) -> np.ndarray:
    """AO dipole operator matrices, shape ``(3, nbf, nbf)``, one pair
    class at a time (:meth:`repro.integrals.pairclass.PairClass.
    dipole`)."""
    if origin is None:
        origin = np.zeros(3)
    origin = np.asarray(origin, dtype=np.float64)
    table = pair_classes(basis)
    blocks = [cls.dipole(origin) for cls in table]
    return np.stack([table.matrix(b[:, d] for b in blocks)
                     for d in range(3)])


def dipole_moment(mol: Molecule, basis: BasisSet, D: np.ndarray,
                  origin=None) -> np.ndarray:
    """Total dipole moment (atomic units, e*Bohr) of density ``D``.

    mu = sum_A Z_A (R_A - O)  -  Tr[D mu_op]
    (electron charge is negative; D is the spin-summed density).
    """
    if origin is None:
        origin = np.zeros(3)
    origin = np.asarray(origin, dtype=np.float64)
    mats = dipole_matrices(basis, origin)
    electronic = -np.einsum("dpq,qp->d", mats, D)
    nuclear = ((mol.numbers[:, None] * (mol.coords - origin))
               .sum(axis=0))
    return nuclear + electronic
