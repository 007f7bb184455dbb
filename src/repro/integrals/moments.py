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
from ..basis.shellpair import ShellPair
from ..chem.molecule import Molecule

__all__ = ["dipole_block", "dipole_matrices", "dipole_moment"]

_SQRT_PI = np.sqrt(np.pi)


def dipole_block(pair: ShellPair, origin: np.ndarray) -> np.ndarray:
    """Dipole sub-blocks for one shell pair.

    Returns shape ``(3, ncompA, ncompB)`` — the x, y, z operator blocks
    about ``origin``.
    """
    Ex, Ey, Ez = pair.E
    inv = _SQRT_PI / np.sqrt(pair.p)
    compsA = pair.sha.components
    compsB = pair.shb.components
    out = np.empty((3, len(compsA), len(compsB)))
    E = (Ex, Ey, Ez)
    for xa, ca in enumerate(compsA):
        for xb, cb in enumerate(compsB):
            # 1-D overlaps and first moments per dimension
            s1 = [E[d][ca[d], cb[d], 0] * inv for d in range(3)]
            m1 = []
            for d in range(3):
                la, lb = ca[d], cb[d]
                e1 = E[d][la, lb, 1] if la + lb >= 1 else 0.0
                m1.append((e1 + (pair.P[:, d] - origin[d])
                           * E[d][la, lb, 0]) * inv)
            w = pair.W[xa, xb]
            out[0, xa, xb] = float(w @ (m1[0] * s1[1] * s1[2]))
            out[1, xa, xb] = float(w @ (s1[0] * m1[1] * s1[2]))
            out[2, xa, xb] = float(w @ (s1[0] * s1[1] * m1[2]))
    return out


def dipole_matrices(basis: BasisSet, origin=None) -> np.ndarray:
    """AO dipole operator matrices, shape ``(3, nbf, nbf)``."""
    if origin is None:
        origin = np.zeros(3)
    origin = np.asarray(origin, dtype=np.float64)
    pairs = basis.shell_pairs()
    out = np.zeros((3, basis.nbf, basis.nbf))
    for (i, j), pair in pairs.items():
        blk = dipole_block(pair, origin)
        si, sj = basis.shell_slice(i), basis.shell_slice(j)
        out[:, si, sj] = blk
        if i != j:
            out[:, sj, si] = blk.transpose(0, 2, 1)
    return out


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
