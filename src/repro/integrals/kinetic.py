"""Kinetic-energy integrals over contracted Cartesian Gaussians.

Uses the standard reduction of the 1-D kinetic operator to shifted
overlaps:  T_ij = b(2j+1) S_ij - 2 b^2 S_{i,j+2} - j(j-1)/2 S_{i,j-2}.
"""

from __future__ import annotations

import numpy as np

from ..basis.basisset import BasisSet
from ..basis.shellpair import ShellPair
from .mcmurchie import hermite_e

__all__ = ["kinetic_block", "kinetic_matrix"]

_SQRT_PI = np.sqrt(np.pi)


def kinetic_block(pair: ShellPair) -> np.ndarray:
    """Kinetic sub-block for one shell pair, shape ``(ncompA, ncompB)``."""
    la, lb = pair.sha.l, pair.shb.l
    A, B = pair.sha.center, pair.shb.center
    # E with the ket ladder extended by two for the S_{i,j+2} terms
    Eext = [hermite_e(la, lb + 2, pair.a, pair.b, float(A[d] - B[d]))
            for d in range(3)]
    inv = _SQRT_PI / np.sqrt(pair.p)
    b = pair.b

    def s1d(E, i, j):
        if j < 0:
            return np.zeros_like(pair.p)
        return E[i, j, 0] * inv

    def t1d(E, i, j):
        val = b * (2 * j + 1) * s1d(E, i, j) - 2.0 * b * b * s1d(E, i, j + 2)
        if j >= 2:
            val = val - 0.5 * j * (j - 1) * s1d(E, i, j - 2)
        return val

    compsA = pair.sha.components
    compsB = pair.shb.components
    out = np.empty((len(compsA), len(compsB)))
    Ex, Ey, Ez = Eext
    for xa, (lxa, lya, lza) in enumerate(compsA):
        for xb, (lxb, lyb, lzb) in enumerate(compsB):
            sx, sy, sz = s1d(Ex, lxa, lxb), s1d(Ey, lya, lyb), s1d(Ez, lza, lzb)
            tx, ty, tz = t1d(Ex, lxa, lxb), t1d(Ey, lya, lyb), t1d(Ez, lza, lzb)
            integ = tx * sy * sz + sx * ty * sz + sx * sy * tz
            out[xa, xb] = float(pair.W[xa, xb] @ integ)
    return out


def kinetic_matrix(basis: BasisSet,
                   pairs: dict[tuple[int, int], ShellPair] | None = None
                   ) -> np.ndarray:
    """Full AO kinetic-energy matrix, shape ``(nbf, nbf)``."""
    if pairs is None:
        pairs = basis.shell_pairs()
    T = np.zeros((basis.nbf, basis.nbf))
    for (i, j), pair in pairs.items():
        blk = kinetic_block(pair)
        si, sj = basis.shell_slice(i), basis.shell_slice(j)
        T[si, sj] = blk
        if i != j:
            T[sj, si] = blk.T
    return T
