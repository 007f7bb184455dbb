"""Overlap integrals over contracted Cartesian Gaussians."""

from __future__ import annotations

import numpy as np

from ..basis.basisset import BasisSet
from ..basis.shellpair import ShellPair

__all__ = ["overlap_block", "overlap_matrix"]

_SQRT_PI = np.sqrt(np.pi)


def overlap_block(pair: ShellPair) -> np.ndarray:
    """Overlap sub-block for one shell pair, shape ``(ncompA, ncompB)``."""
    Ex, Ey, Ez = pair.E
    inv_sqrt_p = _SQRT_PI / np.sqrt(pair.p)
    compsA = pair.sha.components
    compsB = pair.shb.components
    out = np.empty((len(compsA), len(compsB)))
    for xa, (lxa, lya, lza) in enumerate(compsA):
        for xb, (lxb, lyb, lzb) in enumerate(compsB):
            s1d = (Ex[lxa, lxb, 0] * Ey[lya, lyb, 0] * Ez[lza, lzb, 0]
                   * inv_sqrt_p ** 3)
            out[xa, xb] = float(pair.W[xa, xb] @ s1d)
    return out


def overlap_matrix(basis: BasisSet,
                   pairs: dict[tuple[int, int], ShellPair] | None = None
                   ) -> np.ndarray:
    """Full AO overlap matrix, shape ``(nbf, nbf)``."""
    if pairs is None:
        pairs = basis.shell_pairs()
    S = np.zeros((basis.nbf, basis.nbf))
    for (i, j), pair in pairs.items():
        blk = overlap_block(pair)
        si, sj = basis.shell_slice(i), basis.shell_slice(j)
        S[si, sj] = blk
        if i != j:
            S[sj, si] = blk.T
    return S
