"""Nuclear-attraction integrals (point charges) via Hermite Coulomb
integrals."""

from __future__ import annotations

import numpy as np

from ..basis.basisset import BasisSet
from ..basis.shellpair import ShellPair
from ..chem.molecule import Molecule
from .mcmurchie import hermite_r_tri

__all__ = ["nuclear_block", "nuclear_matrix"]


def nuclear_block(pair: ShellPair, charges: np.ndarray,
                  centers: np.ndarray) -> np.ndarray:
    """Nuclear-attraction sub-block for one shell pair.

    Parameters
    ----------
    charges:
        Point-charge magnitudes ``Z_C``, shape ``(nc,)`` (the integral
        carries the electron-nucleus minus sign).
    centers:
        Point-charge positions in Bohr, shape ``(nc, 3)``.
    """
    idx, lam = pair.hermite_lambda()   # (nherm,3), (cA,cB,nherm,nprim)
    L = pair.lab
    pref = 2.0 * np.pi / pair.p        # (nprim,)
    out = np.zeros(lam.shape[:2])
    nc = len(charges)
    # one Hermite table over all nuclei (the recursion is elementwise);
    # same bits as the full box on every t+u+v <= L entry (see eri_quartet)
    PC = (pair.P[None, :, :] - centers[:, None, :]).reshape(-1, 3)
    R = hermite_r_tri(L, np.tile(pair.p, nc), PC, boys_order=3 * L)
    Rh = np.ascontiguousarray(               # (nc, nherm, nprim)
        R[idx[:, 0], idx[:, 1], idx[:, 2]].reshape(len(idx), nc, pair.nprim)
        .swapaxes(0, 1))
    for c in range(nc):
        out -= charges[c] * np.einsum("xyhn,hn,n->xy", lam, Rh[c], pref)
    return out


def nuclear_matrix(basis: BasisSet, mol: Molecule | None = None,
                   pairs: dict[tuple[int, int], ShellPair] | None = None
                   ) -> np.ndarray:
    """Full AO nuclear-attraction matrix, shape ``(nbf, nbf)``."""
    if mol is None:
        mol = basis.molecule
    if pairs is None:
        pairs = basis.shell_pairs()
    charges = mol.numbers.astype(np.float64)
    centers = mol.coords
    V = np.zeros((basis.nbf, basis.nbf))
    for (i, j), pair in pairs.items():
        blk = nuclear_block(pair, charges, centers)
        si, sj = basis.shell_slice(i), basis.shell_slice(j)
        V[si, sj] = blk
        if i != j:
            V[sj, si] = blk.T
    return V
