"""The whole-slab Hermite Coulomb recursion ``hermite_r_tri`` replaced
under ``src/``, which lives on here as the oracle: independent maxima per
index, any number of auxiliary orders, and every step a vector operation
over *all* orders and lower indices — nothing trimmed to what a caller
can still reach.
"""

import numpy as np

from repro.integrals.boys import boys


def coulomb_recursion(tmax: int, umax: int, vmax: int, norder: int,
                      boys_order: int, p: np.ndarray,
                      PQ: np.ndarray) -> np.ndarray:
    """R_{tuv}(p, PQ), shape ``(tmax+1, umax+1, vmax+1, n)``.

    Carries ``norder + 1`` auxiliary orders of a Boys table recursed
    down from ``boys_order >= norder``; an entry is exact whenever
    ``t + u + v <= norder`` (each step consumes one order), and holds a
    finite partial sum otherwise.
    """
    p = np.asarray(p, dtype=np.float64)
    PQ = np.asarray(PQ, dtype=np.float64)
    n = p.shape[0]
    F = boys(boys_order, p * (PQ * PQ).sum(axis=1))
    # R^(order)_{000} = (-2p)^order F_order(T)
    minus2p = -2.0 * p
    R = np.zeros((norder + 1, tmax + 1, umax + 1, vmax + 1, n))
    pw = np.ones(n)
    for order in range(norder + 1):
        R[order, 0, 0, 0] = pw * F[order]
        pw = pw * minus2p
    X, Y, Z = PQ[:, 0], PQ[:, 1], PQ[:, 2]
    hi = norder + 1
    for t in range(1, tmax + 1):
        acc = X * R[1:hi, t - 1, 0, 0]
        if t > 1:
            acc += (t - 1) * R[1:hi, t - 2, 0, 0]
        R[: hi - 1, t, 0, 0] = acc
    for u in range(1, umax + 1):
        acc = Y * R[1:hi, :, u - 1, 0]
        if u > 1:
            acc += (u - 1) * R[1:hi, :, u - 2, 0]
        R[: hi - 1, :, u, 0] = acc
    for v in range(1, vmax + 1):
        acc = Z * R[1:hi, :, :, v - 1]
        if v > 1:
            acc += (v - 1) * R[1:hi, :, :, v - 2]
        R[: hi - 1, :, :, v] = acc
    return R[0]


def hermite_r(tmax: int, umax: int, vmax: int, p: np.ndarray,
              PQ: np.ndarray) -> np.ndarray:
    """The full box: ``tmax + umax + vmax + 1`` auxiliary orders, every
    entry exact."""
    L = tmax + umax + vmax
    return coulomb_recursion(tmax, umax, vmax, L, L, p, PQ)
