"""McMurchie-Davidson Hermite machinery, vectorized over primitive pairs.

Two building blocks:

* :func:`hermite_e` — expansion coefficients E_t^{ij} that express a
  product of two 1-D Cartesian Gaussians as a sum of Hermite Gaussians;
* :func:`hermite_r_tri` — the Hermite Coulomb integrals R_{tuv} built on
  the Boys function, recursed over exactly the auxiliary orders and
  index slabs that entries with ``t+u+v <= L`` can reach.

Both are vectorized over an arbitrary trailing axis of primitive
(pair/quartet) data, so a whole contracted shell pair is expanded in a
handful of numpy calls — this mirrors the paper's "short vector
instructions" design point: the innermost ERI work is data-parallel.
"""

from __future__ import annotations

import numpy as np

from .boys import boys

__all__ = ["hermite_e", "hermite_r_tri", "gaussian_product"]


def gaussian_product(a: np.ndarray, A: np.ndarray, b: np.ndarray,
                     B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian product rule for arrays of exponents.

    Parameters
    ----------
    a, b:
        Primitive exponents, shape ``(n,)``.
    A, B:
        Centers, shape ``(3,)`` (shared across the primitive axis).

    Returns
    -------
    ``(p, P)`` with total exponents ``p = a + b`` shape ``(n,)`` and
    product centers ``P`` shape ``(n, 3)``.
    """
    p = a + b
    P = (a[:, None] * A[None, :] + b[:, None] * B[None, :]) / p[:, None]
    return p, P


def hermite_e(la: int, lb: int, a: np.ndarray, b: np.ndarray,
              ab_dist: float | np.ndarray) -> np.ndarray:
    """Hermite expansion coefficients for one Cartesian dimension.

    Parameters
    ----------
    la, lb:
        Maximum 1-D angular momenta on the two centers.
    a, b:
        Primitive exponents, shape ``(n,)`` (already formed as all
        pairs, i.e. ``n = nprimA * nprimB``).
    ab_dist:
        ``A_dim - B_dim`` for this dimension (scalar; both shells share
        their centers across primitives).

    Returns
    -------
    ``E`` of shape ``(la+1, lb+1, la+lb+1, n)`` where ``E[i, j, t]`` are
    the coefficients of the Hermite Gaussian ``Lambda_t`` in the product
    ``G_i(a, A) G_j(b, B)``; entries with ``t > i + j`` are zero.

    The overlap prefactor ``exp(-mu * AB^2)`` is folded into
    ``E[0, 0, 0]`` (standard convention), so 1-D overlaps are simply
    ``E[i, j, 0] * sqrt(pi / p)``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[0]
    p = a + b
    mu = a * b / p
    AB = ab_dist
    E = np.zeros((la + 1, lb + 1, la + lb + 2, n))
    E[0, 0, 0] = np.exp(-mu * AB * AB)
    one_over_2p = 0.5 / p
    PA = -(b / p) * AB   # P - A
    PB = (a / p) * AB    # P - B
    # raise i (bra index) first
    for i in range(1, la + 1):
        for t in range(i + 1):
            term = PA * E[i - 1, 0, t]
            if t > 0:
                term = term + one_over_2p * E[i - 1, 0, t - 1]
            term = term + (t + 1) * E[i - 1, 0, t + 1]
            E[i, 0, t] = term
    # then raise j at every i
    for j in range(1, lb + 1):
        for i in range(la + 1):
            for t in range(i + j + 1):
                term = PB * E[i, j - 1, t]
                if t > 0:
                    term = term + one_over_2p * E[i, j - 1, t - 1]
                term = term + (t + 1) * E[i, j - 1, t + 1]
                E[i, j, t] = term
    return E[:, :, : la + lb + 1]


def hermite_r_tri(L: int, p: np.ndarray, PQ: np.ndarray,
                  boys_order: int | None = None) -> np.ndarray:
    """Hermite Coulomb integrals R_{tuv}(p, PQ) for ``t + u + v <= L``.

    Parameters
    ----------
    L:
        Highest total Hermite order a caller gathers.
    p:
        Combined exponents, shape ``(n,)`` (for ERIs this is the reduced
        exponent ``alpha = p*q/(p+q)``; for nuclear attraction it is
        ``p`` itself).
    PQ:
        Displacement vectors, shape ``(n, 3)``.
    boys_order:
        The order the Boys table is recursed down from, ``>= L``
        (default ``L``, what the batched engine uses: a ~3x shorter Boys
        recursion).  The per-quartet reference kernels pass ``3 * L``:
        their ``F_0..F_L`` then carry the rounding of the downward
        recursion from ``3L`` that the full ``(L, L, L)`` box performs,
        so every triangle entry is bit-identical to that box (the oracle
        in ``tests/integrals/hermite_oracle.py``).

    Returns
    -------
    ``R`` of shape ``(L+1, L+1, L+1, n)``.  The standard recursion raises
    ``t``, then ``u``, then ``v``, each step consuming one of ``L + 1``
    auxiliary orders ``R^(o)_{000} = (-2p)^o F_o(T)``; step ``k`` of an
    index is one whole-slab vector operation over the orders and lower
    indices below ``L + 1 - k`` — all that entries with
    ``o + t + u + v <= L`` can still reach.  Entries with
    ``t + u + v > L`` are outside the contract: their values are
    unspecified, and where no slab reaches them the table is left
    uninitialised (only the ``v = 0`` plane, the one slab read before it
    is written, is cleared).  Every operation is elementwise, so an
    entry's bits depend only on ``boys_order`` and its own ``(t, u, v)``
    — never on what else rides in the call.
    """
    if boys_order is None:
        boys_order = L
    p = np.asarray(p, dtype=np.float64)
    PQ = np.asarray(PQ, dtype=np.float64)
    n = p.shape[0]
    X, Y, Z = PQ[:, 0], PQ[:, 1], PQ[:, 2]
    # (x^2 + y^2) + z^2: the bits of ``(PQ * PQ).sum(axis=1)`` without a
    # length-3 reduction per primitive
    F = boys(boys_order, p * (X * X + Y * Y + Z * Z))  # (boys_order+1, n)
    # R[order, t, u, v, n]
    R = np.empty((L + 1, L + 1, L + 1, L + 1, n))
    R[:, :, :, 0] = 0.0
    minus2p = -2.0 * p
    pw = np.ones(n)
    for order in range(L + 1):
        R[order, 0, 0, 0] = pw * F[order]
        pw = pw * minus2p
    for t in range(1, L + 1):
        hi = L + 1 - t
        acc = X * R[1:hi + 1, t - 1, 0, 0]
        if t > 1:
            acc += (t - 1) * R[1:hi + 1, t - 2, 0, 0]
        R[:hi, t, 0, 0] = acc
    for u in range(1, L + 1):
        hi = L + 1 - u
        acc = Y * R[1:hi + 1, :hi, u - 1, 0]
        if u > 1:
            acc += (u - 1) * R[1:hi + 1, :hi, u - 2, 0]
        R[:hi, :hi, u, 0] = acc
    for v in range(1, L + 1):
        hi = L + 1 - v
        acc = Z * R[1:hi + 1, :hi, :hi, v - 1]
        if v > 1:
            acc += (v - 1) * R[1:hi + 1, :hi, :hi, v - 2]
        R[:hi, :hi, :hi, v] = acc
    return R[0]
