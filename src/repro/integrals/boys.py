"""The Boys function F_m(T), the radial kernel of every Coulomb integral.

Evaluated for a whole vector of T values at once (vectorization over
primitive pairs is what keeps the pure-Python integral engine usable).
One algorithm, switched on the argument alone:

* ``T < T_c``: the top order by a 7-term Taylor expansion about the
  nearest point of a pre-tabulated grid (spacing 1/32, so grid points
  and offsets are exact in binary), then the downward recursion
  ``F_{m-1}(T) = (2T F_m(T) + e^-T) / (2m - 1)`` (every term positive:
  stable at any T);
* ``T >= T_c``: ``F_0(T) = sqrt(pi / T) / 2`` (``erf(sqrt(50))`` is 1
  in double precision), then the upward recursion
  ``F_{m+1}(T) = ((2m + 1) F_m(T) - e^-T) / 2T``, which loses nothing
  while ``e^-T`` is small against ``(2m + 1) F_m`` — up to ``m`` of
  about ``T_c``, far beyond any shell quartet.

The table of a top order is generated lazily, once, from the closed
form ``F_m(T) = Gamma(m + 1/2) P(m + 1/2, T) / (2 T^(m + 1/2))``, which
is thereby the definition the table and the tests share, not a second
runtime path.  Every operation is elementwise, so a value's bits depend
on its own ``(mmax, T)`` only — never on what else rides in the call.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma, gammainc

__all__ = ["boys", "boys_single"]

#: Switch point between the tabulated and the asymptotic branch.
_T_SWITCH = 50.0
#: Grid spacing and its inverse (powers of two: ``T * _INV_STEP`` and
#: ``k * _STEP`` are exact).
_STEP = 1.0 / 32.0
_INV_STEP = 32.0
_NGRID = int(_T_SWITCH * _INV_STEP) + 1
#: Taylor terms.  |dT| <= 1/64 leaves a remainder below
#: F_{m+7} / (64^7 7!) < 5e-17 F_m.
_NTERMS = 7

#: ``mmax -> (_NTERMS, _NGRID)`` Taylor coefficients; rows are immutable
#: once stored.  Two threads racing on a missing order both compute the
#: same bits and ``setdefault`` keeps one — no lock, so nothing for a
#: forked worker to inherit in a held state.
_TABLES: dict[int, np.ndarray] = {}


def _taylor_table(mmax: int) -> np.ndarray:
    """``tab[k, i] = F_{mmax+k}(T_i) (-1)^k / k!`` on the grid, so that
    ``F_mmax(T_i + d) = sum_k tab[k, i] d^k``."""
    tab = _TABLES.get(mmax)
    if tab is None:
        grid = np.arange(_NGRID) * _STEP
        # closed form a few orders above the highest row, then downward:
        # the recursion damps the ~5e-15 of gammainc to below 1e-15
        top = mmax + 2 * (_NTERMS - 1)
        f = np.empty(_NGRID)
        f[0] = 1.0 / (2 * top + 1)
        f[1:] = (gamma(top + 0.5) * gammainc(top + 0.5, grid[1:])
                 / (2.0 * grid[1:] ** (top + 0.5)))
        emt = np.exp(-grid)
        tab = np.empty((_NTERMS, _NGRID))
        for m in range(top, mmax, -1):
            f = (2.0 * grid * f + emt) / (2.0 * m - 1.0)
            k = m - 1 - mmax
            if k < _NTERMS:
                tab[k] = f * ((-1.0) ** k / math.factorial(k))
        tab = _TABLES.setdefault(mmax, tab)
    return tab


def _tabulated(mmax: int, t: np.ndarray, out: np.ndarray) -> None:
    """Rows ``F_0..F_mmax`` for ``0 <= t <= T_c`` into ``out``."""
    tab = _taylor_table(mmax)
    d = t * _INV_STEP
    d += 0.5
    idx = d.astype(np.intp)                  # nearest grid point
    np.multiply(idx, _STEP, out=d)
    np.subtract(t, d, out=d)                 # |d| <= 1/64, exact
    top = out[mmax]
    coef = np.empty_like(d)
    # indices are in range by construction; "clip" only selects numpy's
    # unbuffered gather
    tab[_NTERMS - 1].take(idx, out=top, mode="clip")
    for k in range(_NTERMS - 2, -1, -1):
        top *= d
        tab[k].take(idx, out=coef, mode="clip")
        top += coef
    if mmax:
        emt = np.exp(-t)
        t2 = t + t
        for m in range(mmax, 0, -1):
            row = out[m - 1]
            np.multiply(t2, out[m], out=row)
            row += emt
            row /= 2.0 * m - 1.0


def _asymptotic(mmax: int, t: np.ndarray, out: np.ndarray) -> None:
    """Rows ``F_0..F_mmax`` for ``t >= T_c`` into ``out``."""
    f0 = out[0]
    np.divide(np.pi, t, out=f0)
    np.sqrt(f0, out=f0)
    f0 *= 0.5
    if mmax:
        emt = np.exp(-t)
        t2 = t + t
        for m in range(mmax):
            row = out[m + 1]
            np.multiply(out[m], 2.0 * m + 1.0, out=row)
            row -= emt
            row /= t2


def boys(mmax: int, t: np.ndarray) -> np.ndarray:
    """Boys functions F_0..F_mmax for an array of arguments.

    Parameters
    ----------
    mmax:
        Highest order needed (inclusive).
    t:
        Arguments, any shape; must be finite and >= 0 (``ValueError``
        otherwise — a negative ``T`` would index the table from its end).

    Returns
    -------
    Array of shape ``(mmax + 1, *t.shape)`` with ``out[m] = F_m(t)``,
    within 2e-14 relative of the exact value.
    """
    t = np.asarray(t, dtype=np.float64)
    flat = t.reshape(-1)
    out = np.empty((mmax + 1, flat.size))
    if flat.size:
        # NaN propagates through both; they also pick the branch
        lo, hi = float(flat.min()), float(flat.max())
        if not (lo >= 0.0 and hi < math.inf):
            bad = float(flat[~((flat >= 0.0) & (flat < np.inf))][0])
            raise ValueError("boys: arguments must be finite and >= 0, "
                             f"got {bad!r}")
        if hi < _T_SWITCH:
            _tabulated(mmax, flat, out)
        elif lo >= _T_SWITCH:
            _asymptotic(mmax, flat, out)
        else:
            # arguments past the switch ride through the table branch at
            # T_c (finite) and are then overwritten column-wise, instead
            # of being masked out of every row
            _tabulated(mmax, np.minimum(flat, _T_SWITCH), out)
            far = np.flatnonzero(flat >= _T_SWITCH)
            rows = np.empty((mmax + 1, far.size))
            _asymptotic(mmax, flat.take(far), rows)
            out[:, far] = rows
    return out.reshape((mmax + 1, *t.shape))


def boys_single(m: int, t: float) -> float:
    """Scalar convenience wrapper around :func:`boys`."""
    return float(boys(m, np.array([t]))[m, 0])
