"""The Boys function F_m(T), the radial kernel of every Coulomb integral.

Evaluated for a whole vector of T values at once (vectorization over
primitive pairs is what keeps the pure-Python integral engine usable),
with the numerically stable strategy:

* F_mmax via the regularized lower incomplete gamma function,
* downward recursion F_{m-1}(T) = (2T F_m(T) + e^-T) / (2m - 1),
* Taylor series near T = 0 where the gamma form loses digits.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gamma, gammainc

__all__ = ["boys", "boys_single"]

_SMALL_T = 1e-13


def boys(mmax: int, t: np.ndarray) -> np.ndarray:
    """Boys functions F_0..F_mmax for an array of arguments.

    Parameters
    ----------
    mmax:
        Highest order needed (inclusive).
    t:
        Arguments, any shape; must be >= 0.

    Returns
    -------
    Array of shape ``(mmax + 1, *t.shape)`` with ``out[m] = F_m(t)``.
    """
    t = np.asarray(t, dtype=np.float64)
    flat = t.reshape(-1)
    out = np.empty((mmax + 1, flat.size))

    small = flat < _SMALL_T
    nsmall = int(np.count_nonzero(small))
    # the usual call has no tiny argument: rows are then written whole,
    # without a boolean-mask gather of ``flat`` and a masked scatter per
    # order (same elementwise values either way)
    big = ~small if nsmall else slice(None)

    if nsmall < flat.size:
        tb = flat[big]
        m = mmax + 0.5
        # F_mmax(T) = Gamma(m) * P(m, T) / (2 T^m)   [P = regularized]
        fm = gamma(m) * gammainc(m, tb) / (2.0 * tb ** m)
        out[mmax, big] = fm
        emt = np.exp(-tb)
        for k in range(mmax, 0, -1):
            fm = (2.0 * tb * fm + emt) / (2.0 * k - 1.0)
            out[k - 1, big] = fm

    if nsmall:
        ts = flat[small]
        for k in range(mmax + 1):
            # F_m(T) ~ 1/(2m+1) - T/(2m+3) + T^2/(2(2m+5))
            out[k, small] = (1.0 / (2 * k + 1)
                             - ts / (2 * k + 3)
                             + ts * ts / (2.0 * (2 * k + 5)))

    return out.reshape((mmax + 1, *t.shape))


def boys_single(m: int, t: float) -> float:
    """Scalar convenience wrapper around :func:`boys`."""
    return float(boys(m, np.array([t]))[m, 0])
