"""The PBE and PW92 energy densities as they stood when their potentials
came from central differences.

The energy expressions are kept verbatim as the oracle for
:mod:`repro.scf.functionals`: its closed-form ``exc`` must equal them in
every bit, and its analytic ``vrho``/``vsigma`` must agree with
:func:`central_difference` of them (``tests/scf/test_functionals.py``).
"""

from __future__ import annotations

import numpy as np

from repro.scf.functionals import (_CX, _PBE_BETA, _PBE_GAMMA, _PBE_KAPPA,
                                   _PBE_MU, _PW92, _TINY)


def pw92_eps(rs: np.ndarray) -> np.ndarray:
    """PW92 correlation energy per electron (unpolarized)."""
    p = _PW92
    srs = np.sqrt(rs)
    den = 2.0 * p["A"] * (p["b1"] * srs + p["b2"] * rs
                          + p["b3"] * rs * srs + p["b4"] * rs * rs)
    return -2.0 * p["A"] * (1.0 + p["a1"] * rs) * np.log1p(1.0 / den)


def pbe_x_energy(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """PBE exchange energy density (per volume)."""
    rho = np.maximum(rho, _TINY)
    kf = (3.0 * np.pi ** 2 * rho) ** (1.0 / 3.0)
    s2 = np.maximum(sigma, 0.0) / (4.0 * kf * kf * rho * rho)
    fx = 1.0 + _PBE_KAPPA - _PBE_KAPPA / (1.0 + _PBE_MU * s2 / _PBE_KAPPA)
    ex_lda = _CX * rho ** (4.0 / 3.0)
    return ex_lda * fx


def pbe_c_energy(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """PBE correlation energy density (per volume), unpolarized."""
    rho = np.maximum(rho, _TINY)
    rs = (3.0 / (4.0 * np.pi * rho)) ** (1.0 / 3.0)
    eps = pw92_eps(rs)
    kf = (3.0 * np.pi ** 2 * rho) ** (1.0 / 3.0)
    ks = np.sqrt(4.0 * kf / np.pi)
    grad = np.sqrt(np.maximum(sigma, 0.0))
    t2 = (grad / (2.0 * ks * rho)) ** 2
    expo = np.exp(-eps / _PBE_GAMMA)
    A = _PBE_BETA / _PBE_GAMMA / np.maximum(expo - 1.0, _TINY)
    num = 1.0 + A * t2
    den = 1.0 + A * t2 + A * A * t2 * t2
    H = _PBE_GAMMA * np.log1p(_PBE_BETA / _PBE_GAMMA * t2 * num / den)
    return (eps + H) * rho


def central_difference(g, x: np.ndarray, h: float = 3e-3) -> np.ndarray:
    """``d g / d x`` by fourth-order central differences with a step of
    ``h`` relative to each point's value."""
    hx = h * x
    return (8.0 * (g(x + hx) - g(x - hx))
            - (g(x + 2.0 * hx) - g(x - 2.0 * hx))) / (12.0 * hx)
