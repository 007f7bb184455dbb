"""Exchange-correlation functionals: Slater/LDA, PW92, PBE, and the
hybrid mixing rules for PBE0.

Spin-restricted (closed-shell) throughout.  Energy densities follow the
libxc convention: ``exc`` is energy per unit volume as a function of the
density ``rho`` and the gradient invariant ``sigma = |grad rho|^2``;
potentials ``vrho = d exc / d rho`` and ``vsigma = d exc / d sigma`` are
the closed forms' analytic derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["lda_exchange", "pw92_correlation", "pbe_exchange",
           "pbe_correlation", "Functional", "FUNCTIONALS", "get_functional"]

_CX = -0.75 * (3.0 / np.pi) ** (1.0 / 3.0)
_TINY = 1e-30


# --------------------------------------------------------------------------
# LDA pieces (analytic derivatives)
# --------------------------------------------------------------------------

def lda_exchange(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slater exchange: energy density (per volume) and vrho."""
    rho = np.maximum(rho, _TINY)
    r13 = rho ** (1.0 / 3.0)
    exc = _CX * r13 * rho          # = Cx rho^(4/3)
    vrho = (4.0 / 3.0) * _CX * r13
    return exc, vrho


# PW92 parameters for the unpolarized case (zeta = 0)
_PW92 = dict(A=0.031091, a1=0.21370, b1=7.5957, b2=3.5876, b3=1.6382,
             b4=0.49294)


def _pw92_eps(rs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PW92 correlation energy per electron (unpolarized) and its
    derivative ``d eps / d rs``."""
    p = _PW92
    srs = np.sqrt(rs)
    den = 2.0 * p["A"] * (p["b1"] * srs + p["b2"] * rs
                          + p["b3"] * rs * srs + p["b4"] * rs * rs)
    log = np.log1p(1.0 / den)
    eps = -2.0 * p["A"] * (1.0 + p["a1"] * rs) * log
    dden = 2.0 * p["A"] * (0.5 * p["b1"] / srs + p["b2"]
                           + 1.5 * p["b3"] * srs + 2.0 * p["b4"] * rs)
    # d log1p(1/den) / d rs = -dden / (den (den + 1))
    deps = -2.0 * p["A"] * (p["a1"] * log
                            - (1.0 + p["a1"] * rs) * dden / (den * (den + 1.0)))
    return eps, deps


def pw92_correlation(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PW92 LDA correlation: energy density and vrho.

    vrho = eps + rho * d eps/d rho = eps - (rs/3) d eps/d rs.
    """
    rho = np.maximum(rho, _TINY)
    rs = (3.0 / (4.0 * np.pi * rho)) ** (1.0 / 3.0)
    eps, deps = _pw92_eps(rs)
    exc = eps * rho
    vrho = eps - (rs / 3.0) * deps
    return exc, vrho


# --------------------------------------------------------------------------
# PBE pieces (closed-form energies and derivatives)
# --------------------------------------------------------------------------

_PBE_KAPPA = 0.804
_PBE_MU = 0.2195149727645171
_PBE_BETA = 0.06672455060314922
_PBE_GAMMA = (1.0 - np.log(2.0)) / np.pi ** 2


def pbe_exchange(rho, sigma):
    """PBE exchange: (exc, vrho, vsigma), energy per volume.

    ``exc = Cx rho^(4/3) Fx(s2)`` with ``s2 = sigma / (4 kf^2 rho^2)``
    proportional to ``sigma rho^(-8/3)``."""
    rho = np.maximum(np.asarray(rho, float), _TINY)
    sigma = np.asarray(sigma, float)
    kf = (3.0 * np.pi ** 2 * rho) ** (1.0 / 3.0)
    den = 4.0 * kf * kf * rho * rho                  # sigma / s2
    s2 = np.maximum(sigma, 0.0) / den
    u = 1.0 + _PBE_MU * s2 / _PBE_KAPPA
    fx = 1.0 + _PBE_KAPPA - _PBE_KAPPA / u
    dfx = _PBE_MU / (u * u)                          # d Fx / d s2
    ex_lda = _CX * rho ** (4.0 / 3.0)
    exc = ex_lda * fx
    vrho = (4.0 / 3.0) * _CX * rho ** (1.0 / 3.0) * fx \
        - (8.0 / 3.0) * ex_lda * dfx * s2 / rho
    vsigma = ex_lda * dfx / den
    return exc, vrho, vsigma


def pbe_correlation(rho, sigma):
    """PBE correlation, unpolarized: (exc, vrho, vsigma), energy per
    volume.

    ``exc = rho (eps_PW92 + H(t2, A))`` with ``t2 = sigma / (4 ks^2
    rho^2)`` proportional to ``sigma rho^(-7/3)`` and ``A`` a function of
    ``eps_PW92``."""
    rho = np.maximum(np.asarray(rho, float), _TINY)
    sigma = np.asarray(sigma, float)
    rs = (3.0 / (4.0 * np.pi * rho)) ** (1.0 / 3.0)
    eps, deps = _pw92_eps(rs)
    kf = (3.0 * np.pi ** 2 * rho) ** (1.0 / 3.0)
    ks = np.sqrt(4.0 * kf / np.pi)
    grad = np.sqrt(np.maximum(sigma, 0.0))
    t2 = (grad / (2.0 * ks * rho)) ** 2
    expo = np.exp(-eps / _PBE_GAMMA)
    A = _PBE_BETA / _PBE_GAMMA / np.maximum(expo - 1.0, _TINY)
    num = 1.0 + A * t2
    den = 1.0 + A * t2 + A * A * t2 * t2
    y = _PBE_BETA / _PBE_GAMMA * t2 * num / den
    H = _PBE_GAMMA * np.log1p(y)
    exc = (eps + H) * rho
    # H = gamma log1p(beta/gamma t2 q), q = num/den; with g = A t2,
    # dq/dt2 = -A r and dq/dA = -t2 r, r = g (2 + g) / den^2 formed
    # from bounded ratios
    g = A * t2
    r = (g / den) * ((2.0 + g) / den)
    dH = _PBE_BETA / (1.0 + y)                       # dH / d(t2 q)
    dH_dt2 = dH * (num / den - t2 * A * r)
    dA_deps = np.where(expo - 1.0 > _TINY, A * A * expo / _PBE_BETA, 0.0)
    dH_deps = -dH * t2 * t2 * r * dA_deps
    # d rs / d rho = -rs / (3 rho);  d t2 / d rho = -(7/3) t2 / rho
    vrho = eps + H - (rs / 3.0) * deps * (1.0 + dH_deps) \
        - (7.0 / 3.0) * dH_dt2 * t2
    # rho * d t2 / d sigma = 1 / (4 ks^2 rho)
    vsigma = dH_dt2 / (4.0 * ks * ks * rho)
    return exc, vrho, vsigma


# --------------------------------------------------------------------------
# Functional registry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Functional:
    """A (possibly hybrid) exchange-correlation functional.

    ``hfx_fraction`` is the coefficient of Hartree-Fock exact exchange —
    0 for pure GGAs, 0.25 for PBE0 (the paper's production functional).
    The semilocal exchange is scaled by ``(1 - hfx_fraction)``.
    """

    name: str
    hfx_fraction: float
    needs_gradient: bool

    def evaluate(self, rho: np.ndarray, sigma: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Semilocal (exc, vrho, vsigma) on the grid (exact exchange is
        handled by the Fock build, not here)."""
        key = self.name.lower()
        if key in ("lda", "svwn", "spw92"):
            ex, vx = lda_exchange(rho)
            ec, vc = pw92_correlation(rho)
            z = np.zeros_like(rho)
            return ex + ec, vx + vc, z
        if key in ("pbe", "pbe0"):
            sx = 1.0 - self.hfx_fraction
            ex, vxr, vxs = pbe_exchange(rho, sigma)
            ec, vcr, vcs = pbe_correlation(rho, sigma)
            return sx * ex + ec, sx * vxr + vcr, sx * vxs + vcs
        raise ValueError(f"unknown functional {self.name!r}")


FUNCTIONALS: dict[str, Functional] = {
    "lda": Functional("lda", 0.0, False),
    "pbe": Functional("pbe", 0.0, True),
    "pbe0": Functional("pbe0", 0.25, True),
    "hf": Functional("hf", 1.0, False),
}


def get_functional(name: str) -> Functional:
    """Look up a registered functional by (case-insensitive) name."""
    try:
        return FUNCTIONALS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown functional {name!r}; "
                         f"available: {sorted(FUNCTIONALS)}") from None
