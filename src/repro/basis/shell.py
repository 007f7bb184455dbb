"""Contracted Gaussian shells.

A *shell* is a set of contracted Cartesian Gaussians sharing a center,
an angular momentum ``l``, and a radial contraction.  Shells are the
screening/tasking granularity of the HFX scheme (exactly as in the
paper, where the ERI kernel operates on shell quartets).

Angular momentum convention: Cartesian components in lexicographic
order of ``(lx, ly, lz)`` with ``lx`` descending — e.g. for p:
``x, y, z``; for d: ``xx, xy, xz, yy, yz, zz``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Shell", "cartesian_components", "ncart", "primitive_norm",
           "AM_LABELS"]

AM_LABELS = "spdfgh"


def ncart(l: int) -> int:
    """Number of Cartesian components of angular momentum ``l``."""
    return (l + 1) * (l + 2) // 2


def cartesian_components(l: int) -> list[tuple[int, int, int]]:
    """Cartesian exponent triples ``(lx, ly, lz)`` for angular momentum
    ``l``, in the package-wide canonical order."""
    comps = []
    for lx in range(l, -1, -1):
        for ly in range(l - lx, -1, -1):
            comps.append((lx, ly, l - lx - ly))
    return comps


def _df(n: int) -> float:
    """(2n-1)!! with the (-1)!! = 1 convention, from exact integers
    (``scipy.special.factorial2`` returns ``3!! = 3.0000000000000004``)."""
    return float(math.prod(range(2 * n - 1, 0, -2)))


def _radial_norm(alpha: np.ndarray, l: int) -> np.ndarray:
    """``(2a/pi)^(3/4) (4a)^(l/2)`` for every exponent ``a`` of ``alpha``.

    The powers are taken one scalar at a time: numpy's array ``power``
    may dispatch to a SIMD vector library whose last bit differs from
    the scalar ``pow``, and every integral inherits these norms."""
    return np.array([(2.0 * a / np.pi) ** 0.75 * (4.0 * a) ** (l / 2.0)
                     for a in alpha])


def primitive_norm(alpha: float, lx: int, ly: int, lz: int) -> float:
    """Normalization constant of a primitive Cartesian Gaussian
    ``x^lx y^ly z^lz exp(-alpha r^2)``."""
    pref = _radial_norm(np.array([alpha], dtype=np.float64), lx + ly + lz)
    return float(pref[0] / np.sqrt(_df(lx) * _df(ly) * _df(lz)))


@dataclass
class Shell:
    """A contracted Cartesian Gaussian shell.

    Parameters
    ----------
    l:
        Angular momentum (0 = s, 1 = p, ...).
    exps:
        Primitive exponents, shape ``(nprim,)``.
    coefs:
        Raw contraction coefficients as tabulated (without primitive
        normalization), shape ``(nprim,)``.
    center:
        Cartesian center in Bohr.
    atom:
        Index of the parent atom in the molecule (-1 for free-floating).
    """

    l: int
    exps: np.ndarray
    coefs: np.ndarray
    center: np.ndarray
    atom: int = -1
    # per-component normalized contraction coefficients, shape (ncart, nprim)
    norm_coefs: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        # own copies, never views of the caller's arrays (``center`` is
        # typically a row of ``Molecule.coords``): shell pairs and
        # tensors cached over this shell outlive the caller's buffer
        self.exps = np.array(self.exps, dtype=np.float64)
        self.coefs = np.array(self.coefs, dtype=np.float64)
        self.center = np.array(self.center, dtype=np.float64)
        if self.exps.shape != self.coefs.shape or self.exps.ndim != 1:
            raise ValueError("exps and coefs must be 1-D arrays of equal length")
        if self.l < 0:
            raise ValueError("angular momentum must be non-negative")
        self._normalize()

    @classmethod
    def with_weights(cls, l: int, exps, weights, center) -> "Shell":
        """A free-floating shell whose contraction is taken literally:
        every component uses ``weights`` (shape ``(nprim,)``) as its
        ``norm_coefs`` row, and nothing is normalized — the auxiliary
        raised/lowered shells of derivative integrals, whose weights are
        ``2a``-scaled copies of a normalized shell's and must stay so."""
        sh = object.__new__(cls)
        sh.l, sh.atom = l, -1
        sh.exps = np.array(exps, dtype=np.float64)
        sh.coefs = np.ones(len(sh.exps))
        sh.center = np.array(center, dtype=np.float64)
        sh.norm_coefs = np.tile(np.asarray(weights, dtype=np.float64),
                                (sh.nfunc, 1))
        return sh

    # --- derived ------------------------------------------------------------

    @property
    def nprim(self) -> int:
        """Number of primitives in the contraction."""
        return len(self.exps)

    @property
    def nfunc(self) -> int:
        """Number of basis functions (Cartesian components)."""
        return ncart(self.l)

    @property
    def components(self) -> list[tuple[int, int, int]]:
        """Cartesian components in canonical order."""
        return cartesian_components(self.l)

    def _normalize(self) -> None:
        """Build per-component contraction coefficients that make each
        contracted function unit-normalized.

        For each component ``(lx,ly,lz)`` the contracted self-overlap is
        computed in closed form and folded into the coefficients, so the
        integral engine can treat coefficients as plain weights.
        """
        a, l = self.exps, self.l
        pref = _radial_norm(a, l)
        aa = a[:, None] + a[None, :]
        # S_ij = <g_i|g_j> of *unnormalized* primitives, up to the
        # per-component double factorials
        base = (np.pi / aa) ** 1.5 / (2.0 * aa) ** l
        df = [_df(n) for n in range(l + 1)]
        out = np.empty((self.nfunc, self.nprim))
        for ic, (lx, ly, lz) in enumerate(self.components):
            w = self.coefs * (pref / np.sqrt(df[lx] * df[ly] * df[lz]))
            # contracted self-overlap: sum_ij w_i w_j S_ij
            sij = base * df[lx] * df[ly] * df[lz]
            out[ic] = w / np.sqrt(float(w @ sij @ w))
        self.norm_coefs = out

    # --- screening helpers ---------------------------------------------------

    def extent(self, threshold: float = 1e-10) -> float:
        """Radius (Bohr) beyond which every primitive has decayed below
        ``threshold`` relative to its peak — used for distance prescreening."""
        amin = float(self.exps.min())
        return float(np.sqrt(max(-np.log(threshold), 1.0) / amin))

    def __repr__(self) -> str:  # compact, for debugging task lists
        return (f"Shell(l={AM_LABELS[self.l]}, nprim={self.nprim}, "
                f"atom={self.atom})")
