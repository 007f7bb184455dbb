"""Shell-pair data of the per-quartet reference kernel.

A :class:`ShellPair` expands two contracted shells into their primitive
pair set, applies the Gaussian product rule, and caches the Hermite
expansion coefficients per Cartesian dimension, one pair at a time in
Python.  It feeds :func:`~repro.integrals.eri.eri_quartet` — the
bit-exact reference (``kernel="quartet"``, :meth:`repro.integrals.eri.
ERIEngine.quartet`) — and :func:`~repro.integrals.batch.
eri_quartet_batch`, and the tests hold every faster route to it.  Every
other integral walk (one-electron, in-core tensor, batched direct,
Schwarz, RI, gradient) reads the same quantities stacked per pair class
(:mod:`repro.integrals.pairclass`), the role of CPMD's precomputed pair
lists in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .shell import Shell

__all__ = ["ShellPair", "build_shell_pairs", "hermite_indices"]


def hermite_indices(L: int) -> np.ndarray:
    """The Hermite orders ``(t, u, v)`` with ``t + u + v <= L``, shape
    ``(nherm, 3)``, in the order every Hermite lambda lists them."""
    return np.array([(t, u, v)
                     for t in range(L + 1)
                     for u in range(L + 1 - t)
                     for v in range(L + 1 - t - u)], dtype=np.int64)


@dataclass
class ShellPair:
    """Primitive-pair expansion of a contracted shell pair."""

    sha: Shell
    shb: Shell
    ia: int   # shell indices in the parent basis (for bookkeeping)
    ib: int
    a: np.ndarray = field(init=False)   # (n,) exponents from shell A
    b: np.ndarray = field(init=False)   # (n,) exponents from shell B
    p: np.ndarray = field(init=False)   # (n,) total exponents
    P: np.ndarray = field(init=False)   # (n, 3) product centers
    E: list[np.ndarray] = field(init=False)  # per-dim Hermite coefs
    # combined contraction weights W[compA, compB, n]
    W: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        # local import: breaks the basis <-> integrals package cycle
        from ..integrals.mcmurchie import hermite_e

        A, B = self.sha.center, self.shb.center
        na, nb = self.sha.nprim, self.shb.nprim
        self.a = np.repeat(self.sha.exps, nb)
        self.b = np.tile(self.shb.exps, na)
        self.p = self.a + self.b
        self.P = (self.a[:, None] * A + self.b[:, None] * B) / self.p[:, None]
        la, lb = self.sha.l, self.shb.l
        self.E = [hermite_e(la, lb, self.a, self.b, float(A[d] - B[d]))
                  for d in range(3)]
        ca = self.sha.norm_coefs   # (ncompA, na)
        cb = self.shb.norm_coefs   # (ncompB, nb)
        self.W = np.einsum("xi,yj->xyij", ca, cb).reshape(
            ca.shape[0], cb.shape[0], na * nb)

    @property
    def nprim(self) -> int:
        """Number of primitive pairs."""
        return len(self.p)

    @property
    def lab(self) -> int:
        """Combined angular momentum la + lb."""
        return self.sha.l + self.shb.l

    def hermite_lambda(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened Hermite representation of the pair (cached — every
        ERI quartet this pair participates in reuses it).

        Returns
        -------
        ``(idx, lam)`` where ``idx`` has shape ``(nherm, 3)`` listing the
        Hermite orders ``(t, u, v)`` with ``t+u+v <= lab`` actually
        reachable, and ``lam`` has shape
        ``(ncompA, ncompB, nherm, nprim)`` holding
        ``W * Ex[t] * Ey[u] * Ez[v]`` per component pair.
        """
        cached = getattr(self, "_lambda_cache", None)
        if cached is not None:
            return cached
        la, lb = self.sha.l, self.shb.l
        compsA = self.sha.components
        compsB = self.shb.components
        idx = hermite_indices(la + lb)
        lam = np.zeros((len(compsA), len(compsB), len(idx), self.nprim))
        Ex, Ey, Ez = self.E
        for xa, (lxa, lya, lza) in enumerate(compsA):
            for xb, (lxb, lyb, lzb) in enumerate(compsB):
                w = self.W[xa, xb]
                for h, (t, u, v) in enumerate(idx):
                    if t > lxa + lxb or u > lya + lyb or v > lza + lzb:
                        continue
                    lam[xa, xb, h] = (w * Ex[lxa, lxb, t]
                                      * Ey[lya, lyb, u] * Ez[lza, lzb, v])
        self._lambda_cache = (idx, lam)
        return idx, lam


def build_shell_pairs(shells: list[Shell], threshold: float = 0.0
                      ) -> dict[tuple[int, int], ShellPair]:
    """Build all significant shell pairs ``(i, j)`` with ``i <= j``.

    ``threshold`` drops pairs whose Gaussian overlap prefactor
    ``exp(-mu |AB|^2)`` is below it for every primitive combination —
    the first (cheapest) level of the paper's screening cascade.
    """
    pairs: dict[tuple[int, int], ShellPair] = {}
    for i, sa in enumerate(shells):
        for j in range(i, len(shells)):
            sb = shells[j]
            if threshold > 0.0:
                ab2 = float(((sa.center - sb.center) ** 2).sum())
                mu_min = (sa.exps.min() * sb.exps.min()
                          / (sa.exps.min() + sb.exps.min()))
                if np.exp(-mu_min * ab2) < threshold:
                    continue
            pairs[(i, j)] = ShellPair(sa, sb, i, j)
    return pairs
