"""The per-shell auxiliary pair the RI integrals read before the
auxiliary side became a ghost pair table (``pair_classes(aux,
ghost=True)``), kept as the oracle its stacked lambdas are held to.

:class:`AuxShellPair` duck-types the part of
:class:`~repro.basis.shellpair.ShellPair` the per-quartet reference
:func:`~repro.integrals.eri.eri_quartet` reads (``p``, ``P``,
``nprim``, ``lab``, ``hermite_lambda``), one auxiliary shell at a time,
with its own loop over components and Hermite orders.
"""

import numpy as np

from repro.integrals.mcmurchie import hermite_e


class AuxShellPair:
    """Hermite view of a single auxiliary shell as a (P, ghost-s) pair.

    The ghost member is a unit s function with zero exponent *folded in
    analytically* — the Gaussian product rule with ``b = 0`` leaves
    ``p = a``, ``P = A`` and an overlap prefactor of 1, so
    :func:`~repro.integrals.mcmurchie.hermite_e` is evaluated at
    ``lb = 0`` with a zero ``b`` array and zero displacement, which is
    numerically exact (no actual zero-exponent Shell is ever built —
    ``Shell`` normalization would divide by zero).
    """

    __slots__ = ("shell", "index", "p", "P", "_lambda_cache")

    def __init__(self, shell, index: int):
        self.shell = shell
        self.index = index
        self.p = np.asarray(shell.exps, dtype=np.float64)
        self.P = np.tile(np.asarray(shell.center, dtype=np.float64),
                         (len(self.p), 1))
        self._lambda_cache = None

    @property
    def nprim(self) -> int:
        return len(self.p)

    @property
    def lab(self) -> int:
        return self.shell.l

    def hermite_lambda(self):
        """``(idx, lam)`` with ``lam`` shaped ``(ncomp, 1, nherm, nprim)``
        — the ghost axis has length 1."""
        if self._lambda_cache is None:
            l = self.shell.l
            comps = self.shell.components
            zeros = np.zeros_like(self.p)
            # same exponents and zero displacement in every dimension:
            # one E table serves x, y, and z
            E = hermite_e(l, 0, self.p, zeros, 0.0)
            idx = np.array([(t, u, v)
                            for t in range(l + 1)
                            for u in range(l + 1 - t)
                            for v in range(l + 1 - t - u)], dtype=np.int64)
            w = self.shell.norm_coefs            # (ncomp, nprim)
            lam = np.zeros((len(comps), 1, len(idx), self.nprim))
            for x, (lx, ly, lz) in enumerate(comps):
                for h, (t, u, v) in enumerate(idx):
                    if t > lx or u > ly or v > lz:
                        continue
                    lam[x, 0, h] = (w[x] * E[lx, 0, t]
                                    * E[ly, 0, u] * E[lz, 0, v])
            self._lambda_cache = (idx, lam)
        return self._lambda_cache


def aux_pairs(aux) -> list[AuxShellPair]:
    """One :class:`AuxShellPair` per shell of the auxiliary basis."""
    return [AuxShellPair(sh, i) for i, sh in enumerate(aux.shells)]
