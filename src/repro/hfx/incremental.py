"""Incremental Fock builds (density-difference screening).

The paper's scheme is "specifically tailored for ab initio MD": across
SCF iterations (and across MD steps, where the converged density of the
previous step seeds the next), the density changes by ever smaller
increments.  Building J and K from the *difference* density lets the
Cauchy-Schwarz screen absorb |dD| and skip most quartets late in the
convergence — the same integrals budget then buys tighter thresholds.

:class:`IncrementalExchange` is the engine every direct-mode exact SCF
builds through (:func:`repro.scf.fock.make_jk_engine`);
:func:`incremental_survival` is the vectorized model used for synthetic
condensed-phase statistics.
"""

from __future__ import annotations

import numpy as np

from ..basis.basisset import BasisSet
from ..integrals.schwarz import surviving_partners
from ..scf.fock import DirectJKBuilder

__all__ = ["IncrementalExchange", "REBUILD_EVERY", "incremental_survival"]

#: Builds from one full build to the next: the first build at a
#: geometry is full, and so is every ``REBUILD_EVERY``-th after it.  The
#: increment walks in between screen against ``eps / REBUILD_EVERY``,
#: so what they drop, summed over the cycle, stays within what one full
#: build may drop.
REBUILD_EVERY = 16

#: Loosest base threshold of the increment walks (the default
#: ``screen_eps``).  What a full build drops is a fixed function of D;
#: what an increment walk drops is path-dependent noise in F, which the
#: SCF's commutator test sees.  A looser ``eps`` keeps its full builds
#: but screens the increments as a default-threshold run would, so a
#: loose screen never stalls a tight convergence test.
INCREMENT_EPS_CEILING = 1e-10


class IncrementalExchange(DirectJKBuilder):
    """Direct J/K builds from the density increment — the paper's
    incremental Fock build.  (The name predates J: the benchmark probes
    read it, with :meth:`update`, :attr:`last_quartets` and the
    ``total_quartets_*`` totals.)

    The engine keeps ``(D_ref, J, K)``.  Each :meth:`build` that wants
    both J and K walks ``dD = D - D_ref`` once through
    :meth:`DirectJKBuilder.build`, screening each quartet by
    ``Q_ij Q_kl`` times the largest ``|dD|`` over the six shell blocks
    its J and K contractions touch, against :attr:`increment_eps`
    (``eps / rebuild_every``, with ``eps`` capped at
    :data:`INCREMENT_EPS_CEILING`), and adds the increments to the
    running pair.  The first build after construction or :meth:`reset`,
    and every ``rebuild_every``-th build after it, is the plain full
    build bit for bit.

    J-only and K-only builds, :meth:`build_response` (perturbation
    densities of the Newton solver, which must never become ``D_ref``)
    and the SCF drivers' Newton-phase Fock builds run the plain full
    build and neither read nor move the history.  ``reset(basis)`` at a
    geometry jump drops it, so it never spans two geometries and no
    snapshot carries it.

    Executor, kernel and fault tolerance are the direct builder's: an
    unrecoverable pool degrades this and later builds to the serial
    executor, and the running pair is unaffected because the lost walk
    is simply re-run serially.
    """

    def __init__(self, basis: BasisSet, eps: float = 1e-10,
                 rebuild_every: int = REBUILD_EVERY, pool=None, config=None):
        super().__init__(basis, eps=eps, pool=pool, config=config)
        self.rebuild_every = rebuild_every
        self.total_quartets_incremental = 0
        self.total_quartets_full = 0
        self._drop_history()

    def _drop_history(self) -> None:
        nbf = self.basis.nbf
        self.J = np.zeros((nbf, nbf))
        self.K = np.zeros((nbf, nbf))
        self.D_ref = np.zeros((nbf, nbf))
        self.builds = 0
        self.last_quartets = 0

    def reset(self, basis: BasisSet | None = None) -> None:
        """Drop the increment history (geometry jump, restore).

        With ``basis`` given, the engine also rebinds to the new basis
        (fresh shell pairs and Schwarz bounds, pool re-targeted);
        cumulative quartet totals survive so :attr:`savings` still
        describes the whole logical run.
        """
        if basis is not None and basis is not self.basis:
            super().reset(basis)
        self._drop_history()

    @property
    def increment_eps(self) -> float:
        """Screening threshold of the increment walks."""
        return min(self.eps, INCREMENT_EPS_CEILING) / self.rebuild_every

    def build(self, D: np.ndarray, want_j: bool = True, want_k: bool = True
              ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """J and K by advancing the history to ``D``; a J-only or
        K-only build is the plain full build."""
        if not (want_j and want_k):
            return super().build(D, want_j, want_k)
        tr = self.config.trace
        full = self.builds % self.rebuild_every == 0
        with tr.span("kinc.update", cat="hfx", full=full,
                     build=self.builds):
            if full:
                self.J, self.K = super().build(D)
            else:
                dD = D - self.D_ref
                dJ, dK = super().build(dD, blocks=self._block_max(dD),
                                       eps=self.increment_eps)
                self.J += dJ
                self.K += dK
        computed = self.quartets_computed
        skipped = self.quartets_total - computed
        self.D_ref = D.copy()
        self.builds += 1
        self.last_quartets = computed
        self.total_quartets_incremental += computed
        self.total_quartets_full += self.quartets_total
        if tr.enabled:
            tr.metrics.count("kinc.builds", 1)
            tr.metrics.count("kinc.quartets", computed)
            tr.metrics.count("kinc.quartets_skipped", skipped)
        return self.J.copy(), self.K.copy()

    def build_response(self, d: np.ndarray, want_j: bool = True,
                       want_k: bool = True):
        """Perturbation densities bypass the history: a response
        density as ``D_ref`` would poison every later increment."""
        return super().build(d, want_j, want_k)

    def update(self, D: np.ndarray) -> np.ndarray:
        """Advance the history to ``D``; returns the running K."""
        return self.build(D)[1]

    def _block_max(self, M: np.ndarray) -> np.ndarray:
        """max|M| per shell block, shape (nshell, nshell)."""
        off = self.basis.offsets
        rows = np.maximum.reduceat(np.abs(M), off, axis=0)
        return np.maximum.reduceat(rows, off, axis=1)

    @property
    def savings(self) -> float:
        """Fraction of quartets skipped so far across all builds."""
        tot = self.total_quartets_full
        if tot == 0:
            return 0.0
        return 1.0 - self.total_quartets_incremental / tot


def incremental_survival(q: np.ndarray, eps: float,
                         delta: float) -> tuple[int, int]:
    """Model: quartets surviving ``Q_ij Q_kl * delta >= eps`` out of the
    unique pairs of the Schwarz list ``q`` (the one surviving-partner
    count, :func:`repro.integrals.schwarz.surviving_partners`, with
    ``scale=delta``; used for condensed-phase statistics where quartets
    are never materialized).

    Returns ``(surviving, total)`` unique quartet counts.
    """
    q = np.sort(np.asarray(q, dtype=np.float64))[::-1]
    n = len(q)
    end = surviving_partners(q, eps, scale=delta)
    return int((end - np.arange(n)).sum()), n * (n + 1) // 2
