"""Incremental exchange builds (density-difference screening).

The paper's scheme is "specifically tailored for ab initio MD": across
SCF iterations (and across MD steps, where the converged density of the
previous step seeds the next), the density changes by ever smaller
increments.  Building K from the *difference* density lets the
Cauchy-Schwarz screen absorb |dD| and skip most quartets late in the
convergence — the same integrals budget then buys tighter thresholds.

:class:`IncrementalExchange` is the real implementation (exact on small
systems, verified against direct builds); :func:`incremental_survival`
is the vectorized model used for synthetic condensed-phase statistics.
"""

from __future__ import annotations

import numpy as np

from ..basis.basisset import BasisSet
from ..integrals.schwarz import surviving_partners
from ..scf.fock import DirectJKBuilder, JKEngine, shell_slices

__all__ = ["IncrementalExchange", "incremental_survival"]


class IncrementalExchange(JKEngine):
    """Exchange builder that screens against the density *increment*.

    Usage: call :meth:`update` with the full current density each SCF
    iteration; it internally differences against the last build, adds
    the screened delta-K, and returns the running K.  As a
    :class:`~repro.scf.fock.JKEngine`, :meth:`build` pairs that K with
    the J of the full :class:`~repro.scf.fock.DirectJKBuilder` the
    engine owns (``full``) — the same builder evaluates the surviving
    delta quartets (serially or on its pool) and serves response
    densities, which must never enter the increment history.

    ``rebuild_every`` forces a full (non-incremental) build periodically
    to stop screened-away contributions from accumulating — standard
    practice in production incremental-Fock codes.

    Fault tolerance is the direct builder's: an unrecoverable pool
    degrades this and later updates to the serial executor (warn once,
    ``pool.degraded_builds``) — the running K is unaffected because the
    lost delta build is simply re-run serially.
    """

    def __init__(self, basis: BasisSet, eps: float = 1e-10,
                 rebuild_every: int = 8, pool=None, config=None):
        from ..runtime.execconfig import resolve_execution

        self.config = resolve_execution(config, owner="IncrementalExchange")
        self.rebuild_every = rebuild_every
        self.full = DirectJKBuilder(basis, eps=eps, pool=pool,
                                    config=self.config)
        self.lease = self.full.lease
        self.lease.owner = "IncrementalExchange"
        self.total_quartets_incremental = 0
        self.total_quartets_full = 0
        self.reset()

    @property
    def basis(self) -> BasisSet:
        return self.full.basis

    @property
    def engine(self):
        """The ERI engine (and its quartet counters) of the full builder."""
        return self.full.engine

    @property
    def eps(self) -> float:
        """Screening threshold — the full builder's, which runs both the
        full and the increment screen."""
        return self.full.eps

    @property
    def Q(self) -> dict:
        """Schwarz bounds of the current geometry."""
        return self.full.Q

    def reset(self, basis: BasisSet | None = None) -> None:
        """Drop the increment history (checkpoint restore, geometry jump).

        The density-difference screen is only valid while ``D_ref`` and
        the accumulated ``K`` describe the *same* Hamiltonian; a
        restored run or a moved geometry must explicitly start a fresh
        history instead of relying on object reconstruction.  With
        ``basis`` given, the engine also rebinds to the new basis
        (fresh shell pairs and Schwarz bounds, pool re-targeted);
        cumulative quartet totals survive so :attr:`savings` still
        describes the whole logical run.
        """
        if basis is not None and basis is not self.basis:
            self.full.reset(basis)
        nbf = self.basis.nbf
        self.K = np.zeros((nbf, nbf))
        self.D_ref = np.zeros((nbf, nbf))
        self.builds = 0
        self.last_quartets = 0

    def build(self, D: np.ndarray, want_j: bool = True, want_k: bool = True
              ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """J from the full builder, K by advancing the history to ``D``."""
        J = self.full.build(D, want_k=False)[0] if want_j else None
        return J, (self.update(D) if want_k else None)

    def build_response(self, d: np.ndarray, want_j: bool = True,
                       want_k: bool = True):
        """Perturbation densities bypass the history: a response
        density as ``D_ref`` would poison every later increment."""
        return self.full.build(d, want_j, want_k)

    # --- Restartable protocol -------------------------------------------------

    def get_state(self) -> dict:
        """Reference density, accumulated K, and screening history.

        The worker pool is never part of the state — a restore runs on
        a freshly spawned pool (or serially) against the same numbers.
        """
        return {
            "kind": "kinc",
            "nbf": int(self.basis.nbf),
            "eps": float(self.eps),
            "rebuild_every": int(self.rebuild_every),
            "K": self.K.copy(),
            "D_ref": self.D_ref.copy(),
            "builds": int(self.builds),
            "last_quartets": int(self.last_quartets),
            "total_quartets_incremental": int(
                self.total_quartets_incremental),
            "total_quartets_full": int(self.total_quartets_full),
        }

    def set_state(self, state: dict) -> None:
        """Continue a snapshotted history bit-identically."""
        from ..runtime.checkpoint import CheckpointError

        if state.get("kind") != "kinc":
            raise CheckpointError(
                f"IncrementalExchange: snapshot holds {state.get('kind')!r} "
                f"state, not 'kinc'")
        if int(state["nbf"]) != self.basis.nbf:
            raise CheckpointError(
                f"IncrementalExchange: snapshot was taken on a "
                f"{state['nbf']}-function basis; this builder has "
                f"{self.basis.nbf}")
        self.full.eps = float(state["eps"])
        self.rebuild_every = int(state["rebuild_every"])
        self.K = np.array(state["K"], dtype=np.float64, copy=True)
        self.D_ref = np.array(state["D_ref"], dtype=np.float64, copy=True)
        self.builds = int(state["builds"])
        self.last_quartets = int(state["last_quartets"])
        self.total_quartets_incremental = int(
            state["total_quartets_incremental"])
        self.total_quartets_full = int(state["total_quartets_full"])

    def _block_max(self, M: np.ndarray) -> np.ndarray:
        """max|M| per shell block, shape (nshell, nshell)."""
        n = self.basis.nshell
        slices = shell_slices(self.basis)
        out = np.empty((n, n))
        for i in range(n):
            si = slices[i]
            for j in range(n):
                out[i, j] = np.abs(M[si, slices[j]]).max()
        return out

    def update(self, D: np.ndarray) -> np.ndarray:
        """Advance to density ``D``; returns the current K estimate.

        The increment screen is the full builder's, fed per-shell-block
        ``max|dD|``: each quartet is bounded by ``Q_ij Q_kl`` times the
        four density blocks the exchange contraction actually touches —
        never by the global ``max|dD|``, which would keep quartets whose
        own density blocks are already converged (and never by the
        bra/ket-internal blocks ``(i,j)``/``(k,l)``, which only Coulomb
        touches and whose use here would over-screen and inflate the
        skip rate).
        """
        tr = self.config.trace
        full = (self.builds % self.rebuild_every == 0)
        with tr.span("kinc.update", cat="hfx", full=full,
                     build=self.builds):
            dD = D - self.D_ref if not full else D.copy()
            if full:
                self.K[:] = 0.0
            with tr.span("kinc.screen", cat="screening", eps=self.eps):
                surviving = self.full._screened_pairs(self._block_max(dD))
            computed = sum(len(kets) for _, _, kets in surviving)
            skipped = self.full.quartets_total - computed
            _, Kdelta, _ = self.full.eval_pairs(surviving, dD, want_j=False,
                                                want_k=True)
            self.K += Kdelta
        self.D_ref = D.copy()
        self.builds += 1
        self.last_quartets = computed
        self.total_quartets_incremental += computed
        self.total_quartets_full += computed + skipped
        if tr.enabled:
            tr.metrics.count("kinc.builds", 1)
            tr.metrics.count("kinc.quartets", computed)
            tr.metrics.count("kinc.quartets_skipped", skipped)
            tr.metrics.absorb_engine(self.engine)
        return self.K.copy()

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
