"""Fock-matrix builds: Coulomb (J) and exact-exchange (K).

Two execution styles, mirroring the paper:

* in-core tensor contraction (reference; only for small validation
  systems),
* *direct* screened shell-quartet builds through
  :class:`repro.integrals.ERIEngine` — the serial analogue of the
  paper's distributed HFX build; the parallel scheme in
  :mod:`repro.hfx` partitions exactly these quartets.

One accumulation, mirroring the paper's class-batched exchange kernel:
:func:`eval_screened_pairs` takes the screen's L-classes of unique
quartets, weights each block by its degeneracy and adds it to *half* of
J (two contractions) and half of K (four images) through flat-index
``np.bincount`` scatters; ``J = Jh + Jh^T`` and ``K = Kh + Kh^T`` supply
the other images, which is exact because the density is symmetric.
Both ERI kernels feed it; they differ only in where a class's blocks
come from.
"""

from __future__ import annotations

import numpy as np

from ..basis.basisset import BasisSet
from ..integrals.eri import ERIEngine, eri_tensor
from ..integrals.pairclass import pair_classes
from ..runtime.boundary import check_jk_route
from ..runtime.pool import PoolLease, RankJob, balance_pairs

__all__ = ["jk_from_tensor", "coulomb_from_tensor", "exchange_from_tensor",
           "JKEngine", "TensorJKEngine", "DirectJKBuilder", "make_jk_engine",
           "eval_screened_pairs"]

# Ceiling, in elements, of the screen's transient bound array: one chunk
# of bra pairs against a whole ket pair class (512 kB of doubles).
_SCREEN_SCRATCH = 1 << 16


def _add_class(Jh: np.ndarray | None, Kh: np.ndarray | None,
               V: np.ndarray, idx: np.ndarray, offsets: np.ndarray,
               D: np.ndarray) -> None:
    """Add one L-class of unique-quartet blocks to the flat half
    matrices ``Jh`` and ``Kh`` (either may be ``None``).

    ``V`` is ``(nq, nA, nB, nC, nD)``, ``idx`` the matching ``(nq, 4)``
    shell indices ``(i, j, k, l)`` and ``D`` the symmetric density.  The
    eight ordered images of ``(ij|kl)``, each weighted by
    ``f = 1 / ((1 + d_ij)(1 + d_kl)(1 + d_(ij),(kl)))`` so that
    coinciding images count once, add ``2f V.D_kl`` to ``J_ij`` and
    ``2f D_ij.V`` to ``J_kl``, and ``f`` times the contraction to
    ``K_ik``, ``K_jk``, ``K_il`` and ``K_jl``; the other half of every
    sum is the transpose of one of these.  A D block is gathered through
    the flat indices its partner image scatters through.
    """
    nq, nA, nB, nC, nD = V.shape
    nbf = len(D)
    Df = np.ascontiguousarray(D).reshape(-1)
    i, j, k, l = idx.T
    f = 1.0 / ((1.0 + (i == j)) * (1.0 + (k == l))
               * (1.0 + ((i == k) & (j == l))))
    ao = [offsets[s][:, None] + np.arange(n)
          for s, n in zip((i, j, k, l), (nA, nB, nC, nD))]

    def flat(p: int, q: int) -> np.ndarray:
        """Flat AO indices of the (p, q) block of every quartet."""
        return (ao[p][:, :, None] * nbf + ao[q][:, None, :]).reshape(nq, -1)

    def scatter(M: np.ndarray, at: np.ndarray, vals: np.ndarray) -> None:
        M += np.bincount(at.ravel(), vals.ravel(), nbf * nbf)

    def images(M: np.ndarray, V2: np.ndarray, rows: np.ndarray,
               cols: np.ndarray, w: np.ndarray) -> None:
        """The two images of one ``(nq, rows, cols)`` layout of V: the
        row block contracted against D's column block, and back.  (A
        batched matrix-vector product is ~2x faster in ``einsum`` than
        in ``matmul`` at these sizes.)"""
        scatter(M, rows, np.einsum("qmn,qn->qm", V2, Df[cols]) * w)
        scatter(M, cols, np.einsum("qmn,qm->qn", V2, Df[rows]) * w)

    if Jh is not None:
        images(Jh, V.reshape(nq, nA * nB, nC * nD), flat(0, 1), flat(2, 3),
               (2.0 * f)[:, None])
    if Kh is not None:
        # (ik, jl) and (il, jk): each image pair shares one layout of V
        for (a, c), (b, d) in (((0, 2), (1, 3)), ((0, 3), (1, 2))):
            Vk = V.transpose(0, a + 1, c + 1, b + 1, d + 1).reshape(
                nq, ao[a].shape[1] * ao[c].shape[1], -1)
            images(Kh, Vk, flat(a, c), flat(b, d), f[:, None])


def coulomb_from_tensor(eri: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Coulomb matrix J_pq = sum_rs (pq|rs) D_rs."""
    return np.einsum("pqrs,rs->pq", eri, D, optimize=True)


def exchange_from_tensor(eri: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Exchange matrix K_pq = sum_rs (pr|qs) D_rs."""
    return np.einsum("prqs,rs->pq", eri, D, optimize=True)


def jk_from_tensor(eri: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both J and K from an in-core ERI tensor."""
    return coulomb_from_tensor(eri, D), exchange_from_tensor(eri, D)


def eval_screened_pairs(engine: ERIEngine, basis: BasisSet, D: np.ndarray,
                        classes, tr, want_j: bool, want_k: bool, kernel: str
                        ) -> tuple[np.ndarray | None, np.ndarray | None, int]:
    """The J/K rank-job unit: screened L-classes into their own J and K.

    ``classes`` is a list of ``(nq, 4)`` unique-quartet arrays, one
    L-class each (what :meth:`DirectJKBuilder._screened_classes`
    returns, or a rank's share of it).  The one place a quartet block
    meets a density; it runs through
    :func:`repro.runtime.pool.run_rank_jobs` in-process and inside every
    pool worker, so a rank job is the same bits wherever it runs.  Each
    class's blocks are added to half of J and K (:func:`_add_class`);
    ``J = Jh + Jh^T`` and ``K = Kh + Kh^T`` at the end.  ``D`` must be
    symmetric (the :meth:`JKEngine.build` contract).  ``kernel`` only
    chooses where a class's blocks come from: ``"quartet"`` evaluates
    each row with the reference evaluator
    (:meth:`~repro.integrals.eri.ERIEngine.quartet`) and stores nothing;
    ``"batched"`` reads ``engine``'s class store
    (:meth:`~repro.integrals.eri.ERIEngine.stored_batch`): what an
    earlier walk at this geometry evaluated is gathered, only the rest
    is evaluated, and the blocks are the same bits either way.

    Returns ``(J, K, nquartets)``: ``None`` for an unrequested matrix,
    and ``nquartets`` the quartets walked, wherever their blocks came
    from.
    """
    nbf = basis.nbf
    Jh = np.zeros(nbf * nbf) if want_j else None
    Kh = np.zeros(nbf * nbf) if want_k else None
    for cls in classes:
        with tr.span("batch.eval", cat="batch", nq=len(cls)):
            if kernel == "batched":
                blocks = engine.stored_batch(cls)
            else:
                blocks = np.stack([engine.quartet(*q) for q in cls.tolist()])
        with tr.span("batch.scatter", cat="batch", nq=len(cls)):
            _add_class(Jh, Kh, blocks, cls, basis.offsets, D)
    def whole(M: np.ndarray | None) -> np.ndarray | None:
        if M is None:
            return None
        M = M.reshape(nbf, nbf)
        return M + M.T

    with tr.span("batch.assemble", cat="batch"):
        J, K = whole(Jh), whole(Kh)
    return J, K, sum(len(cls) for cls in classes)


class JKEngine:
    """The J/K engine surface every SCF driver builds its Fock matrix
    through: ``build(D, want_j, want_k)``, ``reset(basis)``, ``close()``.

    Implementations: :class:`TensorJKEngine` (in-core reference),
    :class:`DirectJKBuilder` (screened quartet walk),
    :class:`repro.scf.ri_jk.RIJKBuilder` (density fitting) and
    :class:`repro.hfx.IncrementalExchange` (the direct walk of the
    density increment); :func:`make_jk_engine` picks one.
    Engines that can run on the worker pool hold a
    :class:`repro.runtime.pool.PoolLease` in ``lease``.
    """

    basis: BasisSet
    lease = None
    #: the ``ExecutionConfig.jk`` strategy this engine implements
    jk = "direct"

    def build(self, D: np.ndarray, want_j: bool = True, want_k: bool = True
              ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """J and/or K for density ``D``.

        ``D`` (AO basis) must be symmetric, as every SCF density,
        increment and response density is: the direct walk adds half of
        each of J and K and completes it by transposition, which is
        exact only then."""
        raise NotImplementedError

    def build_response(self, d: np.ndarray, want_j: bool = True,
                       want_k: bool = True
                       ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """J/K of a perturbation density that is *not* a point on the
        SCF density trajectory (the Newton solver's response builds).
        Engines that keep cross-build history override this to leave
        the history untouched."""
        return self.build(d, want_j, want_k)

    def reset(self, basis: BasisSet) -> None:
        """Start over on ``basis``: a new geometry drops all
        per-geometry state; the basis the engine already serves drops
        only cross-build history, so the next build is a full one and
        nothing evaluated at this geometry is evaluated again.  Every
        SCF driver calls it before its first build."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the worker pool if this engine spawned one (a
        borrowed pool is left running for its owner); idempotent."""
        if self.lease is not None:
            self.lease.close()

    @property
    def executor(self) -> str:
        """Where builds run right now: ``"process"`` or ``"serial"``."""
        return self.lease.executor if self.lease is not None else "serial"

    @property
    def degraded(self) -> bool:
        """Whether an unrecoverable pool forced the serial fallback."""
        return self.lease is not None and self.lease.degraded

    def exchange_energy(self, D: np.ndarray) -> float:
        """E_x^HF = -1/4 Tr(K[D] D) for a closed-shell density D
        (D = 2 * C_occ C_occ^T)."""
        _, K = self.build(D, want_j=False, want_k=True)
        return -0.25 * float(np.einsum("pq,pq->", K, D))


class TensorJKEngine(JKEngine):
    """In-core reference engine: one materialized ERI tensor per
    geometry, J/K by dense contraction.

    A new geometry is a full walk: ``reset`` lets go of the old tensor
    and fills a fresh :func:`~repro.integrals.eri.eri_tensor`, so at
    most one ``nbf^4`` array is alive at any time (plus the walk's
    capped scratch).  Nothing is carried between geometries — an MD step
    moves every shell, and what a trajectory reuses is the density.
    ``close()`` drops the tensor.
    """

    def __init__(self, basis: BasisSet, config=None):
        from ..runtime.execconfig import resolve_execution

        self.config = resolve_execution(config, owner="TensorJKEngine")
        self.basis = self.eri = None
        self.reset(basis)

    def reset(self, basis: BasisSet) -> None:
        if basis is self.basis and self.eri is not None:
            return          # the tensor carries no build history
        tr = self.config.trace
        self.basis = basis
        engine = ERIEngine(basis)     # counts the quartets it evaluates
        self.eri = None          # the old tensor goes before the new one
        with tr.span("jk.tensor.build", cat="scf") as span:
            self.eri = eri_tensor(basis, engine=engine)
            npair = basis.nshell * (basis.nshell + 1) // 2
            self.quartets_total = npair * (npair + 1) // 2
            self.quartets_computed = engine.quartets_computed
            stats = {"quartets_computed": self.quartets_computed,
                     "class_batches": engine.class_batches}
            span.add(**stats)
        if tr.enabled:
            for key, n in stats.items():
                tr.metrics.count(f"jk.tensor.{key}", n)

    def build(self, D, want_j=True, want_k=True):
        return (coulomb_from_tensor(self.eri, D) if want_j else None,
                exchange_from_tensor(self.eri, D) if want_k else None)

    def close(self) -> None:
        self.eri = None


class DirectJKBuilder(JKEngine):
    """Integral-direct J/K builds with Cauchy-Schwarz + density screening.

    The walk covers unique shell quartets (8-fold symmetry), skips those
    with ``Q_ij * Q_kl * max|D| < eps`` (one vectorised bound per pair
    class block, :meth:`_screened_classes`), and adds the surviving
    blocks, one L-class at a time, to half of J and K, which the
    transpose completes (:func:`eval_screened_pairs`).  ``eps`` is the
    paper's controllable-accuracy threshold.

    Execution behavior (executor, pool size, ERI kernel, telemetry
    sinks) comes from one :class:`repro.runtime.ExecutionConfig` value.
    ``executor="process"`` evaluates the surviving quartets on a
    persistent :class:`repro.runtime.pool.ExchangeWorkerPool` instead of
    in-process.  ``kernel`` picks the evaluator of a class's blocks —
    ``"quartet"`` the per-quartet reference, ``"batched"`` the class
    kernel through the class store (the two agree to ~1e-13); the
    accumulation is the same either way.  Screening always
    stays in the parent and is kernel-independent, so both kernels and
    both executors walk the identical quartet list.  An externally
    owned pool can be shared (e.g. across the SCFs of an MD
    trajectory); otherwise the builder spawns and owns one.  On the
    pool the rows of each class are split by bra: the first build at a
    geometry assigns every bra to a rank (LPT on its survivors) and
    later builds keep that ownership.

    The batched walk reads and fills the class store of the engine that
    runs it (:meth:`~repro.integrals.eri.ERIEngine.stored_batch`): the
    builder's own engine in-process, each worker's engine on the pool
    (each keeps the blocks of the rank jobs it ran).  Every ``reset``
    rebuilds those engines, so a store holds one geometry.  Memory: at
    most :data:`~repro.integrals.eri.CLASS_STORE_BYTES` plus O(nbf²)
    per process, ``nworkers`` times that on the pool.

    Counters: ``quartets_computed`` (and ``jk.quartets``) counts the
    quartets *walked* per build; ``engine.quartets_computed`` the
    blocks *evaluated*, on either executor (pool workers report theirs
    back).  Each build adds ``jk.store.hits`` and ``jk.store.misses``
    (hits + misses = walked on the batched kernel) and raises the
    ``jk.store.bytes`` maximum, the largest store one process holds;
    the ``jk.build`` span carries the same three as ``store_*``.

    Fault tolerance: the pool heals worker deaths itself (respawn +
    re-run the lost rank jobs, bit-identically); if it cannot, the
    builder's :class:`~repro.runtime.pool.PoolLease` warns once,
    records ``pool.degraded_builds``, and this and all later builds
    finish on the serial executor instead of aborting the SCF.
    """

    def __init__(self, basis: BasisSet, eps: float = 1e-10,
                 pool=None, config=None):
        from ..runtime.execconfig import resolve_execution

        self.config = resolve_execution(config, owner="DirectJKBuilder")
        self.eps = eps
        self.kernel = self.config.kernel
        self.quartets_total = 0
        self.quartets_computed = 0
        self._bind(basis)
        self.lease = PoolLease(basis, self.config, pool,
                               owner=type(self).__name__)

    def _bind(self, basis: BasisSet) -> None:
        self.basis = basis
        self.engine = ERIEngine(basis)
        self.Q = self.engine.schwarz_bounds()      # (i, j) order
        self._qvals = np.array(list(self.Q.values()))
        # the basis's pair classes in signature order, each as its pairs'
        # positions in (i, j) order, the pairs and their bounds: every
        # (bra class, ket class) block of quartets is one L-class
        nsh = basis.nshell
        pos = np.zeros((nsh, nsh), dtype=np.int64)
        pos[np.triu_indices(nsh)] = np.arange(len(self._qvals))
        self._pair_classes = []
        for cls in pair_classes(basis).by_signature():
            at = pos[cls.ij[:, 0], cls.ij[:, 1]]
            self._pair_classes.append((at, cls.ij, self._qvals[at]))
        # bra -> rank ownership on the pool, fixed by the first build at
        # this geometry (balance_pairs)
        self._owner = None

    def reset(self, basis: BasisSet) -> None:
        """Re-target at a new geometry: fresh shell pairs and Schwarz
        keys, and the (possibly shared) pool re-pointed at ``basis``.
        The basis already served is a no-op: a full build keeps no
        history, and the class stores hold this geometry's blocks."""
        if basis is self.basis:
            return
        self._bind(basis)
        self.lease.reset(basis)

    def eval_jobs(self, jobs, D: np.ndarray, want_j: bool, want_k: bool
                  ) -> tuple[dict, int]:
        """Per-rank ``{rank: (J, K)}`` partials of screened rank jobs and
        the quartet count they walked, through the lease's
        :meth:`~repro.runtime.pool.PoolLease.map` of
        :func:`eval_screened_pairs` (``jobs`` as that method takes it;
        the pool workers' evaluations land on ``self.engine``)."""
        return self.lease.map(eval_screened_pairs, jobs, self.engine,
                              D, (want_j, want_k, self.kernel))

    def build(self, D: np.ndarray, want_j: bool = True, want_k: bool = True,
              blocks: np.ndarray | None = None, eps: float | None = None
              ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Build J and/or K for density ``D`` (AO basis, symmetric).

        A plain call is the full build: every quartet is screened by
        the global ``max|D|``.  ``blocks`` is an ``(nshell, nshell)``
        table of per-shell-block ``max|D|`` (the density-increment walk
        of :class:`repro.hfx.IncrementalExchange`): each quartet is then
        screened by the six blocks its J and K contractions touch, and
        ``eps`` (default: the builder's) is the threshold of that walk.
        """
        tr = self.config.trace
        eps = self.eps if eps is None else eps
        before = self.engine.tally()
        with tr.span("jk.build", cat="scf", executor=self.executor,
                     kernel=self.kernel) as span:
            dmax = blocks if blocks is not None else (
                float(np.abs(D).max()) if D.size else 0.0)
            with tr.span("jk.screen", cat="screening", eps=eps):
                classes = self._screened_classes(dmax, eps)
            # serially one job, pooled one per worker
            results, self.quartets_computed = self.eval_jobs(
                lambda pool: [RankJob(0, classes)] if pool is None
                else self._balance(classes, pool.nworkers),
                D, want_j, want_k)
            with tr.span("jk.assemble", cat="scf"):
                # rank order, whatever order the workers replied in
                ranks = sorted(results)
                J = sum(results[r][0] for r in ranks) if want_j else None
                K = sum(results[r][1] for r in ranks) if want_k else None
            store = self.engine.tally(since=before)
            span.add(store_hits=store["store_hits"],
                     store_misses=store["store_misses"],
                     store_bytes=self.engine.store_peak)
            if tr.enabled:
                tr.metrics.count("jk.builds", 1)
                tr.metrics.count("jk.quartets", self.quartets_computed)
                tr.metrics.count("jk.store.hits", store["store_hits"])
                tr.metrics.count("jk.store.misses", store["store_misses"])
                tr.metrics.set("jk.store.bytes", max(
                    tr.metrics.get("jk.store.bytes"),
                    self.engine.store_peak))
                tr.metrics.absorb_engine(self.engine)
            return J, K

    def _balance(self, classes, nworkers: int) -> list[RankJob]:
        """One rank job per worker (:func:`~repro.runtime.pool.
        balance_pairs`); the first pooled build at a geometry fixes the
        bra -> rank ownership every later build keeps, so each worker's
        class store keeps seeing the same bras."""
        jobs, self._owner = balance_pairs(classes, nworkers,
                                          self.basis.nshell, self._owner)
        return jobs

    def _screened_classes(self, dmax, eps: float | None = None
                          ) -> list[np.ndarray]:
        """The surviving unique quartets, one ``(nq, 4)`` array per
        L-class, bra-major within each.

        ``dmax`` is the global ``max|D|`` of a full build (a float: every
        quartet is bounded by ``Q_ij Q_kl max(dmax, 1)``) or an
        ``(nshell, nshell)`` table of per-shell-block ``max|dD|`` (the
        increment screen: each quartet is bounded by the six blocks its
        contractions touch — ``(k,l)`` and ``(i,j)`` for J, ``(j,l),
        (j,k), (i,l), (i,k)`` for K).  The float test is
        ``Q_ij * Q_kl * d < eps`` in that order either way, evaluated as
        one bound array per (bra pair class, ket pair class) block in
        chunks of bra rows under ``_SCREEN_SCRATCH`` elements, so every
        executor and caller keeps or drops exactly the same boundary
        quartets.  ``eps`` defaults to the builder's threshold.
        """
        eps = self.eps if eps is None else eps
        npair = len(self._qvals)
        self.quartets_total = npair * (npair + 1) // 2
        blocks = np.ndim(dmax) == 2
        m = dmax if blocks else max(dmax, 1.0)
        out = []
        for pos_b, bra, q_b in self._pair_classes:
            for pos_k, ket, q_k in self._pair_classes:
                if pos_b[0] > pos_k[-1]:
                    continue        # every ket pair precedes every bra
                k, l = ket.T
                step = max(1, _SCREEN_SCRATCH // len(pos_k))
                rows = []
                for s in range(0, len(pos_b), step):
                    sl = slice(s, s + step)
                    if blocks:
                        i, j = bra[sl, :1], bra[sl, 1:]
                        m = np.maximum(
                            np.maximum(np.maximum(dmax[j, l], dmax[j, k]),
                                       np.maximum(dmax[i, l], dmax[i, k])),
                            np.maximum(dmax[k, l], dmax[i, j]))
                    keep = (pos_b[sl, None] <= pos_k) \
                        & ~(q_b[sl, None] * q_k * m < eps)
                    a, b = np.nonzero(keep)
                    rows.append(np.hstack([bra[sl][a], ket[b]]))
                cls = np.concatenate(rows)
                if len(cls):
                    out.append(cls)
        return out


def make_jk_engine(basis: BasisSet, config=None, eps: float = 1e-10,
                   pool=None, mode: str | None = None) -> JKEngine:
    """The one J/K engine for ``basis`` under ``config`` — the only place
    that picks the in-core or the direct route.

    ===========  ========  ===========================================
    ``mode``     ``jk``    engine
    ===========  ========  ===========================================
    ``None``     any       derived: ``direct`` when ``executor=
                           "process"`` or ``jk="ri"``, else ``incore``
    ``incore``   direct    :class:`TensorJKEngine`
    ``direct``   ``ri``    :class:`~repro.scf.ri_jk.RIJKBuilder`
    ``direct``   direct    :class:`~repro.hfx.IncrementalExchange`
    ===========  ========  ===========================================

    A pool and the fitted engine need the quartet walk, so an explicit
    ``incore`` with either is refused
    (:func:`~repro.runtime.boundary.check_jk_route`).  Every direct-mode
    exact engine builds its J/K pairs from the density increment (the
    first build at a geometry and every ``REBUILD_EVERY``-th one are
    full builds); a caller that wants the plain full build every time
    constructs a :class:`DirectJKBuilder` itself.  ``executor``/
    ``kernel`` ride inside ``config`` and apply to every direct-mode
    engine; ``pool`` shares a caller-owned worker pool (the engine then
    never closes it).  The caller owns the returned engine:
    ``reset(basis)`` at geometry jumps, ``close()`` when done.
    """
    from ..runtime.execconfig import resolve_execution

    cfg = resolve_execution(config, owner="make_jk_engine")
    check_jk_route(mode, cfg.executor, cfg.jk)
    if mode is None:
        mode = "direct" if cfg.executor == "process" or cfg.jk == "ri" \
            else "incore"
    if mode == "incore":
        return TensorJKEngine(basis, cfg)
    if cfg.jk == "ri":
        from .ri_jk import RIJKBuilder

        return RIJKBuilder(basis, eps=eps, pool=pool, config=cfg)
    from ..hfx.incremental import IncrementalExchange

    return IncrementalExchange(basis, eps=eps, pool=pool, config=cfg)
