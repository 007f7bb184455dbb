"""Fock-matrix builds: Coulomb (J) and exact-exchange (K).

Two execution styles, mirroring the paper:

* in-core tensor contraction (reference; only for small validation
  systems),
* *direct* screened shell-quartet builds through
  :class:`repro.integrals.ERIEngine` — the serial analogue of the
  paper's distributed HFX build; the parallel scheme in
  :mod:`repro.hfx` partitions exactly these quartets.

One accumulation, mirroring the paper's class-batched exchange kernel:
:func:`scatter_exchange_batch` / :func:`scatter_coulomb_batch` add a
whole L-class of quartet blocks at once — the density sub-blocks every
quartet needs are gathered into one batch tensor, contracted in a
single batched matrix product per permutation slot, and scattered back
through precomputed index arrays with ``np.add.at``.  Both ERI kernels
feed it (:func:`eval_screened_pairs`); they differ only in where a
class's blocks come from.
"""

from __future__ import annotations

import numpy as np

from ..basis.basisset import BasisSet
from ..integrals.batch import flatten_pairs
from ..integrals.eri import PERM_AXES, ERIEngine, eri_tensor
from ..runtime.boundary import check_jk_route
from ..runtime.pool import PoolLease, RankJob, balance_pairs

__all__ = ["jk_from_tensor", "coulomb_from_tensor", "exchange_from_tensor",
           "JKEngine", "TensorJKEngine", "DirectJKBuilder", "make_jk_engine",
           "eval_screened_pairs",
           "scatter_exchange_batch", "scatter_coulomb_batch",
           "reflect_triangle"]


def _slot_table() -> np.ndarray:
    """``table[code, slot]``: is permutation slot ``slot`` (of
    :data:`~repro.integrals.eri.PERM_AXES`) a distinct image of a unique
    quartet whose index pattern is ``code = e1 + 2*e2 + 4*e3``
    (``e1``: ``i == j``, ``e2``: ``k == l``, ``e3``: ``(i, j) == (k, l)``)?

    A quartet's distinct images depend only on its pattern, so the
    seen-set dedup runs once per pattern here, on representative
    indices; of coinciding images the first slot is kept.  Patterns
    that cannot occur (``e3`` with ``e1 != e2``) keep no slot.
    """
    table = np.zeros((8, 8), dtype=bool)
    for code in range(8):
        e1, e2, e3 = code & 1, code >> 1 & 1, code >> 2 & 1
        if e3 and e1 != e2:
            continue   # (i,j) == (k,l) forces i==j iff k==l
        i, j = 0, 0 if e1 else 1
        k, l = (i, j) if e3 else (4, 4 if e2 else 5)
        quart = (i, j, k, l)
        seen = set()
        for s, ax in enumerate(PERM_AXES):
            t = tuple(quart[a] for a in ax)
            if t not in seen:
                seen.add(t)
                table[code, s] = True
    return table


_SLOT_ACTIVE = _slot_table()


def _gather_blocks(M: np.ndarray, rows: np.ndarray,
                   cols: np.ndarray) -> np.ndarray:
    """Gather ``(m, nr, nc)`` sub-blocks ``M[rows[q], cols[q]]``."""
    return M[rows[:, :, None], cols[:, None, :]]


def _ao_rows(offsets: np.ndarray, shells: np.ndarray, n: int) -> np.ndarray:
    """AO index rows ``offsets[shells] + arange(n)``, shape ``(m, n)``."""
    return offsets[shells][:, None] + np.arange(n)


def _add_blocks(M: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                vals: np.ndarray) -> None:
    """``M[rows[q][:, None], cols[q][None, :]] += vals[q]`` for every
    ``q`` in order, colliding indices included: ``np.add.at`` over flat
    indices into ``M``, the same additions in the same (C) order as the
    2-D index form (so the same bits), at about half its cost."""
    if not M.flags.c_contiguous:        # no flat view to scatter into
        np.add.at(M, (rows[:, :, None], cols[:, None, :]), vals)
        return
    flat = rows[:, :, None] * M.shape[1] + cols[:, None, :]
    np.add.at(M.reshape(-1), flat.reshape(-1), vals.reshape(-1))


def scatter_exchange_batch(basis: BasisSet, K: np.ndarray,
                           blocks: np.ndarray, D: np.ndarray,
                           idx: np.ndarray) -> None:
    """Exchange accumulation for a whole same-L-class quartet batch.

    ``blocks`` is ``(nq, nA, nB, nC, nD)`` from either ERI kernel and
    ``idx`` the matching ``(nq, 4)`` shell indices of unique quartets.
    The unrestricted sum ``K_ac = sum_bd (ab|cd) D_bd`` runs over all
    *ordered* quartets: a unique quartet expands into up to 8 ordered
    images, degenerate ones (coinciding indices) counted once
    (``_SLOT_ACTIVE``), which leaves K exactly symmetric.  Instead of up
    to ``8 nq`` tiny einsums, each of the 8 permutation slots runs once:
    gather the needed D sub-blocks for every quartet where the slot is
    non-degenerate, contract the whole sub-batch, and scatter through
    ``np.add.at`` (indices may collide across quartets, so plain fancy
    assignment would drop contributions).
    """
    idx = np.asarray(idx, dtype=np.int64).reshape(-1, 4)
    i, j, k, l = idx[:, 0], idx[:, 1], idx[:, 2], idx[:, 3]
    code = ((i == j).astype(np.int64) + 2 * (k == l)
            + 4 * ((i == k) & (j == l)))
    # AO rows of each index position, shared by the eight slots
    ao = [_ao_rows(basis.offsets, idx[:, p], blocks.shape[p + 1])
          for p in range(4)]
    for s, ax in enumerate(PERM_AXES):
        mask = _SLOT_ACTIVE[code, s]
        if mask.all():
            blk, rows = blocks, ao
        elif mask.any():
            blk, rows = blocks[mask], [r[mask] for r in ao]
        else:
            continue
        # axes (q, a, c, b, d): the K block first, the contracted D
        # block last, so the slot is one batched matrix-vector product
        blk = blk.transpose((0, ax[0] + 1, ax[2] + 1, ax[1] + 1, ax[3] + 1))
        nq, na, nc, nb, nd = blk.shape
        rows_a, rows_b, cols_c, cols_d = (rows[ax[0]], rows[ax[1]],
                                          rows[ax[2]], rows[ax[3]])
        # K_ac += (ab|cd) D_bd, one contraction for the whole sub-batch
        dbd = _gather_blocks(D, rows_b, cols_d).reshape(nq, nb * nd, 1)
        kblk = (blk.reshape(nq, na * nc, nb * nd) @ dbd).reshape(nq, na, nc)
        _add_blocks(K, rows_a, cols_c, kblk)


def scatter_coulomb_batch(basis: BasisSet, J: np.ndarray,
                          blocks: np.ndarray, D: np.ndarray,
                          idx: np.ndarray) -> None:
    """Coulomb accumulation for a whole same-L-class quartet batch.

    Only the upper shell triangle of J is filled (every unique quartet
    has ``i <= j`` and ``k <= l``); the caller reflects the triangle
    once at the end of the build (:func:`reflect_triangle`), which
    commutes with summation, so partial J matrices from different
    workers or ranks can be reduced first.  The bra slot always
    contributes (ket degeneracy folded in as a per-quartet factor), the
    mirrored ket slot only where ``(i, j) != (k, l)``.
    """
    idx = np.asarray(idx, dtype=np.int64).reshape(-1, 4)
    off = basis.offsets
    i, j, k, l = idx[:, 0], idx[:, 1], idx[:, 2], idx[:, 3]
    nq, nA, nB, nC, nD = blocks.shape
    # (q, ij, kl) matrices: both contractions are batched products
    bmat = blocks.reshape(nq, nA * nB, nC * nD)
    dkl = np.where(k == l, 1.0, 2.0)
    rows_k = _ao_rows(off, k, nC)
    cols_l = _ao_rows(off, l, nD)
    dkl_blk = _gather_blocks(D, rows_k, cols_l).reshape(nq, nC * nD, 1)
    jblk = (bmat @ dkl_blk).reshape(nq, nA, nB) * dkl[:, None, None]
    rows_i = _ao_rows(off, i, nA)
    cols_j = _ao_rows(off, j, nB)
    _add_blocks(J, rows_i, cols_j, jblk)
    mirror = ~((i == k) & (j == l))
    if mirror.any():
        nm = int(mirror.sum())
        dij = np.where(i[mirror] == j[mirror], 1.0, 2.0)
        dij_blk = _gather_blocks(D, rows_i[mirror], cols_j[mirror])
        jblk = (dij_blk.reshape(nm, 1, nA * nB) @ bmat[mirror]).reshape(
            nm, nC, nD) * dij[:, None, None]
        _add_blocks(J, rows_k[mirror], cols_l[mirror], jblk)


def reflect_triangle(J: np.ndarray) -> np.ndarray:
    """Restore a full symmetric matrix from an upper-triangle build."""
    return np.triu(J) + np.triu(J, 1).T


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
                        pairs, tr, want_j: bool, want_k: bool, kernel: str
                        ) -> tuple[np.ndarray | None, np.ndarray | None, int]:
    """The J/K rank-job unit: a screened ``(i, j, kets)`` list into
    its own partial J and K.

    The one place a quartet block meets a density; it runs through
    :func:`repro.runtime.pool.run_rank_jobs` in-process and inside every
    pool worker, so every executor accumulates the same quartets in the
    same order.  The list is flattened, grouped by L-class
    (:meth:`~repro.integrals.eri.ERIEngine.group_quartets`), and each
    class's blocks are added to J and K by :func:`scatter_coulomb_batch`
    and :func:`scatter_exchange_batch`.  ``kernel`` only chooses where a
    class's blocks come from: ``"quartet"`` evaluates each row with the
    reference evaluator (:meth:`~repro.integrals.eri.ERIEngine.quartet`)
    and stores nothing; ``"batched"`` reads ``engine``'s class store
    (:meth:`~repro.integrals.eri.ERIEngine.stored_batch`): what an
    earlier walk at this geometry evaluated is gathered, only the rest
    is evaluated, and the blocks are the same bits either way.

    Returns ``(J, K, nquartets)``: ``None`` for an unrequested matrix,
    J filling the upper shell triangle only (see
    :func:`scatter_coulomb_batch`), and ``nquartets`` the quartets
    walked, wherever their blocks came from.
    """
    nbf = basis.nbf
    J = np.zeros((nbf, nbf)) if want_j else None
    K = np.zeros((nbf, nbf)) if want_k else None
    with tr.span("batch.assemble", cat="batch"):
        groups = engine.group_quartets(flatten_pairs(pairs))
    for grp in groups:
        with tr.span("batch.eval", cat="batch", nq=len(grp)):
            if kernel == "batched":
                blocks = engine.stored_batch(grp)
            else:
                blocks = np.stack([engine.quartet(*q) for q in grp.tolist()])
        with tr.span("batch.scatter", cat="batch", nq=len(grp)):
            if J is not None:
                scatter_coulomb_batch(basis, J, blocks, D, grp)
            if K is not None:
                scatter_exchange_batch(basis, K, blocks, D, grp)
    return J, K, sum(len(grp) for grp in groups)


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
        """J and/or K for density ``D`` (AO basis, symmetric)."""
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
    with ``Q_ij * Q_kl * max|D| < eps``, and adds the surviving blocks,
    one L-class at a time, into all symmetry-related positions of J and
    K (:func:`eval_screened_pairs`).  ``eps`` is the paper's
    controllable-accuracy threshold.

    Execution behavior (executor, pool size, ERI kernel, telemetry
    sinks) comes from one :class:`repro.runtime.ExecutionConfig` value.
    ``executor="process"`` evaluates the surviving quartets on a
    persistent :class:`repro.runtime.pool.ExchangeWorkerPool` instead of
    in-process.  ``kernel`` picks the evaluator of a class's blocks —
    ``"quartet"`` the per-quartet reference, ``"batched"`` the class
    kernel through the class store (the two agree to ~1e-13); the
    accumulation is the same class scatter either way.  Screening always
    stays in the parent and is kernel-independent, so both kernels and
    both executors walk the identical quartet list.  An externally
    owned pool can be shared (e.g. across the SCFs of an MD
    trajectory); otherwise the builder spawns and owns one.

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
        self.Q = self.engine.schwarz_bounds()
        self._keys = sorted(self.engine.pairs)
        self._keys_arr = np.asarray(self._keys, dtype=np.int64).reshape(-1, 2)
        self._qvals = np.array([self.Q[k] for k in self._keys])

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
            # the vectorized screen walks bra pairs and surviving kets in
            # the same order (and with the same float test) as the older
            # fused quartet loop, so the accumulation order — and thus
            # the bitwise result — is unchanged
            with tr.span("jk.screen", cat="screening", eps=eps):
                pairs = self._screened_pairs(dmax, eps)
            # serially one job in pair order, pooled one per worker
            results, self.quartets_computed = self.eval_jobs(
                lambda pool: ([RankJob(0, pairs)] if pool is None
                              else balance_pairs(pairs, pool.nworkers)),
                D, want_j, want_k)
            nbf = self.basis.nbf
            J = np.zeros((nbf, nbf)) if want_j else None
            K = np.zeros((nbf, nbf)) if want_k else None
            # rank order, whatever order the workers replied in
            for rank in sorted(results):
                Jr, Kr = results[rank]
                if want_j:
                    J += Jr
                if want_k:
                    K += Kr
            if want_j:
                with tr.span("jk.assemble", cat="scf"):
                    # the unique walk fills the upper shell triangle
                    # (i <= j); elementwise triangle reflection restores
                    # the full symmetric matrix (diagonal shell blocks
                    # are complete and symmetric already)
                    J = reflect_triangle(J)
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

    def _screened_pairs(self, dmax, eps: float | None = None
                        ) -> list[tuple[int, int, np.ndarray]]:
        """Per-bra surviving ket lists under the density-aware screen.

        ``dmax`` is the global ``max|D|`` of a full build (a float: every
        quartet is bounded by ``Q_ij Q_kl max(dmax, 1)``) or an
        ``(nshell, nshell)`` table of per-shell-block ``max|dD|`` (the
        increment screen: each quartet is bounded by the six blocks its
        contractions touch — ``(k,l)`` and ``(i,j)`` for J, ``(j,l),
        (j,k), (i,l), (i,k)`` for K).  The float test is
        ``Q_ij * Q_kl * d < eps`` in that order either way, so every
        executor and caller keeps or drops exactly the same boundary
        quartets.  ``eps`` defaults to the builder's threshold.
        """
        eps = self.eps if eps is None else eps
        out = []
        self.quartets_total = 0
        blocks = np.ndim(dmax) == 2
        m = dmax if blocks else max(dmax, 1.0)
        ks, ls = self._keys_arr[:, 0], self._keys_arr[:, 1]
        for a, (i, j) in enumerate(self._keys):
            qk = self._qvals[a:]
            self.quartets_total += len(qk)
            if blocks:
                k, l = ks[a:], ls[a:]
                m = np.maximum(
                    np.maximum(np.maximum(dmax[j, l], dmax[j, k]),
                               np.maximum(dmax[i, l], dmax[i, k])),
                    np.maximum(dmax[k, l], dmax[i, j]))
            keep = ~(self._qvals[a] * qk * m < eps)
            if keep.any():
                out.append((i, j, self._keys_arr[a:][keep]))
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
