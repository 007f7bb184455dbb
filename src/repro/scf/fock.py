"""Fock-matrix builds: Coulomb (J) and exact-exchange (K).

Two execution styles, mirroring the paper:

* in-core tensor contraction (reference; only for small validation
  systems),
* *direct* screened shell-quartet builds through
  :class:`repro.integrals.ERIEngine` — the serial analogue of the
  paper's distributed HFX build; the parallel scheme in
  :mod:`repro.hfx` partitions exactly these quartets.

Two accumulation granularities, mirroring the two ERI kernels:

* :func:`scatter_exchange` / :func:`scatter_coulomb` — one quartet at a
  time (the bit-exact reference), with the degeneracy-resolved
  permutation list precomputed per index pattern instead of rebuilt per
  quartet;
* :func:`scatter_exchange_batch` / :func:`scatter_coulomb_batch` —
  whole L-class batches: the density sub-blocks every quartet needs are
  gathered into one batch tensor, contracted in a single batched
  matrix product per permutation slot (no per-call contraction
  planning), and scattered back through precomputed index arrays with
  ``np.add.at``.
"""

from __future__ import annotations

import numpy as np

from ..basis.basisset import BasisSet
from ..integrals.eri import PERM_AXES, ERIEngine, eri_tensor
from ..runtime.boundary import JK_BUILD_MODES, check_jk_route

__all__ = ["jk_from_tensor", "coulomb_from_tensor", "exchange_from_tensor",
           "JKEngine", "TensorJKEngine", "DirectJKBuilder", "make_jk_engine",
           "check_jk_mode", "jk_build_mode", "eval_screened_pairs",
           "scatter_exchange", "scatter_coulomb",
           "scatter_exchange_batch", "scatter_coulomb_batch",
           "shell_slices", "reflect_triangle"]


def shell_slices(basis: BasisSet) -> list[slice]:
    """All shell AO slices, cached per basis object.

    Hoists the four ``basis.shell_slice`` lookups out of the innermost
    scatter loops.  Delegates to :meth:`BasisSet.shell_slices` so the
    4-index scatters and the 2-/3-index RI builders all read the one
    list cached on the basis object.
    """
    return basis.shell_slices()


def _build_perm_table() -> dict[tuple[bool, bool, bool], tuple]:
    """Degeneracy-resolved permutation lists per index pattern.

    A unique quartet's distinct images depend only on its *pattern* —
    which of ``i == j``, ``k == l``, ``(i, j) == (k, l)`` hold — so the
    seen-set dedup runs once per pattern here (on representative
    indices) instead of once per quartet in the hot loop.  The emitted
    order matches the historical perms list, keeping the accumulation
    order (and hence K) bit-identical.
    """
    table = {}
    for e1 in (False, True):
        for e2 in (False, True):
            for e3 in (False, True):
                if e3 and e1 != e2:
                    continue   # (i,j) == (k,l) forces i==j iff k==l
                i, j = 0, 0 if e1 else 1
                k, l = (i, j) if e3 else (4, 4 if e2 else 5)
                quart = (i, j, k, l)
                seen = set()
                active = []
                for ax in PERM_AXES:
                    t = tuple(quart[a] for a in ax)
                    if t in seen:
                        continue
                    seen.add(t)
                    active.append(ax)
                table[(e1, e2, e3)] = tuple(active)
    return table


_PERM_TABLE = _build_perm_table()

# _SLOT_ACTIVE[pattern_code, slot]: is permutation slot active for the
# pattern (e1 + 2*e2 + 4*e3)?  Derived from _PERM_TABLE so the batched
# scatter can never drift from the per-quartet reference.
_SLOT_ACTIVE = np.zeros((8, 8), dtype=bool)
for _key, _axes in _PERM_TABLE.items():
    _code = _key[0] + 2 * _key[1] + 4 * _key[2]
    for _s, _ax in enumerate(PERM_AXES):
        _SLOT_ACTIVE[_code, _s] = _ax in _axes


def scatter_exchange(basis: BasisSet, K: np.ndarray, block: np.ndarray,
                     D: np.ndarray, idx: tuple[int, int, int, int]) -> None:
    """Accumulate one unique quartet's exchange contributions into K.

    The unrestricted sum K_ac = sum_bd (ab|cd) D_bd runs over all
    *ordered* quartets; a unique quartet expands into up to 8 ordered
    permutations, each contributing to one ordered (a, c) block.
    Degenerate permutations (coinciding indices) are counted once — the
    distinct set per index pattern comes from the precomputed
    ``_PERM_TABLE``.  Accumulating every ordered permutation leaves K
    exactly symmetric.
    """
    i, j, k, l = idx
    slices = shell_slices(basis)
    for ax in _PERM_TABLE[(i == j, k == l, i == k and j == l)]:
        a, b, c, d = idx[ax[0]], idx[ax[1]], idx[ax[2]], idx[ax[3]]
        sa, sb = slices[a], slices[b]
        sc, sd = slices[c], slices[d]
        # K_ac += (ab|cd) D_bd
        K[sa, sc] += np.einsum("xyzw,yw->xz", block.transpose(ax),
                               D[sb, sd])


def scatter_coulomb(basis: BasisSet, J: np.ndarray, block: np.ndarray,
                    D: np.ndarray, idx: tuple[int, int, int, int]) -> None:
    """Accumulate one unique quartet's Coulomb contributions into J.

    Only the upper shell triangle of J is filled (every unique quartet
    has ``i <= j`` and ``k <= l``); the caller reflects the triangle
    once at the end of the build.  Reflection commutes with summation,
    so partial J matrices from different workers/ranks can be reduced
    first and reflected once.
    """
    i, j, k, l = idx
    slices = shell_slices(basis)
    si, sj = slices[i], slices[j]
    sk, sl = slices[k], slices[l]
    dij = 1.0 if i == j else 2.0
    dkl = 1.0 if k == l else 2.0
    # J_ij += (ij|kl) D_kl  (and the bra<->ket mirror)
    J[si, sj] += dkl * np.einsum("xyzw,zw->xy", block, D[sk, sl])
    if (i, j) != (k, l):
        J[sk, sl] += dij * np.einsum("xyzw,xy->zw", block, D[si, sj])


def _gather_blocks(M: np.ndarray, rows: np.ndarray,
                   cols: np.ndarray) -> np.ndarray:
    """Gather ``(m, nr, nc)`` sub-blocks ``M[rows[q], cols[q]]``."""
    return M[rows[:, :, None], cols[:, None, :]]


def _ao_rows(offsets: np.ndarray, shells: np.ndarray, n: int) -> np.ndarray:
    """AO index rows ``offsets[shells] + arange(n)``, shape ``(m, n)``."""
    return offsets[shells][:, None] + np.arange(n)


def scatter_exchange_batch(basis: BasisSet, K: np.ndarray,
                           blocks: np.ndarray, D: np.ndarray,
                           idx: np.ndarray) -> None:
    """Exchange accumulation for a whole same-L-class quartet batch.

    ``blocks`` is ``(nq, nA, nB, nC, nD)`` from the batched kernel and
    ``idx`` the matching ``(nq, 4)`` shell indices.  Instead of up to
    ``8 nq`` tiny einsums, each of the 8 permutation slots runs once:
    gather the needed D sub-blocks for every quartet where the slot is
    non-degenerate, contract the whole sub-batch, and scatter through
    ``np.add.at`` (indices may collide across quartets, so plain fancy
    assignment would drop contributions).
    """
    idx = np.asarray(idx, dtype=np.int64).reshape(-1, 4)
    off = basis.offsets
    i, j, k, l = idx[:, 0], idx[:, 1], idx[:, 2], idx[:, 3]
    code = ((i == j).astype(np.int64) + 2 * (k == l)
            + 4 * ((i == k) & (j == l)))
    for s, ax in enumerate(PERM_AXES):
        mask = _SLOT_ACTIVE[code, s]
        if not mask.any():
            continue
        sub = idx[mask]
        # axes (q, a, c, b, d): the K block first, the contracted D
        # block last, so the slot is one batched matrix-vector product
        blk = blocks[mask].transpose(
            (0, ax[0] + 1, ax[2] + 1, ax[1] + 1, ax[3] + 1))
        nq, na, nc, nb, nd = blk.shape
        rows_b = _ao_rows(off, sub[:, ax[1]], nb)
        cols_d = _ao_rows(off, sub[:, ax[3]], nd)
        # K_ac += (ab|cd) D_bd, one contraction for the whole sub-batch
        dbd = _gather_blocks(D, rows_b, cols_d).reshape(nq, nb * nd, 1)
        kblk = (blk.reshape(nq, na * nc, nb * nd) @ dbd).reshape(nq, na, nc)
        rows_a = _ao_rows(off, sub[:, ax[0]], na)
        cols_c = _ao_rows(off, sub[:, ax[2]], nc)
        np.add.at(K, (rows_a[:, :, None], cols_c[:, None, :]), kblk)


def scatter_coulomb_batch(basis: BasisSet, J: np.ndarray,
                          blocks: np.ndarray, D: np.ndarray,
                          idx: np.ndarray) -> None:
    """Coulomb accumulation for a whole same-L-class quartet batch.

    Upper-triangle convention as :func:`scatter_coulomb`: the bra slot
    always contributes (ket degeneracy folded in as a per-quartet
    factor), the mirrored ket slot only where ``(i, j) != (k, l)``.
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
    np.add.at(J, (rows_i[:, :, None], cols_j[:, None, :]), jblk)
    mirror = ~((i == k) & (j == l))
    if mirror.any():
        nm = int(mirror.sum())
        dij = np.where(i[mirror] == j[mirror], 1.0, 2.0)
        dij_blk = _gather_blocks(D, rows_i[mirror], cols_j[mirror])
        jblk = (dij_blk.reshape(nm, 1, nA * nB) @ bmat[mirror]).reshape(
            nm, nC, nD) * dij[:, None, None]
        np.add.at(J, (rows_k[mirror][:, :, None],
                      cols_l[mirror][:, None, :]), jblk)


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


def eval_screened_pairs(engine: ERIEngine, basis: BasisSet, pairs,
                        D: np.ndarray, J: np.ndarray | None,
                        K: np.ndarray | None, kernel: str, tr) -> int:
    """Evaluate a screened ``(i, j, kets)`` list and scatter it into J/K.

    The one place a quartet block meets a density: the direct builder,
    the incremental builder, the pool workers and the
    ``distributed_exchange`` rank loop all hand their already-screened
    pair lists here, so every executor accumulates the same quartets in
    the same order.  ``J``/``K`` are accumulated in place (``None``
    skips that matrix; J fills the upper shell triangle only — see
    :func:`scatter_coulomb`).  ``kernel="quartet"`` is the bit-exact
    per-quartet reference, ``"batched"`` groups the list by L-class.
    Returns the number of quartets evaluated.
    """
    if kernel == "batched":
        from ..integrals.batch import flatten_pairs

        with tr.span("batch.assemble", cat="batch"):
            groups = engine.group_quartets(flatten_pairs(pairs))
        for grp in groups:
            with tr.span("batch.eval", cat="batch", nq=len(grp)):
                blocks = engine.quartet_batch(grp)
            with tr.span("batch.scatter", cat="batch", nq=len(grp)):
                if J is not None:
                    scatter_coulomb_batch(basis, J, blocks, D, grp)
                if K is not None:
                    scatter_exchange_batch(basis, K, blocks, D, grp)
        return sum(len(grp) for grp in groups)
    nq = 0
    for (i, j, kets) in pairs:
        with tr.span("jk.quartet_batch", cat="quartets", nkets=len(kets)):
            for (k, l) in kets:
                k, l = int(k), int(l)
                block = engine.quartet(i, j, k, l)
                if J is not None:
                    scatter_coulomb(basis, J, block, D, (i, j, k, l))
                if K is not None:
                    # all distinct index permutations contribute
                    scatter_exchange(basis, K, block, D, (i, j, k, l))
        nq += len(kets)
    return nq


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
        """Re-target at a new geometry, dropping all per-geometry state."""
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
        self.reset(basis)

    def reset(self, basis: BasisSet) -> None:
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

    The quartet loop walks unique shell quartets (8-fold symmetry),
    skips those with ``Q_ij * Q_kl * max|D| < eps``, and scatters each
    computed block into all symmetry-related positions of J and K.
    ``eps`` is the paper's controllable-accuracy threshold.

    Execution behavior (executor, pool size, ERI kernel, telemetry
    sinks) comes from one :class:`repro.runtime.ExecutionConfig` value.
    ``executor="process"`` evaluates the surviving quartets on a
    persistent :class:`repro.runtime.pool.ExchangeWorkerPool` instead of
    in-process.  ``kernel="batched"`` groups the surviving quartet list
    by L-class and runs the batched kernel + class-level scatters
    (agrees with the per-quartet reference to ~1e-13); screening always
    stays in the parent and is kernel-independent, so both kernels and
    both executors walk the identical quartet list.  An externally
    owned pool can be shared (e.g. across the SCFs of an MD
    trajectory); otherwise the builder spawns and owns one.

    Fault tolerance: the pool heals worker deaths itself (respawn +
    re-run the lost rank jobs, bit-identically); if it cannot, the
    builder's :class:`~repro.runtime.pool.PoolLease` warns once,
    records ``pool.degraded_builds``, and this and all later builds
    finish on the serial executor instead of aborting the SCF.
    """

    def __init__(self, basis: BasisSet, eps: float = 1e-10,
                 pool=None, config=None):
        from ..runtime.execconfig import resolve_execution
        from ..runtime.pool import PoolLease

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
        keys, and the (possibly shared) pool re-pointed at ``basis``."""
        self._bind(basis)
        self.lease.reset(basis)

    def eval_pairs(self, pairs, D: np.ndarray, want_j: bool, want_k: bool
                   ) -> tuple[np.ndarray | None, np.ndarray | None, int]:
        """Raw ``(J, K, nquartets)`` sums of an already-screened pair
        list — on the pool while it is healthy (one rank job per worker,
        balanced by surviving quartet count), else in-process."""
        tr = self.config.trace
        nbf = self.basis.nbf

        def zeros():
            return (np.zeros((nbf, nbf)) if want_j else None,
                    np.zeros((nbf, nbf)) if want_k else None)

        def serial():
            J, K = zeros()
            return J, K, eval_screened_pairs(self.engine, self.basis, pairs,
                                             D, J, K, self.kernel, tr)

        def pooled(pool):
            from ..runtime.pool import balance_pairs

            results, nq = pool.exchange(
                D, balance_pairs(pairs, pool.nworkers), want_j=want_j,
                want_k=want_k, tracer=tr, kernel=self.kernel)
            # keep the parent engine's counter consistent with the
            # serial executor, where the kernel counts every evaluation
            self.engine.quartets_computed += nq
            J, K = zeros()
            for Jw, Kw in results.values():
                if want_j:
                    J += Jw
                if want_k:
                    K += Kw
            return J, K, nq

        return self.lease.run(pooled, serial, tr)

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
        with tr.span("jk.build", cat="scf", executor=self.executor,
                     kernel=self.kernel):
            dmax = blocks if blocks is not None else (
                float(np.abs(D).max()) if D.size else 0.0)
            # the vectorized screen walks bra pairs and surviving kets in
            # the same order (and with the same float test) as the older
            # fused quartet loop, so the accumulation order — and thus
            # the bitwise result — is unchanged
            with tr.span("jk.screen", cat="screening", eps=eps):
                pairs = self._screened_pairs(dmax, eps)
            J, K, self.quartets_computed = self.eval_pairs(pairs, D,
                                                           want_j, want_k)
            if want_j:
                with tr.span("jk.assemble", cat="scf"):
                    # the unique walk fills the upper shell triangle
                    # (i <= j); elementwise triangle reflection restores
                    # the full symmetric matrix (diagonal shell blocks
                    # are complete and symmetric already)
                    J = reflect_triangle(J)
            if tr.enabled:
                tr.metrics.count("jk.builds", 1)
                tr.metrics.count("jk.quartets", self.quartets_computed)
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


def check_jk_mode(mode: str, config, engine: JKEngine | None = None
                  ) -> None:
    """Refuse integral-plumbing combinations no engine serves.

    Shared by the SCF drivers (so a bad combination — or a caller-owned
    ``engine`` whose exact/fitted strategy contradicts ``config.jk``,
    which results and checkpoints are labelled with — fails at
    construction) and :func:`make_jk_engine`.
    """
    if mode not in JK_BUILD_MODES:
        raise ValueError(f"mode must be 'incore' or 'direct', got {mode!r}")
    check_jk_route(mode, config.executor, config.jk)
    if engine is not None and engine.jk != config.jk:
        raise ValueError(f"jk_engine implements jk={engine.jk!r} but the "
                         f"config says jk={config.jk!r}")


def jk_build_mode(config, requested: str | None = None) -> str:
    """The build style a driver runs under ``config``: ``"direct"``
    whenever a pool or the fitted engine needs the quartet loop (neither
    has anything to accelerate on the in-core tensor —
    :func:`check_jk_mode` refuses those combinations), else
    ``requested`` (``None`` = in-core)."""
    if config.executor == "process" or config.jk == "ri":
        return "direct"
    return requested or "incore"


def make_jk_engine(basis: BasisSet, config=None, eps: float = 1e-10,
                   pool=None, mode: str = "direct") -> JKEngine:
    """The one J/K engine for ``basis`` under ``config``.

    ===========  ========  ===========================================
    ``mode``     ``jk``    engine
    ===========  ========  ===========================================
    ``incore``   direct    :class:`TensorJKEngine`
    ``direct``   ``ri``    :class:`~repro.scf.ri_jk.RIJKBuilder`
    ``direct``   direct    :class:`~repro.hfx.IncrementalExchange`
    ===========  ========  ===========================================

    Every direct-mode exact engine builds its J/K pairs from the
    density increment (the first build at a geometry and every
    ``REBUILD_EVERY``-th one are full builds); a caller that wants the
    plain full build every time constructs a :class:`DirectJKBuilder`
    itself.  ``executor``/``kernel`` ride inside ``config`` and apply to
    every direct-mode engine; ``pool`` shares a caller-owned worker pool
    (the engine then never closes it).  The caller owns the returned
    engine: ``reset(basis)`` at geometry jumps, ``close()`` when done.
    """
    from ..runtime.execconfig import resolve_execution

    cfg = resolve_execution(config, owner="make_jk_engine")
    check_jk_mode(mode, cfg)
    if mode == "incore":
        return TensorJKEngine(basis, cfg)
    if cfg.jk == "ri":
        from .ri_jk import RIJKBuilder

        return RIJKBuilder(basis, eps=eps, pool=pool, config=cfg)
    from ..hfx.incremental import IncrementalExchange

    return IncrementalExchange(basis, eps=eps, pool=pool, config=cfg)
