"""Fock-matrix builds: Coulomb (J) and exact-exchange (K).

Two execution styles, mirroring the paper:

* in-core tensor contraction (reference; only for small validation
  systems),
* *direct* screened shell-quartet builds through
  :class:`repro.integrals.ERIEngine` — the serial analogue of the
  paper's distributed HFX build; the parallel scheme in
  :mod:`repro.hfx` partitions exactly these quartets.

One accumulation, mirroring the paper's class-batched exchange kernel,
whose data layout is fixed once per geometry and streamed every build.
The unit is one *block*: the unique quartets of one (bra pair class,
ket pair class) pair, bra-major.  A block is *compiled* once
(:class:`_Block`): its integrals in the three layouts the images
contract (J ``(ij|kl)``, K ``(ik|jl)`` and ``(il|jk)``), their flat AO
indices, the degeneracy weights ``f`` and, for the screen, the Schwarz
products ``Q_ij Q_kl`` and the six shell blocks of the density each
quartet's contractions touch.  :func:`_add_images` adds a compiled
block, weighted by ``f`` (times a keep mask), to *half* of J (two
contractions) and half of K (four images) through flat-index
``np.bincount`` scatters; ``J = Jh + Jh^T`` and ``K = Kh + Kh^T``
supply the other images, which is exact because the density is
symmetric.  A masked row adds exact zeros, so a compiled block screened
by a mask and the screen's survivors alone give the same bits.

The batched walk keeps the compiled blocks in its engine's class store
(:meth:`~repro.integrals.eri.ERIEngine.admit`): a warm in-process build
screens each held block as one keep mask and accumulates it, with no
quartet list, lookup or gather.  Every other block is screened as a
list and looked up by its codes (:func:`_stored`), its misses evaluated
and compiled.  Where the byte budget cannot hold a block compiled the
store keeps it bare (its integrals alone, the latest compiled blocks
going bare to make room), compiled anew for every build that reads it;
what it cannot hold at all, and the reference kernel's blocks, are
compiled for the one build.  Both ERI kernels feed the same
accumulation; they differ only in where a block's integrals come from.
"""

from __future__ import annotations

import numpy as np

from ..basis.basisset import BasisSet
from ..integrals import eri
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

# A masked block whose survivors are fewer than this fraction of its
# rows is gathered down to them before the contractions, else every row
# is contracted with the masked ones weighted by zero.  Each side wins
# where it is used: on the direct ladder's warm builds (seeds 1 and 2,
# ~100 masked blocks a pass below 0.5, ~475 above) gathering costs 17.7
# / 20.4 ms a pass below it against masking's 21.4 / 24.4 ms, and 115 /
# 119 ms above it against masking's 86 / 87 ms.
_GATHER_BELOW = 0.5

# The axes of each layout of a block ``(q, i, j, k, l)``: (ij|kl) as is,
# and the two layouts each image pair of K shares, (ik|jl) and (il|jk)
_LAYOUTS = ((1, 2, 3, 4), (1, 3, 2, 4), (1, 4, 2, 3))


def _layout(B: np.ndarray, t: int) -> np.ndarray:
    """Layout ``t`` of the C-contiguous blocks ``B`` ``(nq, nA, nB, nC,
    nD)`` that the images contract: what ``reshape`` makes of the
    transposed blocks, a view where one exists, else a copy.  ``einsum``
    picks its inner loop, and so the order of its sums, from the
    operands' strides: these are the strides of every build's walk."""
    a, c, b, d = _LAYOUTS[t]
    return B.transpose(0, a, c, b, d).reshape(
        len(B), B.shape[a] * B.shape[c], B.shape[b] * B.shape[d])


class _Block:
    """One block of unique quartets, compiled for :func:`_add_images`
    or bare.

    Row ``q`` is quartet ``(i, j, k, l)``: ``B`` its integrals ``(nq,
    nA, nB, nC, nD)``.  A compiled block has ``V``, the three layouts of
    ``B`` (:func:`_layout`); ``at``, the int32 flat AO indices ``ij, kl,
    ik, jl, il, jk`` of the layouts' axes; and ``f``, the degeneracy
    weight ``1 / ((1 + d_ij)(1 + d_kl)(1 + d_(ij),(kl)))``.  A block the
    store holds also carries ``codes`` (``bra row * ket class size + ket
    row``, ascending, so the rows are bra-major), and a compiled one,
    for the keep mask, ``prod`` (``Q_ij * Q_kl``) and ``sb``, the ``(6,
    nq)`` flat shell-block indices ``jl, jk, il, ik, kl, ij`` of the
    increment screen.  ``rest``, the largest ``Q_ij * Q_kl`` of the
    block's quartets it does not hold, is set by the screen that reads
    it (:meth:`DirectJKBuilder._lacks`).  A bare block is ``B`` and
    ``codes`` alone, what the store keeps of a block it has no room to
    hold compiled.
    """

    __slots__ = ("B", "V", "at", "f", "codes", "prod", "sb", "rest")

    def __init__(self, B, at=None, f=None, codes=None, prod=None, sb=None,
                 V=None):
        self.B, self.at, self.f = B, at, f
        self.V = V if V is not None or at is None else tuple(
            _layout(B, t) for t in range(3))
        self.codes, self.prod, self.sb, self.rest = codes, prod, sb, None

    def __len__(self) -> int:
        return len(self.B)

    @property
    def compiled(self) -> bool:
        return self.at is not None

    @property
    def nbytes(self) -> int:
        """Bytes held: a layout that is a view of ``B`` counts once."""
        arrays = [self.B, self.codes, self.f, self.prod, self.sb]
        if self.compiled:
            arrays += [v for v in self.V
                       if not np.may_share_memory(v, self.B)] + list(self.at)
        return sum(a.nbytes for a in arrays if a is not None)

    def bare(self) -> _Block:
        """The integrals and codes of this block, nothing compiled."""
        return _Block(self.B, codes=self.codes)

    def rows(self, sel: np.ndarray) -> _Block:
        """The accumulation part of rows ``sel``, in that order.  A
        layout that is a copy is gathered as it is (contiguous either
        way), a view is taken again of the gathered ``B``."""
        B = self.B[sel]
        V = tuple(_layout(B, t) if np.may_share_memory(v, self.B)
                  else v[sel] for t, v in enumerate(self.V))
        return _Block(B, tuple(a[sel] for a in self.at), self.f[sel], V=V)

    def merged(self, other: _Block) -> _Block:
        """This block and ``other`` (disjoint codes) as one block in
        code order: compiled if both are, else bare."""
        order = np.argsort(np.concatenate([self.codes, other.codes]),
                           kind="stable")

        def cat(a, b, axis=0):
            return np.concatenate([a, b], axis=axis).take(order, axis=axis)

        B, codes = cat(self.B, other.B), cat(self.codes, other.codes)
        if not (self.compiled and other.compiled):
            return _Block(B, codes=codes)
        return _Block(B, tuple(map(cat, self.at, other.at)),
                      cat(self.f, other.f), codes,
                      cat(self.prod, other.prod),
                      cat(self.sb, other.sb, axis=1))


def _compile(V: np.ndarray, idx: np.ndarray, basis: BasisSet,
             engine: ERIEngine | None = None, key: tuple | None = None,
             codes: np.ndarray | None = None) -> _Block:
    """Compile the blocks ``V`` ``(nq, nA, nB, nC, nD)`` of the quartets
    ``idx`` ``(nq, 4)``; with ``engine`` (whose Schwarz bounds it reads),
    the block's pair classes ``key`` and the quartets' ``codes`` also
    the screen data of a block the store can hold."""
    nq, nA, nB, nC, nD = V.shape
    nbf = basis.nbf
    i, j, k, l = idx.T
    f = 1.0 / ((1.0 + (i == j)) * (1.0 + (k == l))
               * (1.0 + ((i == k) & (j == l))))
    # int32 throughout: a flat index is below nbf², far under 2**31
    offsets = basis.offsets.astype(np.int32)
    ao = [offsets[s][:, None] + np.arange(n, dtype=np.int32)
          for s, n in zip((i, j, k, l), (nA, nB, nC, nD))]

    def flat(p: int, q: int) -> np.ndarray:
        """Flat AO indices of the (p, q) block of every quartet."""
        return (ao[p][:, :, None] * nbf + ao[q][:, None, :]).reshape(nq, -1)

    blk = _Block(V, tuple(flat(p, q) for p, q in
                          ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2))),
                 f)
    if engine is not None:
        q_b, q_k = (engine.pair_bounds()[c] for c in key)
        blk.codes = codes
        rb, rk = np.divmod(codes, len(q_k))
        blk.prod = q_b[rb] * q_k[rk]
        i, j, k, l = idx.astype(np.int32).T
        nsh = basis.nshell
        blk.sb = np.stack([j * nsh + l, j * nsh + k, i * nsh + l,
                           i * nsh + k, k * nsh + l, i * nsh + j])
    return blk


def _add_images(Jh: np.ndarray | None, Kh: np.ndarray | None, blk: _Block,
                Df: np.ndarray, keep: np.ndarray | None = None) -> None:
    """Add the rows of ``blk`` that ``keep`` marks (all without one) to
    the flat half matrices ``Jh`` and ``Kh`` (either may be ``None``).

    ``Df`` is the flattened symmetric density.  The eight ordered images
    of ``(ij|kl)``, each weighted by ``f`` so that coinciding images
    count once, add ``2f V.D_kl`` to ``J_ij`` and ``2f D_ij.V`` to
    ``J_kl``, and ``f`` times the contraction to ``K_ik``, ``K_jk``,
    ``K_il`` and ``K_jl``; the other half of every sum is the transpose
    of one of these.  A D block is gathered through the flat indices
    its partner image scatters through.  A masked row is weighted by
    ``f * 0`` and adds exact zeros to the ``bincount`` sums, so the
    result is the bits of the kept rows alone; where few rows are kept
    (``_GATHER_BELOW``) they are gathered instead, in order, the same
    bits.
    """
    f = blk.f
    if keep is not None:
        if np.count_nonzero(keep) < _GATHER_BELOW * len(keep):
            blk = blk.rows(np.flatnonzero(keep))
            f = blk.f
        else:
            f = f * keep
    nn = len(Df)

    def scatter(M: np.ndarray, at: np.ndarray, vals: np.ndarray) -> None:
        M += np.bincount(at.ravel(), vals.ravel(), nn)

    def images(M: np.ndarray, V2: np.ndarray, rows: np.ndarray,
               cols: np.ndarray, w: np.ndarray) -> None:
        """The two images of one ``(nq, rows, cols)`` layout of V: the
        row block contracted against D's column block, and back.  (A
        batched matrix-vector product is ~2x faster in ``einsum`` than
        in ``matmul`` at these sizes, and ``take`` gathers through int32
        indices ~3x faster than fancy indexing.)"""
        for at, x in ((rows, np.einsum("qmn,qn->qm", V2, Df.take(cols))),
                      (cols, np.einsum("qmn,qm->qn", V2, Df.take(rows)))):
            scatter(M, at, np.multiply(x, w, out=x))

    if Jh is not None:
        images(Jh, blk.V[0], blk.at[0], blk.at[1], (2.0 * f)[:, None])
    if Kh is not None:
        images(Kh, blk.V[1], blk.at[2], blk.at[3], f[:, None])
        images(Kh, blk.V[2], blk.at[4], blk.at[5], f[:, None])


def _admit(engine: ERIEngine, key: tuple, blk: _Block,
           old: _Block | None) -> bool:
    """Hold ``blk`` in ``engine``'s class store in place of ``old`` (the
    block it extends); whether it is held.

    Compiled while :data:`~repro.integrals.eri.CLASS_STORE_BYTES`
    allows; else bare, if letting the latest compiled blocks go bare
    makes room for it.  Integrals are never dropped, so the store holds
    the integrals of as many blocks as bare blocks alone would fit,
    compiled where there is room left.
    """
    if engine.admit(key, blk, old):
        return True
    bare = blk.bare()
    others = [k for k, b in engine.store.items() if k != key and b.compiled]
    spare = sum(engine.store[k].nbytes - engine.store[k].bare().nbytes
                for k in others)
    if engine.store_bytes - spare + bare.nbytes \
            - (0 if old is None else old.nbytes) > eri.CLASS_STORE_BYTES:
        return False
    for k in reversed(others):
        if engine.admit(key, bare, old):
            return True
        engine.admit(k, engine.store[k].bare(), engine.store[k])
    return engine.admit(key, bare, old)


def _stored(engine: ERIEngine, basis: BasisSet, cls: np.ndarray
            ) -> tuple[_Block, np.ndarray | None]:
    """The compiled rows of the screened list ``cls`` (one block) from
    ``engine``'s class store: ``(block, keep)`` with ``keep`` the mask
    of ``cls``'s rows in a block whose code order ``cls`` walks
    (``None``: the block is ``cls``, row for row).

    The list's pair classes and rows are found by one
    :meth:`~repro.integrals.pairclass.PairClasses.locate` per side; what
    the store lacks is evaluated from those rows in one
    :meth:`~repro.integrals.eri.ERIEngine.quartet_batch`, compiled and
    merged into the held block in code order, and held again
    (:func:`_admit`); a block the store cannot hold serves this build
    alone.  A bare block's rows are compiled for the one build.  Counts
    ``store_hits`` and ``store_misses``.
    """
    i, j, k, l = cls.T
    nsh = basis.nshell
    if np.any(i * (2 * nsh - 1 - i) + 2 * j > k * (2 * nsh - 1 - k) + 2 * l):
        # a ket pair before its bra in (i, j) order (the distributed
        # scheme's task lists): a quartet no screen of this block keeps,
        # so it never enters the store its keep masks read
        engine.store_misses += len(cls)
        return _compile(engine.quartet_batch(cls), cls, basis), None
    classes = pair_classes(basis)
    cb, rb = classes.locate(i, j)
    ck, rk = classes.locate(k, l)
    key = (cb, ck)
    codes = rb * len(classes.pair_class(ck)) + rk
    held = engine.store.get(key)

    def find(blk):
        if blk is None:
            return None, np.zeros(len(cls), dtype=bool)
        pos = np.minimum(np.searchsorted(blk.codes, codes), len(blk) - 1)
        return pos, blk.codes[pos] == codes

    pos, hit = find(held)
    nhit = int(np.count_nonzero(hit))
    engine.store_hits += nhit
    engine.store_misses += len(cls) - nhit
    if nhit < len(cls):
        miss = np.flatnonzero(~hit)
        miss = miss[np.argsort(codes[miss], kind="stable")]   # code order
        new = _compile(engine.quartet_batch(
            cls[miss], (cb, rb[miss], ck, rk[miss])),
            cls[miss], basis, engine, key, codes[miss])
        whole = new if held is None else held.merged(new)
        _admit(engine, key, whole, held)    # else held for this build
        held = whole
        pos, _ = find(held)
    if not held.compiled:
        return _compile(held.B[pos], cls, basis), None
    if len(pos) > 1 and np.any(np.diff(pos) <= 0):
        return held.rows(pos), None         # a list in another order
    if len(pos) == len(held):
        return held, None
    keep = np.zeros(len(held), dtype=bool)
    keep[pos] = True
    return held, keep


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
                        work, tr, want_j: bool, want_k: bool, kernel: str
                        ) -> tuple[np.ndarray | None, np.ndarray | None, int]:
    """The J/K rank-job unit: screened blocks into their own J and K.

    ``work`` is a list of blocks in walk order, each either a ``(nq, 4)``
    unique-quartet array of one block (what
    :meth:`DirectJKBuilder._screened_classes` returns, or a rank's share
    of it) or, from the builder's own in-process screen
    (:meth:`DirectJKBuilder._screened_work`), ``(key, keep)``: the
    ``keep`` mask (``None``: every row) of the compiled block ``key`` in
    ``engine``'s class store.  The one place a quartet block meets a
    density; it runs through :func:`repro.runtime.pool.run_rank_jobs`
    in-process and inside every pool worker, so a rank job is the same
    bits wherever it runs.  Each list is compiled (:func:`_compile`) and
    every block added to half of J and K (:func:`_add_images`); ``J =
    Jh + Jh^T`` and ``K = Kh + Kh^T`` at the end.  ``D`` must be
    symmetric (the :meth:`JKEngine.build` contract).  ``kernel`` only
    chooses where a list's integrals come from: ``"quartet"`` evaluates
    each row with the reference evaluator
    (:meth:`~repro.integrals.eri.ERIEngine.quartet`) and stores nothing;
    ``"batched"`` reads and fills ``engine``'s class store
    (:func:`_stored`), and the blocks are the same bits either way.

    Returns ``(J, K, nquartets)``: ``None`` for an unrequested matrix,
    and ``nquartets`` the quartets walked, wherever their blocks came
    from.
    """
    nbf = basis.nbf
    Df = np.ascontiguousarray(D).reshape(-1)
    Jh = np.zeros(nbf * nbf) if want_j else None
    Kh = np.zeros(nbf * nbf) if want_k else None
    walked = 0
    for item in work:
        if isinstance(item, np.ndarray):
            nq = len(item)
            with tr.span("batch.eval", cat="batch", nq=nq):
                if kernel == "batched":
                    blk, keep = _stored(engine, basis, item)
                else:
                    blk = _compile(np.stack([engine.quartet(*q)
                                             for q in item.tolist()]),
                                   item, basis)
                    keep = None
        else:
            blk, keep = engine.store[item[0]], item[1]
            nq = len(blk) if keep is None else int(np.count_nonzero(keep))
            engine.store_hits += nq
        walked += nq
        with tr.span("batch.scatter", cat="batch", nq=nq):
            _add_images(Jh, Kh, blk, Df, keep)

    def whole(M: np.ndarray | None) -> np.ndarray | None:
        if M is None:
            return None
        M = M.reshape(nbf, nbf)
        return M + M.T

    with tr.span("batch.assemble", cat="batch"):
        J, K = whole(Jh), whole(Kh)
    return J, K, walked


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
    with ``Q_ij * Q_kl * max|D| < eps`` (one vectorised bound per
    (bra pair class, ket pair class) block), and adds the surviving
    quartets, one block at a time, to half of J and K, which the
    transpose completes (:func:`eval_screened_pairs`).  ``eps`` is the
    paper's controllable-accuracy threshold.

    Execution behavior (executor, pool size, ERI kernel, telemetry
    sinks) comes from one :class:`repro.runtime.ExecutionConfig` value.
    ``executor="process"`` evaluates the surviving quartets on a
    persistent :class:`repro.runtime.pool.ExchangeWorkerPool` instead of
    in-process.  ``kernel`` picks the evaluator of a block's integrals —
    ``"quartet"`` the per-quartet reference, ``"batched"`` the class
    kernel through the class store (the two agree to ~1e-13); the
    accumulation is the same either way.  Screening always stays in the
    parent and is kernel-independent, so both kernels and both
    executors keep the identical quartets.  An externally owned pool
    can be shared (e.g. across the SCFs of an MD trajectory); otherwise
    the builder spawns and owns one.  On the pool the rows of each
    block are split by bra into ``(nq, 4)`` lists
    (:meth:`_screened_classes`): the first build at a geometry assigns
    every bra to a rank (LPT on its survivors) and later builds keep
    that ownership, so each worker compiles and keeps its own bra rows.

    The batched walk reads and fills the class store of the engine that
    runs it: the builder's own engine in-process, each worker's engine
    on the pool (each keeps the blocks of the rank jobs it ran).  A
    block enters the store compiled (:class:`_Block`: three layouts,
    flat indices, weights and screen data), so an in-process warm build
    screens every held block as one keep mask on its stored
    ``Q_ij Q_kl`` (:meth:`_screened_work`) and contracts it as it lies;
    only a block that may miss a survivor is screened as a list again.
    A block the byte budget cannot hold compiled is held bare and
    compiled per build, as is one it cannot hold at all.  Every
    ``reset`` to a new geometry rebuilds those engines, so a store
    holds one geometry.  Memory: at most
    :data:`~repro.integrals.eri.CLASS_STORE_BYTES` of blocks plus
    O(nbf²) per process, ``nworkers`` times that on the pool.

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
        npair = len(self._qvals)
        # the basis's pair classes in signature order, each as its class
        # id, its pairs' positions in (i, j) order, the pairs and their
        # bounds: every (bra class, ket class) block of quartets is one
        # block of the store
        classes = pair_classes(basis)
        bounds = self.engine.pair_bounds()
        nsh = basis.nshell
        pos = np.zeros((nsh, nsh), dtype=np.int64)
        pos[np.triu_indices(nsh)] = np.arange(npair)
        self._pair_classes = []
        for cls in classes.by_signature():
            cid = int(classes.cid[cls.ij[0, 0], cls.ij[0, 1]])
            self._pair_classes.append(
                (cid, pos[cls.ij[:, 0], cls.ij[:, 1]], cls.ij, bounds[cid]))
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

            def jobs(pool) -> list[RankJob]:
                """In-process one job (the batched kernel's screened
                straight into masks of the class store it reads),
                pooled one per worker."""
                with tr.span("jk.screen", cat="screening", eps=eps):
                    if pool is None and self.kernel == "batched":
                        return [RankJob(0, self._screened_work(dmax, eps))]
                    classes = self._screened_classes(dmax, eps)
                if pool is None:
                    return [RankJob(0, classes)]
                return self._balance(classes, pool.nworkers)

            results, self.quartets_computed = self.eval_jobs(
                jobs, D, want_j, want_k)
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
        block, bra-major within each.

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
        out = []
        for bra, ket in self._blocks(dmax, eps):
            cls = self._screen_block(bra, ket, dmax, eps)
            if len(cls):
                out.append(cls)
        return out

    def _screened_work(self, dmax, eps: float) -> list:
        """The survivors of :meth:`_screened_classes` as work for
        :func:`eval_screened_pairs` on this builder's own engine: a
        block the class store holds compiled and that holds every
        survivor is screened as one keep mask over its rows, ``(key,
        keep)``; any other block is screened as a list.

        The mask is the list's float test, ``~(Q_ij Q_kl * d < eps)``,
        on the block's stored products.  Whether the block can miss a
        survivor is decided from the largest ``Q_ij Q_kl`` it lacks
        (:meth:`_lacks`) alone: no quartet it lacks survives when that
        times ``max(d)`` is below ``eps`` (the test is monotone in both
        factors), so a warm build screens no list.
        """
        incr = np.ndim(dmax) == 2
        if incr:
            dflat = np.ascontiguousarray(dmax).reshape(-1)
            top = dflat.max() if dflat.size else 0.0
        else:
            top = max(dmax, 1.0)
        store = self.engine.store
        work = []
        for bra, ket in self._blocks(dmax, eps):
            key = (bra[0], ket[0])
            blk = store.get(key)
            if blk is not None and blk.compiled:
                if blk.rest is None:
                    blk.rest = self._lacks(bra, ket, blk.codes)
                if blk.rest * top < eps:
                    m = top
                    if incr:    # the largest of the six blocks, row by row
                        m = dflat.take(blk.sb[0])
                        for sb in blk.sb[1:]:
                            np.maximum(m, dflat.take(sb), out=m)
                    keep = ~(blk.prod * m < eps)
                    n = np.count_nonzero(keep)
                    if n:
                        work.append((key, None if n == len(keep) else keep))
                    continue
            cls = self._screen_block(bra, ket, dmax, eps)
            if len(cls):
                work.append(cls)
        return work

    @staticmethod
    def _lacks(bra, ket, codes: np.ndarray) -> float:
        """The largest ``Q_ij Q_kl`` among the unique quartets of the
        (``bra``, ``ket``) block that a block holding ``codes`` lacks
        (``-inf``: it holds them all); set once per stored block, whose
        rows only a new block extends."""
        _, pos_b, _, q_b = bra
        _, pos_k, _, q_k = ket
        prod = np.where(pos_b[:, None] <= pos_k, q_b[:, None] * q_k,
                        -np.inf).reshape(-1)
        prod[codes] = -np.inf
        return float(prod.max())

    def _blocks(self, dmax, eps: float) -> list[tuple]:
        """The (bra pair class, ket pair class) blocks of unique
        quartets, in walk order, less those the increment screen drops
        whole: ``max(Q_b) max(Q_k) * max(dmax) < eps`` bounds every
        quartet's test from above.  Sets :attr:`quartets_total`, the
        unique quartets a screen chooses from."""
        npair = len(self._qvals)
        self.quartets_total = npair * (npair + 1) // 2
        top = np.max(dmax) if np.ndim(dmax) == 2 and np.size(dmax) else None
        return [(bra, ket) for bra in self._pair_classes
                for ket in self._pair_classes
                # not when every ket pair precedes every bra
                if bra[1][0] <= ket[1][-1] and (
                    top is None or not bra[3].max() * ket[3].max() * top
                    < eps)]

    def _screen_block(self, bra, ket, dmax, eps: float) -> np.ndarray:
        """One block's surviving quartets ``(nq, 4)``, bra-major."""
        _, pos_b, bra_ij, q_b = bra
        _, pos_k, ket_ij, q_k = ket
        blocks = np.ndim(dmax) == 2
        m = dmax if blocks else max(dmax, 1.0)
        k, l = ket_ij.T
        step = max(1, _SCREEN_SCRATCH // len(pos_k))
        rows = []
        for s in range(0, len(pos_b), step):
            sl = slice(s, s + step)
            if blocks:
                i, j = bra_ij[sl, :1], bra_ij[sl, 1:]
                m = np.maximum(
                    np.maximum(np.maximum(dmax[j, l], dmax[j, k]),
                               np.maximum(dmax[i, l], dmax[i, k])),
                    np.maximum(dmax[k, l], dmax[i, j]))
            keep = (pos_b[sl, None] <= pos_k) \
                & ~(q_b[sl, None] * q_k * m < eps)
            a, b = np.nonzero(keep)
            rows.append(np.hstack([bra_ij[sl][a], ket_ij[b]]))
        return np.concatenate(rows)


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
