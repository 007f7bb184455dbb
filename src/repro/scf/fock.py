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
ket pair class) pair, bra-major, *compiled* once (:class:`_Block`) into
the three integral layouts the images contract, their flat AO indices,
the degeneracy weights and the screen's data.  :func:`_add_images` adds
a compiled block, weighted by ``f`` (times a keep mask), to *half* of J
and K through flat-index ``np.bincount`` scatters; ``J = Jh + Jh^T`` and
``K = Kh + Kh^T`` supply the other images, which is exact because the
density is symmetric.  A masked row adds exact zeros, so a compiled
block screened by a mask and the screen's survivors alone give the same
bits.

The batched walk keeps each block in its engine's class store
(:meth:`~repro.integrals.eri.ERIEngine.admit`) as a *Schwarz cut*
(:class:`_Block`), screens it as one keep mask and accumulates it as it
lies, first extending a cut that may lack a survivor by one band
(:func:`_extend`).  Past the byte budget a block is held bare and
compiled per build; a block the store cannot hold at all, and every
block of the reference kernel, is list-screened and compiled for the
one build.  Both ERI kernels feed the same accumulation.
"""

from __future__ import annotations

import numpy as np

from ..basis.basisset import BasisSet
from ..integrals import eri
from ..integrals.eri import ERIEngine, eri_tensor
from ..integrals.pairclass import _blocks, _grid, _pair_walk, _Side
from ..runtime.boundary import check_jk_route
from ..runtime.pool import PoolLease, RankJob, own_bras

__all__ = ["jk_from_tensor", "coulomb_from_tensor", "exchange_from_tensor",
           "JKEngine", "TensorJKEngine", "DirectJKBuilder", "make_jk_engine",
           "eval_screened_pairs"]

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


def _walk_blocks(walk: list[_Side], dmax, eps: float) -> list[tuple]:
    """The (bra, ket) blocks of unique quartets, in walk order, less
    those the increment screen drops whole: ``max(Q_b) max(Q_k) *
    max(dmax) < eps`` bounds every quartet's test from above."""
    top = np.max(dmax) if np.ndim(dmax) == 2 and np.size(dmax) else None
    return [(bra, ket) for bra, ket in _blocks(walk)
            if top is None or not bra.q.max() * ket.q.max() * top < eps]


def _six(dmax: np.ndarray, i, j, k, l) -> np.ndarray:
    """The increment screen's bound of quartets ``(i, j, k, l)``: the
    largest ``max|dD|`` of the six shell blocks their J and K
    contractions touch, ``(k,l)`` and ``(i,j)`` for J, ``(j,l), (j,k),
    (i,l), (i,k)`` for K."""
    return np.maximum(
        np.maximum(np.maximum(dmax[j, l], dmax[j, k]),
                   np.maximum(dmax[i, l], dmax[i, k])),
        np.maximum(dmax[k, l], dmax[i, j]))


def _cells(bra: _Side, ket: _Side, served: np.ndarray, tau: np.ndarray):
    """The cut (``served``, ``tau``) of the (``bra``, ``ket``) block: its
    quartets' bra rows, ket rows and products, in code order, and
    ``under``, the largest product of a served row below its ``tau``."""
    parts, under = [], -np.inf
    for r, U, G in _grid(bra, ket, served):
        under = max(under, float(np.max(G, where=U & (G < tau[r, None]),
                                        initial=-np.inf)))
        a, b = np.nonzero(U & (G >= tau[r, None]))
        parts.append((r[a], b, G[a, b]))
    return (*(np.concatenate(p) for p in zip(*parts)), under)


def _screen_block(bra: _Side, ket: _Side, dmax, eps: float,
                  rows: np.ndarray | None = None) -> np.ndarray:
    """One block's surviving quartets ``(nq, 4)``, bra-major; with
    ``rows`` (a bool per bra pair) those of the marked bras alone.

    ``dmax`` is the global ``max|D|`` of a full build (a float: every
    quartet is bounded by ``Q_ij Q_kl max(dmax, 1)``) or an ``(nshell,
    nshell)`` table of per-shell-block ``max|dD|`` (the increment
    screen, :func:`_six`).  The float test is ``Q_ij * Q_kl * d < eps``
    in that order either way, so every executor and caller keeps or
    drops exactly the same boundary quartets."""
    out = []
    for r, U, G in _grid(bra, ket, rows):
        m = max(dmax, 1.0) if np.ndim(dmax) != 2 else _six(
            dmax, bra.ij[r, :1], bra.ij[r, 1:], *ket.ij.T)
        a, b = np.nonzero(U & ~(G * m < eps))
        out.append(np.hstack([bra.ij[r[a]], ket.ij[b]]))
    return np.concatenate(out)


class _Block:
    """One block of unique quartets, compiled for :func:`_add_images`
    or bare.  Row ``q`` is quartet ``(i, j, k, l)``: ``B`` its
    integrals ``(nq, nA, nB, nC, nD)``.  A compiled block has ``V``, the
    three layouts of ``B`` (:func:`_layout`); ``at``, the int32 flat AO
    indices ``ij, kl, ik, jl, il, jk`` of the layouts' axes; ``f``, the
    degeneracy weight ``1 / ((1 + d_ij)(1 + d_kl)(1 + d_(ij),(kl)))``;
    and, for the keep mask, ``prod`` (``Q_ij * Q_kl``) and ``sb``, the
    ``(6, nq)`` flat shell-block indices ``jl, jk, il, ik, kl, ij`` of
    the increment screen.

    A held block is a Schwarz cut of its ``Q_ij Q_kl`` grid: the quartets
    of the bra rows ``served`` (a bool per bra pair) whose product is at
    least their row's ``tau`` (a float per bra pair), in code order,
    ``nrow`` of them in each bra row.  ``under`` is the largest product
    of a served row below its ``tau`` (``-inf``: none): a build at
    ``eps`` with density bound ``top`` keeps nothing the cut lacks in
    those rows when ``under * top < eps``.  A bare block is ``B`` and
    the cut alone.
    """

    __slots__ = ("B", "V", "at", "f", "prod", "sb", "served", "tau",
                 "under", "nrow")

    def __init__(self, B, at=None, f=None, prod=None, sb=None, V=None):
        self.B, self.at, self.f, self.prod, self.sb = B, at, f, prod, sb
        self.V = V if V is not None or at is None else tuple(
            _layout(B, t) for t in range(3))
        self.served = self.tau = self.under = self.nrow = None

    def __len__(self) -> int:
        return len(self.B)

    @property
    def compiled(self) -> bool:
        return self.at is not None

    @property
    def nbytes(self) -> int:
        """Bytes held: a layout that is a view of ``B`` counts once."""
        arrays = [self.B, self.f, self.prod, self.sb, self.served,
                  self.tau, self.nrow]
        if self.compiled:
            arrays += [v for v in self.V
                       if not np.may_share_memory(v, self.B)] + list(self.at)
        return sum(a.nbytes for a in arrays if a is not None)

    def bare(self) -> _Block:
        """The integrals and cut of this block, nothing compiled."""
        return self.cut(_Block(self.B))

    def cut(self, blk: _Block) -> _Block:
        """``blk`` given this block's cut."""
        blk.served, blk.tau, blk.under, blk.nrow = \
            self.served, self.tau, self.under, self.nrow
        return blk

    def rows(self, sel: np.ndarray) -> _Block:
        """The accumulation part of rows ``sel``, in that order.  A
        layout that is a copy is gathered as it is (contiguous either
        way), a view is taken again of the gathered ``B``."""
        B = self.B[sel]
        V = tuple(_layout(B, t) if np.may_share_memory(v, self.B)
                  else v[sel] for t, v in enumerate(self.V))
        return _Block(B, tuple(a[sel] for a in self.at), self.f[sel], V=V)


def _compile(V: np.ndarray, idx: np.ndarray, basis: BasisSet,
             prod: np.ndarray | None = None) -> _Block:
    """Compile the blocks ``V`` ``(nq, nA, nB, nC, nD)`` of the quartets
    ``idx`` ``(nq, 4)``; with their Schwarz products ``prod`` also the
    screen data of the keep mask."""
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
        return (ao[p][:, :, None] * nbf + ao[q][:, None, :]).reshape(
            nq, ao[p].shape[1] * ao[q].shape[1])

    sb = None
    if prod is not None:
        i, j, k, l = idx.astype(np.int32).T
        nsh = basis.nshell
        sb = np.stack([j * nsh + l, j * nsh + k, i * nsh + l,
                       i * nsh + k, k * nsh + l, i * nsh + j])
    return _Block(V, tuple(flat(p, q) for p, q in
                           ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2))),
                  f, prod, sb)


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


def _room(engine: ERIEngine, key: tuple, nbytes: int,
          old: _Block | None) -> bool:
    """Whether ``engine``'s class store can hold a bare block of
    ``nbytes`` under ``key`` in place of ``old``, once every other
    compiled block has gone bare."""
    spare = sum(b.nbytes - b.bare().nbytes for k, b in engine.store.items()
                if k != key and b.compiled)
    return engine.store_bytes - (0 if old is None else old.nbytes) \
        + nbytes - spare <= eri.CLASS_STORE_BYTES


def _admit(engine: ERIEngine, key: tuple, blk: _Block,
           old: _Block | None) -> bool:
    """Hold ``blk`` in ``engine``'s class store in place of ``old``:
    compiled while :data:`~repro.integrals.eri.CLASS_STORE_BYTES`
    allows, else bare, the latest compiled blocks going bare until it
    fits (:func:`_room` tells whether it will); whether it is held.
    Integrals are never dropped, so the store holds as many blocks as
    fit bare."""
    if engine.admit(key, blk, old):
        return True
    for k in reversed([k for k, b in engine.store.items()
                       if k != key and b.compiled]):
        if engine.admit(key, blk.bare(), old):
            return True
        engine.admit(k, engine.store[k].bare(), engine.store[k])
    return engine.admit(key, blk.bare(), old)


def _extend(engine: ERIEngine, basis: BasisSet, bra: _Side, ket: _Side,
            held: _Block | None, rows: np.ndarray, dmax, top: float,
            eps: float, tr) -> tuple | None:
    """The cut ``held`` (``None``: nothing) of the (``bra``, ``ket``)
    block grown to serve the bra rows ``rows`` and to hold every quartet
    of them a build at ``eps`` keeps (``dmax`` as :func:`_screen_block`
    takes it, ``top`` its largest bound), compiled and held: ``(block,
    old)``, ``old`` marking the rows held before (``None``: all).
    ``None``, with nothing evaluated, when the store has no room for it.

    A served row's new ``tau`` is its smallest product below the old
    one that passes the list screen's own test, ``~(Q_ij Q_kl * d <
    eps)`` with each quartet's bound ``d``: a row's cut depends on that
    row alone, so every process serving it holds the same quartets of
    it.  The band gained is evaluated in one class batch and placed
    beside the held rows by a boolean mask.
    """
    key = (bra.cid, ket.cid)
    served = rows if held is None else held.served | rows
    tau = np.full(len(served), np.inf) if held is None else held.tau.copy()
    for r, U, G in _grid(bra, ket, served):
        a, b = np.nonzero(U & (G < tau[r, None]) & ~(G * top < eps))
        g, r = G[a, b], r[a]
        if np.ndim(dmax) == 2:
            kept = ~(g * _six(dmax, *bra.ij[r].T, *ket.ij[b].T) < eps)
            g, r = g[kept], r[kept]
        np.minimum.at(tau, r, g)
    if held is not None and np.array_equal(tau, held.tau) \
            and not (served > held.served).any():
        return held, None
    rb, rk, prod, under = _cells(bra, ket, served, tau)
    nrow = np.bincount(rb, minlength=len(served))
    if not _room(engine, key, len(rb) * int(np.prod(bra.shape + ket.shape))
                 * 8 + sum(a.nbytes for a in (served, tau, nrow)), held):
        return None
    old = np.zeros(len(rb), dtype=bool) if held is None \
        else held.served[rb] & (prod >= held.tau[rb])
    idx = np.hstack([bra.ij[rb], ket.ij[rk]])
    B = np.empty((len(rb),) + bra.shape + ket.shape)
    if held is not None:
        B[old] = held.B
    new = np.flatnonzero(~old)
    if len(new):
        with tr.span("batch.eval", cat="batch", nq=len(new)):
            B[new] = engine.quartet_batch(
                idx[new], (bra.cid, rb[new], ket.cid, rk[new]))
    blk = _compile(B, idx, basis, prod)
    blk.served, blk.tau, blk.under, blk.nrow = served, tau, under, nrow
    admitted = _admit(engine, key, blk, held)
    assert admitted, "the store refused a block it had room for"
    return blk, old


def _rank_walk(engine: ERIEngine, basis: BasisSet, owned: np.ndarray,
               dmax, eps: float, kernel: str, tr):
    """The blocks of the bras ``owned`` marks, in walk order: ``(block,
    keep, None)``, a held cut and its keep mask (``None``: every row),
    or ``(None, None, list)``, survivors to evaluate for this build (the
    reference kernel, and a block the store cannot hold).

    A cut that may lack a survivor is extended first (:func:`_extend`),
    and a bare one compiled for the build; its keep mask is the list
    screen's float test ``~(Q_ij Q_kl * d < eps)`` on its stored
    products, cut to the owned bras where it serves others too (a dead
    worker's re-run rank job).  Counts ``store_hits`` (survivors held
    before this build) and ``store_misses``.
    """
    nsh = basis.nshell
    dflat = np.ravel(dmax) if np.ndim(dmax) == 2 else None
    top = max(dmax, 1.0) if dflat is None else dflat.max(initial=0.0)
    walk = _pair_walk(engine)
    rows_of = {side.cid: rows for side in walk
               if (rows := owned[side.ij[:, 0] * nsh + side.ij[:, 1]]).any()}
    for bra, ket in _walk_blocks(walk, dmax, eps):
        rows = rows_of.get(bra.cid)
        if rows is None:
            continue
        with tr.span("jk.screen", cat="screening"):
            held, old = (engine.store.get((bra.cid, ket.cid))
                         if kernel == "batched" else None), None
            if kernel == "batched" and (
                    held is None or (rows > held.served).any()
                    or not held.under * top < eps):
                held, old = _extend(engine, basis, bra, ket, held, rows,
                                    dmax, top, eps, tr) or (None, None)
            if held is not None and not held.compiled:
                rb, rk, prod, _ = _cells(bra, ket, held.served, held.tau)
                held = held.cut(_compile(
                    held.B, np.hstack([bra.ij[rb], ket.ij[rk]]), basis, prod))
            if held is None:
                cls = _screen_block(bra, ket, dmax, eps, rows)
                item = (None, None, cls) if len(cls) else None
            else:
                # the largest of six blocks, by row
                m = top if dflat is None else dflat.take(held.sb).max(axis=0)
                keep = ~(held.prod * m < eps)
                if (held.served > rows).any():
                    keep &= np.repeat(rows, held.nrow)
                n = int(np.count_nonzero(keep))
                hits = n if old is None else int(np.count_nonzero(keep & old))
                engine.store_hits += hits
                engine.store_misses += n - hits
                item = (held, None if n == len(keep) else keep, None) \
                    if n else None
        if item is not None:
            yield item


def eval_screened_pairs(engine: ERIEngine, basis: BasisSet, D: np.ndarray,
                        work, tr, want_j: bool, want_k: bool, kernel: str,
                        screen: tuple | None = None
                        ) -> tuple[np.ndarray | None, np.ndarray | None, int]:
    """The J/K rank-job unit: screened blocks into their own J and K.

    With ``screen`` ``(dmax, eps)`` — the builder's rank job — ``work``
    is a bool per shell pair ``(i, j)`` at ``i * nshell + j``, the bras
    the rank owns, and the unit screens and walks every block of them
    (:func:`_rank_walk`; ``dmax`` as :func:`_screen_block` takes it).
    Without, ``work`` is a list of ``(nq, 4)`` quartet arrays, one pair
    class per side each (the distributed scheme's task lists), evaluated
    as given and never stored.  It runs through
    :func:`repro.runtime.pool.run_rank_jobs` in-process and in every
    pool worker, so a rank job is the same bits wherever it runs; ``D``
    must be symmetric (:func:`_add_images`).  ``kernel`` only chooses
    where integrals come from: ``"quartet"`` the reference evaluator
    per row of a list, storing nothing; ``"batched"`` class batches,
    holding the rank's cuts in ``engine``'s class store.

    Returns ``(J, K, nquartets)``: ``None`` for an unrequested matrix,
    and ``nquartets`` the quartets walked, wherever they came from.
    """
    nbf = basis.nbf
    Df = np.ascontiguousarray(D).reshape(-1)
    Jh = np.zeros(nbf * nbf) if want_j else None
    Kh = np.zeros(nbf * nbf) if want_k else None
    walked = 0
    items = ((None, None, cls) for cls in work) if screen is None \
        else _rank_walk(engine, basis, work, *screen, kernel, tr)
    for blk, keep, cls in items:
        if blk is None:
            with tr.span("batch.eval", cat="batch", nq=len(cls)):
                if kernel == "batched":
                    engine.store_misses += len(cls)
                    V = engine.quartet_batch(cls)
                else:
                    V = np.stack([engine.quartet(*q) for q in cls.tolist()])
                blk = _compile(V, cls, basis)
        nq = len(blk) if keep is None else int(np.count_nonzero(keep))
        walked += nq
        with tr.span("batch.scatter", cat="batch", nq=nq):
            _add_images(Jh, Kh, blk, Df, keep)

    with tr.span("batch.assemble", cat="batch"):
        J, K = (None if M is None else M.reshape(nbf, nbf)
                + M.reshape(nbf, nbf).T for M in (Jh, Kh))
    return J, K, walked


def coulomb_from_tensor(eri: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Coulomb matrix J_pq = sum_rs (pq|rs) D_rs."""
    return np.einsum("pqrs,rs->pq", eri, D, optimize=True)


def exchange_from_tensor(eri: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Exchange matrix K_pq = sum_rs (pr|qs) D_rs, contracted on the
    tensor as it lies (an optimized ``einsum`` path copies it first)."""
    return np.einsum("prqs,rs->pq", eri, D)


def jk_from_tensor(eri: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both J and K from an in-core ERI tensor."""
    return coulomb_from_tensor(eri, D), exchange_from_tensor(eri, D)


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
    Every build is rank jobs of the one J/K unit
    (:func:`eval_screened_pairs`), each carrying the bras it owns,
    ``dmax`` and ``eps``: the rank screens and walks its own blocks.
    In-process rank 0 owns every bra; ``executor="process"`` runs one
    job per worker of a persistent, shared or owned
    :class:`repro.runtime.pool.ExchangeWorkerPool`, the bras given out
    by LPT on their survivors at the first pooled build of a geometry
    (:func:`~repro.runtime.pool.own_bras`), the only build the parent
    screens.  ``kernel`` picks the evaluator of a block's integrals —
    ``"quartet"`` the per-quartet reference, ``"batched"`` the class
    kernel, which holds Schwarz cuts (:class:`_Block`) in the class store
    of the engine that runs it (each worker's, for its own bras; a reset
    to a new geometry makes new engines).  Memory: at most
    :data:`~repro.integrals.eri.CLASS_STORE_BYTES` of blocks plus
    O(nbf²) per process.

    Counters: ``quartets_computed`` (and ``jk.quartets``) counts the
    quartets *walked* per build; ``engine.quartets_computed`` the
    quartets *evaluated*, on either executor (pool workers report theirs
    back).  Each build adds ``jk.store.hits`` (survivors a cut held
    before the build) and ``jk.store.misses`` (hits + misses = walked on
    the batched kernel) and raises the ``jk.store.bytes`` maximum, the
    largest store one process holds; the ``jk.build`` span carries the
    same three as ``store_*``.

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
        self.quartets_total = self.quartets_computed = 0
        self._bind(basis)
        self.lease = PoolLease(basis, self.config, pool,
                               owner=type(self).__name__)

    def _bind(self, basis: BasisSet) -> None:
        self.basis = basis
        self.engine = ERIEngine(basis)
        self.Q = self.engine.schwarz_bounds()      # (i, j) order
        # (rank_of_bra, loads) on the pool, fixed by the first pooled
        # build at this geometry (own_bras)
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
        self.quartets_total = len(self.Q) * (len(self.Q) + 1) // 2
        with tr.span("jk.build", cat="scf", executor=self.executor,
                     kernel=self.kernel) as span:
            dmax = blocks if blocks is not None else (
                float(np.abs(D).max()) if D.size else 0.0)

            def jobs(pool) -> list[RankJob]:
                """In-process rank 0 owning every bra; pooled, one job
                per worker, owning the bras the first pooled build at
                this geometry gave it."""
                nsh = self.basis.nshell
                if pool is None:
                    return [RankJob(0, np.ones(nsh * nsh, dtype=bool))]
                if self._owner is None:
                    with tr.span("jk.screen", cat="screening", eps=eps):
                        counts = np.zeros(nsh * nsh)
                        for c in self._screened_classes(dmax, eps):
                            counts += np.bincount(c[:, 0] * nsh + c[:, 1],
                                                  minlength=nsh * nsh)
                    self._owner = own_bras(counts, pool.nworkers)
                rank_of_bra, loads = self._owner
                return [RankJob(w, rank_of_bra == w, cost)
                        for w, cost in enumerate(loads)]

            # the pool workers' evaluations land on self.engine
            results, self.quartets_computed = self.lease.map(
                eval_screened_pairs, jobs, self.engine, D,
                (want_j, want_k, self.kernel, (dmax, eps)))
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

    def _screened_classes(self, dmax, eps: float | None = None
                          ) -> list[np.ndarray]:
        """The surviving unique quartets of every bra, one ``(nq, 4)``
        array per block (:func:`_screen_block`, whose ``dmax`` this
        takes), bra-major within each; ``eps`` defaults to the builder's.
        What the first pooled build counts to give out the bras.  Sets
        :attr:`quartets_total`, the quartets a screen chooses from."""
        eps = self.eps if eps is None else eps
        self.quartets_total = len(self.Q) * (len(self.Q) + 1) // 2
        out = [_screen_block(bra, ket, dmax, eps) for bra, ket in
               _walk_blocks(_pair_walk(self.engine), dmax, eps)]
        return [cls for cls in out if len(cls)]


def make_jk_engine(basis: BasisSet, config=None, eps: float = 1e-10,
                   pool=None, mode: str | None = None) -> JKEngine:
    """The one J/K engine for ``basis`` under ``config`` — the only place
    that picks the in-core or the direct route.

    ==========  =========  ============================================
    ``mode``    ``jk``     engine
    ==========  =========  ============================================
    ``incore``  direct     :class:`TensorJKEngine`
    ``direct``  ri         :class:`~repro.scf.ri_jk.RIJKBuilder`
    ``direct``  direct     :class:`~repro.hfx.IncrementalExchange`
    ==========  =========  ============================================

    ``mode=None`` derives ``incore`` for a serial ``jk="direct"`` engine
    whose ``8 nbf^4``-byte tensor fits in :data:`~repro.integrals.eri.
    CLASS_STORE_BYTES` (nbf <= 76 at 256 MiB), else ``direct``; an
    explicit ``incore`` builds the tensor at any size, and is refused
    with a pool or ``jk="ri"``, which need the quartet walk
    (:func:`~repro.runtime.boundary.check_jk_route`).  Every direct-mode exact
    engine builds its J/K pairs from the density increment (the first
    build at a geometry and every ``REBUILD_EVERY``-th one are full
    builds); a caller that wants the plain full build every time
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
            or 8 * basis.nbf ** 4 > eri.CLASS_STORE_BYTES else "incore"
    if mode == "incore":
        return TensorJKEngine(basis, cfg)
    if cfg.jk == "ri":
        from .ri_jk import RIJKBuilder

        return RIJKBuilder(basis, eps=eps, pool=pool, config=cfg)
    from ..hfx.incremental import IncrementalExchange

    return IncrementalExchange(basis, eps=eps, pool=pool, config=cfg)
