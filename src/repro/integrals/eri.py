"""Two-electron repulsion integrals (ERIs) over contracted Cartesian
Gaussians, McMurchie-Davidson scheme, vectorized over primitive
quartets.

The quartet kernel :func:`eri_quartet` is the unit of work of the
paper's parallelization scheme: every task in the HFX task list maps to
a batch of these kernels.  The data-parallel layout (all primitive
combinations evaluated as flat numpy vectors) is the Python analogue of
the QPX short-vector code the authors wrote for BG/Q.

Two evaluation granularities:

* :func:`eri_quartet` / :meth:`ERIEngine.quartet` — one shell quartet
  per call; the bit-exact reference path;
* :meth:`ERIEngine.quartet_batch` — one block of quartets (a bra pair
  class against a ket pair class) per call through
  :mod:`repro.integrals.batch`, amortizing the Hermite recursion and
  GEMM dispatch the way the paper's QPX kernel amortizes its vector
  setup.

:func:`eri_tensor` walks the pair table's blocks through the same
class-batch kernel with the Boys table recursed from ``3L``, which keeps
every block the bits of :func:`eri_quartet`.
"""

from __future__ import annotations

import numpy as np

from ..basis.basisset import BasisSet
from ..basis.shellpair import ShellPair
from .batch import WALK_SCRATCH, _eri_class_batch
from .mcmurchie import hermite_r_tri
from .pairclass import _blocks, _grid, _pair_walk, pair_classes
from .schwarz import schwarz_bounds

__all__ = ["eri_quartet", "eri_tensor", "ERIEngine", "PERM_AXES",
           "CLASS_STORE_BYTES"]

_TWO_PI_POW = 2.0 * np.pi ** 2.5

# The 8 ordered images of a unique quartet (i, j, k, l).  Each axes
# tuple doubles as the transpose of the integral block and the selector
# into the index tuple: image n has indices idx[ax[n]] and block
# block.transpose(ax).
PERM_AXES = ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
             (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0))

# Byte budget of one engine's class store: the blocks the batched direct
# walk evaluated at this geometry, kept for every later walk.  A block is
# held compiled for the J/K accumulation (~4x its bare integrals) while
# the budget lasts; past that it is held bare (its integrals and Schwarz
# cut), the latest compiled blocks going bare to make room, so 256 MiB
# holds every unique quartet of a basis up to nbf ~ 115 (~ 120 counting
# the integrals alone) and compiles all of them up to nbf ~ 85.
# Integrals are never evicted: a block that does not fit even bare is
# evaluated on every walk.  The same budget bounds the in-core tensor
# route (``make_jk_engine`` derives it while ``8 nbf^4`` bytes fit, nbf
# <= 76).  The store lives and dies with its engine, which every process
# rebuilds per geometry, so it never spans two geometries and no
# snapshot carries it.
CLASS_STORE_BYTES = 256 << 20

# The engine counters a pool worker reports back (:meth:`ERIEngine.tally`)
# and the parent's engine sums in (:meth:`ERIEngine.absorb`).
_TALLIED = ("quartets_computed", "class_batches", "store_hits",
            "store_misses")


def eri_quartet(bra: ShellPair, ket: ShellPair) -> np.ndarray:
    """ERIs ``(ab|cd)`` for one shell quartet.

    Returns an array of shape ``(ncompA, ncompB, ncompC, ncompD)`` in
    chemists' notation: bra = pair (a b), ket = pair (c d).
    """
    idx1, lam1 = bra.hermite_lambda()
    idx2, lam2 = ket.hermite_lambda()
    p, q = bra.p, ket.p
    nab, ncd = bra.nprim, ket.nprim
    pq = p[:, None] + q[None, :]
    alpha = (p[:, None] * q[None, :]) / pq
    PQ = bra.P[:, None, :] - ket.P[None, :, :]
    L1, L2 = bra.lab, ket.lab
    L = L1 + L2
    # triangular slab, Boys recursed down from 3L: the gather below only
    # reaches t+u+v <= L, and those entries keep the bits of the full
    # (3L+1)-order box this reference kernel is pinned to
    R = hermite_r_tri(L, alpha.reshape(-1), PQ.reshape(-1, 3),
                      boys_order=3 * L)
    comb = idx1[:, None, :] + idx2[None, :, :]          # (h1, h2, 3)
    Rg = R[comb[..., 0], comb[..., 1], comb[..., 2]]    # (h1, h2, nab*ncd)
    h1, h2 = len(idx1), len(idx2)
    Rg = Rg.reshape(h1, h2, nab, ncd)
    sign = (-1.0) ** idx2.sum(axis=1)
    pref = _TWO_PI_POW / (p[:, None] * q[None, :] * np.sqrt(pq))
    Rg = Rg * (sign[None, :, None, None] * pref[None, None, :, :])
    # two GEMMs instead of a generic einsum (planning overhead dominates
    # at these tiny sizes):  T[xy, km] = lam1[xy, hn] . Rg[hn, km]
    nA, nB = lam1.shape[0], lam1.shape[1]
    nC, nD = lam2.shape[0], lam2.shape[1]
    l1 = lam1.reshape(nA * nB, h1 * nab)
    rg = Rg.transpose(0, 2, 1, 3).reshape(h1 * nab, h2 * ncd)
    l2 = lam2.transpose(0, 1, 3, 2).reshape(nC * nD, ncd * h2)
    T = l1 @ rg                                          # (AB, h2*ncd)
    out = T.reshape(nA * nB, h2, ncd).transpose(0, 2, 1).reshape(
        nA * nB, ncd * h2) @ l2.T
    return out.reshape(nA, nB, nC, nD)


class ERIEngine:
    """Serves (screened) quartet evaluations over the basis's pair table
    (:func:`~repro.integrals.pairclass.pair_classes`); the per-quartet
    reference :meth:`quartet` reads the basis's :class:`ShellPair`
    objects instead.

    This is the serial reference engine; the distributed scheme in
    :mod:`repro.hfx` consumes the same quartets but partitions them
    across simulated ranks/threads.

    The engine also keeps the *class store* of the batched direct walk
    (``store``, filled through :meth:`admit`): per (bra pair class, ket
    pair class) block, a Schwarz cut of its quartets — those of the bra
    rows this process served whose ``Q_ij Q_kl`` reaches the row's cut —
    compiled for the J/K accumulation by :mod:`repro.scf.fock`, under
    the byte budget :data:`CLASS_STORE_BYTES` (a block with no room to
    be held compiled is held bare).  ``store_bytes`` counts every byte
    held (a compiled block's integrals in three layouts, their flat AO
    indices, weights and screen data; a bare block's integrals and
    cut).  One engine serves one geometry, so the store does
    too; every later walk of the same SCF (increment walks, full
    rebuilds, response builds, J- or K-only builds) reads what an
    earlier one compiled.  ``quartets_computed`` counts evaluations
    only, ``store_hits``/``store_misses`` the walked quartets the store
    held before the walk and did not.
    """

    def __init__(self, basis: BasisSet):
        self.basis = basis
        self._schwarz: dict[tuple[int, int], float] | None = None
        # build quartets evaluated, by quartet() and by every class batch
        # (quartet_batch, the tensor walk), so screened and unscreened
        # builds agree with the task list's surviving-quartet count
        self.quartets_computed = 0
        # diagonal (ij|ij) quartets evaluated for Schwarz bounds; kept
        # separate so screening preparation never pollutes build counts
        self.quartets_screening = 0
        # class-batch kernel calls (one per block of a walk or list)
        self.class_batches = 0
        # class store: {(bra pair class, ket pair class): compiled block}
        # (what :mod:`repro.scf.fock` compiles; the engine only keeps the
        # blocks and their bytes)
        self.store: dict[tuple, object] = {}
        self._pair_bounds: list[np.ndarray] | None = None
        self.store_bytes = 0
        self.store_hits = 0
        self.store_misses = 0
        # largest store of any process that evaluated for this engine
        # (its own, or a pool worker's reported through absorb)
        self.store_peak = 0

    def pair(self, i: int, j: int) -> ShellPair:
        """The per-quartet reference's shell pair ``(min(i,j),
        max(i,j))``, from the basis's :meth:`~repro.basis.basisset.
        BasisSet.shell_pairs` table (built at first use: only the
        reference kernel reads it)."""
        return self.basis.shell_pairs()[(i, j) if i <= j else (j, i)]

    def schwarz_bounds(self) -> dict[tuple[int, int], float]:
        """Cauchy-Schwarz bounds ``Q_ij = sqrt(max |(ij|ij)|)`` per shell
        pair — the controllable-accuracy knob of the paper.

        Cached per *basis object*: every engine built on the same basis
        (SCF iterations, MD-step rebuilds with an unchanged geometry,
        pool workers after a fork) shares one bound table, and only the
        engine that actually evaluated the diagonal ``(ij|ij)`` quartets
        tallies them on ``quartets_screening``.
        """
        if self._schwarz is None:
            cached = self.basis.__dict__.get("_schwarz_cache")
            if cached is not None:
                self._schwarz = cached
                return self._schwarz
            out = schwarz_bounds(self.basis)
            self.quartets_screening += len(out)
            self._schwarz = out
            self.basis._schwarz_cache = out
        return self._schwarz

    def quartet(self, i: int, j: int, k: int, l: int) -> np.ndarray:
        """Screened quartet ``(ij|kl)`` in AO sub-block form."""
        self.quartets_computed += 1
        return eri_quartet(self.pair(i, j), self.pair(k, l))

    def _class_batch(self, idx: np.ndarray, located: tuple | None = None,
                     **kernel_args) -> np.ndarray:
        """Count a same-class ``(nq, 4)`` index array on
        ``quartets_computed``/``class_batches`` and evaluate it with one
        :func:`~repro.integrals.batch._eri_class_batch` call over the
        rows of its bra and ket pair classes in the basis's pair table
        (:func:`~repro.integrals.pairclass.pair_classes`; ``located``
        as :meth:`quartet_batch` takes it, ``kernel_args`` pass
        through)."""
        classes = pair_classes(self.basis)
        if located is None:
            located = (*classes.locate(idx[:, 0], idx[:, 1]),
                       *classes.locate(idx[:, 2], idx[:, 3]))
        cb, bra_rows, ck, ket_rows = located
        self.quartets_computed += len(idx)
        self.class_batches += 1
        return _eri_class_batch(classes.pair_class(cb), bra_rows,
                                classes.pair_class(ck), ket_rows,
                                **kernel_args)

    def quartet_batch(self, idx: np.ndarray, located: tuple | None = None
                      ) -> np.ndarray:
        """Blocks for a same-class quartet index array, one kernel call.

        ``idx`` is ``(nq, 4)`` shell indices, one block of the pair
        table's walk (one pair class per side).  ``located`` is
        ``(bra class, bra rows, ket class, ket rows)`` of ``idx`` as
        :meth:`~repro.integrals.pairclass.PairClasses.locate` finds
        them, for a caller that already looked them up.  Returns
        ``(nq, nA, nB, nC, nD)``; counts ``nq`` on
        ``quartets_computed``, keeping the batched and per-quartet
        kernels' bookkeeping identical.
        """
        return self._class_batch(
            np.asarray(idx, dtype=np.int64).reshape(-1, 4), located)

    def pair_bounds(self) -> list[np.ndarray]:
        """The Schwarz bound of every pair of each class of the basis's
        pair table (class order of
        :func:`~repro.integrals.pairclass.pair_classes`, pairs in
        ``(i, j)`` order), from :meth:`schwarz_bounds`."""
        if self._pair_bounds is None:
            Q = self.schwarz_bounds()
            self._pair_bounds = [
                np.array([Q[i, j] for i, j in cls.ij.tolist()])
                for cls in pair_classes(self.basis)]
        return self._pair_bounds

    def admit(self, key, block, old=None) -> bool:
        """Hold ``block`` (anything with ``nbytes``) in the class store
        under ``key`` in place of ``old``, the block it extends, if the
        store stays within :data:`CLASS_STORE_BYTES`; whether it did."""
        size = self.store_bytes + block.nbytes \
            - (0 if old is None else old.nbytes)
        if size > CLASS_STORE_BYTES:
            return False
        self.store[key] = block
        self.store_bytes = size
        self.store_peak = max(self.store_peak, size)
        return True

    def tally(self, since: dict | None = None) -> dict[str, int]:
        """The evaluation and store-lookup counters (less those of an
        earlier tally ``since``) and ``store_bytes``, the store's size
        now: what a pool worker's engine reports after each exec."""
        out = {k: getattr(self, k) - (since[k] if since else 0)
               for k in _TALLIED}
        out["store_bytes"] = self.store_bytes
        return out

    def absorb(self, tally: dict[str, int]) -> None:
        """Fold in a pool worker's :meth:`tally` of work done for this
        engine: the counters add, and ``store_peak`` keeps the largest
        store one process held."""
        for k in _TALLIED:
            setattr(self, k, getattr(self, k) + tally[k])
        self.store_peak = max(self.store_peak, tally["store_bytes"])


def eri_tensor(basis: BasisSet, screen: float = 0.0,
               engine: ERIEngine | None = None) -> np.ndarray:
    """Full ERI tensor ``(pq|rs)``, shape ``(nbf,)*4``.

    Exploits the 8-fold permutational symmetry at the shell level and,
    when ``screen > 0``, skips quartets whose Cauchy-Schwarz bound
    ``Q_ij * Q_kl`` falls below the threshold.

    This is the in-core SCF path (``mode="incore"``, the route
    :func:`~repro.scf.fock.make_jk_engine` derives for a serial exact
    SCF) and the bit-exact reference the direct, batched and fitted
    builds are checked against; the paper's HFX scheme never
    materializes it.  Each block of the pair table's walk
    (:func:`~repro.integrals.pairclass._grid`) sends its surviving rows
    through one :func:`~repro.integrals.batch._eri_class_batch` call with
    ``boys_order=3 * L``, so each block holds the doubles
    :func:`eri_quartet` returns for it.

    ``engine`` is the :class:`ERIEngine` on ``basis`` to evaluate
    through, for callers that read its ``quartets_computed``/
    ``class_batches`` afterwards.

    Memory: the returned tensor, plus at peak the rows and integrals of
    one block (all blocks together hold the unique eighth of the tensor)
    and a Hermite intermediate capped at the per-geometry walk budget
    :data:`~repro.integrals.batch.WALK_SCRATCH` doubles.
    """
    if engine is None:
        engine = ERIEngine(basis)
    eri = np.zeros((basis.nbf,) * 4)
    flat = eri.reshape(-1)
    strides = basis.nbf ** np.arange(3, -1, -1)
    for bra, ket in _blocks(_pair_walk(engine)):
        rows = [(r[a], b) for r, U, G in _grid(bra, ket)
                for a, b in [np.nonzero(U & (G >= screen))]]
        rb, rk = (np.concatenate(x) for x in zip(*rows))
        if not len(rb):
            continue
        idx = np.hstack([bra.ij[rb], ket.ij[rk]])
        L = sum(basis.shells[s].l for s in idx[0])
        blocks = engine._class_batch(idx, (bra.cid, rb, ket.cid, rk),
                                     max_elements=WALK_SCRATCH,
                                     boys_order=3 * L)
        # AO index of every block element along each block axis, shaped
        # to broadcast against blocks (nq, nA, nB, nC, nD)
        ao = [(basis.offsets[idx[:, s], None]
               + np.arange(blocks.shape[s + 1]))
              .reshape(len(idx), *(-1 if t == s else 1 for t in range(4)))
              for s in range(4)]
        # the eight symmetric images, one fancy write per image over the
        # whole block.  Images of different unique quartets never
        # overlap; two images of one diagonal quartet such as (ij|ij)
        # do, and the later image wins, as in a per-quartet loop.
        for ax in PERM_AXES:
            flat[sum(ao[s] * strides[t] for t, s in enumerate(ax))] = blocks
    return eri
