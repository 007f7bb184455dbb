"""Batched L-class ERI evaluation: whole quartet *lists* per kernel call.

The paper's QPX kernel owes its throughput to amortization: the Hermite
recursion, the Boys evaluation, and the contraction GEMMs are set up
once per *angular-momentum class* and streamed over many primitive
quartets in short-vector registers.  The per-quartet Python analogue
(:func:`repro.integrals.eri.eri_quartet`) re-pays that setup — numpy
dispatch, Hermite slab allocation, GEMM planning — for every
single shell quartet, which dominates every wall-clock benchmark.

This module restores the paper's structure in numpy terms:

* quartets come in **L-classes** — the signature
  ``(la, lb, lc, ld, na, nb, nc, nd)`` of angular momenta and primitive
  counts that fixes every array shape of the kernel: one block of the
  pair table's walk (:mod:`repro.integrals.pairclass`);
* :func:`eri_quartet_batch` evaluates one whole class with a *single*
  triangular Hermite recursion (:func:`~repro.integrals.mcmurchie.
  hermite_r_tri`) and class-level batched GEMMs, turning thousands of
  tiny numpy calls into a handful of large ones;
* per-pair data (exponents, product centers, Hermite lambda tensors)
  is read from the geometry's one pair table, stacked once per *pair
  class* (:mod:`repro.integrals.pairclass`), and gathered per quartet
  by integer row indexing, so repeated pairs cost nothing.

Every step of the class batch is the per-quartet kernel's step with one
extra leading axis: the Hermite recursion and the prefactors are
elementwise, and a stacked ``np.matmul`` issues the same per-matrix
BLAS call as the 2-D one.  The *only* thing that can change a bit is
the order the Boys table is recursed down from, and that is the
``boys_order`` argument of :func:`_eri_class_batch`: with ``3 * L`` (what
:func:`repro.integrals.eri.eri_tensor` passes) every block is
``np.array_equal`` to :func:`~repro.integrals.eri.eri_quartet`; with the
default ``L`` (``ExecutionConfig(kernel="batched")`` direct builds, a
~3x shorter Boys recursion) it agrees to ~1e-14.
"""

from __future__ import annotations

import numpy as np

from ..basis.shellpair import hermite_indices
from .mcmurchie import hermite_r_tri

__all__ = ["eri_quartet_batch", "flatten_pairs",
           "MAX_BATCH_ELEMENTS", "SETUP_SCRATCH", "WALK_SCRATCH"]

_TWO_PI_POW = 2.0 * np.pi ** 2.5

# Default ceiling, in doubles, on what the R stage of one batched
# evaluation allocates: per primitive quartet the (L+1)^4 Hermite box
# plus ``_STAGE_ROW_EXTRA`` vectors of the same length (Boys rows, the
# Taylor gather, exponent/centre/prefactor temporaries) — at L = 0 those
# vectors *are* the stage.  Classes larger than this are processed in
# chunks.  2M doubles = 16 MB is a memory bound, not a cache size: it
# still amortizes setup over hundreds-to-thousands of quartets per call,
# and a transient slab stays resident under a non-trimming allocator, so
# it counts in full against the process peak.  A caller with a tighter
# budget (the per-geometry walks, ``WALK_SCRATCH``) passes its own
# ``max_elements``.
MAX_BATCH_ELEMENTS = 1 << 21
_STAGE_ROW_EXTRA = 24

# Ceiling, in doubles, of the per-geometry set-up tables' scratch (512
# kB): the class batches under the Schwarz diagonals and the RI metric,
# and each column block of the fit's triangular solve.  They run once per
# geometry inside the process that holds that geometry's big arrays; a
# slab of the default size would stay resident under a non-trimming
# allocator and count against the process peak.
SETUP_SCRATCH = 1 << 16

# The one budget, in doubles (4 MB), of the per-geometry class walks: the
# R stage of each chunk of the in-core tensor walk
# (``integrals.eri.eri_tensor``), of the analytic gradient's derivative
# walk (``scf.gradient``) and of the nuclear-attraction tables of a pair
# class (``integrals.pairclass``), counted as ``MAX_BATCH_ELEMENTS`` is.
# They run once per geometry — every MD step — inside the process whose
# peak they set, and a transient slab stays resident under a
# non-trimming allocator.  At this size every s/p class of Li2O2 is one
# or a few chunks: the derivative walk builds 114 Hermite tables where a
# 2^17 cap built 418 and runs ~40 % faster, the tensor walk ~40 %
# faster than under its former 2^16; 2^21 gains at most 10 % more for
# four times the scratch.  The budget counts the R stage only: the
# lambda stage's Hermite gathers and per-quartet lambda gathers ride on
# top, and ``tracemalloc`` peaks of a walk read 1.3-1.4x its bytes
# (Li2O2: 5.9 MB derivative walk, 5.5 MB tensor walk against 4.2 MB).
WALK_SCRATCH = 1 << 19


def _stage_chunk(L: int, width: int, budget: int) -> int:
    """Quartets (or pairs) per chunk of a walk whose R stage is a Hermite
    table of order ``L`` over ``width`` primitive combinations each: the
    most that keep ``((L + 1)^4 + _STAGE_ROW_EXTRA) * width`` doubles a
    quartet under ``budget`` doubles, at least one.  This is the R
    stage's count alone; the gathers of the lambda stage are not in it,
    so a chunk's measured peak sits 1.3-1.4x above the budget's bytes
    (the :data:`WALK_SCRATCH` comment)."""
    return max(1, int(budget // (((L + 1) ** 4 + _STAGE_ROW_EXTRA) * width)))


def flatten_pairs(pairs) -> np.ndarray:
    """Flatten per-bra ket lists into one ``(nq, 4)`` quartet array.

    ``pairs`` is the task list's screened-task format: an iterable of
    ``(i, j, kets)`` with ``kets`` an ``(m, 2)`` integer array.  Order
    is preserved (bra-major, ket order within).
    """
    chunks = []
    for (i, j, kets) in pairs:
        kets = np.asarray(kets, dtype=np.int64).reshape(-1, 2)
        ij = np.empty((len(kets), 2), dtype=np.int64)
        ij[:, 0] = i
        ij[:, 1] = j
        chunks.append(np.hstack([ij, kets]))
    if not chunks:
        return np.empty((0, 4), dtype=np.int64)
    return np.concatenate(chunks, axis=0)


def _bra_layout(lam: np.ndarray) -> np.ndarray:
    """Stacked pair lambdas ``(u, ..., nherm, nprim)`` as the left GEMM
    operand ``(u, rows, nherm*nprim)`` (all leading component axes
    flattened into ``rows``)."""
    return lam.reshape(len(lam), -1, lam.shape[-2] * lam.shape[-1])


def _ket_layout(lam: np.ndarray) -> np.ndarray:
    """Stacked pair lambdas as the right GEMM operand
    ``(u, nprim*nherm, cols)``."""
    u, h, n = len(lam), lam.shape[-2], lam.shape[-1]
    return lam.reshape(u, -1, h, n).transpose(0, 1, 3, 2).reshape(
        u, -1, n * h).transpose(0, 2, 1)


def eri_quartet_batch(bra_pairs, ket_pairs,
                      max_elements: int = MAX_BATCH_ELEMENTS) -> np.ndarray:
    """ERIs for a whole list of same-class shell quartets.

    Parameters
    ----------
    bra_pairs, ket_pairs:
        Equal-length lists of :class:`~repro.basis.shellpair.ShellPair`
        (the per-quartet reference's pair objects); quartet ``n`` is
        ``(bra_pairs[n] | ket_pairs[n])``.  All bra pairs must share one
        ``(la, lb, na, nb)`` signature and all ket pairs one
        ``(lc, ld, nc, nd)`` signature (one *L-class*), which is what
        makes every intermediate a rectangular array.  The distinct
        pairs of each side (by identity) are stacked into one
        :class:`~repro.integrals.pairclass.PairClass` of their shells; a
        side that repeats a single pair reuses the one-row class cached
        on that pair, so repeated calls skip the pair set-up.
    max_elements:
        Memory ceiling, in doubles, for the R stage (Hermite box, Boys
        rows and geometry temporaries); oversized batches are evaluated
        in chunks (transparent to the caller, bit for bit).

    Returns
    -------
    Array of shape ``(nq, ncompA, ncompB, ncompC, ncompD)`` matching
    ``eri_quartet(bra_pairs[n], ket_pairs[n])`` for every ``n`` to
    ~1e-14.
    """
    from .pairclass import PairClass

    nq = len(bra_pairs)
    if nq != len(ket_pairs):
        raise ValueError("bra_pairs and ket_pairs must align "
                         f"({nq} != {len(ket_pairs)})")
    if nq == 0:
        raise ValueError("empty quartet batch")

    def stacked(pairs):
        """The distinct pairs as one class, and each pair's row in it."""
        rows: dict[int, int] = {}
        shells = []
        for pr in pairs:
            if id(pr) not in rows:
                rows[id(pr)] = len(rows)
                shells += [pr.sha, pr.shb]
        idx = np.array([rows[id(pr)] for pr in pairs], dtype=np.int64)
        ij = np.arange(len(shells)).reshape(-1, 2)
        if len(rows) > 1:
            return PairClass(shells, ij), idx
        pr = pairs[0]
        cls = getattr(pr, "_class_cache", None)
        if cls is None:
            cls = pr._class_cache = PairClass(shells, ij)
        return cls, idx

    return _eri_class_batch(*stacked(bra_pairs), *stacked(ket_pairs),
                            max_elements)


def _hermite_stage(L: int, p, q, Pb, Pk, boys_order: int | None):
    """R stage of a class batch: the Hermite Coulomb table of order ``L``
    and the primitive prefactors of ``m`` quartets, from their gathered
    pair exponents ``p``/``q`` ``(m, nab|ncd)`` and product centres
    ``Pb``/``Pk`` ``(m, nab|ncd, 3)``.

    Returns ``(R, pref)``: ``R`` of shape ``(L+1,)*3 + (m*nab*ncd,)`` and
    ``pref`` ``(m, nab, ncd)``.  Nothing here depends on the angular
    momenta of the four shells beyond ``L`` — raised and lowered shells
    on the same centres with the same exponents read the same table,
    which is what the derivative walk (:mod:`repro.scf.gradient`) shares
    across its three centres.
    """
    pq = p[:, :, None] + q[:, None, :]
    alpha = (p[:, :, None] * q[:, None, :]) / pq
    PQ = Pb[:, :, None, :] - Pk[:, None, :, :]
    R = hermite_r_tri(L, alpha.reshape(-1), PQ.reshape(-1, 3),
                      boys_order=boys_order)
    pref = _TWO_PI_POW / (p[:, :, None] * q[:, None, :] * np.sqrt(pq))
    return R, pref


def _hermite_gather(R, pref, idx1, idx2) -> np.ndarray:
    """The R stage's table at every Hermite order pair ``idx1 + idx2``,
    signed ``(-1)^h'`` and scaled by the prefactors, in the layout the
    first GEMM of :func:`_lambda_contract` reads: ``(m, h1*nab,
    h2*ncd)``.  ``idx1``/``idx2`` may reach any order ``R`` was recursed
    to."""
    m, nab, ncd = pref.shape
    h1, h2 = len(idx1), len(idx2)
    comb = idx1[:, None, :] + idx2[None, :, :]               # (h1, h2, 3)
    sign = (-1.0) ** idx2.sum(axis=1)
    Rg = R[comb[..., 0], comb[..., 1], comb[..., 2]].reshape(
        h1, h2, m, nab, ncd)
    Rg *= sign[None, :, None, None, None] * pref[None, None, :, :, :]
    return Rg.transpose(2, 0, 3, 1, 4).reshape(m, h1 * nab, h2 * ncd)


def _lambda_contract(rg, l1, l2t, h2: int) -> np.ndarray:
    """``sum_hh' l1[h] rg[h, h'] l2[h']`` for every quartet of a chunk,
    the per-quartet kernel's two GEMMs with one extra leading batch axis:
    ``rg`` from :func:`_hermite_gather` (``h2`` ket Hermite orders),
    ``l1`` ``(m, rows, h1*nab)``, ``l2t`` ``(m, ncd*h2, cols)``.  Returns
    ``(m, rows, cols)``."""
    T = l1 @ rg                                              # (m, rows, h2*ncd)
    m, rows = T.shape[:2]
    T = T.reshape(m, rows, h2, -1).transpose(0, 1, 3, 2).reshape(
        m, rows, -1)
    return T @ l2t


def _eri_class_batch(bra, bra_rows, ket, ket_rows,
                     max_elements: int = MAX_BATCH_ELEMENTS,
                     boys_order: int | None = None) -> np.ndarray:
    """Core class-batch evaluation over two pair classes.

    Quartet ``n`` is ``(bra[bra_rows[n]] | ket[ket_rows[n]])``: ``bra``
    and ``ket`` are :class:`~repro.integrals.pairclass.PairClass`
    objects and every kernel input (exponents, product centres, Hermite
    lambdas) is gathered from their stacks by row; only the rows the
    batch touches are laid out for the GEMMs.  ``boys_order`` goes to
    :func:`~repro.integrals.mcmurchie.hermite_r_tri` unchanged: ``None``
    recurses the Boys table from ``L``, ``3 * L`` reproduces
    :func:`~repro.integrals.eri.eri_quartet` bit for bit, whatever the
    chunking.  Each chunk is one :func:`_hermite_stage`, one
    :func:`_hermite_gather` and one :func:`_lambda_contract`.
    """
    nq = len(bra_rows)
    ub, bra_ids = np.unique(bra_rows, return_inverse=True)
    uk, ket_ids = np.unique(ket_rows, return_inverse=True)
    lam1, lam2 = bra.lam()[ub], ket.lam()[uk]
    idx1 = hermite_indices(bra.la + bra.lb)
    idx2 = hermite_indices(ket.la + ket.lb)
    L = bra.la + bra.lb + ket.la + ket.lb
    nA, nB = lam1.shape[1], lam1.shape[2]
    nC, nD = lam2.shape[1], lam2.shape[2]
    # touched-pair lambda tensors in GEMM layout
    l1_u = _bra_layout(lam1)
    l2t_u = _ket_layout(lam2)
    out = np.empty((nq, nA, nB, nC, nD))
    chunk = _stage_chunk(L, bra.p.shape[1] * ket.p.shape[1], max_elements)
    for lo in range(0, nq, chunk):
        s = slice(lo, min(lo + chunk, nq))
        b, k = bra_rows[s], ket_rows[s]
        # ONE Hermite recursion for the whole chunk, released once its
        # entries are gathered
        rg = _hermite_gather(*_hermite_stage(L, bra.p[b], ket.p[k], bra.P[b],
                                             ket.P[k], boys_order),
                             idx1, idx2)
        out[s] = _lambda_contract(rg, l1_u[bra_ids[s]], l2t_u[ket_ids[s]],
                                  len(idx2)).reshape(-1, nA, nB, nC, nD)
        del rg
    return out
