"""Density-fitting (RI) integrals: 2-index metric, 3-index tensor, and
the fitted ``B`` factor.

The resolution-of-the-identity factorization replaces the 4-index ERI
walk with

    (uv|rs)  ~=  sum_PQ (uv|P) [ (P|Q)^-1 ]_PQ (Q|rs)
             =   sum_K  B[K,uv] B[K,rs],
    B        =   L^-1 P^T (Q|uv),     P^T (P|Q) P = L L^T,

a pivoted Cholesky factor of the metric (:func:`cholesky_fit`), so one
3-index tensor assembled per geometry serves every J/K build of every
SCF iteration.  The rows ``K`` of ``B`` are Cholesky vectors in pivot
order — ``rank <= naux`` of them — not auxiliary functions.

Everything here reuses the McMurchie-Davidson Hermite machinery
verbatim: the auxiliary shells ``|P)`` are a pair table of their own
(:func:`~repro.integrals.pairclass.pair_classes` with ``ghost=True``),
each shell paired with a unit s "ghost" of exponent 0 on its centre,
which makes ``(P|Q)``, ``(P|P)`` and ``(uv|P)`` class batches of
:func:`~repro.integrals.batch._eri_class_batch` between pair classes,
with no new recursion code.

Assembly is blocked by auxiliary-shell slices (the out-of-core chunk
axis) and Schwarz-screened per ``(uv, P)`` combination with
``|(uv|P)| <= Q_uv * Q_P``; the same slices are the sharding unit for
the process pool (one rank job per shard, see
:meth:`repro.scf.ri_jk.RIJKBuilder._assemble`).  Orbital-pair Schwarz
bounds come from the per-``BasisSet`` cache shared with the direct J/K
path; auxiliary bounds are cached the same way on the auxiliary basis
object.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpstrf

from ..basis.basisset import BasisSet
from .eri import ERIEngine
from .batch import SETUP_SCRATCH, _eri_class_batch
from .pairclass import pair_classes
from .schwarz import schwarz_diagonals

__all__ = ["aux_schwarz_bounds", "metric_2c", "cholesky_fit",
           "inv_sqrt_metric", "three_center_slab", "aux_shard_slices"]

#: Relative cutoff of the metric factorisation — the pivoted Cholesky
#: stops at pivots below ``METRIC_COND * max diag (P|Q)``, the eigenvalue
#: oracle trims eigenvalues below ``METRIC_COND * max``: the same role as
#: canonical-orthogonalization trimming in the SCF.
METRIC_COND = 1e-12


def aux_schwarz_bounds(aux: BasisSet) -> np.ndarray:
    """Per-aux-shell Schwarz bounds ``Q_P = sqrt(max diag (P|P))``.

    Cached on the auxiliary basis object, mirroring the orbital-pair
    bound cache the 4-index engine keeps on its basis — one bound
    table per basis object no matter how many builders touch it.
    """
    cached = aux.__dict__.get("_aux_schwarz_cache")
    if cached is None:
        cached = np.empty(aux.nshell)
        for cls in pair_classes(aux, ghost=True):
            cached[cls.ij[:, 0]] = schwarz_diagonals(cls)
        aux.__dict__["_aux_schwarz_cache"] = cached
    return cached


def metric_2c(aux: BasisSet) -> np.ndarray:
    """The Coulomb metric ``V[P,Q] = (P|Q)``, shape ``(naux, naux)``.

    Evaluated class-batched: the auxiliary pair classes (one per
    ``(l, nprim)``, in that order) are walked class pair by class pair,
    each through one batched-kernel call with the earlier class on the
    bra, and its blocks land in ``V`` with one fancy write per triangle
    (a diagonal ``(P|P)`` block takes the transposed write, which comes
    second).
    """
    start = np.array([sl.start for sl in aux.shell_slices()])
    V = np.zeros((aux.nbf, aux.nbf))
    classes = pair_classes(aux, ghost=True).by_signature()
    for a, bra in enumerate(classes):
        ia = bra.ij[:, 0]
        for ket in classes[a:]:
            ib = ket.ij[:, 0]
            bra_ids, ket_ids = np.nonzero(
                ia[:, None] <= ib[None, :] if ket is bra
                else np.ones((len(ia), len(ib)), dtype=bool))
            blocks = _eri_class_batch(bra, bra_ids, ket, ket_ids,
                                      max_elements=SETUP_SCRATCH)
            blk = blocks[:, :, 0, :, 0]                  # (nq, nA, nB)
            rows = start[ia[bra_ids]][:, None] + np.arange(blk.shape[1])
            cols = start[ib[ket_ids]][:, None] + np.arange(blk.shape[2])
            V[rows[:, :, None], cols[:, None, :]] = blk
            V[cols[:, :, None], rows[:, None, :]] = blk.transpose(0, 2, 1)
    return V


def cholesky_fit(V: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The fitted tensor ``B = L^-1 P^T T``, written over ``T``.

    ``P^T V P = L L^T`` is LAPACK's pivoted Cholesky (``dpstrf``) of the
    metric, stopped once the largest remaining pivot is at most
    ``METRIC_COND * max diag V``: every auxiliary function not chosen by
    then is a combination of the chosen ones to that tolerance and is
    dropped — what the eigenvalue trim of :func:`inv_sqrt_metric` does
    for near-dependent directions, and what makes an exactly singular
    metric (a duplicated shell) safe, where a plain Cholesky can
    "succeed" on rounding noise.  ``B^T B = T^T V^-1 T`` on the retained
    span.

    ``V`` is ``(naux, naux)`` and ``T`` ``(naux, ...)``; both are
    overwritten (the factor takes ``V``'s storage, the solve runs in
    column blocks of ``SETUP_SCRATCH`` gathered doubles and writes
    back into ``T``).  Returns a view of ``T``'s leading ``rank`` rows,
    shape ``(rank,) + T.shape[1:]``: Cholesky vectors in pivot order,
    not auxiliary functions.
    """
    naux = len(V)
    # V.T is the Fortran-ordered view of V's buffer: factoring its upper
    # triangle in place reads V's lower triangle and leaves L = U^T in
    # it, C-ordered
    U, piv, rank, info = dpstrf(V.T,
                                tol=METRIC_COND * float(V.diagonal().max()),
                                lower=0, overwrite_a=1)
    if info < 0:
        raise ValueError(f"dpstrf: illegal argument {-info}")
    L = np.ascontiguousarray(U.T[:rank, :rank])
    piv = piv[:rank] - 1
    flat = T.reshape(naux, -1)
    width = max(1, SETUP_SCRATCH // rank)
    for lo in range(0, flat.shape[1], width):
        cols = slice(lo, lo + width)
        flat[:rank, cols] = solve_triangular(L, flat[piv, cols], lower=True,
                                             overwrite_b=True,
                                             check_finite=False)
    return flat[:rank].reshape((rank,) + T.shape[1:])


def inv_sqrt_metric(V: np.ndarray, cond: float = METRIC_COND) -> np.ndarray:
    """Symmetric ``V^{-1/2}`` with small-eigenvalue trimming — the
    reference :func:`cholesky_fit` is checked against
    (``B = V^{-1/2} T`` has the same ``B^T B``).

    Near-linear-dependent fitting directions (eigenvalues below
    ``cond * max``) are projected out rather than amplified — the
    auxiliary-basis analogue of canonical orthogonalization.
    """
    w, U = np.linalg.eigh(V)
    keep = w > cond * float(w.max())
    Uk = U[:, keep]
    return (Uk / np.sqrt(w[keep])) @ Uk.T


def three_center_slab(basis: BasisSet, aux: BasisSet, aux_idx,
                      eps: float = 0.0, engine: ERIEngine | None = None
                      ) -> tuple[np.ndarray, int]:
    """Rows ``(uv|P)`` for the auxiliary shells in ``aux_idx``.

    Returns ``(slab, nints)``: ``slab`` has shape
    ``(nrow, nbf, nbf)`` with rows ordered by ``aux_idx`` (the caller
    scatters them into the full tensor by aux-shell slice), and
    ``nints`` counts the shell triples actually evaluated after
    Schwarz screening ``Q_uv * Q_P >= eps``.

    This is the unit of work of the pool sharding: each rank job is
    one ``aux_idx`` list, and rows for distinct auxiliary shells are
    disjoint, so any shard partition assembles the bit-identical
    tensor.
    """
    if engine is None:
        engine = ERIEngine(basis)
    aux_idx = np.array([int(i) for i in aux_idx], dtype=np.int64)
    # first slab row of every requested auxiliary shell, -1 elsewhere
    nfn = np.array([aux.shells[ai].nfunc for ai in aux_idx], dtype=np.int64)
    row0 = np.full(aux.nshell, -1, dtype=np.int64)
    row0[aux_idx] = np.cumsum(nfn) - nfn
    slab = np.zeros((int(nfn.sum()), basis.nbf, basis.nbf))
    oclasses = pair_classes(basis)
    # each auxiliary class with the rows of it this slab holds
    aclasses = []
    for cls in pair_classes(aux, ghost=True):
        sub = np.flatnonzero(row0[cls.ij[:, 0]] >= 0)
        if len(sub):
            aclasses.append((cls, sub))
    oQ = engine.schwarz_bounds() if eps > 0.0 else None
    aQ = aux_schwarz_bounds(aux) if eps > 0.0 else None
    nints = 0
    for bra in oclasses:
        ao_i, ao_j = oclasses.ao(bra)
        qb = (np.array([oQ[i, j] for i, j in bra.ij.tolist()])
              if eps > 0.0 else None)
        for ket, ksub in aclasses:
            ais = ket.ij[ksub, 0]
            if eps > 0.0:
                bsel, k = np.nonzero(qb[:, None] * aQ[ais][None, :] >= eps)
            else:
                bsel = np.repeat(np.arange(len(bra)), len(ais))
                k = np.tile(np.arange(len(ais)), len(bra))
            if len(bsel) == 0:
                continue
            blocks = _eri_class_batch(bra, bsel, ket, ksub[k])
            nints += len(bsel)
            blk = blocks[..., 0]                 # (nq, nA, nB, nC)
            nC = blk.shape[3]
            rows = row0[ais[k]][:, None] + np.arange(nC)[None, :]
            colsA, colsB = ao_i[bsel], ao_j[bsel]
            slab[rows[:, :, None, None],
                 colsA[:, None, :, None],
                 colsB[:, None, None, :]] = blk.transpose(0, 3, 1, 2)
            slab[rows[:, :, None, None],
                 colsB[:, None, :, None],
                 colsA[:, None, None, :]] = blk.transpose(0, 3, 2, 1)
    return slab, nints


def aux_shard_slices(aux: BasisSet, nshards: int) -> list[list[int]]:
    """LPT-pack auxiliary shells into at most ``nshards`` shards.

    Cost model: the work of aux shell ``P`` is proportional to its
    function count (every shard walks the same screened orbital-pair
    list).  :func:`repro.hfx.partition.lpt_bins` packs the shells, then
    each shard's list is sorted so assembly order — and therefore the
    scatter — is deterministic regardless of packing; empty shards are
    dropped.
    """
    from ..hfx.partition import lpt_bins

    shards = lpt_bins([sh.nfunc for sh in aux.shells], max(1, int(nshards)))
    return [sorted(sh) for sh in shards if sh]
