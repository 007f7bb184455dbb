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
verbatim: a single auxiliary shell ``|P)`` is exposed to the quartet
kernels as :class:`AuxShellPair` — a pair object whose second member is
a unit s "ghost" on the same center, which makes ``(P|Q)``, ``(P|P)``
and ``(uv|P)`` class batches of
:func:`~repro.integrals.batch._eri_class_batch`, with no new recursion
code.

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
from .mcmurchie import hermite_e
from .eri import ERIEngine
from .batch import SETUP_SCRATCH, _eri_class_batch, pair_class_groups
from .schwarz import schwarz_diagonals

__all__ = ["AuxShellPair", "aux_hermite_pairs", "aux_schwarz_bounds",
           "metric_2c", "cholesky_fit", "inv_sqrt_metric",
           "three_center_slab", "aux_shard_slices"]

#: Relative cutoff of the metric factorisation — the pivoted Cholesky
#: stops at pivots below ``METRIC_COND * max diag (P|Q)``, the eigenvalue
#: oracle trims eigenvalues below ``METRIC_COND * max``: the same role as
#: canonical-orthogonalization trimming in the SCF.
METRIC_COND = 1e-12


class AuxShellPair:
    """Hermite view of a single auxiliary shell as a (P, ghost-s) pair.

    Duck-types the subset of :class:`~repro.basis.shellpair.ShellPair`
    the ERI kernels read (``p``, ``P``, ``nprim``, ``lab``,
    ``hermite_lambda``): the ghost member is a unit s function with
    zero exponent *folded in analytically* — the Gaussian product rule
    with ``b = 0`` leaves ``p = a``, ``P = A`` and an overlap prefactor
    of 1, so :func:`~repro.integrals.mcmurchie.hermite_e` is evaluated
    at ``lb = 0`` with a zero ``b`` array and zero displacement, which
    is numerically exact (no actual zero-exponent Shell is ever built —
    ``Shell`` normalization would divide by zero).
    """

    __slots__ = ("shell", "index", "p", "P", "_lambda_cache")

    def __init__(self, shell, index: int):
        self.shell = shell
        self.index = index
        self.p = np.asarray(shell.exps, dtype=np.float64)
        self.P = np.tile(np.asarray(shell.center, dtype=np.float64),
                         (len(self.p), 1))
        self._lambda_cache = None

    @property
    def nprim(self) -> int:
        return len(self.p)

    @property
    def lab(self) -> int:
        return self.shell.l

    def hermite_lambda(self):
        """``(idx, lam)`` with ``lam`` shaped ``(ncomp, 1, nherm, nprim)``
        — the ghost axis has length 1."""
        if self._lambda_cache is None:
            l = self.shell.l
            comps = self.shell.components
            zeros = np.zeros_like(self.p)
            # same exponents and zero displacement in every dimension:
            # one E table serves x, y, and z
            E = hermite_e(l, 0, self.p, zeros, 0.0)
            idx = np.array([(t, u, v)
                            for t in range(l + 1)
                            for u in range(l + 1 - t)
                            for v in range(l + 1 - t - u)], dtype=np.int64)
            w = self.shell.norm_coefs            # (ncomp, nprim)
            lam = np.zeros((len(comps), 1, len(idx), self.nprim))
            for x, (lx, ly, lz) in enumerate(comps):
                for h, (t, u, v) in enumerate(idx):
                    if t > lx or u > ly or v > lz:
                        continue
                    lam[x, 0, h] = (w[x] * E[lx, 0, t]
                                    * E[ly, 0, u] * E[lz, 0, v])
            self._lambda_cache = (idx, lam)
        return self._lambda_cache


def aux_hermite_pairs(aux: BasisSet) -> list[AuxShellPair]:
    """One :class:`AuxShellPair` per auxiliary shell (cached per basis
    object — workers and iterations share one expansion)."""
    cached = aux.__dict__.get("_aux_pairs_cache")
    if cached is None:
        cached = [AuxShellPair(sh, i) for i, sh in enumerate(aux.shells)]
        aux.__dict__["_aux_pairs_cache"] = cached
    return cached


def aux_schwarz_bounds(aux: BasisSet) -> np.ndarray:
    """Per-aux-shell Schwarz bounds ``Q_P = sqrt(max diag (P|P))``.

    Cached on the auxiliary basis object, mirroring the orbital-pair
    bound cache the 4-index engine keeps on its basis — one bound
    table per basis object no matter how many builders touch it.
    """
    cached = aux.__dict__.get("_aux_schwarz_cache")
    if cached is None:
        cached = schwarz_diagonals(aux_hermite_pairs(aux))
        aux.__dict__["_aux_schwarz_cache"] = cached
    return cached


def metric_2c(aux: BasisSet) -> np.ndarray:
    """The Coulomb metric ``V[P,Q] = (P|Q)``, shape ``(naux, naux)``.

    Evaluated class-batched: auxiliary shells are grouped by
    ``(l, nprim)``, every class combination goes through one
    batched-kernel call, and its blocks land in ``V`` with one fancy
    write per triangle (a diagonal ``(P|P)`` block takes the transposed
    write, which comes second).
    """
    pairs = aux_hermite_pairs(aux)
    start = np.array([sl.start for sl in aux.shell_slices()])
    V = np.zeros((aux.nbf, aux.nbf))
    groups = pair_class_groups(enumerate(pairs))
    keys = sorted(groups)
    for a, ka in enumerate(keys):
        ia = np.array(groups[ka])
        for kb in keys[a:]:
            ib = np.array(groups[kb])
            bra_ids, ket_ids = np.nonzero(
                ia[:, None] <= ib[None, :] if ka == kb
                else np.ones((len(ia), len(ib)), dtype=bool))
            blocks = _eri_class_batch([pairs[i] for i in ia], bra_ids,
                                      [pairs[j] for j in ib], ket_ids,
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
    apairs = aux_hermite_pairs(aux)
    aux_idx = [int(i) for i in aux_idx]
    row0: dict[int, int] = {}
    nrow = 0
    for ai in aux_idx:
        row0[ai] = nrow
        nrow += aux.shells[ai].nfunc
    slab = np.zeros((nrow, basis.nbf, basis.nbf))
    oslices = basis.shell_slices()
    ogroups = pair_class_groups(engine.pairs.items())
    agroups = pair_class_groups((ai, apairs[ai]) for ai in aux_idx)
    oQ = engine.schwarz_bounds() if eps > 0.0 else None
    aQ = aux_schwarz_bounds(aux) if eps > 0.0 else None
    nints = 0
    for okey in sorted(ogroups):
        okeys = ogroups[okey]
        ubra = [engine.pairs[k] for k in okeys]
        ostart_i = np.array([oslices[i].start for i, _ in okeys])
        ostart_j = np.array([oslices[j].start for _, j in okeys])
        qb = (np.array([oQ[k] for k in okeys]) if eps > 0.0 else None)
        for akey in sorted(agroups):
            ais = agroups[akey]
            uket = [apairs[ai] for ai in ais]
            if eps > 0.0:
                qa = aQ[np.array(ais, dtype=np.int64)]
                bsel, ksel = np.nonzero(qb[:, None] * qa[None, :] >= eps)
            else:
                nb, nk = len(ubra), len(uket)
                bsel = np.repeat(np.arange(nb), nk)
                ksel = np.tile(np.arange(nk), nb)
            if len(bsel) == 0:
                continue
            blocks = _eri_class_batch(ubra, bsel, uket, ksel)
            nints += len(bsel)
            blk = blocks[..., 0]                 # (nq, nA, nB, nC)
            nA, nB, nC = blk.shape[1:]
            arow = np.array([row0[ai] for ai in ais])
            rows = arow[ksel][:, None] + np.arange(nC)[None, :]
            colsA = ostart_i[bsel][:, None] + np.arange(nA)[None, :]
            colsB = ostart_j[bsel][:, None] + np.arange(nB)[None, :]
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
