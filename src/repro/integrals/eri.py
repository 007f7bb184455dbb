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
* :meth:`ERIEngine.quartet_batch` — a whole same-L-class quartet list
  per call through :mod:`repro.integrals.batch`, amortizing the Hermite
  recursion and GEMM dispatch the way the paper's QPX kernel amortizes
  its vector setup.
"""

from __future__ import annotations

import numpy as np

from ..basis.basisset import BasisSet
from ..basis.shellpair import ShellPair
from .mcmurchie import hermite_r_tri

__all__ = ["eri_quartet", "eri_tensor", "ERIEngine"]

_TWO_PI_POW = 2.0 * np.pi ** 2.5


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
    """Serves (screened) quartet evaluations over the basis's shell-pair
    table.

    This is the serial reference engine; the distributed scheme in
    :mod:`repro.hfx` consumes the same quartets but partitions them
    across simulated ranks/threads.
    """

    def __init__(self, basis: BasisSet):
        self.basis = basis
        self._schwarz: dict[tuple[int, int], float] | None = None
        # build quartets evaluated through quartet() — the single counted
        # evaluation path, so screened and unscreened builds agree with
        # the task list's surviving-quartet count
        self.quartets_computed = 0
        # diagonal (ij|ij) quartets evaluated for Schwarz bounds; kept
        # separate so screening preparation never pollutes build counts
        self.quartets_screening = 0

    @property
    def pairs(self) -> dict[tuple[int, int], ShellPair]:
        """The basis's one shell-pair table (built at first use, so the
        cost lands in the integral call that needs it)."""
        return self.basis.shell_pairs()

    def pair(self, i: int, j: int) -> ShellPair:
        """The shell pair ``(min(i,j), max(i,j))``."""
        return self.pairs[(i, j) if i <= j else (j, i)]

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
            out = {}
            for key, pair in self.pairs.items():
                block = eri_quartet(pair, pair)
                self.quartets_screening += 1
                n1, n2 = block.shape[0], block.shape[1]
                diag = np.abs(block.reshape(n1 * n2, n1 * n2).diagonal())
                out[key] = float(np.sqrt(diag.max()))
            self._schwarz = out
            self.basis._schwarz_cache = out
        return self._schwarz

    def quartet(self, i: int, j: int, k: int, l: int) -> np.ndarray:
        """Screened quartet ``(ij|kl)`` in AO sub-block form."""
        self.quartets_computed += 1
        return eri_quartet(self.pair(i, j), self.pair(k, l))

    def group_quartets(self, idx: np.ndarray) -> list[np.ndarray]:
        """Split an ``(nq, 4)`` quartet index array into L-class groups
        (see :func:`repro.integrals.batch.quartet_class_groups`)."""
        from .batch import quartet_class_groups

        return quartet_class_groups(self.basis.shells, idx)

    def quartet_batch(self, idx: np.ndarray) -> np.ndarray:
        """Blocks for a same-class quartet index array, one kernel call.

        ``idx`` is ``(nq, 4)`` shell indices — every row must belong to
        the same L-class (use :meth:`group_quartets`).  Returns
        ``(nq, nA, nB, nC, nD)``; counts ``nq`` on
        ``quartets_computed``, keeping the batched and per-quartet
        kernels' bookkeeping identical.
        """
        from .batch import _eri_class_batch

        idx = np.asarray(idx, dtype=np.int64).reshape(-1, 4)
        ub, bra_ids = np.unique(idx[:, :2], axis=0, return_inverse=True)
        uk, ket_ids = np.unique(idx[:, 2:], axis=0, return_inverse=True)
        ubra = [self.pair(int(i), int(j)) for i, j in ub]
        uket = [self.pair(int(k), int(l)) for k, l in uk]
        self.quartets_computed += len(idx)
        return _eri_class_batch(ubra, bra_ids.reshape(-1),
                                uket, ket_ids.reshape(-1))


def eri_tensor(basis: BasisSet, screen: float = 0.0,
               reuse: tuple[np.ndarray, list[int]] | None = None,
               engine: ERIEngine | None = None) -> np.ndarray:
    """Full ERI tensor ``(pq|rs)``, shape ``(nbf,)*4``.

    Exploits the 8-fold permutational symmetry at the shell level and,
    when ``screen > 0``, skips quartets whose Cauchy-Schwarz bound
    ``Q_ij * Q_kl`` falls below the threshold.

    This is the in-core SCF path (``mode="incore"``, the default of
    :class:`~repro.scf.rhf.RHF`/``RKS``/``UHF`` and of finite-difference
    BOMD) and the bit-exact reference the direct, batched and fitted
    builds are checked against; the paper's HFX scheme never
    materializes it.

    ``reuse=(anchor, moved)`` starts from a copy of ``anchor`` — the
    unscreened tensor of a basis that differs from ``basis`` in exactly
    the shells listed in ``moved`` — and re-evaluates only the quartets
    that touch one of those; every other block is what the full walk
    would have recomputed, bit for bit.  ``engine`` is the
    :class:`ERIEngine` on ``basis`` to evaluate through, for callers
    that read its ``quartets_computed`` afterwards.
    """
    if reuse is not None and screen > 0:
        raise ValueError("eri_tensor: reuse= needs the unscreened walk "
                         "(a screened tensor has no anchor)")
    nsh = basis.nshell
    if engine is None:
        engine = ERIEngine(basis)
    # hoisted invariants: shell slices (cached on the basis object, so
    # the 2-/3-index RI builders share the same list) and Schwarz-bound
    # products are computed once per build, never inside quartet loops
    slices = basis.shell_slices()
    keys = [(i, j) for i in range(nsh) for j in range(i, nsh)]
    if screen > 0:
        Q = engine.schwarz_bounds()
        pairs = engine.pairs
        present = [key in pairs for key in keys]
        qvals = np.array([Q.get(key, 0.0) for key in keys])
    if reuse is None:
        eri = np.zeros((basis.nbf,) * 4)
    else:
        anchor, moved = reuse
        moved = set(moved)
        eri = anchor.copy()
        touched = np.array([i in moved or j in moved for i, j in keys])
    for a, (i, j) in enumerate(keys):
        if screen > 0:
            if not present[a]:
                continue
            kept = np.nonzero(qvals[a] * qvals[a:] >= screen)[0] + a
        elif reuse is None or touched[a]:
            kept = range(a, len(keys))
        else:
            kept = np.nonzero(touched[a:])[0] + a
        si, sj = slices[i], slices[j]
        for b in kept:
            k, l = keys[b]
            block = engine.quartet(i, j, k, l)
            sk, sl = slices[k], slices[l]
            eri[si, sj, sk, sl] = block
            eri[sj, si, sk, sl] = block.transpose(1, 0, 2, 3)
            eri[si, sj, sl, sk] = block.transpose(0, 1, 3, 2)
            eri[sj, si, sl, sk] = block.transpose(1, 0, 3, 2)
            eri[sk, sl, si, sj] = block.transpose(2, 3, 0, 1)
            eri[sl, sk, si, sj] = block.transpose(3, 2, 0, 1)
            eri[sk, sl, sj, si] = block.transpose(2, 3, 1, 0)
            eri[sl, sk, sj, si] = block.transpose(3, 2, 1, 0)
    return eri
