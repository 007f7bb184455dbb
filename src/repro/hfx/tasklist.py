"""HFX task lists: screened pair tasks with cost estimates.

The paper's decomposition: the exchange build is a sum over significant
*bra* shell pairs; each pair task owns the batch of quartets formed with
every significant *ket* pair surviving the Cauchy-Schwarz screen
``Q_bra * Q_ket >= eps``.  Pair tasks are the unit distributed across
MPI ranks; quartets are the unit threaded inside a rank.

:func:`build_tasklist` computes everything exactly from a real basis
(small systems); the synthetic condensed-phase path lives in
:mod:`repro.hfx.workload`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..basis.basisset import BasisSet
from ..integrals.eri import ERIEngine
from ..integrals.schwarz import surviving_partners
from .costmodel import quartet_flops

__all__ = ["TaskList", "build_tasklist"]


@dataclass
class TaskList:
    """A screened HFX workload.

    Arrays are indexed by *task* (= significant bra shell pair):

    pair_index:
        Shell-pair identity ``(i, j)`` per task, shape ``(ntask, 2)``.
        Synthetic workloads may leave it empty.
    flops:
        Estimated flops per task.
    nquartets:
        Surviving quartets per task.
    """

    pair_index: np.ndarray
    flops: np.ndarray
    nquartets: np.ndarray
    eps: float
    nbf: int = 0
    nocc: int = 0
    label: str = ""
    # per-task ket lists; only populated by the real (small-system) path
    ket_lists: list[np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.flops = np.asarray(self.flops, dtype=np.float64)
        self.nquartets = np.asarray(self.nquartets, dtype=np.int64)
        if len(self.flops) != len(self.nquartets):
            raise ValueError("flops and nquartets must align")

    @property
    def ntasks(self) -> int:
        """Number of pair tasks."""
        return len(self.flops)

    @property
    def total_flops(self) -> float:
        """Total estimated work."""
        return float(self.flops.sum())

    @property
    def total_quartets(self) -> int:
        """Total surviving quartets."""
        return int(self.nquartets.sum())

    def split(self, max_flops: float) -> "TaskList":
        """Split heavy tasks into subtasks of at most ``max_flops``.

        Pair tasks are divisible at quartet granularity (the paper's
        two-level decomposition): a task of cost c becomes
        ``ceil(c / max_flops)`` equal subtasks, each owning a contiguous
        slice of the ket list.  Essential at extreme rank counts, where
        a handful of dense diagonal pairs would otherwise dominate the
        makespan.
        """
        if max_flops <= 0.0:
            raise ValueError("max_flops must be positive")
        # never split finer than the quartets a task actually owns; the
        # clamp happens in float space so absurdly fine grains cannot
        # overflow the integer cast
        nsub_f = np.maximum(np.ceil(self.flops / max_flops), 1.0)
        nsub = np.minimum(nsub_f,
                          np.maximum(self.nquartets, 1)).astype(np.int64)
        reps = np.repeat(np.arange(self.ntasks), nsub)
        flops = self.flops[reps] / nsub[reps]
        # balanced integer split of each task's quartets: the first
        # (nq mod s) subtasks get one extra (conserves the total exactly)
        pos = np.arange(len(reps)) - np.repeat(
            np.concatenate([[0], np.cumsum(nsub)[:-1]]), nsub)
        base = self.nquartets[reps] // nsub[reps]
        extra = (pos < (self.nquartets[reps] % nsub[reps])).astype(np.int64)
        nquart = base + extra
        kets: list[np.ndarray] | None = None
        if self.ket_lists is not None:
            kets = []
            for t in range(self.ntasks):
                parts = np.array_split(self.ket_lists[t], nsub[t])
                kets.extend(parts)
        pair_index = (self.pair_index[reps]
                      if len(self.pair_index) else self.pair_index)
        return TaskList(pair_index=pair_index, flops=flops, nquartets=nquart,
                        eps=self.eps, nbf=self.nbf, nocc=self.nocc,
                        label=self.label + "/split", ket_lists=kets)

    def summary(self) -> dict:
        """Headline statistics for reports."""
        return {
            "label": self.label,
            "eps": self.eps,
            "ntasks": self.ntasks,
            "total_quartets": self.total_quartets,
            "total_gflops": self.total_flops / 1e9,
            "max_task_flops": float(self.flops.max()) if self.ntasks else 0.0,
            "mean_task_flops": float(self.flops.mean()) if self.ntasks else 0.0,
        }


def build_tasklist(basis: BasisSet, eps: float = 1e-8,
                   engine: ERIEngine | None = None,
                   nocc: int | None = None) -> TaskList:
    """Exact task list for a real molecule/basis.

    Computes the Schwarz bounds, keeps bra pairs with any surviving
    partner, and prices every surviving quartet with the cost model.
    Unique quartets only (8-fold symmetry): a quartet belongs to the
    earlier of its two pairs in descending-bound order.  Each bra's
    kets are a slice of the sorted pairs
    (:func:`~repro.integrals.schwarz.surviving_partners`), and its flops
    are its per-class partner counts times a class-pair table of
    :func:`~repro.hfx.costmodel.quartet_flops` — integer-valued, so the
    sum is exact in any order.
    """
    if engine is None:
        engine = ERIEngine(basis)
    Q = engine.schwarz_bounds()
    keys = sorted(Q)
    qvals = np.array([Q[k] for k in keys])
    order = np.argsort(qvals)[::-1]
    qs = qvals[order]
    kets = np.asarray(keys, dtype=np.int64).reshape(-1, 2)[order]
    end = surviving_partners(qs, eps)
    alive = np.flatnonzero((qs > 0.0) & (end > np.arange(len(qs))))
    # cost classes: the pair's two angular momenta and primitive product
    ls = np.array([sh.l for sh in basis.shells], dtype=np.int64)
    nps = np.array([sh.nprim for sh in basis.shells], dtype=np.int64)
    sig = np.stack([ls[kets[:, 0]], ls[kets[:, 1]],
                    nps[kets[:, 0]] * nps[kets[:, 1]]], axis=1)
    classes, cls = np.unique(sig, axis=0, return_inverse=True)
    cls = cls.reshape(-1)
    table = np.array([[quartet_flops(la, lb, lc, ld, nab, ncd)
                       for lc, ld, ncd in classes.tolist()]
                      for la, lb, nab in classes.tolist()])
    # partners per class over [a, end): differences of running counts
    seen = np.zeros((len(qs) + 1, len(classes)), dtype=np.int64)
    np.cumsum(np.eye(len(classes), dtype=np.int64)[cls], axis=0,
              out=seen[1:])
    counts = seen[end[alive]] - seen[alive]
    return TaskList(
        pair_index=kets[alive],
        flops=(counts * table[cls[alive]]).sum(axis=1),
        nquartets=end[alive] - alive,
        eps=eps, nbf=basis.nbf,
        nocc=(basis.molecule.nelectron // 2 if nocc is None else nocc),
        label=basis.molecule.name or "molecule",
        ket_lists=[kets[a:e] for a, e in zip(alive.tolist(),
                                              end[alive].tolist())],
    )
