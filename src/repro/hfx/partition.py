"""Static load balancing of pair tasks across ranks.

The paper's scheme assigns pair tasks statically from the cost model —
no runtime dispatch, hence no master bottleneck and no dispatch
latency.  Several partitioners are provided; the serpentine (sorted
snake) assignment achieves near-LPT balance in vectorized O(n log n)
and is the production choice at 10^5 ranks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..analysis.scaling import imbalance

__all__ = ["Partition", "round_robin", "block_contiguous",
           "block_equal_counts", "serpentine", "lpt", "lpt_bins",
           "partition_tasks", "PARTITIONERS"]


@dataclass
class Partition:
    """An assignment of tasks to ranks."""

    rank_of_task: np.ndarray     # (ntasks,) rank index per task
    rank_flops: np.ndarray       # (nranks,) summed cost per rank
    rank_ntasks: np.ndarray      # (nranks,) task count per rank
    name: str

    @property
    def nranks(self) -> int:
        """Number of ranks."""
        return len(self.rank_flops)

    @property
    def imbalance(self) -> float:
        """(max - mean) / mean of per-rank flops."""
        return imbalance(self.rank_flops)

    def validate(self, costs: np.ndarray) -> None:
        """Internal consistency: totals conserved, every task placed."""
        if len(self.rank_of_task) != len(costs):
            raise ValueError("assignment length mismatch")
        if self.rank_of_task.min(initial=0) < 0 or \
                (len(self.rank_of_task) and
                 self.rank_of_task.max() >= self.nranks):
            raise ValueError("task assigned to invalid rank")
        tot = float(np.asarray(costs).sum())
        if not np.isclose(tot, float(self.rank_flops.sum()), rtol=1e-10):
            raise ValueError("flops not conserved by the partition")


def _tally(rank_of_task: np.ndarray, costs: np.ndarray, nranks: int,
           name: str) -> Partition:
    rank_flops = np.zeros(nranks)
    rank_ntasks = np.zeros(nranks, dtype=np.int64)
    np.add.at(rank_flops, rank_of_task, costs)
    np.add.at(rank_ntasks, rank_of_task, 1)
    return Partition(rank_of_task, rank_flops, rank_ntasks, name)


def round_robin(costs: np.ndarray, nranks: int) -> Partition:
    """Task k -> rank k mod p (cost-oblivious; the naive distribution)."""
    costs = np.asarray(costs, dtype=np.float64)
    rk = np.arange(len(costs), dtype=np.int64) % nranks
    return _tally(rk, costs, nranks, "round_robin")


def block_contiguous(costs: np.ndarray, nranks: int) -> Partition:
    """Contiguous chunks with equalized prefix sums (preserves task
    locality; balance limited by chunk boundaries)."""
    costs = np.asarray(costs, dtype=np.float64)
    csum = np.cumsum(costs)
    total = csum[-1] if len(costs) else 0.0
    targets = total * (np.arange(1, nranks) / nranks)
    bounds = np.searchsorted(csum, targets, side="left")
    rk = np.zeros(len(costs), dtype=np.int64)
    prev = 0
    for r, b in enumerate(bounds):
        rk[prev:b + 1] = r
        prev = b + 1
    rk[prev:] = nranks - 1
    return _tally(rk, costs, nranks, "block_contiguous")


def block_equal_counts(costs: np.ndarray, nranks: int) -> Partition:
    """Cost-*oblivious* contiguous blocks of equal task counts — the
    conventional distribution of pre-cost-model HFX codes, and the
    scaling ceiling the paper's balanced partitioners remove."""
    costs = np.asarray(costs, dtype=np.float64)
    rk = (np.arange(len(costs), dtype=np.int64) * nranks) // max(len(costs), 1)
    return _tally(rk, costs, nranks, "block_equal_counts")


def serpentine(costs: np.ndarray, nranks: int) -> Partition:
    """Sorted snake: tasks sorted by descending cost, dealt
    0,1,...,p-1,p-1,...,1,0,0,1,... — near-LPT balance, fully
    vectorized (the production partitioner at 10^5 ranks)."""
    costs = np.asarray(costs, dtype=np.float64)
    order = np.argsort(costs)[::-1]
    k = np.arange(len(costs))
    phase = (k // nranks) % 2
    pos = k % nranks
    rk_sorted = np.where(phase == 0, pos, nranks - 1 - pos)
    rk = np.empty(len(costs), dtype=np.int64)
    rk[order] = rk_sorted
    return _tally(rk, costs, nranks, "serpentine")


def lpt_bins(costs, nbins: int) -> list[list[int]]:
    """The one longest-processing-time greedy under every static schedule
    (this module's :func:`lpt`, the worker pool's dispatch and recovery
    re-pack, its pair balancing, the RI aux-shell shards).

    Tasks go in descending cost — a stable sort, so equal costs keep
    index order — each onto the least-loaded bin, the lowest bin on
    equal load (a heap: O(n log p)).  Returns the task indices of every
    bin in assignment order.
    """
    costs = np.asarray(costs, dtype=np.float64)
    cost = costs.tolist()
    heap = [(0.0, b) for b in range(nbins)]
    bins: list[list[int]] = [[] for _ in range(nbins)]
    for t in np.argsort(-costs, kind="stable").tolist():
        load, b = heapq.heappop(heap)
        bins[b].append(t)
        heapq.heappush(heap, (load + cost[t], b))
    return bins


def lpt(costs: np.ndarray, nranks: int) -> Partition:
    """Longest-processing-time greedy (:func:`lpt_bins`; reference
    quality for small/medium inputs)."""
    costs = np.asarray(costs, dtype=np.float64)
    rk = np.empty(len(costs), dtype=np.int64)
    for r, tasks in enumerate(lpt_bins(costs, nranks)):
        rk[tasks] = r
    return _tally(rk, costs, nranks, "lpt")


PARTITIONERS = {
    "round_robin": round_robin,
    "block": block_contiguous,
    "block_equal_counts": block_equal_counts,
    "serpentine": serpentine,
    "lpt": lpt,
}


def partition_tasks(costs: np.ndarray, nranks: int,
                    method: str = "serpentine") -> Partition:
    """Dispatch on a partitioner name."""
    try:
        fn = PARTITIONERS[method]
    except KeyError:
        raise ValueError(f"unknown partitioner {method!r}; "
                         f"available: {sorted(PARTITIONERS)}") from None
    if nranks < 1:
        raise ValueError("need at least one rank")
    part = fn(costs, nranks)
    part.validate(costs)
    return part
