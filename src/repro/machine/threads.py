"""OpenMP-like thread-team execution model.

Within a rank, the paper threads over the quartet batches of its
assigned pair tasks (up to 64 hardware threads per node).  This module
simulates that loop-level scheduling: given per-chunk costs, it computes
each thread's busy time under static, dynamic, or guided scheduling —
list scheduling, exactly what an OpenMP runtime does — plus the
per-chunk dispatch overhead that makes naive dynamic scheduling of tiny
chunks expensive.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..analysis.scaling import imbalance

__all__ = ["ThreadTeam", "ScheduleResult", "POLICIES", "DISPATCH_OVERHEAD"]

#: The loop-scheduling policies :meth:`ThreadTeam.schedule` knows.
POLICIES = ("static", "static_block", "dynamic", "guided")
#: Seconds per chunk acquisition (atomic counter / loop bookkeeping).
DISPATCH_OVERHEAD = 0.2e-6


@dataclass
class ScheduleResult:
    """Outcome of scheduling a chunk list onto a thread team."""

    thread_times: np.ndarray     # busy+overhead time per thread, seconds
    makespan: float
    total_work: float            # sum of chunk costs (no overhead)
    overhead: float              # total dispatch overhead across threads

    @property
    def efficiency(self) -> float:
        """Parallel efficiency of the team on this schedule.

        A zero makespan with zero work is the vacuous perfect schedule
        (efficiency 1); a zero makespan with *nonzero* work is a broken
        schedule and reports 0, not 1.
        """
        n = len(self.thread_times)
        if self.makespan <= 0.0 or n == 0:
            return 1.0 if self.total_work <= 0.0 and n > 0 else 0.0
        return self.total_work / (n * self.makespan)

    @property
    def imbalance(self) -> float:
        """(max - mean) / mean of thread busy times."""
        return imbalance(self.thread_times)

    def summary(self) -> dict:
        """Compact scalar surface (tables, CLI JSON).

        A schema-versioned record (see :mod:`repro.runtime.schema`);
        this is a *simulated* schedule, so ``wall_s`` carries the
        simulated makespan (also present as ``makespan``).
        """
        from ..runtime.schema import result_envelope

        return result_envelope(
            "schedule", wall_s=float(self.makespan),
            makespan=float(self.makespan),
            total_work=float(self.total_work),
            overhead=float(self.overhead),
            efficiency=float(self.efficiency),
            imbalance=float(self.imbalance),
            nthreads=int(len(self.thread_times)),
        )

    def to_dict(self) -> dict:
        """Full JSON-serializable dump."""
        d = self.summary()
        d["thread_times"] = [float(t) for t in self.thread_times]
        return d


class ThreadTeam:
    """A team of ``nthreads`` threads executing a list of chunks.

    Parameters
    ----------
    nthreads:
        Team size (hardware threads of the rank).
    dispatch_overhead:
        Cost per chunk acquisition (atomic counter / loop bookkeeping).
        Dynamic pays it per chunk; static pays it once per thread.
    """

    def __init__(self, nthreads: int,
                 dispatch_overhead: float = DISPATCH_OVERHEAD):
        if nthreads < 1:
            raise ValueError("need at least one thread")
        self.nthreads = nthreads
        self.dispatch_overhead = dispatch_overhead

    # --- scheduling policies -----------------------------------------------------

    def static(self, costs: np.ndarray) -> ScheduleResult:
        """Round-robin static schedule (OpenMP ``schedule(static, 1)``)."""
        costs = np.asarray(costs, dtype=np.float64)
        t = np.zeros(self.nthreads)
        if costs.size:
            idx = np.arange(costs.size) % self.nthreads
            np.add.at(t, idx, costs)
        t += self.dispatch_overhead
        return ScheduleResult(t, float(t.max()), float(costs.sum()),
                              self.nthreads * self.dispatch_overhead)

    def static_block(self, costs: np.ndarray) -> ScheduleResult:
        """Contiguous block static schedule (OpenMP default ``static``)."""
        costs = np.asarray(costs, dtype=np.float64)
        t = np.zeros(self.nthreads)
        if costs.size:
            bounds = np.linspace(0, costs.size, self.nthreads + 1).astype(int)
            csum = np.concatenate([[0.0], np.cumsum(costs)])
            t = csum[bounds[1:]] - csum[bounds[:-1]]
        t = t + self.dispatch_overhead
        return ScheduleResult(t, float(t.max()), float(costs.sum()),
                              self.nthreads * self.dispatch_overhead)

    def dynamic(self, costs: np.ndarray, chunk: int = 1) -> ScheduleResult:
        """Work-stealing-free dynamic schedule: each idle thread grabs
        the next ``chunk`` iterations, paying the dispatch overhead."""
        costs = np.asarray(costs, dtype=np.float64)
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        if chunk > 1 and costs.size:
            nb = int(np.ceil(costs.size / chunk))
            padded = np.zeros(nb * chunk)
            padded[: costs.size] = costs
            costs = padded.reshape(nb, chunk).sum(axis=1)
        return self._list_schedule(costs, self.dispatch_overhead)

    def guided(self, costs: np.ndarray, min_chunk: int = 1) -> ScheduleResult:
        """Guided schedule: chunk size ~ remaining / (2 * nthreads),
        decaying to ``min_chunk`` — fewer dispatches, good tails."""
        costs = np.asarray(costs, dtype=np.float64)
        if min_chunk < 1:
            raise ValueError("chunk must be >= 1")
        chunks: list[float] = []
        i, n = 0, costs.size
        csum = np.concatenate([[0.0], np.cumsum(costs)])
        while i < n:
            size = max((n - i) // (2 * self.nthreads), min_chunk)
            j = min(i + size, n)
            chunks.append(float(csum[j] - csum[i]))
            i = j
        return self._list_schedule(np.asarray(chunks), self.dispatch_overhead)

    def _list_schedule(self, chunk_costs: np.ndarray,
                       per_chunk_overhead: float) -> ScheduleResult:
        """Greedy list scheduling: next chunk to the earliest-free thread
        (exact model of a dynamic loop runtime)."""
        heap = [(0.0, t) for t in range(self.nthreads)]
        heapq.heapify(heap)
        busy = np.zeros(self.nthreads)
        for c in chunk_costs:
            t_free, tid = heapq.heappop(heap)
            t_new = t_free + per_chunk_overhead + float(c)
            busy[tid] = t_new
            heapq.heappush(heap, (t_new, tid))
        total = float(chunk_costs.sum())
        return ScheduleResult(busy, float(busy.max()) if len(chunk_costs) else 0.0,
                              total, per_chunk_overhead * len(chunk_costs))

    def schedule(self, costs: np.ndarray, policy: str = "dynamic",
                 chunk: int = 1) -> ScheduleResult:
        """Dispatch on a policy name: static | static_block | dynamic |
        guided."""
        if policy == "static":
            return self.static(costs)
        if policy == "static_block":
            return self.static_block(costs)
        if policy == "dynamic":
            return self.dynamic(costs, chunk)
        if policy == "guided":
            return self.guided(costs, chunk)
        raise ValueError(f"unknown schedule policy {policy!r}")
