"""Execution simulator: price a parallel HFX build on a BG/Q partition.

:func:`simulate_static_build` prices the paper's scheme: statically
load-balanced pair tasks per rank, threads self-schedule quartet chunks
inside the rank, two cheap collectives per build.  It returns a
:class:`BuildTiming` with a breakdown the benchmarks print; the
replicated-data baseline it is compared with is priced by
:class:`repro.hfx.baseline.ReplicatedDynamicBaseline`.  The model is
analytic per rank (in-rank threading over quartets is near-perfectly
divisible, as in the paper) and exact across ranks (the inter-rank
imbalance of the pair-task partition is fully resolved).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bgq import BGQConfig
from .collectives import CollectiveModel
from .node import NodeComputeModel
from .torus import Torus

__all__ = ["BuildTiming", "CommPlan", "simulate_static_build",
           "parallel_efficiency"]


@dataclass(frozen=True)
class CommPlan:
    """Bytes moved by the collectives of one HFX build.

    allgather_bytes_per_rank:
        Per-rank contribution to the pre-build allgather (orbital
        coefficient slabs in the paper's scheme).
    allreduce_bytes:
        Payload of the post-build reduction (exchange matrix /
        per-orbital exchange energies).
    bcast_bytes:
        Pre-build broadcast payload (replicated-data baseline: the full
        density matrix).
    """

    allgather_bytes_per_rank: int = 0
    allreduce_bytes: int = 0
    bcast_bytes: int = 0


@dataclass
class BuildTiming:
    """Result of simulating one HFX build."""

    makespan: float
    compute_time: float          # slowest rank's compute (incl. thread tail)
    comm_time: float             # collectives + dispatch traffic
    rank_compute: np.ndarray     # per-rank compute seconds
    total_flops: float
    nranks: int
    nthreads: int
    breakdown: dict[str, float] = field(default_factory=dict)

    @property
    def imbalance(self) -> float:
        """(max - mean) / mean of per-rank compute time."""
        mean = float(self.rank_compute.mean()) if self.rank_compute.size else 0.0
        if mean <= 0.0:
            return 0.0
        return float((self.rank_compute.max() - mean) / mean)

    @property
    def compute_fraction(self) -> float:
        """Fraction of the makespan spent computing on the critical rank."""
        return self.compute_time / self.makespan if self.makespan > 0 else 1.0

    def summary(self) -> dict:
        """Compact scalar surface (tables, CLI JSON)."""
        return {
            "makespan": float(self.makespan),
            "compute_time": float(self.compute_time),
            "comm_time": float(self.comm_time),
            "compute_fraction": float(self.compute_fraction),
            "imbalance": float(self.imbalance),
            "total_flops": float(self.total_flops),
            "nranks": int(self.nranks),
            "nthreads": int(self.nthreads),
        }

    def to_dict(self) -> dict:
        """Full JSON-serializable dump."""
        d = self.summary()
        d["breakdown"] = {k: float(v) for k, v in self.breakdown.items()}
        d["rank_compute"] = [float(t) for t in self.rank_compute]
        return d


def _rank_compute_times(rank_flops: np.ndarray,
                        rank_ntasks: np.ndarray,
                        node: NodeComputeModel) -> np.ndarray:
    """Per-rank compute time: divisible quartet work at the thread level
    plus chunk-dispatch overhead and the last-chunk tail (vectorized
    across ranks)."""
    rate = node.thread_rate()
    T = node.nthreads
    from ..runtime.threads import ThreadTeam

    dispatch = ThreadTeam(T).dispatch_overhead
    flops = np.asarray(rank_flops, dtype=np.float64)
    ntasks = np.maximum(np.asarray(rank_ntasks, dtype=np.float64), 0.0)
    nchunks = np.ceil(ntasks / node.chunk)
    with np.errstate(divide="ignore", invalid="ignore"):
        chunk_cost = np.where(nchunks > 0, (flops / rate) / np.maximum(nchunks, 1), 0.0)
    rounds = np.ceil(nchunks / T)
    return rounds * (chunk_cost + dispatch)


def simulate_static_build(rank_flops: np.ndarray,
                          rank_ntasks: np.ndarray,
                          cfg: BGQConfig,
                          comm: CommPlan,
                          node: NodeComputeModel | None = None,
                          collective_algorithm: str = "torus_tree",
                          dilation: float = 1.0) -> BuildTiming:
    """Price the paper's scheme: static partition + threaded quartets +
    two collectives."""
    if node is None:
        node = NodeComputeModel(cfg)
    torus = Torus(cfg.torus_dims)
    coll = CollectiveModel(cfg, torus, collective_algorithm, dilation)
    rank_times = _rank_compute_times(rank_flops, rank_ntasks, node)
    compute = float(rank_times.max()) if rank_times.size else 0.0
    t_gather = coll.allgather(comm.allgather_bytes_per_rank) \
        if comm.allgather_bytes_per_rank else 0.0
    t_reduce = coll.allreduce(comm.allreduce_bytes) \
        if comm.allreduce_bytes else 0.0
    t_bcast = coll.broadcast(comm.bcast_bytes) if comm.bcast_bytes else 0.0
    comm_time = t_gather + t_reduce + t_bcast
    makespan = compute + comm_time
    return BuildTiming(
        makespan=makespan, compute_time=compute, comm_time=comm_time,
        rank_compute=rank_times, total_flops=float(np.sum(rank_flops)),
        nranks=cfg.nranks, nthreads=cfg.total_threads,
        breakdown={"compute": compute, "allgather": t_gather,
                   "allreduce": t_reduce, "bcast": t_bcast},
    )


def parallel_efficiency(timings: dict[int, BuildTiming],
                        ref_threads: int | None = None) -> dict[int, float]:
    """Strong-scaling parallel efficiency relative to the smallest (or
    given) thread count: E(n) = T_ref * n_ref / (T(n) * n)."""
    if not timings:
        return {}
    ref = min(timings) if ref_threads is None else ref_threads
    t_ref = timings[ref].makespan
    return {n: (t_ref * ref) / (t.makespan * n) for n, t in timings.items()}
