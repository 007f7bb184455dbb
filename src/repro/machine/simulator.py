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

from ..analysis.scaling import efficiency, imbalance
from .bgq import BGQConfig
from .collectives import CollectiveModel
from .node import NodeComputeModel
from .torus import Torus

__all__ = ["BuildTiming", "CommPlan", "comm_times",
           "simulate_static_build", "parallel_efficiency"]


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
        return imbalance(self.rank_compute)

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


def comm_times(cfg: BGQConfig, comm: CommPlan,
               algorithm: str = "torus_tree",
               dilation: float = 1.0) -> tuple[float, dict[str, float]]:
    """Seconds of one build's collectives: the total and the per-
    collective breakdown (a collective with no payload is not issued)."""
    coll = CollectiveModel(cfg, Torus(cfg.torus_dims), algorithm, dilation)
    t_gather = coll.allgather(comm.allgather_bytes_per_rank) \
        if comm.allgather_bytes_per_rank else 0.0
    t_reduce = coll.allreduce(comm.allreduce_bytes) \
        if comm.allreduce_bytes else 0.0
    t_bcast = coll.broadcast(comm.bcast_bytes) if comm.bcast_bytes else 0.0
    return (t_gather + t_reduce + t_bcast,
            {"allgather": t_gather, "allreduce": t_reduce, "bcast": t_bcast})


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
    rank_times = node.rank_time(rank_flops, rank_ntasks)
    compute = float(rank_times.max()) if rank_times.size else 0.0
    comm_time, comm_detail = comm_times(cfg, comm, collective_algorithm,
                                        dilation)
    makespan = compute + comm_time
    return BuildTiming(
        makespan=makespan, compute_time=compute, comm_time=comm_time,
        rank_compute=rank_times, total_flops=float(np.sum(rank_flops)),
        nranks=cfg.nranks, nthreads=cfg.total_threads,
        breakdown={"compute": compute, **comm_detail},
    )


def parallel_efficiency(timings: dict[int, BuildTiming]) -> dict[int, float]:
    """Strong-scaling parallel efficiency of each build relative to the
    smallest thread count (:func:`repro.analysis.scaling.efficiency`)."""
    if not timings:
        return {}
    threads = list(timings)
    eff = efficiency(threads, [timings[n].makespan for n in threads])
    return {n: float(e) for n, e in zip(threads, eff)}
