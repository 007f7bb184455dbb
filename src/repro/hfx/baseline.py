"""The "directly comparable approaches": replicated-data HFX codes of
the pre-paper generation.

The paper's >10x time-to-solution and >20x scalability claims are made
against conventional Gaussian HFX implementations on the *same* machine
and the *same* screened quartet workload.  Circa 2013 those codes share
three traits, each modeled here as a separately toggleable knob:

1. **Replicated data** — the density matrix is broadcast and the full
   exchange matrix allreduced every build (nbf^2 payloads, and a memory
   ceiling the distributed scheme does not have);
2. **No cost model** — work is distributed either as cost-*oblivious*
   contiguous pair blocks (``scheduling="static_naive"``; the heaviest
   pair then bounds strong scaling) or through a global task counter at
   quartet-batch granularity (``scheduling="dynamic_counter"``,
   NWChem-style nxtval; balance requires ~tens of batches per worker,
   so counter traffic grows linearly with the partition and becomes the
   wall);
3. **Unported kernels** — one thread per core, scalar inner loops
   (no 4-way SMT, no QPX), which is the single biggest time-to-solution
   factor at matched scale.

Set ``smt=4, simd=True`` and/or switch the scheduling to isolate any one
effect — the F3 ablation benchmark walks exactly that stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine.bgq import BGQConfig
from ..machine.node import NodeComputeModel
from ..machine.simulator import BuildTiming, CommPlan, comm_times
from .partition import partition_tasks
from .scheme import simulate_partition
from .tasklist import TaskList

__all__ = ["ReplicatedDynamicBaseline", "baseline_comm_plan",
           "replicated_memory_bytes", "legacy_ranks_per_node"]

# batches each worker must receive for acceptable dynamic tail balance
BATCHES_PER_WORKER = 50
# global-counter service time, seconds: an RMA fetch-and-add to a single
# hot location serializes at ~5 us under contention on BG/Q-class NICs
COUNTER_SERVICE = 5.0e-6


def baseline_comm_plan(tasks: TaskList) -> CommPlan:
    """Replicated-data payloads: broadcast D (nbf^2 doubles), allreduce
    the full K (nbf^2 doubles)."""
    nbytes = int(tasks.nbf) ** 2 * 8
    return CommPlan(bcast_bytes=nbytes, allreduce_bytes=nbytes)


@dataclass
class ReplicatedDynamicBaseline:
    """Price a conventional replicated-data HFX build.

    Parameters
    ----------
    scheduling:
        ``"dynamic_counter"`` (global task counter) or
        ``"static_naive"`` (cost-oblivious contiguous pair blocks).
    smt / simd:
        In-node configuration; defaults model the legacy code.
    """

    tasks: TaskList
    cfg: BGQConfig
    flop_scale: float = 1.0
    scheduling: str = "dynamic_counter"
    smt: int = 1
    simd: bool = False
    cores: int | None = None
    counter_service: float = COUNTER_SERVICE
    batches_per_worker: int = BATCHES_PER_WORKER
    collective_algorithm: str = "torus_tree"
    dilation: float = 1.0

    def node_model(self) -> NodeComputeModel:
        """The baseline's in-node configuration (the requested core
        count is clamped to what the rank layout leaves available)."""
        cores = self.cores
        if cores is not None:
            cores = max(1, min(cores, self.cfg.cores_per_rank))
        return NodeComputeModel(self.cfg, cores=cores, smt=self.smt,
                                simd=self.simd, schedule="dynamic", chunk=8)

    def threads_used(self) -> int:
        """Hardware threads the baseline actually exploits (its
        scalability axis in the F2 comparison)."""
        node = self.node_model()
        return self.cfg.nranks * node.nthreads

    def simulate(self) -> BuildTiming:
        """Price one baseline HFX build."""
        if self.scheduling == "static_naive":
            return self._simulate_static_naive()
        if self.scheduling == "dynamic_counter":
            return self._simulate_dynamic_counter()
        raise ValueError(f"unknown baseline scheduling {self.scheduling!r}")

    def _simulate_static_naive(self) -> BuildTiming:
        part = partition_tasks(self.tasks.flops, self.cfg.nranks,
                               "block_equal_counts")
        return simulate_partition(
            self.tasks, part, self.cfg, baseline_comm_plan(self.tasks),
            node=self.node_model(), flop_scale=self.flop_scale,
            collective_algorithm=self.collective_algorithm,
            dilation=self.dilation)

    def _simulate_dynamic_counter(self) -> BuildTiming:
        cfg = self.cfg
        node = self.node_model()
        p = max(cfg.nranks - 1, 1)  # one rank hosts the counter
        total = self.tasks.total_flops * self.flop_scale
        rate = node.thread_rate() * node.nthreads
        # dynamic balance requires ~BATCHES_PER_WORKER batches per
        # worker; the workload caps batching at quartet granularity
        nbatches = int(min(max(self.batches_per_worker * p, p),
                           max(self.tasks.total_quartets, 1)))
        batch_cost = (total / rate) / nbatches
        t_compute_bound = nbatches / p * batch_cost
        # the counter lives on one node: beyond ~16k requesters the
        # serving NIC saturates and queueing inflates the per-op cost
        # (the well-documented nxtval hot-spot collapse of GA-era codes)
        service = self.counter_service * (1.0 + p / 16384.0)
        t_counter_bound = nbatches * service
        compute = max(t_compute_bound, t_counter_bound) + batch_cost
        comm_time, comm_detail = comm_times(
            cfg, baseline_comm_plan(self.tasks), self.collective_algorithm,
            self.dilation)
        makespan = compute + comm_time
        rank_times = np.full(cfg.nranks, t_compute_bound)
        rank_times[0] = max(t_counter_bound, t_compute_bound)
        return BuildTiming(
            makespan=makespan, compute_time=compute, comm_time=comm_time,
            rank_compute=rank_times, total_flops=total,
            nranks=cfg.nranks, nthreads=cfg.total_threads,
            breakdown={"compute": t_compute_bound,
                       "counter": t_counter_bound,
                       "nbatches": float(nbatches), **comm_detail},
        )


def replicated_memory_bytes(nbf: int, nmatrices: int = 2) -> int:
    """Per-rank memory of the replicated-data baseline (D plus the K
    accumulator at minimum).  On BG/Q's 16 GB nodes this is what capped
    legacy codes at one or two ranks per node for production bases."""
    return nmatrices * nbf * nbf * 8


def legacy_ranks_per_node(nbf: int, memory_bytes: float = 16e9,
                          usable_fraction: float = 0.9) -> int:
    """Ranks per node the replicated baseline can afford for a given
    basis size (clamped to BG/Q's 1..16 flat-MPI range)."""
    per_rank = replicated_memory_bytes(nbf)
    fit = int((memory_bytes * usable_fraction) // max(per_rank, 1))
    return int(min(max(fit, 1), 16))
