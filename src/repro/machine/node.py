"""Per-rank (in-node) compute model: threads x SMT x SIMD.

Bridges the machine description (:class:`~repro.machine.bgq.BGQConfig`)
and the thread-team scheduler: given the flop costs of a rank's task
batch, produce the rank's compute time under a given threading/SIMD
configuration.  This is the model behind every modelled build price
and the F5 node-performance ablation (cores sweep, SMT sweep, SIMD
on/off, schedule policy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bgq import BGQConfig
from .simd import ERI_KERNEL, SIMDModel
from .threads import DISPATCH_OVERHEAD, POLICIES, ScheduleResult, ThreadTeam

__all__ = ["NodeComputeModel"]


@dataclass
class NodeComputeModel:
    """Compute-time model of one rank.

    Parameters
    ----------
    cfg:
        Machine description.
    cores / smt:
        Active cores and hardware threads per core (defaults: all).
    simd:
        Whether the ERI kernel uses the QPX unit.
    schedule / chunk:
        Loop scheduling policy (one of
        :data:`repro.machine.threads.POLICIES`) and chunk size of the
        in-rank quartet loop.
    """

    cfg: BGQConfig
    cores: int | None = None
    smt: int | None = None
    simd: bool = True
    schedule: str = "dynamic"
    chunk: int = 8

    def __post_init__(self) -> None:
        if self.cores is None:
            self.cores = self.cfg.cores_per_rank
        if self.smt is None:
            self.smt = self.cfg.smt_per_core
        if not 1 <= self.cores <= self.cfg.cores_per_rank:
            raise ValueError(f"cores must be in [1, {self.cfg.cores_per_rank}]")
        if not 1 <= self.smt <= self.cfg.smt_per_core:
            raise ValueError(f"smt must be in [1, {self.cfg.smt_per_core}]")
        if self.chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {self.chunk}")
        if self.schedule not in POLICIES:
            raise ValueError(f"schedule must be one of {POLICIES}, "
                             f"got {self.schedule!r}")

    @property
    def nthreads(self) -> int:
        """Active hardware threads of the rank."""
        return self.cores * self.smt

    def thread_rate(self) -> float:
        """Sustained flop/s of one active hardware thread on the ERI
        kernel — the one per-thread rate every modelled price uses.

        SIMD is modeled through the kernel profile rather than a flat
        factor: peak assumes full vector issue, so scalar code loses the
        vector speedup the kernel would have achieved.
        """
        core_flops = self.cfg.clock_hz * self.cfg.flops_per_core_cycle
        agg = self.cfg.core_throughput(self.smt) * core_flops
        vec_model = SIMDModel(self.cfg.simd_width, self.cfg.simd_efficiency)
        achieved = vec_model.speedup(ERI_KERNEL)
        ideal = self.cfg.simd_width
        factor = achieved / ideal if self.simd else 1.0 / ideal
        return agg * factor / self.smt

    def compute_time(self, task_flops: np.ndarray) -> ScheduleResult:
        """Schedule a batch of task flop-costs onto the rank's threads."""
        rate = self.thread_rate()
        costs = np.asarray(task_flops, dtype=np.float64) / rate
        team = ThreadTeam(self.nthreads)
        return team.schedule(costs, policy=self.schedule, chunk=self.chunk)

    def rank_time(self, flops: np.ndarray | float,
                  ntasks: np.ndarray | float) -> np.ndarray:
        """Closed-form compute seconds of ranks holding ``flops`` of
        near-divisible work in ``ntasks`` quartets (arrays or scalars).

        The threads self-schedule ``ceil(ntasks / chunk)`` equal chunks,
        so a rank takes ``ceil(nchunks / T)`` rounds of one chunk plus
        its dispatch overhead — no cost array is materialized, which is
        what prices a full-machine build.
        """
        flops = np.asarray(flops, dtype=np.float64)
        ntasks = np.maximum(np.asarray(ntasks, dtype=np.float64), 0.0)
        nchunks = np.ceil(ntasks / self.chunk)
        chunk_cost = (flops / self.thread_rate()) / np.maximum(nchunks, 1.0)
        rounds = np.ceil(nchunks / self.nthreads)
        return rounds * (chunk_cost + DISPATCH_OVERHEAD)
