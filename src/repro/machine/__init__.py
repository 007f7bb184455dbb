"""Blue Gene/Q machine model: configuration, 5-D torus, collectives,
node compute model (OpenMP-like thread teams, QPX-like SIMD), mappings,
and the build simulator — every modelled price of the paper's figures."""

from .bgq import BGQConfig, bgq_racks, SEQUOIA_TORUS
from .torus import Torus
from .collectives import CollectiveModel, point_to_point_time
from .threads import ScheduleResult, ThreadTeam
from .simd import (SIMDModel, KernelProfile, ERI_KERNEL, DGEMM_KERNEL,
                   SCALAR_KERNEL)
from .node import NodeComputeModel
from .mapping import (Mapping, abcdet_mapping, random_mapping,
                      blocked_mapping, dilation)
from .simulator import (BuildTiming, CommPlan, comm_times,
                        simulate_static_build, parallel_efficiency)
from .power import PowerModel, energy_to_solution

__all__ = [
    "BGQConfig", "bgq_racks", "SEQUOIA_TORUS",
    "Torus",
    "CollectiveModel", "point_to_point_time",
    "ScheduleResult", "ThreadTeam",
    "SIMDModel", "KernelProfile", "ERI_KERNEL", "DGEMM_KERNEL", "SCALAR_KERNEL",
    "NodeComputeModel",
    "Mapping", "abcdet_mapping", "random_mapping", "blocked_mapping",
    "dilation",
    "BuildTiming", "CommPlan", "comm_times", "simulate_static_build",
    "parallel_efficiency",
    "PowerModel", "energy_to_solution",
]
