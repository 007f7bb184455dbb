"""Blue Gene/Q machine model: configuration, 5-D torus, collectives,
node compute model, mappings, and the build simulator."""

from .bgq import BGQConfig, bgq_racks, SEQUOIA_TORUS
from .torus import Torus
from .collectives import (CollectiveModel, allreduce_time, allgather_time,
                          broadcast_time, point_to_point_time)
from .node import NodeComputeModel
from .mapping import (Mapping, abcdet_mapping, random_mapping,
                      blocked_mapping, dilation)
from .simulator import (BuildTiming, CommPlan, simulate_static_build,
                        parallel_efficiency)
from .power import PowerModel, energy_to_solution

__all__ = [
    "BGQConfig", "bgq_racks", "SEQUOIA_TORUS",
    "Torus",
    "CollectiveModel", "allreduce_time", "allgather_time", "broadcast_time",
    "point_to_point_time",
    "NodeComputeModel",
    "Mapping", "abcdet_mapping", "random_mapping", "blocked_mapping",
    "dilation",
    "BuildTiming", "CommPlan", "simulate_static_build",
    "parallel_efficiency",
    "PowerModel", "energy_to_solution",
]
