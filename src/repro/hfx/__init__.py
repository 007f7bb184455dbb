"""The paper's core contribution: the screened, statically balanced,
hierarchically threaded Hartree-Fock exact-exchange scheme, plus the
replicated/dynamic baseline it is compared against."""

from .costmodel import quartet_flops, pair_weight
from .tasklist import TaskList, build_tasklist
from .workload import (SchwarzModel, calibrate_schwarz_model,
                       synthetic_tasklist, water_box_workload,
                       electrolyte_workload)
from .partition import (Partition, partition_tasks, round_robin,
                        block_contiguous, serpentine, lpt, lpt_bins,
                        PARTITIONERS)
from .scheme import HFXScheme, distributed_exchange, scheme_comm_plan
from .baseline import (ReplicatedDynamicBaseline, baseline_comm_plan,
                       replicated_memory_bytes, legacy_ranks_per_node)
from .incremental import IncrementalExchange, incremental_survival
from .mdcycle import SCFCycleResult, simulate_scf_cycle, loglinear_survival

__all__ = [
    "quartet_flops", "pair_weight",
    "TaskList", "build_tasklist",
    "SchwarzModel", "calibrate_schwarz_model", "synthetic_tasklist",
    "water_box_workload", "electrolyte_workload",
    "Partition", "partition_tasks", "round_robin", "block_contiguous",
    "serpentine", "lpt", "lpt_bins", "PARTITIONERS",
    "HFXScheme", "distributed_exchange", "scheme_comm_plan",
    "ReplicatedDynamicBaseline", "baseline_comm_plan",
    "replicated_memory_bytes", "legacy_ranks_per_node",
    "IncrementalExchange", "incremental_survival",
    "SCFCycleResult", "simulate_scf_cycle", "loglinear_survival",
]
