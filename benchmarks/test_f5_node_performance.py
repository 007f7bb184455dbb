"""F5 — exploiting extreme threading and short vectors inside a node.

The abstract credits "extreme threading [and] short vector
instructions".  This harness reproduces the per-node ablations: core
sweep, SMT sweep, SIMD on/off, and loop-scheduling policy, on one
rank's share of the condensed-phase workload.
"""

import numpy as np

from repro.analysis.report import format_table
from repro.machine import NodeComputeModel, bgq_racks

from conftest import FLOP_SCALE


def _rank_share(wl, nranks=1024):
    """One rank's share (total flops, quartet count) under the
    production partition — threads work at *quartet* granularity."""
    from repro.hfx import partition_tasks

    part = partition_tasks(wl.flops, nranks, "serpentine")
    rank0 = part.rank_of_task == 0
    flops = float(wl.flops[rank0].sum()) * FLOP_SCALE
    nq = int(wl.nquartets[rank0].sum())
    return flops, nq


def test_f5_node_performance(report, benchmark, condensed_workload):
    cfg = bgq_racks(1)
    flops, nq = _rank_share(condensed_workload)

    rows = []
    base_time = None
    # cores sweep at SMT1, scalar
    for cores in (1, 2, 4, 8, 16):
        node = NodeComputeModel(cfg, cores=cores, smt=1, simd=False, chunk=8)
        t = node.rank_time(flops, nq)
        if base_time is None:
            base_time = t
        rows.append([f"{cores} cores / SMT1 / scalar", f"{t:.3f}",
                     f"{base_time / t:.2f}x"])
    # SMT sweep at 16 cores, scalar
    for smt in (2, 4):
        node = NodeComputeModel(cfg, cores=16, smt=smt, simd=False, chunk=8)
        t = node.rank_time(flops, nq)
        rows.append([f"16 cores / SMT{smt} / scalar", f"{t:.3f}",
                     f"{base_time / t:.2f}x"])
    # QPX on at the full configuration
    node = NodeComputeModel(cfg, cores=16, smt=4, simd=True, chunk=8)
    t_full = node.rank_time(flops, nq)
    rows.append(["16 cores / SMT4 / QPX", f"{t_full:.3f}",
                 f"{base_time / t_full:.2f}x"])

    # scheduling policies at full threading over the rank's pair tasks
    # cut into 64-quartet chunks (the threads' loop grain, as F5a's
    # uniform path assumes); a chunk costs its quartets at its task's
    # per-quartet flops, so heavy pair classes make heavy chunks
    from repro.hfx import partition_tasks
    from repro.hfx.tasklist import TaskList

    part = partition_tasks(condensed_workload.flops, 1024, "serpentine")
    rank0 = part.rank_of_task == 0
    task_flops = condensed_workload.flops[rank0] * FLOP_SCALE
    task_nq = condensed_workload.nquartets[rank0]
    # split in quartet units; pair_index carries each chunk's task
    chunks = TaskList(pair_index=np.arange(len(task_nq))[:, None],
                      flops=task_nq.astype(np.float64), nquartets=task_nq,
                      eps=condensed_workload.eps).split(64)
    chunk_costs = (chunks.nquartets
                   * (task_flops / task_nq)[chunks.pair_index[:, 0]])
    sched_rows = []
    for policy in ("static", "static_block", "dynamic", "guided"):
        node = NodeComputeModel(cfg, schedule=policy, chunk=1)
        r = node.compute_time(chunk_costs)
        sched_rows.append([policy, f"{r.makespan:.3f}",
                           f"{r.efficiency:.3f}", f"{r.imbalance:.3f}"])

    table1 = format_table(rows, headers=["configuration", "t (s)",
                                         "speedup vs 1 core"],
                          title="F5a: in-node threading/SIMD ablation "
                                "(one rank's HFX share)")
    table2 = format_table(sched_rows,
                          headers=["schedule", "t (s)", "thread eff",
                                   "imbalance"],
                          title="F5b: quartet-loop scheduling policy "
                                "(64 hardware threads, 64-quartet "
                                "chunks)")
    report(table1 + "\n\n" + table2)

    speedup_full = base_time / t_full
    # the paper-range expectations: 16 cores x ~1.8 SMT x ~2.9 QPX
    assert 50 < speedup_full < 120
    # the policies differ on the chunked loop, and dynamic
    # self-scheduling is within 5 % of the best of them
    times = {row[0]: float(row[1]) for row in sched_rows}
    assert len(set(times.values())) > 1
    assert all(times["dynamic"] <= 1.05 * t for t in times.values())

    node = NodeComputeModel(cfg)
    benchmark(lambda: node.rank_time(flops, nq))
