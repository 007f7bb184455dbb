"""Tests for the build simulator (the paper's static scheme)."""

import numpy as np
import pytest

from repro.machine.bgq import bgq_racks
from repro.machine.simulator import (BuildTiming, CommPlan,
                                     parallel_efficiency,
                                     simulate_static_build)


pytestmark = pytest.mark.model


def _uniform(cfg, per_rank_flops=1e12, per_rank_tasks=64):
    rank_flops = np.full(cfg.nranks, per_rank_flops)
    rank_tasks = np.full(cfg.nranks, per_rank_tasks)
    return rank_flops, rank_tasks


def test_static_build_balanced_has_zero_imbalance():
    cfg = bgq_racks(0.25)
    rf, rt = _uniform(cfg)
    bt = simulate_static_build(rf, rt, cfg, CommPlan())
    assert bt.imbalance < 1e-9
    assert bt.comm_time == 0.0
    assert bt.makespan == bt.compute_time


def test_static_build_imbalance_raises_makespan():
    cfg = bgq_racks(0.25)
    rf, rt = _uniform(cfg)
    rf2 = rf.copy()
    rf2[0] *= 3.0
    t_bal = simulate_static_build(rf, rt, cfg, CommPlan()).makespan
    t_imb = simulate_static_build(rf2, rt, cfg, CommPlan()).makespan
    assert t_imb > 2.5 * t_bal


def test_collectives_added_to_makespan():
    cfg = bgq_racks(0.25)
    rf, rt = _uniform(cfg)
    plan = CommPlan(allgather_bytes_per_rank=4096,
                    allreduce_bytes=1024 * 1024)
    bt = simulate_static_build(rf, rt, cfg, plan)
    assert bt.comm_time > 0
    assert np.isclose(bt.makespan, bt.compute_time + bt.comm_time)
    assert bt.breakdown["allreduce"] > 0
    assert bt.breakdown["allgather"] > 0


def test_total_flops_conserved():
    cfg = bgq_racks(0.25)
    rf, rt = _uniform(cfg, 3e11)
    bt = simulate_static_build(rf, rt, cfg, CommPlan())
    assert np.isclose(bt.total_flops, rf.sum())


def test_strong_scaling_near_perfect_for_abundant_work():
    """With work >> overheads, doubling the machine halves the time."""
    total = 1e18
    timings = {}
    for racks in (1, 2, 4):
        cfg = bgq_racks(racks)
        rf = np.full(cfg.nranks, total / cfg.nranks)
        rt = np.full(cfg.nranks, 4096)
        timings[cfg.total_threads] = simulate_static_build(
            rf, rt, cfg, CommPlan())
    eff = parallel_efficiency(timings)
    assert all(e > 0.97 for e in eff.values())


def test_parallel_efficiency_reference():
    bt1 = BuildTiming(10.0, 10.0, 0.0, np.array([10.0]), 1e12, 1, 64)
    bt2 = BuildTiming(5.0, 5.0, 0.0, np.array([5.0]), 1e12, 2, 128)
    eff = parallel_efficiency({64: bt1, 128: bt2})
    assert np.isclose(eff[64], 1.0)
    assert np.isclose(eff[128], 1.0)   # perfect halving


def test_compute_fraction():
    bt = BuildTiming(10.0, 8.0, 2.0, np.array([8.0]), 1e12, 1, 64)
    assert np.isclose(bt.compute_fraction, 0.8)
