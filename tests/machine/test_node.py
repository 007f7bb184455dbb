"""Tests for the per-rank (node) compute model."""

import numpy as np
import pytest

from repro.machine.bgq import bgq_racks
from repro.machine.node import NodeComputeModel
from repro.machine.threads import POLICIES


pytestmark = pytest.mark.model


def test_defaults_use_all_threads():
    cfg = bgq_racks(1)
    n = NodeComputeModel(cfg)
    assert n.nthreads == 64


def test_bounds_checked():
    cfg = bgq_racks(1)
    with pytest.raises(ValueError):
        NodeComputeModel(cfg, cores=17)
    with pytest.raises(ValueError):
        NodeComputeModel(cfg, smt=5)


def test_chunk_and_schedule_validated_at_construction():
    """A zero chunk (an infinite, warning-laden makespan) and a
    misspelled schedule (silently priced as dynamic) are refused
    before anything is priced."""
    cfg = bgq_racks(1)
    with pytest.raises(ValueError, match="chunk"):
        NodeComputeModel(cfg, chunk=0)
    with pytest.raises(ValueError, match="chunk"):
        NodeComputeModel(cfg, chunk=-3)
    with pytest.raises(ValueError, match="schedule"):
        NodeComputeModel(cfg, schedule="bogus")
    with pytest.raises(ValueError):
        NodeComputeModel(cfg, chunk=0, schedule="bogus")
    for policy in POLICIES:
        assert NodeComputeModel(cfg, schedule=policy, chunk=1).chunk == 1


def test_more_threads_faster():
    cfg = bgq_racks(1)
    flops = np.full(2048, 1e9)   # divisible by every team size
    kw = dict(schedule="dynamic", chunk=1)
    t1 = NodeComputeModel(cfg, cores=1, smt=1, **kw).compute_time(flops).makespan
    t16 = NodeComputeModel(cfg, cores=16, smt=1, **kw).compute_time(flops).makespan
    t64 = NodeComputeModel(cfg, cores=16, smt=4, **kw).compute_time(flops).makespan
    assert t16 < t1 / 10
    assert t64 < t16


def test_smt_speedup_in_paper_range():
    """4-way SMT buys ~1.5-2x on the in-order A2 core."""
    cfg = bgq_racks(1)
    flops = np.full(2048, 1e9)
    kw = dict(schedule="dynamic", chunk=1)
    t1 = NodeComputeModel(cfg, cores=16, smt=1, **kw).compute_time(flops).makespan
    t4 = NodeComputeModel(cfg, cores=16, smt=4, **kw).compute_time(flops).makespan
    assert 1.4 < t1 / t4 < 2.2


def test_simd_speedup_in_range():
    """QPX buys ~2.5-3.5x on the ERI kernel (4 lanes, imperfect)."""
    cfg = bgq_racks(1)
    flops = np.full(2048, 1e9)
    scalar = NodeComputeModel(cfg, simd=False, chunk=1).compute_time(flops).makespan
    vector = NodeComputeModel(cfg, simd=True, chunk=1).compute_time(flops).makespan
    assert 2.0 < scalar / vector < 4.0


def test_uniform_fast_path_matches_explicit():
    """The closed-form rank time agrees with list-scheduling the
    explicit cost array, for one rank and for a vector of ranks."""
    cfg = bgq_racks(1)
    node = NodeComputeModel(cfg, schedule="dynamic", chunk=8)
    ntasks, per = 4096, 2e8
    explicit = node.compute_time(np.full(ntasks, per))
    fast = node.rank_time(ntasks * per, ntasks)
    assert np.isclose(explicit.makespan, fast, rtol=0.05)
    assert np.isclose(explicit.total_work, ntasks * per / node.thread_rate(),
                      rtol=1e-12)
    ranks = node.rank_time([ntasks * per, 0.5 * ntasks * per],
                           [ntasks, ntasks // 2])
    assert ranks.shape == (2,)
    assert ranks[0] == fast
    assert np.isclose(ranks[1],
                      node.compute_time(np.full(ntasks // 2, per)).makespan,
                      rtol=0.05)


def test_uniform_zero_tasks():
    cfg = bgq_racks(1)
    node = NodeComputeModel(cfg)
    assert node.rank_time(0.0, 0) == 0.0
    assert np.array_equal(node.rank_time(np.zeros(3), np.zeros(3)),
                          np.zeros(3))


def test_thread_rate_positive_and_below_peak():
    cfg = bgq_racks(1)
    node = NodeComputeModel(cfg)
    rate = node.thread_rate()
    peak_per_thread = cfg.clock_hz * cfg.flops_per_core_cycle / 4
    assert 0 < rate < peak_per_thread
