"""Tests for the replicated-data baseline models."""

import numpy as np
import pytest

from repro.hfx.baseline import ReplicatedDynamicBaseline, baseline_comm_plan
from repro.hfx.scheme import HFXScheme
from repro.hfx.workload import water_box_workload
from repro.machine import bgq_racks


pytestmark = pytest.mark.model


@pytest.fixture(scope="module")
def wl():
    return water_box_workload(16, eps=1e-7, seed=0)


def test_comm_plan_replicates_matrices(wl):
    plan = baseline_comm_plan(wl)
    assert plan.bcast_bytes == wl.nbf ** 2 * 8
    assert plan.allreduce_bytes == wl.nbf ** 2 * 8


def test_baseline_slower_than_scheme_at_matched_scale(wl):
    """The legacy configuration (1 thread/core, scalar kernels,
    counter dispatch) loses big even before the scaling wall."""
    cfg = bgq_racks(0.25)
    w = wl.split(wl.total_flops / (cfg.nranks * 8))
    t_scheme = HFXScheme(w, cfg, flop_scale=10).simulate().makespan
    t_base = ReplicatedDynamicBaseline(wl, cfg, flop_scale=10).simulate().makespan
    assert t_base > 3 * t_scheme


def test_baseline_smt_simd_parity_narrows_gap(wl):
    cfg = bgq_racks(0.25)
    legacy = ReplicatedDynamicBaseline(wl, cfg, flop_scale=10).simulate()
    ported = ReplicatedDynamicBaseline(wl, cfg, flop_scale=10,
                                       smt=4, simd=True).simulate()
    assert ported.makespan < legacy.makespan / 3


def test_counter_wall_grows_with_partition(wl):
    """Counter time is linear in worker count — the dynamic baseline's
    scaling wall."""
    t_small = ReplicatedDynamicBaseline(wl, bgq_racks(1)).simulate()
    t_big = ReplicatedDynamicBaseline(wl, bgq_racks(16)).simulate()
    assert t_big.breakdown["counter"] > 10 * t_small.breakdown["counter"]


def test_static_naive_imbalance_grows_with_ranks(wl):
    r1 = ReplicatedDynamicBaseline(wl, bgq_racks(0.0625),
                                   scheduling="static_naive").simulate()
    r2 = ReplicatedDynamicBaseline(wl, bgq_racks(1),
                                   scheduling="static_naive").simulate()
    assert r2.imbalance > r1.imbalance


def test_unknown_scheduling_rejected(wl):
    b = ReplicatedDynamicBaseline(wl, bgq_racks(0.25), scheduling="jit")
    with pytest.raises(ValueError):
        b.simulate()


def test_mpi_everywhere_configuration(wl):
    """The legacy flat-MPI mode: 16 single-thread ranks per node."""
    cfg = bgq_racks(1, ranks_per_node=16)
    bt = ReplicatedDynamicBaseline(wl, cfg).simulate()
    assert bt.nranks == 16 * 1024
    assert bt.makespan > 0


def test_baseline_collapse_point_far_below_scheme(wl):
    """The headline: scheme keeps scaling where the legacy code flat-
    lines.  Compare time at 1 vs 16 racks for both."""
    w = wl.split(wl.total_flops / (4096 * 8))
    s_lo = HFXScheme(w, bgq_racks(0.25), flop_scale=50).simulate().makespan
    s_hi = HFXScheme(w, bgq_racks(4), flop_scale=50).simulate().makespan
    b_lo = ReplicatedDynamicBaseline(
        wl, bgq_racks(0.25, ranks_per_node=16), flop_scale=50).simulate().makespan
    b_hi = ReplicatedDynamicBaseline(
        wl, bgq_racks(4, ranks_per_node=16), flop_scale=50).simulate().makespan
    assert s_lo / s_hi > 8          # scheme still speeds up well (16x span)
    assert b_lo / b_hi < s_lo / s_hi  # baseline speedup strictly worse
