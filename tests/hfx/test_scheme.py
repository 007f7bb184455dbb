"""Tests for the HFX scheme: real distributed execution + machine model."""

import numpy as np
import pytest

from repro.basis import build_basis
from repro.chem import builders
from repro.hfx.scheme import HFXScheme, distributed_exchange, scheme_comm_plan
from repro.hfx.workload import water_box_workload
from repro.machine import bgq_racks
from repro.scf import DirectJKBuilder, run_rhf


pytestmark = pytest.mark.model


@pytest.fixture(scope="module")
def water_state():
    res = run_rhf(builders.water())
    return res


@pytest.mark.parametrize("nranks", [1, 2, 5, 16])
def test_distributed_exchange_matches_serial(water_state, nranks):
    """The distributed build must reproduce the direct serial K exactly
    (same screened quartets, only the summation is distributed)."""
    basis = water_state.basis
    K_dist, log, tasks, part = distributed_exchange(
        basis, water_state.D, nranks=nranks, eps=1e-13)
    _, K_ref = DirectJKBuilder(basis, eps=1e-13).build(
        water_state.D, want_j=False)
    assert np.abs(K_dist - K_ref).max() < 1e-11
    assert log.allreduce_calls == 1


@pytest.mark.parametrize("partitioner", ["serpentine", "round_robin", "lpt"])
def test_distributed_exchange_partitioner_independent(water_state, partitioner):
    basis = water_state.basis
    K, _, _, _ = distributed_exchange(basis, water_state.D, nranks=4,
                                      eps=1e-13, partitioner=partitioner)
    _, K_ref = DirectJKBuilder(basis, eps=1e-13).build(
        water_state.D, want_j=False)
    assert np.abs(K - K_ref).max() < 1e-11


def test_distributed_exchange_screened_error_bounded(water_state):
    basis = water_state.basis
    eps = 1e-4
    K_scr, _, _, _ = distributed_exchange(basis, water_state.D, 3, eps=eps)
    _, K_ref = DirectJKBuilder(basis, eps=1e-14).build(
        water_state.D, want_j=False)
    # bound: each dropped quartet contributes < eps * |D| * multiplicity
    assert np.abs(K_scr - K_ref).max() < eps * 100


def test_distributed_exchange_refuses_the_fitted_engine(water_state):
    from repro.runtime import ExecutionConfig

    with pytest.raises(ValueError, match="jk='ri'"):
        distributed_exchange(water_state.basis, water_state.D, nranks=2,
                             config=ExecutionConfig(jk="ri"))


@pytest.fixture(scope="module")
def box_workload():
    return water_box_workload(16, eps=1e-7, seed=0)


def test_scheme_simulate_produces_timing(box_workload):
    cfg = bgq_racks(0.25)
    bt = HFXScheme(box_workload, cfg).simulate()
    assert bt.makespan > 0
    assert bt.nthreads == cfg.total_threads
    assert np.isclose(bt.total_flops, box_workload.total_flops)


def test_scheme_strong_scaling_shape(box_workload):
    """More racks -> shorter builds, as long as tasks remain abundant."""
    wl = box_workload.split(box_workload.total_flops / (2048 * 8))
    t_prev = np.inf
    for racks in (0.125, 0.5, 2.0):
        cfg = bgq_racks(racks)
        bt = HFXScheme(wl, cfg).simulate()
        assert bt.makespan < t_prev
        t_prev = bt.makespan


def test_flop_scale_multiplies_compute(box_workload):
    cfg = bgq_racks(0.25)
    t1 = HFXScheme(box_workload, cfg, flop_scale=1.0).simulate()
    t50 = HFXScheme(box_workload, cfg, flop_scale=50.0).simulate()
    assert 30 < t50.compute_time / t1.compute_time <= 51


def test_comm_plan_payloads(box_workload):
    cfg = bgq_racks(1)
    plan = scheme_comm_plan(box_workload, cfg)
    # allgather: nbf * nocc / p doubles per rank
    expect = int(np.ceil(box_workload.nbf * box_workload.nocc * 8
                         / cfg.nranks))
    assert plan.allgather_bytes_per_rank == expect
    assert plan.allreduce_bytes == box_workload.nocc * 64 * 8
    assert plan.bcast_bytes == 0


def test_scheme_partition_quality(box_workload):
    """With >= 8 tasks per rank, serpentine keeps imbalance modest."""
    cfg = bgq_racks(0.03125)   # 32 nodes
    wl = box_workload.split(box_workload.total_flops / (cfg.nranks * 16))
    part = HFXScheme(wl, cfg).plan()
    assert part.imbalance < 0.25


def test_scheme_comm_negligible_at_small_scale(box_workload):
    bt = HFXScheme(box_workload, bgq_racks(0.25), flop_scale=50).simulate()
    assert bt.compute_fraction > 0.95
