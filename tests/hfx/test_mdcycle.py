"""Tests for the SCF-cycle simulation (incremental-build composition)."""

import numpy as np
import pytest

from repro.hfx.mdcycle import (SCFCycleResult, loglinear_survival,
                               simulate_scf_cycle)
from repro.hfx.workload import water_box_workload
from repro.machine import bgq_racks


pytestmark = pytest.mark.model


@pytest.fixture(scope="module")
def wl():
    return water_box_workload(16, eps=1e-7, seed=0)


def test_survival_model_shape():
    f = loglinear_survival(decades=8.0, floor=0.02)
    assert f(1.0) == 1.0
    assert f(10.0) == 1.0
    assert f(1e-4) == pytest.approx(0.5)
    assert f(1e-30) == 0.02      # floor
    # monotone
    ds = np.logspace(-10, 0, 20)
    vals = [f(d) for d in ds]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_cycle_counts_iterations(wl):
    cfg = bgq_racks(0.25)
    res = simulate_scf_cycle(wl, cfg, n_iter=5, flop_scale=10)
    assert res.niter == 5
    assert len(res.work_fractions) == 5
    assert res.total_time > 0


def test_incremental_cheaper_than_full(wl):
    cfg = bgq_racks(0.25)
    full = simulate_scf_cycle(wl, cfg, n_iter=8, incremental=False,
                              flop_scale=10)
    inc = simulate_scf_cycle(wl, cfg, n_iter=8, incremental=True,
                             flop_scale=10)
    assert inc.total_time < full.total_time
    assert inc.total_flops < full.total_flops
    # every non-rebuild iteration shrinks
    assert inc.work_fractions[0] == 1.0
    assert all(f < 1.0 for f in inc.work_fractions[1:])


def test_fractions_decay_monotone(wl):
    cfg = bgq_racks(0.25)
    inc = simulate_scf_cycle(wl, cfg, n_iter=6, flop_scale=10,
                             rebuild_every=100)
    fr = inc.work_fractions
    assert all(a >= b - 1e-12 for a, b in zip(fr[1:], fr[2:]))


def test_rebuild_schedule(wl):
    cfg = bgq_racks(0.25)
    res = simulate_scf_cycle(wl, cfg, n_iter=7, rebuild_every=3,
                             flop_scale=10)
    assert res.work_fractions[0] == 1.0
    assert res.work_fractions[3] == 1.0
    assert res.work_fractions[6] == 1.0
    assert res.work_fractions[1] < 1.0


def test_full_cycle_flops_is_niter_times_build(wl):
    cfg = bgq_racks(0.25)
    res = simulate_scf_cycle(wl, cfg, n_iter=4, incremental=False,
                             flop_scale=1.0)
    assert np.isclose(res.total_flops, 4 * wl.total_flops, rtol=1e-12)
