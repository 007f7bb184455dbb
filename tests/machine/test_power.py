"""Tests for the power/energy model."""

import numpy as np
import pytest

from repro.machine.bgq import bgq_racks
from repro.machine.power import PowerModel, energy_to_solution
from repro.machine.simulator import BuildTiming


pytestmark = pytest.mark.model


def test_node_power_range():
    m = PowerModel()
    assert m.node_power(0.0) == m.idle
    assert m.node_power(1.0) == m.idle + m.busy
    assert m.node_power(2.0) == m.idle + m.busy  # clamped


def test_rack_power_ballpark():
    """~85-90 kW per rack at load (the published BG/Q figure)."""
    m = PowerModel()
    assert 70e3 < m.rack_power(1.0) < 100e3


def test_energy_scales_with_time_and_nodes():
    cfg1 = bgq_racks(1)
    cfg2 = bgq_racks(2)
    bt1 = BuildTiming(10.0, 10.0, 0.0, np.full(cfg1.nranks, 10.0),
                      1e15, cfg1.nranks, cfg1.total_threads)
    bt2 = BuildTiming(10.0, 10.0, 0.0, np.full(cfg2.nranks, 10.0),
                      1e15, cfg2.nranks, cfg2.total_threads)
    e1 = energy_to_solution(bt1, cfg1)
    e2 = energy_to_solution(bt2, cfg2)
    assert np.isclose(e2, 2 * e1)


def test_idle_nodes_still_cost():
    """A build with poor utilization still pays idle power everywhere —
    the energy argument for the scheme's high efficiency."""
    cfg = bgq_racks(1)
    busy = BuildTiming(10.0, 10.0, 0.0, np.full(cfg.nranks, 10.0),
                       1e15, cfg.nranks, cfg.total_threads)
    idle = BuildTiming(10.0, 10.0, 0.0, np.full(cfg.nranks, 1.0),
                       1e14, cfg.nranks, cfg.total_threads)
    e_busy = energy_to_solution(busy, cfg)
    e_idle = energy_to_solution(idle, cfg)
    assert e_idle > 0.4 * e_busy   # idle floor dominates
    assert e_idle < e_busy


def test_zero_makespan():
    cfg = bgq_racks(1)
    bt = BuildTiming(0.0, 0.0, 0.0, np.zeros(cfg.nranks), 0.0,
                     cfg.nranks, cfg.total_threads)
    assert energy_to_solution(bt, cfg) == 0.0
