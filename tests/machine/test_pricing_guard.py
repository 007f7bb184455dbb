"""Exact-value guard for the modelled pricing path.

The paper's figures are priced by one path: the one per-thread rate
(``NodeComputeModel.thread_rate``), the one closed-form in-rank
schedule (``NodeComputeModel.rank_time``), the one static-build pricer
(``hfx.scheme.simulate_partition`` -> ``simulate_static_build``) and the
one comm pricer (``machine.simulator.comm_times``).  A refactor of any
of them must not move a single bit of these prices; a deliberate
recalibration updates the values here together with the results files
under ``benchmarks/results``.
"""

import pytest

from repro.hfx import HFXScheme, ReplicatedDynamicBaseline, water_box_workload
from repro.hfx.mdcycle import simulate_scf_cycle
from repro.machine import NodeComputeModel, bgq_racks, parallel_efficiency


pytestmark = pytest.mark.model


@pytest.fixture(scope="module")
def setup():
    return (water_box_workload(32, eps=1e-8, seed=0),
            bgq_racks(1), bgq_racks(4))


def test_build_prices_are_bit_stable(setup):
    wl, c1, c4 = setup
    prices = {
        "scheme 1 rack": HFXScheme(wl, c1, flop_scale=50.0).simulate()
        .makespan,
        "scheme 4 racks": HFXScheme(wl, c4, flop_scale=50.0).simulate()
        .makespan,
        "baseline static_naive": ReplicatedDynamicBaseline(
            wl, c1, scheduling="static_naive").simulate().makespan,
        "baseline dynamic_counter": ReplicatedDynamicBaseline(
            wl, c1).simulate().makespan,
        "scf cycle": simulate_scf_cycle(wl, c1).total_time,
    }
    assert {k: v.hex() for k, v in prices.items()} == {
        "scheme 1 rack": "0x1.ba96fa1b83a75p+1",
        "scheme 4 racks": "0x1.b01b14b78ee6fp+1",
        "baseline static_naive": "0x1.03f5d4af82d3ap+0",
        "baseline dynamic_counter": "0x1.18c489db7babdp-2",
        "scf cycle": "0x1.75edc6b888dbep-2",
    }


def test_in_rank_schedule_is_bit_stable(setup):
    _, c1, _ = setup
    full = NodeComputeModel(c1, cores=16, smt=4, simd=True, chunk=8)
    scalar = NodeComputeModel(c1, cores=16, smt=1, simd=False, chunk=8)
    assert float(full.rank_time(1e12, 4096)).hex() == "0x1.b5cc2f730ea0dp+2"
    assert float(scalar.rank_time(1e12, 4096)).hex() == "0x1.1c17492c72b06p+5"


def test_parallel_efficiency_is_bit_stable(setup):
    wl, c1, c4 = setup
    timings = {c.total_threads: HFXScheme(wl, c).simulate() for c in (c1, c4)}
    eff = parallel_efficiency(timings)
    assert eff[c1.total_threads] == 1.0
    assert eff[262144].hex() == "0x1.062d557e56a5bp-2"
