"""Tests for the thread-team scheduling model."""

import numpy as np
import pytest

from repro.machine.threads import ScheduleResult, ThreadTeam


pytestmark = pytest.mark.model


def test_team_size_validated():
    with pytest.raises(ValueError):
        ThreadTeam(0)


def test_static_round_robin_assignment():
    team = ThreadTeam(2, dispatch_overhead=0.0)
    costs = np.array([1.0, 2.0, 3.0, 4.0])
    res = team.static(costs)
    # thread 0: 1+3, thread 1: 2+4
    assert np.allclose(sorted(res.thread_times), [4.0, 6.0])
    assert np.isclose(res.makespan, 6.0)
    assert np.isclose(res.total_work, 10.0)


def test_static_block_contiguous():
    team = ThreadTeam(2, dispatch_overhead=0.0)
    costs = np.ones(10)
    res = team.static_block(costs)
    assert np.allclose(res.thread_times, [5.0, 5.0])


def test_dynamic_perfect_balance_uniform():
    team = ThreadTeam(4, dispatch_overhead=0.0)
    res = team.dynamic(np.ones(64))
    assert res.imbalance < 1e-9
    assert np.isclose(res.efficiency, 1.0)


def test_dynamic_beats_static_on_skew():
    """One giant task plus many small: dynamic keeps the rest busy."""
    costs = np.concatenate([[100.0], np.ones(99)])
    team = ThreadTeam(4, dispatch_overhead=0.0)
    # static block puts the giant plus a quarter of the small on t0
    t_static = team.static_block(np.sort(costs)).makespan
    t_dyn = team.dynamic(np.sort(costs)[::-1]).makespan
    assert t_dyn < t_static


def test_dynamic_chunking_reduces_dispatch_overhead():
    team = ThreadTeam(4, dispatch_overhead=1e-3)
    costs = np.full(1024, 1e-4)
    fine = team.dynamic(costs, chunk=1)
    coarse = team.dynamic(costs, chunk=64)
    assert coarse.overhead < fine.overhead / 10
    assert coarse.makespan < fine.makespan


def test_guided_fewer_chunks_than_dynamic():
    team = ThreadTeam(8, dispatch_overhead=1e-4)
    costs = np.ones(4096)
    g = team.guided(costs)
    d = team.dynamic(costs)
    assert g.overhead < d.overhead


def test_makespan_bounds():
    """List scheduling: max(total/T, max_task) <= makespan <=
    total/T + max_task (Graham's bound, zero overhead)."""
    rng = np.random.default_rng(7)
    costs = rng.exponential(1.0, size=500)
    team = ThreadTeam(8, dispatch_overhead=0.0)
    res = team.dynamic(costs)
    lower = max(costs.sum() / 8, costs.max())
    upper = costs.sum() / 8 + costs.max()
    assert lower - 1e-9 <= res.makespan <= upper + 1e-9


def test_schedule_dispatch_by_name():
    team = ThreadTeam(2)
    costs = np.ones(8)
    for policy in ("static", "static_block", "dynamic", "guided"):
        res = team.schedule(costs, policy=policy)
        assert res.makespan > 0
    with pytest.raises(ValueError):
        team.schedule(costs, policy="fifo")


def test_empty_costs():
    team = ThreadTeam(4)
    res = team.dynamic(np.array([]))
    assert res.makespan == 0.0
    assert res.total_work == 0.0


def test_invalid_chunk():
    with pytest.raises(ValueError):
        ThreadTeam(2).dynamic(np.ones(4), chunk=0)


@pytest.mark.parametrize("min_chunk", [0, -1])
def test_guided_refuses_chunk_below_one(min_chunk):
    """Once fewer than 2T iterations remain, a guided chunk of
    ``max(rest // 2T, min_chunk)`` would be 0 and the loop would never
    advance: a chunk below 1 is refused, as ``dynamic`` refuses it."""
    team = ThreadTeam(4)
    with pytest.raises(ValueError, match="chunk must be >= 1"):
        team.guided(np.ones(3), min_chunk=min_chunk)
    with pytest.raises(ValueError, match="chunk must be >= 1"):
        team.schedule(np.ones(3), "guided", chunk=min_chunk)


def test_efficiency_definition():
    team = ThreadTeam(2, dispatch_overhead=0.0)
    res = team.dynamic(np.array([1.0, 1.0]))
    assert np.isclose(res.efficiency, 1.0)
    res = team.dynamic(np.array([2.0]))   # one thread idle
    assert np.isclose(res.efficiency, 0.5)


def test_efficiency_degenerate_cases():
    """Regression: zero makespan with nonzero recorded work must report
    0 (a broken schedule), never a perfect 1.0; zero makespan with zero
    work stays the vacuous 1.0."""
    broken = ScheduleResult(thread_times=np.zeros(4), makespan=0.0,
                            total_work=3.0, overhead=0.0)
    assert broken.efficiency == 0.0
    vacuous = ScheduleResult(thread_times=np.zeros(4), makespan=0.0,
                             total_work=0.0, overhead=0.0)
    assert vacuous.efficiency == 1.0
    empty = ThreadTeam(4, dispatch_overhead=0.0).dynamic(np.array([]))
    assert empty.efficiency == 1.0
