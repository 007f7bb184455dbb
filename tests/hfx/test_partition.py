"""Tests for the static partitioners."""

import numpy as np
import pytest

from repro.hfx.partition import (PARTITIONERS, block_contiguous,
                                 block_equal_counts, lpt, partition_tasks,
                                 round_robin, serpentine)


pytestmark = pytest.mark.model


def _heavy_tail(n=5000, seed=0):
    rng = np.random.default_rng(seed)
    return rng.pareto(1.5, size=n) + 0.01


@pytest.mark.parametrize("method", sorted(PARTITIONERS))
def test_conservation_and_validity(method):
    costs = _heavy_tail()
    part = partition_tasks(costs, 64, method)
    part.validate(costs)
    assert np.isclose(part.rank_flops.sum(), costs.sum())
    assert part.rank_ntasks.sum() == len(costs)


def test_serpentine_near_lpt_quality():
    costs = _heavy_tail()
    s = serpentine(costs, 64)
    l = lpt(costs, 64)
    assert s.imbalance < 2 * max(l.imbalance, 0.01) + 0.05


def test_lpt_beats_round_robin_on_heavy_tail():
    costs = _heavy_tail(seed=3)
    assert lpt(costs, 32).imbalance < round_robin(costs, 32).imbalance


def test_cost_aware_block_beats_equal_counts_on_sorted_costs():
    """Sorted (q-ordered) task lists are exactly what naive equal-count
    blocks choke on — the baseline's weakness."""
    costs = np.sort(_heavy_tail())[::-1]
    smart = block_contiguous(costs, 32)
    naive = block_equal_counts(costs, 32)
    assert smart.imbalance < naive.imbalance


def test_round_robin_assignment_pattern():
    part = round_robin(np.ones(10), 3)
    assert np.array_equal(part.rank_of_task, [0, 1, 2, 0, 1, 2, 0, 1, 2, 0])


def test_block_equal_counts_contiguous():
    part = block_equal_counts(np.ones(9), 3)
    assert np.array_equal(part.rank_of_task, [0, 0, 0, 1, 1, 1, 2, 2, 2])


def test_more_ranks_than_tasks():
    costs = np.ones(5)
    for method in sorted(PARTITIONERS):
        part = partition_tasks(costs, 16, method)
        part.validate(costs)
        # five ranks get one task each
        assert int((part.rank_ntasks > 0).sum()) == 5


def test_single_rank():
    costs = _heavy_tail(100)
    part = partition_tasks(costs, 1)
    assert part.imbalance == 0.0
    assert np.isclose(part.rank_flops[0], costs.sum())


def test_unknown_method():
    with pytest.raises(ValueError):
        partition_tasks(np.ones(4), 2, "magic")


def test_invalid_rank_count():
    with pytest.raises(ValueError):
        partition_tasks(np.ones(4), 0)


def test_serpentine_imbalance_shrinks_with_more_tasks():
    p = 128
    small = serpentine(_heavy_tail(p * 4), p).imbalance
    large = serpentine(_heavy_tail(p * 64), p).imbalance
    assert large < small


def test_lpt_greedy_simple_case():
    # {5, 4, 3, 3, 3} on 2 ranks: greedy LPT gives the classic 8/10
    part = lpt(np.array([5.0, 4.0, 3.0, 3.0, 3.0]), 2)
    assert np.allclose(np.sort(part.rank_flops), [8.0, 10.0])
    # within Graham's 7/6 bound of the optimum (9/9)
    assert part.rank_flops.max() <= 9.0 * 7.0 / 6.0
