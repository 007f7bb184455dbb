"""Tests for task-to-node mappings and dilation."""

import numpy as np
import pytest

from repro.machine.mapping import (Mapping, abcdet_mapping, blocked_mapping,
                                   dilation, random_mapping)
from repro.machine.torus import Torus


pytestmark = pytest.mark.model


def test_abcdet_identity():
    t = Torus((4, 4, 2))
    m = abcdet_mapping(t)
    assert np.array_equal(m.node_of(np.arange(t.nnodes)),
                          np.arange(t.nnodes))


def test_random_is_permutation():
    t = Torus((4, 4, 2))
    m = random_mapping(t, seed=3)
    assert sorted(m.perm.tolist()) == list(range(t.nnodes))


def test_mapping_validation():
    t = Torus((2, 2))
    with pytest.raises(ValueError):
        Mapping(t, np.array([0, 1, 2]))      # wrong length
    with pytest.raises(ValueError):
        Mapping(t, np.array([0, 0, 1, 2]))   # not a permutation


def test_abcdet_dilation_near_one():
    t = Torus((8, 8, 8, 4, 2))
    d = dilation(abcdet_mapping(t))
    # consecutive ranks are torus neighbors except at dimension wraps
    assert d < 2.0


def test_random_dilation_near_average_distance():
    t = Torus((8, 8, 8, 4, 2))
    d = dilation(random_mapping(t, seed=1))
    assert abs(d - t.average_distance()) < 1.0


def test_random_worse_than_abcdet():
    t = Torus((8, 8, 4, 2, 2))
    assert dilation(random_mapping(t)) > 2 * dilation(abcdet_mapping(t))


def test_blocked_between():
    t = Torus((8, 8, 4, 4, 2))
    d_abc = dilation(abcdet_mapping(t))
    d_blk = dilation(blocked_mapping(t, block=64))
    d_rnd = dilation(random_mapping(t))
    assert d_abc <= d_blk <= d_rnd * 1.2


def test_dilation_single_node():
    t = Torus((1,))
    assert dilation(abcdet_mapping(t)) == 0.0
