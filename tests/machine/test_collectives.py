"""Tests for the collective cost models."""

import numpy as np
import pytest

from repro.machine.bgq import bgq_racks
from repro.machine.collectives import CollectiveModel, point_to_point_time
from repro.machine.torus import Torus


pytestmark = pytest.mark.model


def _model(racks=1, algorithm="torus_tree", dilation=1.0):
    cfg = bgq_racks(racks)
    return CollectiveModel(cfg, Torus(cfg.torus_dims), algorithm, dilation)


def test_p2p_latency_and_bandwidth_terms():
    cfg = bgq_racks(1)
    t_small = point_to_point_time(cfg, 8, 1)
    t_big = point_to_point_time(cfg, 8 * 1024 * 1024, 1)
    assert t_big > t_small
    # bandwidth term dominates for 8 MB: ~4 ms
    assert np.isclose(t_big, 8 * 1024 * 1024 / cfg.link_bandwidth,
                      rtol=0.05)
    t_far = point_to_point_time(cfg, 8, 20)
    assert t_far > t_small


def test_single_rank_collectives_free():
    cfg = bgq_racks(1 / 1024)   # one node
    m = CollectiveModel(cfg, Torus(cfg.torus_dims))
    assert m.allreduce(1024) == 0.0
    assert m.allgather(1024) == 0.0
    assert m.broadcast(1024) == 0.0


def test_torus_tree_scales_with_diameter_not_ranks():
    """Hardware collectives: latency ~ diameter, so going 1 -> 96 racks
    costs little (the paper's scaling enabler)."""
    t1 = _model(1).allreduce(1024)
    t96 = _model(96).allreduce(1024)
    assert t96 < 4 * t1


def test_ring_collapses_with_ranks():
    t1 = _model(1, "ring").allreduce(1024)
    t96 = _model(96, "ring").allreduce(1024)
    assert t96 > 50 * t1


def test_torus_tree_beats_ring_at_scale():
    m = _model(16)
    r = _model(16, "ring")
    payload = 8 * 1024
    assert m.allreduce(payload) < r.allreduce(payload) / 100


def test_recursive_doubling_between():
    payload = 64 * 1024
    tree = _model(16).allreduce(payload)
    rd = _model(16, "recursive_doubling").allreduce(payload)
    ring = _model(16, "ring").allreduce(payload)
    assert tree < rd < ring


def test_dilation_penalizes_bad_mapping():
    good = _model(4, "ring", dilation=1.0).allreduce(4096)
    bad = _model(4, "ring", dilation=8.0).allreduce(4096)
    assert bad > good


def test_allgather_scales_with_total_payload():
    m = _model(1)
    t1 = m.allgather(1024)
    t2 = m.allgather(2048)
    assert t2 > t1


def test_bandwidth_term_dominates_large_allreduce():
    m = _model(1)
    payload = 100 * 1024 * 1024   # the baseline's nbf^2 K matrix
    t = m.allreduce(payload)
    assert t > 0.05   # at 2 GB/s this is >= ~0.1 s — a real cost


def test_unknown_algorithm_raises():
    m = _model(1)
    object.__setattr__(m, "algorithm", "pixie-dust")
    with pytest.raises(ValueError):
        m.allreduce(8)

