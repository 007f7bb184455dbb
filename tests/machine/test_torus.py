"""Tests for the k-ary n-D torus topology."""

import numpy as np
import pytest

from repro.machine.torus import Torus


pytestmark = pytest.mark.model


def test_basic_counts():
    t = Torus((4, 4, 4, 4, 2))
    assert t.nnodes == 512
    assert t.ndim == 5
    assert t.diameter == 2 + 2 + 2 + 2 + 1


def test_coords_index_roundtrip():
    t = Torus((3, 4, 5))
    ranks = np.arange(t.nnodes)
    assert np.array_equal(t.index(t.coords(ranks)), ranks)


def test_hops_symmetry_and_identity():
    t = Torus((4, 4, 2))
    rng = np.random.default_rng(0)
    a = rng.integers(0, t.nnodes, size=50)
    b = rng.integers(0, t.nnodes, size=50)
    assert np.array_equal(t.hops(a, b), t.hops(b, a))
    assert np.all(t.hops(a, a) == 0)


def test_wraparound_distance():
    t = Torus((8,))
    # node 0 to node 7 is 1 hop around the ring
    assert t.hops(0, 7) == 1
    assert t.hops(0, 4) == 4


def test_hops_triangle_inequality():
    t = Torus((5, 3, 2))
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b, c = rng.integers(0, t.nnodes, size=3)
        assert t.hops(a, c) <= t.hops(a, b) + t.hops(b, c)


def test_average_distance_closed_form_matches_sampling():
    t = Torus((6, 4, 2))
    exact = t.average_distance()
    sampled = t.average_distance(sample=20000, seed=2)
    assert abs(exact - sampled) < 0.1


def test_average_distance_ring_formula():
    # even ring of size d: mean distance d/4
    assert np.isclose(Torus((8,)).average_distance(), 2.0)
    # odd ring: (d^2-1)/(4d)
    assert np.isclose(Torus((5,)).average_distance(), 24 / 20)


def test_5d_beats_1d_on_diameter():
    """The paper's 'highly dimensional network' point: same node count,
    much smaller diameter."""
    n = 1024
    t5 = Torus((4, 4, 4, 8, 2))
    t1 = Torus((1024,))
    assert t5.nnodes == t1.nnodes == n
    assert t5.diameter < t1.diameter / 10


def test_degree_counting():
    assert Torus((4, 4)).degree == 4
    assert Torus((4, 2)).degree == 3   # extent-2 dim has one neighbor
    assert Torus((4, 1)).degree == 2


def test_bisection_links_grow_with_dimensionality():
    t5 = Torus((4, 4, 4, 8, 2))
    t1 = Torus((1024,))
    assert t5.bisection_links > t1.bisection_links


def test_networkx_view_small():
    t = Torus((3, 3))
    g = t.to_networkx()
    assert g.number_of_nodes() == 9
    # each node has 4 neighbors in a 3x3 torus
    assert all(d == 4 for _, d in g.degree())
    import networkx as nx

    # graph distance equals hop metric
    for a in range(9):
        for b in range(9):
            assert nx.shortest_path_length(g, a, b) == t.hops(a, b)


def test_networkx_refuses_large():
    with pytest.raises(ValueError):
        Torus((256, 16, 16, 2)).to_networkx()


def test_invalid_dims():
    with pytest.raises(ValueError):
        Torus(())
    with pytest.raises(ValueError):
        Torus((4, 0)).nnodes
