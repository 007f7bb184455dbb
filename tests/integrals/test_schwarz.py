"""Tests for Cauchy-Schwarz screening bounds — the paper's accuracy knob."""

import numpy as np

from repro.basis import build_basis
from repro.chem import builders
from repro.integrals import eri_tensor, schwarz_bounds, surviving_partners


def test_bounds_never_underestimate(water_basis, water_eri):
    """|(pq|rs)| <= Q_pq Q_rs for every element — the rigorous bound."""
    bounds = schwarz_bounds(water_basis)
    bas = water_basis
    for (i, j), qij in bounds.items():
        for (k, l), qkl in bounds.items():
            blk = water_eri[bas.shell_slice(i), bas.shell_slice(j),
                            bas.shell_slice(k), bas.shell_slice(l)]
            assert np.abs(blk).max() <= qij * qkl + 1e-10


def test_bounds_decay_with_distance():
    near = build_basis(builders.h2(0.7))
    far = build_basis(builders.h2(5.0))
    qn = schwarz_bounds(near)[(0, 1)]
    qf = schwarz_bounds(far)[(0, 1)]
    assert qf < qn


def test_count_surviving_quartets_limits():
    q = np.array([1.0, 0.5, 0.1])
    # eps = 0-ish: all unique pairs of pairs survive: n(n+1)/2 = 6
    assert _count(q, 1e-30) == 6
    # eps huge: none
    assert _count(q, 10.0) == 0


def test_count_surviving_quartets_threshold():
    q = np.array([1.0, 0.1])
    # products: 1*1=1, 1*.1=.1, .1*.1=.01
    assert _count(q, 0.5) == 1
    assert _count(q, 0.05) == 2
    assert _count(q, 0.005) == 3


def test_count_matches_bruteforce(rng):
    vals = rng.uniform(0.0, 1.0, size=8)
    for eps in (0.9, 0.3, 0.05, 0.001):
        assert _count(vals, eps) == _brute_count(vals, eps), eps


def _count(vals, eps):
    """Unique quartets passing the screen, from the per-bra ranges of
    :func:`surviving_partners` over the bounds sorted descending."""
    q = np.sort(np.asarray(vals, dtype=np.float64))[::-1]
    return int((surviving_partners(q, eps) - np.arange(len(q))).sum())


def _brute_count(vals, eps):
    vals = sorted(vals, reverse=True)
    count = 0
    for a in range(len(vals)):
        for b in range(a, len(vals)):
            if vals[a] * vals[b] >= eps:
                count += 1
    return count


def test_screened_exchange_error_bounded(water_basis, water_eri):
    """Dropping quartets below eps changes the tensor by at most ~eps
    per element."""
    for eps in (1e-4, 1e-6):
        scr = eri_tensor(water_basis, screen=eps)
        diff = np.abs(scr - water_eri).max()
        assert diff <= eps * 1.01 + 1e-14
