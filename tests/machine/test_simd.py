"""Tests for the SIMD (QPX) execution model."""

import numpy as np
import pytest

from repro.machine.simd import (DGEMM_KERNEL, ERI_KERNEL, SCALAR_KERNEL,
                                KernelProfile, SIMDModel)


pytestmark = pytest.mark.model


def test_kernel_profile_validation():
    with pytest.raises(ValueError):
        KernelProfile("bad", vectorizable=1.5, avg_trip=8)
    with pytest.raises(ValueError):
        KernelProfile("bad", vectorizable=0.5, avg_trip=0)


def test_scalar_kernel_no_speedup():
    m = SIMDModel(width=4)
    assert np.isclose(m.speedup(SCALAR_KERNEL), 1.0)


def test_width_one_no_speedup():
    m = SIMDModel(width=1)
    assert m.speedup(DGEMM_KERNEL) == 1.0


def test_dgemm_near_ideal():
    m = SIMDModel(width=4, lane_efficiency=1.0)
    s = m.speedup(DGEMM_KERNEL)
    assert 3.5 < s <= 4.0


def test_eri_kernel_in_paper_range():
    """QPX on the ERI recurrences: ~2.5-3.2x of the ideal 4x."""
    m = SIMDModel()   # QPX defaults
    s = m.speedup(ERI_KERNEL)
    assert 2.2 < s < 3.5


def test_speedup_monotone_in_vectorizable_fraction():
    m = SIMDModel()
    sp = [m.speedup(KernelProfile("k", f, 32)) for f in (0.2, 0.5, 0.8, 0.95)]
    assert all(b > a for a, b in zip(sp, sp[1:]))


def test_short_trips_waste_lanes():
    m = SIMDModel(width=4, lane_efficiency=1.0)
    long_trip = m.speedup(KernelProfile("k", 1.0, 400))
    short_trip = m.speedup(KernelProfile("k", 1.0, 5))
    assert short_trip < long_trip


def test_amdahl_cap():
    """Even infinite vectors cannot beat 1/(1-f)."""
    m = SIMDModel(width=4, lane_efficiency=1.0)
    f = 0.9
    s = m.speedup(KernelProfile("k", f, 1024))
    assert s < 1.0 / (1.0 - f)
