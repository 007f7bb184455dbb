"""Tests for the Boys function."""

import numpy as np
import pytest
from scipy.integrate import quad

from repro.integrals.boys import boys, boys_single


def _boys_quadrature(m, t):
    """Direct numerical evaluation of F_m(T) = int_0^1 u^{2m} e^{-T u^2} du."""
    val, _ = quad(lambda u: u ** (2 * m) * np.exp(-t * u * u), 0.0, 1.0,
                  epsabs=1e-13, epsrel=1e-13)
    return val


def test_zero_argument_closed_form():
    # F_m(0) = 1 / (2m + 1)
    out = boys(5, np.array([0.0]))
    for m in range(6):
        assert np.isclose(out[m, 0], 1.0 / (2 * m + 1), atol=1e-12)


def test_against_quadrature_small_medium_large():
    for t in (1e-8, 0.01, 0.5, 1.0, 5.0, 20.0, 80.0):
        out = boys(4, np.array([t]))
        for m in range(5):
            ref = _boys_quadrature(m, t)
            assert np.isclose(out[m, 0], ref, rtol=1e-9, atol=1e-14), (m, t)


def test_large_t_asymptotics():
    # F_0(T) -> sqrt(pi / T) / 2 for large T
    t = 500.0
    assert np.isclose(boys_single(0, t), 0.5 * np.sqrt(np.pi / t), rtol=1e-8)


def test_monotone_decreasing_in_m():
    t = 2.3
    out = boys(6, np.array([t]))[:, 0]
    assert np.all(np.diff(out) < 0)


def test_monotone_decreasing_in_t():
    ts = np.linspace(0.0, 30.0, 50)
    out = boys(2, ts)
    for m in range(3):
        assert np.all(np.diff(out[m]) < 0)


def test_vector_shapes_preserved():
    t = np.ones((4, 5))
    out = boys(3, t)
    assert out.shape == (4, 4, 5)


def test_downward_recursion_consistency():
    # F_{m-1}(T) = (2T F_m(T) + e^-T) / (2m - 1)
    t = 3.7
    out = boys(5, np.array([t]))[:, 0]
    for m in range(5, 0, -1):
        lhs = out[m - 1]
        rhs = (2 * t * out[m] + np.exp(-t)) / (2 * m - 1)
        assert np.isclose(lhs, rhs, rtol=1e-12)


def test_positive_everywhere():
    ts = np.logspace(-12, 3, 60)
    out = boys(8, ts)
    assert np.all(out > 0)


@pytest.mark.reference
@pytest.mark.parametrize("mmax", [0, 1, 4, 12])
def test_unmasked_path_equals_masked_path(mmax):
    """With no argument below the Taylor cutoff ``boys`` writes whole
    rows; one tiny argument appended forces the boolean-mask path on
    the very same values."""
    rng = np.random.default_rng(mmax)
    t = np.concatenate([rng.uniform(1e-12, 60.0, 53), [1e-13, 1e-12, 35.0]])
    plain = boys(mmax, t)
    masked = boys(mmax, np.append(t, 1e-14))
    assert np.array_equal(plain, masked[:, :-1])
    grid = t[:56].reshape(7, 8)
    assert np.array_equal(boys(mmax, grid), plain.reshape(mmax + 1, 7, 8))
