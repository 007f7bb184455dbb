"""Tests for the Boys function.

``closed_form_boys`` below is the evaluation ``boys`` used before it was
tabulated (``gamma * gammainc`` at the top order, downward recursion, a
three-term series under 1e-13).  The same closed form generates the
runtime table's rows; here it is an oracle next to ``mpmath``.
"""

import importlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gamma, gammainc

from repro.integrals.boys import _NGRID, _STEP, _T_SWITCH, boys, boys_single

# ``repro.integrals.boys`` the attribute is the function
boys_module = importlib.import_module("repro.integrals.boys")

MMAX = 16        # 3L = 12 on (pp|pp) is what the kernels reach; L + 1 = 5
                 # on the derivative walk
GRID = np.arange(_NGRID) * _STEP
# where the nearest grid point changes: the largest Taylor offsets
CELL_EDGES = GRID[:-1] + _STEP / 2
AROUND_SWITCH = np.array([np.nextafter(_T_SWITCH, 0.0), _T_SWITCH,
                          np.nextafter(_T_SWITCH, np.inf)])


def closed_form_boys(mmax, t):
    t = np.asarray(t, dtype=np.float64)
    flat = t.reshape(-1)
    out = np.empty((mmax + 1, flat.size))
    small = flat < 1e-13
    tb = flat[~small]
    m = mmax + 0.5
    # F_mmax(T) = Gamma(m) * P(m, T) / (2 T^m)   [P = regularized]
    fm = gamma(m) * gammainc(m, tb) / (2.0 * tb ** m)
    out[mmax, ~small] = fm
    emt = np.exp(-tb)
    for k in range(mmax, 0, -1):
        fm = (2.0 * tb * fm + emt) / (2.0 * k - 1.0)
        out[k - 1, ~small] = fm
    ts = flat[small]
    for k in range(mmax + 1):
        # F_m(T) ~ 1/(2m+1) - T/(2m+3) + T^2/(2(2m+5))
        out[k, small] = (1.0 / (2 * k + 1) - ts / (2 * k + 3)
                         + ts * ts / (2.0 * (2 * k + 5)))
    return out.reshape((mmax + 1, *t.shape))


def accuracy_arguments():
    """Uniform on [0, 60], log-uniform on [1e-14, 1e4], every grid point
    and cell edge with both neighbours, the switch point with both."""
    rng = np.random.default_rng(24)
    return np.concatenate([
        rng.uniform(0.0, 60.0, 1500), 10.0 ** rng.uniform(-14.0, 4.0, 700),
        GRID, np.nextafter(GRID, np.inf), np.nextafter(GRID[1:], 0.0),
        CELL_EDGES, np.nextafter(CELL_EDGES, np.inf),
        np.nextafter(CELL_EDGES, 0.0), AROUND_SWITCH])


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


def test_against_mpmath():
    """<= 2e-14 relative at every order a kernel reaches.  The exact rows
    are one 40-digit ``gammainc`` per argument at the top order and the
    (stable) downward recursion in the same arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    ts = accuracy_arguments()
    got = boys(MMAX, ts)
    # a lower top order is a different table and a shorter recursion
    low = boys(5, ts)
    worst = 0.0
    with mpmath.workdps(40):
        half = mpmath.mpf(1) / 2
        for j, t in enumerate(ts):
            t = mpmath.mpf(float(t))
            if t == 0:
                f = mpmath.mpf(1) / (2 * MMAX + 1)
            else:
                f = (mpmath.gammainc(MMAX + half, 0, t)
                     / (2 * t ** (MMAX + half)))
            emt = mpmath.exp(-t)
            for m in range(MMAX, -1, -1):
                worst = max(worst, abs(float((got[m, j] - f) / f)))
                if m <= 5:
                    worst = max(worst, abs(float((low[m, j] - f) / f)))
                if m:
                    f = (2 * t * f + emt) / (2 * m - 1)
    assert worst <= 2e-14


def test_against_the_closed_form():
    """The oracle itself is good to ~1e-13 at order 16 (``gammainc`` and
    ``T**(m + 1/2)`` near their small-argument ends)."""
    ts = accuracy_arguments()
    np.testing.assert_allclose(boys(MMAX, ts), closed_form_boys(MMAX, ts),
                               rtol=5e-13, atol=0.0)


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
    assert boys(3, np.empty((0, 2))).shape == (4, 0, 2)


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


# arguments on and next to cell edges and the switch point, and anywhere
_edges = st.builds(
    lambda k, side: float(np.nextafter(CELL_EDGES[k], side * np.inf)
                          if side else CELL_EDGES[k]),
    st.integers(0, len(CELL_EDGES) - 1), st.sampled_from([-1, 0, 1]))
_arguments = st.one_of(st.floats(0.0, 1.2 * _T_SWITCH), _edges,
                       st.sampled_from(AROUND_SWITCH.tolist()),
                       st.floats(_T_SWITCH, 1e4))


@settings(max_examples=300, deadline=None)
@given(t=_arguments, mmax=st.integers(1, MMAX))
def test_rows_obey_the_recursion_across_cells_and_the_switch(t, mmax):
    """Both branches produce rows that satisfy the downward identity, are
    positive, bounded by F_m(0) and decrease in m — whichever side of a
    cell edge or of T_c the argument falls."""
    f = boys(mmax, np.array([t]))[:, 0]
    m = np.arange(1, mmax + 1)
    np.testing.assert_allclose(
        f[:-1], (2.0 * t * f[1:] + np.exp(-t)) / (2.0 * m - 1.0),
        rtol=1e-13, atol=0.0)
    assert np.all(f > 0.0)
    assert np.all(f <= 1.0 / (2.0 * np.arange(mmax + 1) + 1.0))
    assert np.all(np.diff(f) < 0.0)


@settings(max_examples=300, deadline=None)
@given(t=_arguments, mmax=st.integers(0, MMAX))
def test_rows_decrease_in_t_across_cells_and_the_switch(t, mmax):
    """dF_m/dT = -F_{m+1}: a step of a quarter cell lowers every row by
    about ``F_{m+1} dT`` — 1e-7 relative or more on this range, far above
    rounding — including from one cell, or one branch, into the next."""
    f, g = boys(mmax, np.array([t, t + _STEP / 4.0])).T
    assert np.all(g < f)


@pytest.mark.reference
@pytest.mark.parametrize("mmax", [0, 1, 4, 12])
def test_elementwise_purity(mmax):
    """A value's bits depend on ``(mmax, T)`` alone: evaluated by itself,
    inside a batch that straddles the switch point, in a batch entirely
    on its own side, and reshaped.  This is what makes the chunking of
    every class batch bit-invariant."""
    rng = np.random.default_rng(mmax)
    t = np.concatenate([rng.uniform(0.0, 1.5 * _T_SWITCH, 53), AROUND_SWITCH,
                        [0.0, 5e-324, 1e-14, 1e-13, _STEP / 2, 35.0, 1e6]])
    batch = boys(mmax, t)
    for j, tj in enumerate(t):
        assert np.array_equal(boys(mmax, np.array([tj]))[:, 0], batch[:, j])
    near, far = t < _T_SWITCH, t >= _T_SWITCH
    assert near.any() and far.any()
    assert np.array_equal(boys(mmax, t[near]), batch[:, near])
    assert np.array_equal(boys(mmax, t[far]), batch[:, far])
    assert np.array_equal(boys(mmax, t[::-1]), batch[:, ::-1])
    grid = t[:56].reshape(7, 8)
    assert np.array_equal(boys(mmax, grid), batch[:, :56].reshape(-1, 7, 8))


@pytest.mark.parametrize("bad", [-1e-300, -50.0, np.nan, np.inf, -np.inf])
def test_refuses_negative_and_non_finite_arguments(bad):
    """A negative T used to fall into the small-T series
    (``boys(0, [-50.])`` was 267.7) and ``inf`` came back NaN."""
    with pytest.raises(ValueError, match="finite and >= 0") as err:
        boys(3, np.array([1.0, bad, 2.0, -7.0]))
    # the first offender is named
    assert repr(float(bad)) in str(err.value)
    with pytest.raises(ValueError):
        boys_single(0, bad)


def test_serves_the_ends_of_its_domain():
    t = np.array([0.0, 5e-324, *AROUND_SWITCH, 1e6])
    out = boys(6, t)
    assert np.all(np.isfinite(out)) and np.all(out > 0.0)
    m = np.arange(7)[:, None]
    np.testing.assert_allclose(out[:, :2], np.broadcast_to(
        1.0 / (2 * m + 1), (7, 2)), rtol=1e-15)
    # F_m(T) -> (2m-1)!! / 2^(m+1) sqrt(pi / T^(2m+1))
    dfact = np.cumprod(np.concatenate([[1.0], 2.0 * np.arange(1, 7) - 1.0]))
    np.testing.assert_allclose(
        out[:, -1], dfact / 2.0 ** (np.arange(7) + 1)
        * np.sqrt(np.pi / 1e6 ** (2.0 * np.arange(7) + 1.0)), rtol=1e-14)


def test_gammainc_only_generates_table_rows(monkeypatch):
    """After the tables an ``eri_tensor`` needs exist, the closed form is
    never evaluated again: it is the generator, not a runtime path."""
    from repro.basis import build_basis
    from repro.chem import builders
    from repro.integrals import eri_tensor

    basis = build_basis(builders.water())
    warm = eri_tensor(basis)

    def refuse(*args, **kwargs):
        raise AssertionError("gammainc evaluated at run time")

    monkeypatch.setattr(boys_module, "gammainc", refuse)
    assert np.array_equal(eri_tensor(basis), warm)
    # a top order no table exists for yet does reach the generator
    unseen = max(boys_module._TABLES) + 1
    with pytest.raises(AssertionError, match="run time"):
        boys(unseen, np.array([1.0]))
    assert unseen not in boys_module._TABLES


def test_threads_racing_on_a_missing_table_read_the_same_bits():
    """Thread lanes share the lazily filled tables without a lock: more
    threads than cores ask for an order nobody generated yet, under a
    switch interval short enough to interleave them inside the
    generator."""
    order = 29
    boys_module._TABLES.pop(order, None)
    t = np.linspace(0.0, 1.2 * _T_SWITCH, 997)
    results = [None] * 8
    barrier = threading.Barrier(len(results))

    def work(slot):
        barrier.wait(timeout=30)
        results[slot] = boys(order, t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(len(results))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for got in results:
        assert got is not None and np.array_equal(got, results[0])
    assert np.array_equal(boys(order, t), results[0])
