"""Tests for the Hermite (McMurchie-Davidson) machinery."""

import numpy as np
import pytest

from repro.integrals.mcmurchie import (gaussian_product, hermite_e,
                                       hermite_r_tri)
from repro.integrals.boys import boys

from .hermite_oracle import coulomb_recursion, hermite_r


def test_gaussian_product_center():
    a = np.array([1.0])
    b = np.array([3.0])
    A = np.array([0.0, 0.0, 0.0])
    B = np.array([0.0, 0.0, 4.0])
    p, P = gaussian_product(a, A, b, B)
    assert np.isclose(p[0], 4.0)
    # P = (aA + bB)/p = 3.0 along z
    assert np.allclose(P[0], [0.0, 0.0, 3.0])


def test_e000_is_overlap_prefactor():
    a = np.array([0.8])
    b = np.array([1.3])
    AB = 1.7
    E = hermite_e(0, 0, a, b, AB)
    mu = a * b / (a + b)
    assert np.isclose(E[0, 0, 0, 0], np.exp(-mu[0] * AB * AB))


def test_1d_overlap_from_e_matches_quadrature():
    """S_ij(1D) = E_0^{ij} sqrt(pi/p) against direct quadrature for
    i,j up to 2."""
    a, b = 0.9, 0.4
    A, B = -0.3, 0.8
    x = np.linspace(-12, 12, 20001)
    ga = np.exp(-a * (x - A) ** 2)
    gb = np.exp(-b * (x - B) ** 2)
    E = hermite_e(2, 2, np.array([a]), np.array([b]), A - B)
    p = a + b
    for i in range(3):
        for j in range(3):
            ref = np.trapezoid((x - A) ** i * ga * (x - B) ** j * gb, x)
            val = E[i, j, 0, 0] * np.sqrt(np.pi / p)
            assert np.isclose(val, ref, rtol=1e-8, atol=1e-12), (i, j)


def test_hermite_e_zero_beyond_ij():
    E = hermite_e(1, 1, np.array([1.0]), np.array([1.0]), 0.5)
    # t > i + j entries are zero
    assert E[0, 0, 1, 0] == 0.0
    assert E[0, 0, 2, 0] == 0.0
    assert E[1, 0, 2, 0] == 0.0


def test_hermite_r_base_case_is_boys():
    p = np.array([1.7])
    PQ = np.array([[0.3, -0.2, 0.5]])
    R = hermite_r(0, 0, 0, p, PQ)
    T = p[0] * (PQ[0] @ PQ[0])
    assert np.isclose(R[0, 0, 0, 0], boys(0, np.array([T]))[0, 0])


def test_hermite_r_first_derivative_relation():
    """R_{100} = X_PQ * (-2p) F_1(T) — check against finite differences
    of R_{000} with respect to PQ_x."""
    p = np.array([0.9])
    PQ = np.array([[0.4, 0.1, -0.3]])
    h = 1e-6
    Rp = hermite_r(0, 0, 0, p, PQ + [[h, 0, 0]])[0, 0, 0, 0]
    Rm = hermite_r(0, 0, 0, p, PQ - [[h, 0, 0]])[0, 0, 0, 0]
    fd = (Rp - Rm) / (2 * h)
    R100 = hermite_r(1, 0, 0, p, PQ)[1, 0, 0, 0]
    assert np.isclose(R100, fd, rtol=1e-5)


def test_hermite_r_symmetry_under_axis_swap():
    """Swapping x and y components of PQ swaps R_{tuv} indices."""
    p = np.array([1.1])
    PQ = np.array([[0.7, -0.4, 0.2]])
    PQs = np.array([[-0.4, 0.7, 0.2]])
    R1 = hermite_r(2, 2, 2, p, PQ)
    R2 = hermite_r(2, 2, 2, p, PQs)
    for t in range(3):
        for u in range(3):
            for v in range(3):
                assert np.isclose(R1[t, u, v, 0], R2[u, t, v, 0], atol=1e-12)


def test_vectorization_matches_scalar_loop():
    rng = np.random.default_rng(4)
    a = rng.uniform(0.2, 3.0, size=6)
    b = rng.uniform(0.2, 3.0, size=6)
    E_all = hermite_e(1, 1, a, b, 0.9)
    for k in range(6):
        E_one = hermite_e(1, 1, a[k:k + 1], b[k:k + 1], 0.9)
        assert np.allclose(E_all[..., k], E_one[..., 0])


@pytest.mark.reference
@pytest.mark.parametrize("L", range(7))
def test_triangular_recursion_from_3L_is_the_cubic_one_bit_for_bit(L):
    """What the per-quartet reference kernels rely on (L <= 4 for the
    s/p/d quartets, L + 1 in the nuclear-attraction gradient): with the
    Boys table recursed down from 3L, every reachable entry of the
    order-exact triangle carries the bits of the (3L+1)-order box; from
    L (the batched engine's default) those of the whole-slab recursion
    over L + 1 orders — for one primitive as for a batch."""
    rng = np.random.default_rng(L)
    idx = np.array([(t, u, v) for t in range(L + 1) for u in range(L + 1 - t)
                    for v in range(L + 1 - t - u)])
    t, u, v = idx.T
    for n in (1, 257):
        p = rng.uniform(0.05, 40.0, n)
        PQ = rng.normal(scale=1.5, size=(n, 3))
        if n > 1:
            PQ[:3] = 0.0                 # T = 0
            PQ[3] *= 1e-8
            PQ[4:8] *= 6.0               # past the Boys switch point
        box = hermite_r(L, L, L, p, PQ)
        tri = hermite_r_tri(L, p, PQ, boys_order=3 * L)
        assert tri.shape == box.shape == (L + 1, L + 1, L + 1, n)
        assert np.array_equal(tri[t, u, v], box[t, u, v])
        # a different rounding, the same recursion
        slabs = coulomb_recursion(L, L, L, L, L, p, PQ)
        short = hermite_r_tri(L, p, PQ)
        assert np.array_equal(short[t, u, v], slabs[t, u, v])
        assert np.allclose(short[t, u, v], box[t, u, v],
                           rtol=1e-10, atol=1e-300)
        # bits do not depend on what else rides in the call
        assert np.array_equal(hermite_r_tri(L, p[:1], PQ[:1])[t, u, v],
                              short[t, u, v][:, :1])
