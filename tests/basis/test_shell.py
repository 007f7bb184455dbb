"""Tests for Gaussian shells and their normalization."""

import numpy as np
import pytest

from repro.basis.shell import (Shell, cartesian_components, ncart,
                               primitive_norm)


def test_ncart():
    assert ncart(0) == 1
    assert ncart(1) == 3
    assert ncart(2) == 6
    assert ncart(3) == 10


def test_cartesian_components_order():
    assert cartesian_components(0) == [(0, 0, 0)]
    assert cartesian_components(1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    d = cartesian_components(2)
    assert d[0] == (2, 0, 0) and d[-1] == (0, 0, 2)
    assert len(d) == 6
    for lx, ly, lz in d:
        assert lx + ly + lz == 2


def test_primitive_norm_s_gaussian():
    # <g|g> = N^2 (pi/2a)^{3/2} = 1
    a = 0.7
    n = primitive_norm(a, 0, 0, 0)
    overlap = n * n * (np.pi / (2 * a)) ** 1.5
    assert np.isclose(overlap, 1.0)


def test_contracted_shell_unit_norm_via_overlap():
    """The normalized coefficients must give <phi|phi> = 1, checked by
    numerical quadrature for an s and a p function."""
    sh = Shell(0, np.array([3.42525091, 0.62391373, 0.16885540]),
               np.array([0.15432897, 0.53532814, 0.44463454]),
               np.zeros(3))
    r = np.linspace(0, 12, 4000)
    w = sh.norm_coefs[0]
    phi = sum(c * np.exp(-a * r * r) for c, a in zip(w, sh.exps))
    val = np.trapezoid(4 * np.pi * r * r * phi * phi, r)
    assert np.isclose(val, 1.0, atol=1e-6)


def test_p_shell_component_normalization():
    sh = Shell(1, np.array([1.1, 0.3]), np.array([0.5, 0.8]), np.zeros(3))
    # p_x: integral x^2 exp(-2ar^2)-type; use quadrature on a grid
    n = 61
    x = np.linspace(-8, 8, n)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    r2 = X * X + Y * Y + Z * Z
    w = sh.norm_coefs[0]   # px component
    phi = X * sum(c * np.exp(-a * r2) for c, a in zip(w, sh.exps))
    dv = (x[1] - x[0]) ** 3
    assert np.isclose((phi * phi).sum() * dv, 1.0, atol=1e-3)


def test_shell_validation():
    with pytest.raises(ValueError):
        Shell(0, np.array([1.0, 2.0]), np.array([1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        Shell(-1, np.array([1.0]), np.array([1.0]), np.zeros(3))


def test_extent_decreases_with_exponent():
    tight = Shell(0, np.array([10.0]), np.array([1.0]), np.zeros(3))
    diffuse = Shell(0, np.array([0.1]), np.array([1.0]), np.zeros(3))
    assert tight.extent() < diffuse.extent()


def test_nfunc_matches_l():
    for l in range(3):
        sh = Shell(l, np.array([1.0]), np.array([1.0]), np.zeros(3))
        assert sh.nfunc == ncart(l)
        assert len(sh.components) == sh.nfunc


def test_double_factorial_is_exact():
    """``_df(n) = (2n-1)!!`` as the correctly rounded double of the exact
    integer (``scipy.special.factorial2`` read ``3!! = 3.0000000000000004``
    and ``13!! = 135135.00000000003``)."""
    from fractions import Fraction
    from math import prod

    from repro.basis.shell import _df

    assert _df(0) == 1.0
    for n in range(1, 21):
        exact = prod(range(2 * n - 1, 0, -2))
        assert _df(n) == float(exact), n
        if exact < 2 ** 53:
            assert Fraction(_df(n)) == exact, n


def test_aux_d_and_f_shells_have_unit_self_overlap():
    """Every auxiliary component — one primitive, l up to 3 — integrates
    to one through the overlap integrals, which never see the double
    factorials the normalisation uses."""
    from repro.basis import build_aux_basis, build_basis
    from repro.chem import builders
    from repro.integrals import overlap_matrix

    aux = build_aux_basis(build_basis(builders.water()))
    assert {sh.l for sh in aux.shells} >= {2, 3}
    S = overlap_matrix(aux)
    assert np.abs(np.diag(S) - 1.0).max() <= 1e-15
