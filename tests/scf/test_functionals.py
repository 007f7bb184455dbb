"""Tests for the XC functionals (LDA, PW92, PBE, hybrid mixing)."""

import numpy as np
import pytest

from repro.scf.functionals import (FUNCTIONALS, get_functional, lda_exchange,
                                   pbe_correlation, pbe_exchange,
                                   pw92_correlation)

from . import functional_oracle as oracle


def test_lda_exchange_uniform_gas_value():
    """e_x per electron of the HEG: -(3/4)(3/pi)^{1/3} rho^{1/3}."""
    rho = np.array([1.0])
    exc, vrho = lda_exchange(rho)
    cx = -0.75 * (3.0 / np.pi) ** (1.0 / 3.0)
    assert np.isclose(exc[0], cx)
    assert np.isclose(vrho[0], 4.0 / 3.0 * cx)


def test_lda_vrho_is_derivative():
    rho = np.linspace(0.01, 2.0, 40)
    exc, vrho = lda_exchange(rho)
    h = 1e-6
    fd = (lda_exchange(rho + h)[0] - lda_exchange(rho - h)[0]) / (2 * h)
    assert np.allclose(vrho, fd, rtol=1e-5)


def test_pw92_known_value():
    """PW92 eps_c at rs = 1 (unpolarized) ~ -0.0598 Ha."""
    rho = np.array([3.0 / (4.0 * np.pi)])  # rs = 1
    exc, _ = pw92_correlation(rho)
    eps = exc[0] / rho[0]
    assert np.isclose(eps, -0.0598, atol=2e-3)


def test_pw92_vrho_is_derivative():
    rho = np.linspace(0.05, 1.5, 20)
    _, vrho = pw92_correlation(rho)
    h = 1e-6
    fd = (pw92_correlation(rho + h)[0] - pw92_correlation(rho - h)[0]) / (2 * h)
    assert np.allclose(vrho, fd, rtol=1e-4, atol=1e-8)


def test_pbe_exchange_reduces_to_lda_at_zero_gradient():
    rho = np.linspace(0.05, 2.0, 10)
    sigma = np.zeros_like(rho)
    exc_pbe, _, _ = pbe_exchange(rho, sigma)
    exc_lda, _ = lda_exchange(rho)
    assert np.allclose(exc_pbe, exc_lda, rtol=1e-10)


def test_pbe_enhancement_bounded_by_kappa():
    """F_x <= 1 + kappa = 1.804 (the Lieb-Oxford-motivated bound)."""
    rho = np.full(5, 0.3)
    sigma = np.logspace(-2, 4, 5)
    exc, _, _ = pbe_exchange(rho, sigma)
    exc_lda, _ = lda_exchange(rho)
    ratio = exc / exc_lda
    assert np.all(ratio <= 1.804 + 1e-6)
    assert np.all(ratio >= 1.0 - 1e-10)


def test_pbe_exchange_more_negative_with_gradient():
    rho = np.full(3, 0.5)
    exc0, _, _ = pbe_exchange(rho, np.zeros(3))
    exc1, _, _ = pbe_exchange(rho, np.full(3, 1.0))
    assert np.all(exc1 < exc0)  # enhancement makes exchange more negative


def test_pbe_correlation_suppressed_by_gradient():
    rho = np.full(3, 0.5)
    exc0, _, _ = pbe_correlation(rho, np.zeros(3))
    exc1, _, _ = pbe_correlation(rho, np.full(3, 5.0))
    # gradient correction H > 0 reduces |correlation|
    assert np.all(exc1 > exc0)


def test_pbe_correlation_reduces_to_pw92_at_zero_gradient():
    rho = np.linspace(0.05, 1.0, 8)
    exc, _, _ = pbe_correlation(rho, np.zeros_like(rho))
    ref, _ = pw92_correlation(rho)
    assert np.allclose(exc, ref, rtol=1e-6)


def test_functional_registry():
    assert get_functional("pbe0").hfx_fraction == 0.25
    assert get_functional("PBE").hfx_fraction == 0.0
    assert get_functional("hf").hfx_fraction == 1.0
    with pytest.raises(ValueError):
        get_functional("b3lyp-made-up")
    assert set(FUNCTIONALS) >= {"lda", "pbe", "pbe0", "hf"}


def test_pbe0_semilocal_exchange_scaled():
    """PBE0's semilocal part carries 0.75 of the PBE exchange."""
    rho = np.full(4, 0.4)
    sigma = np.full(4, 0.2)
    f_pbe = get_functional("pbe")
    f_pbe0 = get_functional("pbe0")
    e_pbe = f_pbe.evaluate(rho, sigma)[0]
    e_pbe0 = f_pbe0.evaluate(rho, sigma)[0]
    ex, _, _ = pbe_exchange(rho, sigma)
    assert np.allclose(e_pbe - e_pbe0, 0.25 * ex, rtol=1e-10)


@pytest.fixture(scope="module")
def pc_pbe0_grid():
    """``(rho, sigma, weights)`` of a converged propylene-carbonate
    density on the default PBE0 grid, at the points whose density and
    gradient are above the working-precision floor (below it a relative
    difference step underflows)."""
    from repro.basis import build_basis
    from repro.chem import builders
    from repro.runtime import ExecutionConfig
    from repro.scf import RHF
    from repro.scf.dft import XCIntegrator
    from repro.scf.grid import MolecularGrid

    mol = builders.propylene_carbonate()
    basis = build_basis(mol)
    D = RHF(mol, basis=basis, config=ExecutionConfig(jk="ri"),
            conv_tol=1e-6).run().D
    grid = MolecularGrid.build(mol)
    xc = XCIntegrator(basis, grid, get_functional("pbe0"))
    rho, (sigma, _) = xc.density_on_grid(D)
    keep = (rho > 1e-10) & (sigma > 1e-20)
    assert keep.sum() > 0.8 * len(rho)
    return rho[keep], sigma[keep], grid.weights[keep]


@pytest.mark.parametrize("part", ["exchange", "correlation"])
def test_pbe_closed_form_potentials_match_central_differences(
        pc_pbe0_grid, part):
    """Analytic vrho/vsigma against fourth-order central differences of
    the verbatim energy expressions, to <= 1e-7 relative in the
    grid-weighted norm; the energy density equal in every bit."""
    rho, sigma, w = pc_pbe0_grid
    new, ref = {"exchange": (pbe_exchange, oracle.pbe_x_energy),
                "correlation": (pbe_correlation, oracle.pbe_c_energy)}[part]
    exc, vrho, vsigma = new(rho, sigma)
    assert np.array_equal(exc, ref(rho, sigma))
    fd_rho = oracle.central_difference(lambda r: ref(r, sigma), rho)
    fd_sigma = oracle.central_difference(lambda s: ref(rho, s), sigma)
    for v, fd in ((vrho, fd_rho), (vsigma, fd_sigma)):
        rel = np.linalg.norm(w * (v - fd)) / np.linalg.norm(w * fd)
        assert rel <= 1e-7, rel


def test_pw92_closed_form_potential_matches_central_differences(
        pc_pbe0_grid):
    rho, _, w = pc_pbe0_grid
    exc, vrho = pw92_correlation(rho)
    rs = (3.0 / (4.0 * np.pi * rho)) ** (1.0 / 3.0)
    assert np.array_equal(exc, oracle.pw92_eps(rs) * rho)
    fd = oracle.central_difference(
        lambda r: oracle.pw92_eps((3.0 / (4.0 * np.pi * r)) ** (1.0 / 3.0)) * r,
        rho)
    assert np.linalg.norm(w * (vrho - fd)) / np.linalg.norm(w * fd) <= 1e-7


def test_potentials_stay_finite_at_the_density_floor():
    # clamped (zero) densities and vanishing gradients, as the grid's
    # far points produce them
    rho = np.array([0.0, 0.0, 1e-30, 1e-12, 1e-162])
    sigma = np.array([0.0, 1e-10, 1e-30, 1e-20, 1e-320])
    for f in (pbe_exchange, pbe_correlation):
        for arr in f(rho, sigma):
            assert np.all(np.isfinite(arr))
