"""Tests for the Becke/Lebedev molecular grid and AO evaluation."""

import numpy as np
import pytest

from repro.chem import builders
from repro.scf.grid import (MolecularGrid, becke_cell, becke_partition,
                            eval_aos, lebedev_points, radial_points)


@pytest.mark.parametrize("order", [6, 14, 26, 38, 50])
def test_lebedev_weights_sum_to_one(order):
    pts, wts = lebedev_points(order)
    assert len(pts) == order
    assert np.isclose(wts.sum(), 1.0, atol=1e-12)
    # all points on the unit sphere
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("order", [14, 26, 38, 50])
def test_lebedev_integrates_low_order_harmonics(order):
    """Integral of x^2 over the sphere = 1/3 (normalized); odd moments
    vanish."""
    pts, wts = lebedev_points(order)
    assert np.isclose((wts * pts[:, 0] ** 2).sum(), 1.0 / 3.0, atol=1e-10)
    assert np.isclose((wts * pts[:, 2]).sum(), 0.0, atol=1e-12)
    assert np.isclose((wts * pts[:, 0] * pts[:, 1]).sum(), 0.0, atol=1e-12)
    # x^4: exact value 1/5
    assert np.isclose((wts * pts[:, 0] ** 4).sum(), 0.2, atol=1e-8)


def test_unsupported_lebedev_order():
    with pytest.raises(ValueError):
        lebedev_points(33)


def test_radial_quadrature_integrates_gaussian():
    """int_0^inf e^{-r^2} r^2 dr = sqrt(pi)/4."""
    r, w = radial_points(60, rm=1.0)
    val = (w * np.exp(-r * r)).sum()
    assert np.isclose(val, np.sqrt(np.pi) / 4.0, rtol=1e-8)


def test_radial_quadrature_exponential():
    """int_0^inf e^{-2r} r^2 dr = 1/4 (hydrogen 1s density shape)."""
    r, w = radial_points(80, rm=1.0)
    val = (w * np.exp(-2 * r)).sum()
    assert np.isclose(val, 0.25, rtol=1e-6)


def becke_weights_oracle(mol, pts, center, iters):
    """Becke weight of atom ``center`` at ``pts`` as ``MolecularGrid``
    computed it before the one-pass partition: every ordered atom pair,
    the smoothing polynomial through ``f ** 3``."""
    if mol.natom == 1:
        return np.ones(len(pts))
    d = np.linalg.norm(pts[:, None, :] - mol.coords[None, :, :], axis=2)
    R = mol.distance_matrix()
    cell = np.ones((len(pts), mol.natom))
    for a in range(mol.natom):
        for b in range(mol.natom):
            if a == b:
                continue
            mu = (d[:, a] - d[:, b]) / R[a, b]
            f = mu
            for _ in range(iters):
                f = 1.5 * f - 0.5 * f ** 3
            cell[:, a] *= 0.5 * (1.0 - f)
    total = cell.sum(axis=1)
    total[total == 0.0] = 1.0
    return cell[:, center] / total


def test_becke_weights_partition_of_unity():
    mol = builders.water()
    grid = MolecularGrid.build(mol, n_radial=10, n_angular=14)
    assert grid.npts == 3 * 10 * 14
    P = becke_partition(mol, grid.points, grid.becke_iters)
    assert P.shape == (grid.npts, mol.natom)
    assert np.all((P >= 0.0) & (P <= 1.0))
    assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-15
    g = np.arange(grid.npts)
    assert np.array_equal(grid.weights, grid.quadrature * P[g, grid.owner])


@pytest.mark.parametrize("name", ["water", "li2o2", "propylene_carbonate"])
def test_becke_partition_matches_the_per_atom_oracle(name):
    """One pass over all points, each pair once, ``f (1.5 - 0.5 f^2)``:
    the parent's weights to the last bit or two."""
    mol = getattr(builders, name)()
    grid = MolecularGrid.build(mol)
    P = becke_partition(mol, grid.points, grid.becke_iters)
    assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-15
    n = grid.npts // mol.natom
    oracle = np.concatenate([
        becke_weights_oracle(mol, grid.points[a * n:(a + 1) * n], a,
                             grid.becke_iters) for a in range(mol.natom)])
    assert np.abs(P[np.arange(grid.npts), grid.owner] - oracle).max() <= 4e-16


def test_becke_cell_is_odd_and_its_derivative_matches_fd():
    mu = np.linspace(-1.0, 1.0, 41)
    s, ds = becke_cell(mu, 3)
    assert np.abs(becke_cell(-mu, 3)[0] - (1.0 - s)).max() <= 2e-16
    h = 1e-6
    fd = (becke_cell(mu + h, 3)[0] - becke_cell(mu - h, 3)[0]) / (2 * h)
    assert np.abs(fd - ds).max() < 1e-8


def test_grid_integrates_electron_count(water_rhf):
    from repro.scf.grid import eval_aos

    grid = MolecularGrid.build(water_rhf.basis.molecule, 40, 26)
    ao = eval_aos(water_rhf.basis, grid.points)
    rho = np.einsum("gp,pq,gq->g", ao, water_rhf.D, ao)
    n = grid.integrate(rho)
    assert np.isclose(n, 10.0, rtol=5e-3)


def test_eval_aos_gradient_matches_fd(water_basis, rng):
    pts = rng.uniform(-2, 2, size=(20, 3))
    ao, grad = eval_aos(water_basis, pts, deriv=1)
    h = 1e-5
    for d in range(3):
        shift = np.zeros(3)
        shift[d] = h
        aop = eval_aos(water_basis, pts + shift)
        aom = eval_aos(water_basis, pts - shift)
        fd = (aop - aom) / (2 * h)
        assert np.abs(fd - grad[d]).max() < 1e-6


def test_single_atom_grid():
    mol = builders.li_atom()
    grid = MolecularGrid.build(mol, n_radial=20, n_angular=6)
    assert grid.npts == 120
    assert np.all(grid.weights > 0)
