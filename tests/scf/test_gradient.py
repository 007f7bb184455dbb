"""Tests for analytic RHF nuclear gradients."""

import numpy as np
import pytest

from repro.basis import build_basis
from repro.basis.shell import Shell
from repro.basis.shellpair import ShellPair
from repro.chem import builders
from repro.integrals.gradients import (eri_gradient_quartet,
                                       kinetic_gradient, nuclear_gradient,
                                       overlap_gradient, shell_down,
                                       shell_up)
from repro.integrals.overlap import overlap_block
from repro.scf import run_rhf
from repro.scf.gradient import (AnalyticSCFForceEngine,
                                _two_electron_gradient,
                                nuclear_repulsion_gradient, rhf_gradient)


def _moved(sh, d, s):
    c = sh.center.copy()
    c[d] += s
    return Shell(sh.l, sh.exps, sh.coefs, c, sh.atom)


@pytest.fixture(scope="module")
def water_shells():
    return build_basis(builders.water()).shells


def test_shell_up_down_structure(water_shells):
    p = water_shells[2]   # O 2p
    up = shell_up(p)
    assert up.l == 2
    dn = shell_down(p)
    assert dn.l == 0
    s = water_shells[0]
    assert shell_down(s) is None


def test_d_shells_rejected():
    d = Shell(2, np.array([1.0]), np.array([1.0]), np.zeros(3))
    with pytest.raises(NotImplementedError):
        shell_up(d)


@pytest.mark.parametrize("i,j", [(0, 3), (2, 3), (2, 2), (0, 2)])
def test_overlap_gradient_vs_fd(water_shells, i, j):
    sa, sb = water_shells[i], water_shells[j]
    dS = overlap_gradient(sa, sb)
    h = 1e-6
    for d in range(3):
        p = overlap_block(ShellPair(_moved(sa, d, h), sb, 0, 1))
        m = overlap_block(ShellPair(_moved(sa, d, -h), sb, 0, 1))
        assert np.allclose(dS[d], (p - m) / (2 * h), atol=1e-7)


def test_kinetic_gradient_vs_fd(water_shells):
    from repro.integrals.kinetic import kinetic_block

    sa, sb = water_shells[2], water_shells[4]
    dT = kinetic_gradient(sa, sb)
    h = 1e-6
    for d in range(3):
        p = kinetic_block(ShellPair(_moved(sa, d, h), sb, 0, 1))
        m = kinetic_block(ShellPair(_moved(sa, d, -h), sb, 0, 1))
        assert np.allclose(dT[d], (p - m) / (2 * h), atol=1e-6)


def test_nuclear_gradient_operator_term_vs_fd(water_shells):
    from repro.integrals.nuclear import nuclear_block

    mol = builders.water()
    Z = mol.numbers.astype(float)
    sa, sb = water_shells[1], water_shells[3]
    _, dC = nuclear_gradient(sa, sb, Z, mol.coords)
    h = 1e-6
    for k in range(mol.natom):
        for d in range(3):
            Cp = mol.coords.copy(); Cp[k, d] += h
            Cm = mol.coords.copy(); Cm[k, d] -= h
            p = nuclear_block(ShellPair(sa, sb, 0, 1), Z, Cp)
            m = nuclear_block(ShellPair(sa, sb, 0, 1), Z, Cm)
            assert np.allclose(dC[k, d], (p - m) / (2 * h), atol=1e-6)


def test_eri_gradient_vs_fd(water_shells):
    from repro.integrals.eri import eri_quartet

    sh = [water_shells[k] for k in (0, 2, 3, 4)]
    dE = eri_gradient_quartet(*sh)
    h = 1e-6
    for ctr in range(3):
        for d in range(3):
            sp = list(sh); sp[ctr] = _moved(sh[ctr], d, h)
            sm = list(sh); sm[ctr] = _moved(sh[ctr], d, -h)
            p = eri_quartet(ShellPair(sp[0], sp[1], 0, 1),
                            ShellPair(sp[2], sp[3], 2, 3))
            m = eri_quartet(ShellPair(sm[0], sm[1], 0, 1),
                            ShellPair(sm[2], sm[3], 2, 3))
            assert np.allclose(dE[ctr, d], (p - m) / (2 * h), atol=1e-6)


def test_nuclear_repulsion_gradient_h2():
    mol = builders.h2()
    g = nuclear_repulsion_gradient(mol)
    r = mol.distance(0, 1)
    # attractive force toward lower repulsion: dV/dz for the far atom
    assert np.isclose(g[1, 2], -1.0 / r ** 2)
    assert np.allclose(g.sum(axis=0), 0.0, atol=1e-12)


@pytest.mark.parametrize("mk", [builders.h2, builders.heh_plus,
                                builders.lih])
def test_rhf_gradient_matches_fd(mk):
    from repro.md.bomd import SCFForceEngine

    mol = mk()
    res = run_rhf(mol, conv_tol=1e-11)
    g = rhf_gradient(res)
    eng = SCFForceEngine(mol, method="hf", conv_tol=1e-11)
    _, f_fd = eng.energy_forces(mol.coords)
    assert np.abs(g + f_fd).max() < 1e-5


def test_rhf_gradient_water_fd():
    from repro.md.bomd import SCFForceEngine

    mol = builders.water()
    res = run_rhf(mol, conv_tol=1e-11)
    g = rhf_gradient(res)
    _, f_fd = SCFForceEngine(mol, method="hf",
                             conv_tol=1e-11).energy_forces(mol.coords)
    assert np.abs(g + f_fd).max() < 1e-5


def _ordered_two_electron_gradient(basis, D, screen_eps):
    """The walk ``rhf_gradient`` used to make: all ``nsh^4`` ordered
    shell quartets against the plain two-particle density."""
    from repro.integrals.eri import ERIEngine

    shells = basis.shells
    Q = ERIEngine(basis).schwarz_bounds()
    dmax = float(np.abs(D).max())
    slc = basis.shell_slices()
    nsh = len(shells)
    grad = np.zeros((basis.molecule.natom, 3))
    nquartets = 0
    for i in range(nsh):
        for j in range(nsh):
            qij = Q[min(i, j), max(i, j)]
            for k in range(nsh):
                for l in range(nsh):
                    qkl = Q[min(k, l), max(k, l)]
                    if qij * qkl * dmax * dmax < screen_eps:
                        continue
                    nquartets += 1
                    dE = eri_gradient_quartet(shells[i], shells[j],
                                              shells[k], shells[l])
                    gam = (0.5 * np.einsum("xy,zw->xyzw", D[slc[i], slc[j]],
                                           D[slc[k], slc[l]])
                           - 0.25 * np.einsum("xz,yw->xyzw",
                                              D[slc[i], slc[k]],
                                              D[slc[j], slc[l]]))
                    gctr = np.einsum("cdxyzw,xyzw->cd", dE, gam)
                    for c, s in enumerate((i, j, k)):
                        grad[shells[s].atom] += gctr[c]
                    grad[shells[l].atom] -= gctr.sum(axis=0)
    return grad, nquartets


@pytest.mark.parametrize("mk,screen_eps", [(builders.water, 1e-11),
                                           (builders.lih, 1e-11),
                                           (builders.water, 0.3)])
def test_unique_quartet_walk_equals_the_ordered_walk(mk, screen_eps,
                                                     monkeypatch):
    """Same Schwarz test, same number, an eighth of the derivative
    quartets (``screen_eps=0.3`` drops a quarter of them on water)."""
    import repro.scf.gradient as gradient

    res = run_rhf(mk(), conv_tol=1e-10)
    ref, n_ordered = _ordered_two_electron_gradient(res.basis, res.D,
                                                    screen_eps)
    calls = []
    real = gradient.eri_gradient_quartet
    monkeypatch.setattr(gradient, "eri_gradient_quartet",
                        lambda *sh: calls.append(1) or real(*sh))
    got = _two_electron_gradient(res.basis, res.D, screen_eps)
    assert np.abs(got - ref).max() < 1e-10
    npair = res.basis.nshell * (res.basis.nshell + 1) // 2
    assert len(calls) <= npair * (npair + 1) // 2 < n_ordered
    if screen_eps > 1e-6:
        assert 0 < len(calls) < npair * (npair + 1) // 2


def test_gradient_translational_invariance():
    mol = builders.water()
    res = run_rhf(mol, conv_tol=1e-11)
    g = rhf_gradient(res)
    assert np.allclose(g.sum(axis=0), 0.0, atol=1e-7)


def test_analytic_force_engine_bomd():
    """One analytic-forces BOMD step conserves energy like FD."""
    from repro.constants import fs_to_aut
    from repro.md.integrator import VelocityVerlet

    mol = builders.h2(0.80)
    eng = AnalyticSCFForceEngine(mol)
    vv = VelocityVerlet(eng, mol.masses, fs_to_aut(0.2))
    s = vv.initial_state(mol.coords)
    traj = vv.run(s, 10)
    e0 = traj[0].total_energy(mol.masses)
    e1 = traj[-1].total_energy(mol.masses)
    assert abs(e1 - e0) / abs(e0) < 1e-3


def test_analytic_engine_single_scf_per_call():
    mol = builders.h2()
    eng = AnalyticSCFForceEngine(mol)
    eng.energy_forces(mol.coords)
    assert len(eng.scf_iterations) == 1   # vs 6N+1 for finite differences
