"""Tests for the analytic SCF nuclear gradient (HF, LDA, PBE, PBE0).

The oracles live here, not under ``src/``: the engine's own
finite-difference stencil (``SCFForceEngine._fd_forces``) for the total
gradient, and the per-quartet derivative walk the class-batched one
replaced (``eri_gradient_quartet`` / ``_two_electron_gradient_oracle``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.basis import build_basis
from repro.basis.shell import Shell
from repro.basis.shellpair import ShellPair
from repro.chem import builders
from repro.integrals.eri import ERIEngine, eri_quartet
from repro.integrals.gradients import (DerivativePairs, _assemble,
                                       kinetic_gradient, nuclear_gradient,
                                       overlap_gradient, shell_down,
                                       shell_up)
from repro.integrals.overlap import overlap_block
from repro.md.bomd import SCFForceEngine
from repro.runtime import ExecutionConfig, Tracer
from repro.scf import run_rhf
from repro.scf.dft import RKS
from repro.scf.gradient import (_two_electron_gradient, _xc_gradient,
                                nuclear_repulsion_gradient, scf_gradient)
from repro.scf.grid import MolecularGrid, eval_aos

pytestmark = pytest.mark.gradient

METHODS = ("hf", "lda", "pbe", "pbe0")
TOL = 1e-5          # Ha/bohr, analytic vs the O(h^2) stencil


def _moved(sh, d, s):
    c = sh.center.copy()
    c[d] += s
    return Shell(sh.l, sh.exps, sh.coefs, c, sh.atom)


@pytest.fixture(scope="module")
def water_shells():
    return build_basis(builders.water()).shells


# --- oracles ------------------------------------------------------------------

def eri_gradient_quartet(sha, shb, shc, shd):
    """d(ab|cd)/d(center) for the first three centers, one
    ``eri_quartet`` per raised/lowered pair on six fresh ``ShellPair``s,
    shape ``(3 centers, 3 xyz, na, nb, nc, nd)`` — the route
    ``src/`` walked per quartet before the class-batched one."""
    out = np.zeros((3, 3, sha.nfunc, shb.nfunc, shc.nfunc, shd.nfunc))

    def d_first(s0, s1, s2, s3):
        up = eri_quartet(ShellPair(shell_up(s0), s1, 0, 1),
                         ShellPair(s2, s3, 2, 3))
        dn_sh = shell_down(s0)
        dn = eri_quartet(ShellPair(dn_sh, s1, 0, 1),
                         ShellPair(s2, s3, 2, 3)) if dn_sh else None
        return _assemble(s0, up, dn)

    out[0] = d_first(sha, shb, shc, shd)
    out[1] = d_first(shb, sha, shc, shd).transpose(0, 2, 1, 3, 4)
    out[2] = d_first(shc, shd, sha, shb).transpose(0, 3, 4, 1, 2)
    return out


def _two_electron_gradient_oracle(basis, D, a_x, screen_eps):
    """Per-quartet walk over the 8-fold-unique Schwarz-surviving
    quartets (no symmetry drops); returns (gradient, quartets)."""
    shells = basis.shells
    grad = np.zeros((basis.molecule.natom, 3))
    Q = ERIEngine(basis).schwarz_bounds()
    dmax = float(np.abs(D).max())
    slc = basis.shell_slices()
    keys = list(Q)
    n = 0
    for a, (i, j) in enumerate(keys):
        for (k, l) in keys[a:]:
            if Q[i, j] * Q[k, l] * dmax * dmax < screen_eps:
                continue
            n += 1
            dE = eri_gradient_quartet(shells[i], shells[j],
                                      shells[k], shells[l])
            si, sj, sk, sl = slc[i], slc[j], slc[k], slc[l]
            gam = (0.5 * np.einsum("xy,zw->xyzw", D[si, sj], D[sk, sl])
                   - 0.125 * a_x * (
                       np.einsum("xz,yw->xyzw", D[si, sk], D[sj, sl])
                       + np.einsum("xw,yz->xyzw", D[si, sl], D[sj, sk])))
            images = ((1 if i == j else 2) * (1 if k == l else 2)
                      * (1 if (i, j) == (k, l) else 2))
            gctr = images * np.einsum("cdxyzw,xyzw->cd", dE, gam)
            for c, s in enumerate((i, j, k)):
                grad[shells[s].atom] += gctr[c]
            grad[shells[l].atom] -= gctr.sum(axis=0)
    return grad, n


def _ordered_two_electron_gradient(basis, D, screen_eps):
    """All ``nsh^4`` ordered shell quartets against the plain
    two-particle density (HF)."""
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


def _analytic_and_fd(mol, method, components=None, **engine_kw):
    """(analytic forces, FD forces, mask of compared components) from
    one engine at ``mol``'s geometry."""
    eng = SCFForceEngine(mol, method=method, conv_tol=1e-10, **engine_kw)
    assert eng.analytic
    _, F = eng.energy_forces(mol.coords)
    F_fd = eng._fd_forces(mol.coords, eng.last_result, components)
    mask = np.zeros(F.shape, dtype=bool)
    if components is None:
        mask[:] = True
    else:
        mask[tuple(zip(*components))] = True
    return F, F_fd, mask


# --- derivative integrals -------------------------------------------------------

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
    with pytest.raises(NotImplementedError):
        DerivativePairs([d, d])


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
    dA, dC = nuclear_gradient(sa, sb, Z, mol.coords)
    h = 1e-6
    for k in range(mol.natom):
        for d in range(3):
            Cp = mol.coords.copy(); Cp[k, d] += h
            Cm = mol.coords.copy(); Cm[k, d] -= h
            p = nuclear_block(ShellPair(sa, sb, 0, 1), Z, Cp)
            m = nuclear_block(ShellPair(sa, sb, 0, 1), Z, Cm)
            assert np.allclose(dC[k, d], (p - m) / (2 * h), atol=1e-6)
    # the bra (basis-function) term, with the nuclei held
    for d in range(3):
        p = nuclear_block(ShellPair(_moved(sa, d, h), sb, 0, 1), Z,
                          mol.coords)
        m = nuclear_block(ShellPair(_moved(sa, d, -h), sb, 0, 1), Z,
                          mol.coords)
        assert np.allclose(dA[d], (p - m) / (2 * h), atol=1e-6)


def test_eri_gradient_vs_fd(water_shells):
    """The per-quartet oracle itself, against displaced quartets."""
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


@pytest.mark.parametrize("side", [0, 1])
def test_gradient_lambda_is_the_lambda_of_the_derivative(water_shells, side):
    """``DerivativePairs.lam`` contracted like any Hermite lambda gives
    d(ab|cd)/dA resp. dB: one Lambda stage per centre is enough."""
    from repro.integrals.batch import (_bra_layout, _hermite_stage,
                                       _ket_layout, _lambda_stage)
    from repro.basis.shellpair import hermite_indices

    sh = [water_shells[k] for k in (2, 3, 0, 2)]
    table = DerivativePairs(sh)
    bra, ket = table.plain(0, 1), table.plain(2, 3)
    R, pref = _hermite_stage(bra.lab + ket.lab + 1, bra.p[None], ket.p[None],
                             bra.P[None], ket.P[None], None)
    got = _lambda_stage(
        R, pref, hermite_indices(bra.lab + 1), hermite_indices(ket.lab),
        _bra_layout(table.lam(0, 1, side)[None]),
        _ket_layout(ket.hermite_lambda()[1][None]))
    want = eri_gradient_quartet(*sh)[side]
    assert np.abs(got.reshape(want.shape) - want).max() < 1e-12


def test_nuclear_repulsion_gradient_h2():
    mol = builders.h2()
    g = nuclear_repulsion_gradient(mol)
    r = mol.distance(0, 1)
    # attractive force toward lower repulsion: dV/dz for the far atom
    assert np.isclose(g[1, 2], -1.0 / r ** 2)
    assert np.allclose(g.sum(axis=0), 0.0, atol=1e-12)


# --- grid derivatives -----------------------------------------------------------

def test_becke_weight_gradient_vs_fd():
    """d(weights)/dR_C with every atom's points riding on it, against
    grids rebuilt at displaced geometries."""
    mol = builders.li2o2()
    grid = MolecularGrid.build(mol, 10, 14)
    dw = grid.weight_gradient(mol, slice(None))
    assert dw.shape == (grid.npts, mol.natom, 3)
    h = 1e-5
    for c, d in ((0, 0), (1, 2), (3, 1)):
        cp = mol.coords.copy(); cp[c, d] += h
        cm = mol.coords.copy(); cm[c, d] -= h
        wp = MolecularGrid.build(mol.with_coords(cp), 10, 14).weights
        wm = MolecularGrid.build(mol.with_coords(cm), 10, 14).weights
        scale = np.abs(grid.weights).max()
        assert np.abs(dw[:, c, d] - (wp - wm) / (2 * h)).max() < 1e-6 * scale
    # a partition of unity moving rigidly: no net derivative
    assert np.abs(dw.sum(axis=1)).max() < 1e-12 * np.abs(dw).max()


def test_eval_aos_hessian_vs_fd():
    basis = build_basis(builders.water())
    rng = np.random.default_rng(5)
    pts = rng.normal(scale=1.5, size=(40, 3))
    ao, grad, hess = eval_aos(basis, pts, deriv=2)
    assert np.array_equal(ao, eval_aos(basis, pts))
    assert np.array_equal(grad, eval_aos(basis, pts, deriv=1)[1])
    assert np.array_equal(hess, hess.transpose(1, 0, 2, 3))
    h = 1e-5
    for j in range(3):
        e = np.zeros(3); e[j] = h
        gp = eval_aos(basis, pts + e, deriv=1)[1]
        gm = eval_aos(basis, pts - e, deriv=1)[1]
        assert np.abs(hess[:, j] - (gp - gm) / (2 * h)).max() < 1e-7


# --- the gradient against the engine's own stencil --------------------------------

@pytest.mark.parametrize("mk", [builders.h2, builders.heh_plus,
                                builders.lih])
def test_rhf_gradient_matches_fd(mk):
    mol = mk()
    res = run_rhf(mol, conv_tol=1e-11)
    g = scf_gradient(res)
    eng = SCFForceEngine(mol, method="hf", conv_tol=1e-11)
    _, f_an = eng.energy_forces(mol.coords)
    f_fd = eng._fd_forces(mol.coords, eng.last_result)
    assert np.abs(g + f_fd).max() < TOL
    assert np.abs(g + f_an).max() < 1e-8


def test_rhf_gradient_water_fd():
    mol = builders.water()
    F, F_fd, _ = _analytic_and_fd(mol, "hf")
    assert np.abs(F - F_fd).max() < TOL


@pytest.mark.parametrize("method", METHODS[1:])
@pytest.mark.parametrize("mk", [builders.water, builders.lih])
def test_ks_gradient_matches_fd(mk, method):
    F, F_fd, _ = _analytic_and_fd(mk(), method)
    assert np.abs(F - F_fd).max() < TOL


@pytest.mark.parametrize("method", METHODS)
def test_li2o2_gradient_matches_fd(method):
    """The north-star system.  PBE0 gets the full 24-displacement
    stencil; the other methods one component per atom (the stencil is
    3-4 s per method on this system)."""
    components = None if method == "pbe0" else \
        [(0, 0), (1, 1), (2, 2), (3, 0)]
    F, F_fd, mask = _analytic_and_fd(builders.li2o2(), method, components)
    assert np.abs((F - F_fd)[mask]).max() < TOL
    assert np.abs(F.sum(axis=0)).max() < 1e-10


def test_gradient_matches_fd_on_split_valence_basis():
    """Contracted and diffuse shells on one centre (3-21G), one
    component per atom."""
    F, F_fd, mask = _analytic_and_fd(builders.water(), "pbe0",
                                     [(0, 2), (1, 0), (2, 1)], basis="sv")
    assert np.abs((F - F_fd)[mask]).max() < TOL


def test_gradient_matches_fd_on_second_row_sulfoxide():
    """A second-row centre (S: two p shells), one component per atom."""
    mol = builders.sulfoxide_model()
    F, F_fd, mask = _analytic_and_fd(
        mol, "pbe0", [(a, a % 3) for a in range(mol.natom)])
    assert np.abs((F - F_fd)[mask]).max() < TOL


def test_propylene_carbonate_gradient_components_match_fd():
    """Two components of the 13-atom electrolyte molecule (its full
    stencil is 79 SCFs of 2 s each — not tier-1 material)."""
    F, F_fd, mask = _analytic_and_fd(builders.propylene_carbonate(), "hf",
                                     [(0, 0), (12, 2)])
    assert mask.sum() == 2
    assert np.abs((F - F_fd)[mask]).max() < TOL
    assert np.abs(F.sum(axis=0)).max() < 1e-10


def test_xc_gradient_needs_the_weight_derivatives():
    """On the (30, 26) grid the Becke-weight term is orders of magnitude
    above the tolerance: leaving it out is not a simplification (and
    the sum rule would not catch it — both variants obey it)."""
    mol = builders.water()
    eng = SCFForceEngine(mol, method="pbe", conv_tol=1e-10)
    _, F = eng.energy_forces(mol.coords)
    component = [(1, 0)]
    F_fd = eng._fd_forces(mol.coords, eng.last_result, component)
    solver = RKS(mol, functional="pbe", conv_tol=1e-10)
    res = solver.run()
    full = _xc_gradient(res.basis, res.D, solver.xc)
    bare = _xc_gradient(res.basis, res.D, solver.xc,
                        weight_derivatives=False)
    F_bare = F + (full - bare)
    assert abs(F[1, 0] - F_fd[1, 0]) < TOL
    assert abs(F_bare[1, 0] - F_fd[1, 0]) > 100 * TOL
    for g in (full, bare):
        assert np.abs(g.sum(axis=0)).max() < 1e-10


# --- the class-batched two-electron walk --------------------------------------------

@pytest.mark.parametrize("mk,a_x,screen_eps", [
    (builders.water, 1.0, 1e-11), (builders.water, 0.25, 0.3),
    (builders.lih, 1.0, 1e-11), (builders.peroxide_dianion, 0.25, 1e-3),
    (builders.water, 0.0, 1e-11)])
def test_class_walk_equals_the_per_quartet_walk(mk, a_x, screen_eps):
    """Same Schwarz test, same quartets, the same number to 1e-12 —
    including screens that bite (0.3 drops a quarter of water's
    quartets) and a pair of p-shell atoms (O2^2-: every class up to
    (pp|pp) across two centres)."""
    res = run_rhf(mk(), conv_tol=1e-9)
    basis = res.basis
    ref, n_ref = _two_electron_gradient_oracle(basis, res.D, a_x, screen_eps)
    table = DerivativePairs(basis.shells, basis.shell_pairs())
    got, stats = _two_electron_gradient(basis, res.D, a_x, screen_eps, table)
    assert np.abs(got - ref).max() < 1e-12
    npair = basis.nshell * (basis.nshell + 1) // 2
    if screen_eps > 1e-6:
        assert 0 < n_ref < npair * (npair + 1) // 2
    # every surviving quartet is differentiated or dropped whole, and
    # every dropped centre is counted
    atom = np.array([sh.atom for sh in basis.shells])
    one_atom = sum(
        1 for a, (i, j) in enumerate(list(ERIEngine(basis).schwarz_bounds()))
        for (k, l) in list(ERIEngine(basis).schwarz_bounds())[a:]
        if len({atom[i], atom[j], atom[k], atom[l]}) == 1)
    if screen_eps <= 1e-6:
        assert stats["quartets"] + one_atom == n_ref
    assert stats["skipped_by_symmetry"] > 0
    assert 0 < stats["class_batches"] <= stats["quartets"]


@pytest.mark.parametrize("mk,screen_eps", [(builders.water, 1e-11),
                                           (builders.lih, 1e-11),
                                           (builders.water, 0.3)])
def test_unique_quartet_walk_equals_the_ordered_walk(mk, screen_eps):
    """Same Schwarz test, same number, at most an eighth of the
    derivative quartets (``screen_eps=0.3`` drops a quarter of them on
    water)."""
    res = run_rhf(mk(), conv_tol=1e-10)
    ref, n_ordered = _ordered_two_electron_gradient(res.basis, res.D,
                                                    screen_eps)
    table = DerivativePairs(res.basis.shells, res.basis.shell_pairs())
    got, stats = _two_electron_gradient(res.basis, res.D, 1.0, screen_eps,
                                        table)
    assert np.abs(got - ref).max() < 1e-10
    npair = res.basis.nshell * (res.basis.nshell + 1) // 2
    assert stats["quartets"] <= npair * (npair + 1) // 2 < n_ordered
    if screen_eps > 1e-6:
        assert 0 < stats["quartets"] < npair * (npair + 1) // 2


# --- invariants ------------------------------------------------------------------

def _torque(coords, g):
    return np.cross(coords, g).sum(axis=0)


def test_gradient_translational_invariance():
    mol = builders.water()
    for method in METHODS:
        solver = RKS(mol, functional=method, conv_tol=1e-10)
        g = scf_gradient(solver.run(), xc=solver.xc)
        assert np.abs(g.sum(axis=0)).max() < 1e-10, method


def test_hf_gradient_has_no_net_torque_and_rotates_with_the_molecule():
    mol = builders.water()
    g = scf_gradient(run_rhf(mol, conv_tol=1e-11))
    assert np.abs(_torque(mol.coords, g)).max() < 1e-8
    rot, _ = np.linalg.qr(np.random.default_rng(11).normal(size=(3, 3)))
    rotated = mol.with_coords(mol.coords @ rot.T)
    g_rot = scf_gradient(run_rhf(rotated, conv_tol=1e-11))
    assert np.abs(g_rot - g @ rot.T).max() < 1e-7


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 16), which=st.sampled_from(["water", "lih"]),
       method=st.sampled_from(["hf", "pbe0"]))
def test_random_sp_geometries_keep_the_invariants(seed, which, method):
    base = getattr(builders, which)()
    jitter = np.random.default_rng(seed).uniform(-0.25, 0.25,
                                                 size=base.coords.shape)
    mol = base.with_coords(base.coords + jitter)
    solver = RKS(mol, functional=method, conv_tol=1e-9)
    g = scf_gradient(solver.run(), xc=solver.xc)
    assert np.isfinite(g).all()
    assert np.abs(g.sum(axis=0)).max() < 1e-10
    if method == "hf":
        assert np.abs(_torque(mol.coords, g)).max() < 1e-7


# --- the engine's route ---------------------------------------------------------------

def _scf_runs(tracer):
    return sum(1 for s in tracer.spans if s.name == "md.scf") + sum(
        s.args["ndisplacements"] for s in tracer.spans if s.name == "md.fd")


def test_analytic_force_engine_bomd():
    """A short BOMD run on the analytic route conserves energy."""
    from repro.constants import fs_to_aut
    from repro.md.integrator import VelocityVerlet

    mol = builders.h2(0.80)
    eng = SCFForceEngine(mol)
    vv = VelocityVerlet(eng, mol.masses, fs_to_aut(0.2))
    s = vv.initial_state(mol.coords)
    traj = vv.run(s, 10)
    e0 = traj[0].total_energy(mol.masses)
    e1 = traj[-1].total_energy(mol.masses)
    assert abs(e1 - e0) / abs(e0) < 1e-3


def test_analytic_engine_single_scf_per_call():
    mol = builders.h2()
    for method in ("hf", "pbe0"):
        tr = Tracer()
        eng = SCFForceEngine(mol, method=method,
                             config=ExecutionConfig(tracer=tr))
        assert eng.analytic
        eng.energy_forces(mol.coords)
        assert len(eng.scf_iterations) == 1
        assert _scf_runs(tr) == 1         # vs 6N+1 for finite differences
        assert tr.metrics.get("md.scf_per_force") == 1


def test_ri_engine_keeps_the_finite_difference_route():
    """A four-index gradient is not the derivative of the fitted
    energy: ``jk="ri"`` differentiates the energy it minimises."""
    mol = builders.h2()
    tr = Tracer()
    eng = SCFForceEngine(mol, config=ExecutionConfig(jk="ri", tracer=tr))
    assert not eng.analytic
    _, F = eng.energy_forces(mol.coords)
    assert _scf_runs(tr) == 6 * mol.natom + 1
    assert tr.metrics.get("md.scf_per_force") == 6 * mol.natom + 1
    assert not any(s.name == "md.gradient" for s in tr.spans)
    assert np.abs(F.sum(axis=0)).max() < 1e-6


def test_smeared_occupations_take_the_finite_difference_route():
    eng = SCFForceEngine(builders.h2(), scf_kwargs={"smearing": 0.01})
    assert not eng.analytic


@pytest.mark.pool
@pytest.mark.parametrize("method", ["hf", "pbe0"])
def test_process_executor_takes_the_same_route(method):
    """The gradient is assembled serially in the parent from the
    converged state, so the executor only enters through that state: the
    pooled SCF agrees with the serial one to ~1e-12 (its J/K sums run in
    another order, see tests/hfx/test_pool_exec.py), the forces to the
    same order, and two pooled engines bit for bit."""
    mol = builders.water()
    cfg = ExecutionConfig(executor="process", nworkers=2)
    serial = SCFForceEngine(mol, method=method,
                            scf_kwargs={"mode": "direct"})
    pooled = [SCFForceEngine(mol, method=method, config=cfg)
              for _ in range(2)]
    assert all(eng.analytic for eng in pooled)
    try:
        e_s, F_s = serial.energy_forces(mol.coords)
        (e_p, F_p), (e_q, F_q) = (eng.energy_forces(mol.coords)
                                  for eng in pooled)
    finally:
        for eng in pooled:
            eng.close()
    assert abs(e_s - e_p) < 1e-10 and np.abs(F_s - F_p).max() < 1e-9
    assert float(e_p).hex() == float(e_q).hex()
    assert np.array_equal(F_p, F_q)


@pytest.mark.parametrize("cfg", [
    dict(kernel="batched"), dict(scf_solver="soscf"),
    dict(scf_solver="auto")])
def test_route_is_independent_of_kernel_and_solver(cfg):
    """Either kernel, either solver: one SCF, and forces that agree with
    the reference configuration to the SCF tolerance."""
    mol = builders.water()
    _, F_ref = SCFForceEngine(mol, method="pbe0",
                              conv_tol=1e-10).energy_forces(mol.coords)
    eng = SCFForceEngine(mol, method="pbe0", conv_tol=1e-10,
                         scf_kwargs={"mode": "direct"},
                         config=ExecutionConfig(**cfg))
    assert eng.analytic
    _, F = eng.energy_forces(mol.coords)
    assert np.abs(F - F_ref).max() < 1e-7


def test_incremental_engine_takes_the_analytic_route():
    """A direct-mode engine builds through the incremental engine and
    still differentiates the energy it minimised."""
    from repro.hfx import IncrementalExchange

    mol = builders.water()
    _, F_ref = SCFForceEngine(mol, conv_tol=1e-10).energy_forces(mol.coords)
    eng = SCFForceEngine(mol, conv_tol=1e-10, scf_kwargs={"mode": "direct"})
    assert eng.analytic
    _, F = eng.energy_forces(mol.coords)
    assert isinstance(eng._jk, IncrementalExchange)
    assert np.abs(F - F_ref).max() < 1e-6


# --- observability ----------------------------------------------------------------------

def test_gradient_spans_nest_under_the_force_call_and_cover_it():
    mol = builders.li2o2()
    tr = Tracer()
    eng = SCFForceEngine(mol, method="pbe0",
                         config=ExecutionConfig(tracer=tr))
    eng.energy_forces(mol.coords)
    spans = tr.spans
    by_name = {s.name: (i, s) for i, s in enumerate(spans)}
    force_i, force = by_name["md.force_eval"]
    grad_i, grad = by_name["md.gradient"]
    assert grad.parent == force_i
    children = ["md.gradient.one_electron", "md.gradient.two_electron",
                "md.gradient.xc"]
    for name in children:
        assert by_name[name][1].parent == grad_i
    covered = by_name["md.scf"][1].duration + grad.duration
    assert covered >= 0.95 * force.duration
    assert sum(by_name[n][1].duration for n in children) \
        >= 0.95 * grad.duration
    m = tr.metrics
    assert m.get("md.gradient.quartets") > 0
    assert 0 < m.get("md.gradient.class_batches") \
        <= m.get("md.gradient.quartets")
    assert m.get("md.gradient.skipped_by_symmetry") > 0
    assert m.get("md.scf_per_force") == 1
    # HF has no XC child
    tr2 = Tracer()
    SCFForceEngine(builders.h2(), config=ExecutionConfig(tracer=tr2)
                   ).energy_forces(builders.h2().coords)
    assert "md.gradient.xc" not in {s.name for s in tr2.spans}
