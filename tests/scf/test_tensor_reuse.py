"""Geometry-delta reuse in the in-core engine: ``reset(displaced)`` is a
fresh ``eri_tensor(displaced)``, bit for bit.

Both sides of every comparison run in this process on the same numpy
and BLAS, so ``np.array_equal`` holds on any platform.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.basis import BasisSet, Shell, build_basis
from repro.chem import builders
from repro.chem.molecule import Molecule
from repro.integrals import eri_tensor
from repro.md.bomd import BOMD, SCFForceEngine
from repro.runtime import ExecutionConfig, Tracer
from repro.scf import RHF, TensorJKEngine
from repro.scf.dft import RKS

pytestmark = pytest.mark.reference

H = 1e-3
MOLS = {"water": builders.water, "lih": builders.lih, "li2o2": builders.li2o2}


def _displaced(mol, moves):
    coords = mol.coords.copy()
    for atom, dim, step in moves:
        coords[atom, dim] += step
    return build_basis(mol.with_coords(coords))


def _nquartets(basis):
    npair = basis.nshell * (basis.nshell + 1) // 2
    return npair * (npair + 1) // 2


def _reused_when_atom_moves(basis, atom):
    kept = sum(sh.atom != atom for sh in basis.shells)
    kept_pairs = kept * (kept + 1) // 2
    return kept_pairs * (kept_pairs + 1) // 2


@pytest.mark.parametrize("name", sorted(MOLS))
def test_single_atom_displacements_equal_fresh(name):
    """The stencil of one finite-difference force call, in its order."""
    mol = MOLS[name]()
    tracer = Tracer()
    engine = TensorJKEngine(build_basis(mol), ExecutionConfig(tracer=tracer))
    anchor = engine.eri
    anchor.flags.writeable = False      # nothing may write into the anchor
    total = _nquartets(engine.basis)
    assert (engine.quartets_computed, engine.quartets_total) == (total, total)
    reused = 0
    for atom in range(mol.natom):
        for dim in range(3):
            for step in (+H, -H):
                basis = _displaced(mol, [(atom, dim, step)])
                engine.reset(basis)
                assert np.array_equal(engine.eri, eri_tensor(basis))
                assert engine._anchor[1] is anchor
                assert not np.shares_memory(engine.eri, anchor)
                kept = _reused_when_atom_moves(basis, atom)
                assert engine.quartets_total == total
                assert engine.quartets_computed == total - kept
                reused += kept
    nfd = 6 * mol.natom
    if name == "li2o2":
        assert (total, reused) == (3081, 24 * 1035)
    m = tracer.metrics
    assert m.get("jk.tensor.quartets_reused") == reused
    assert m.get("jk.tensor.quartets_computed") == (1 + nfd) * total - reused


def test_two_atom_and_all_atom_moves():
    mol = builders.water()
    engine = TensorJKEngine(build_basis(mol))
    anchor = engine.eri
    two = _displaced(mol, [(1, 0, H), (2, 2, -H)])      # O stays
    engine.reset(two)
    assert np.array_equal(engine.eri, eri_tensor(two))
    assert engine._anchor[1] is anchor
    # O keeps its 3 shells = 6 pairs = 21 quartets
    assert engine.quartets_computed == _nquartets(two) - 21
    every = _displaced(mol, [(a, 1, H) for a in range(mol.natom)])
    engine.reset(every)
    assert np.array_equal(engine.eri, eri_tensor(every))
    assert engine.quartets_computed == engine.quartets_total
    assert engine._anchor[0] is every and engine._anchor[1] is engine.eri
    assert engine.eri is not anchor


def test_same_shell_layout_other_exponents_is_not_reused():
    """An "H2S-like" swap: same geometry, shell count and momenta as
    water, other exponents on the heavy atom — its shells must count as
    moved although no center did."""
    water = builders.water()
    basis = build_basis(water)
    engine = TensorJKEngine(basis)
    other = BasisSet(water, "sto-3g", [
        Shell(sh.l, sh.exps * (1.25 if sh.atom == 0 else 1.0), sh.coefs,
              sh.center, sh.atom) for sh in basis.shells])
    assert other.moved_shells(basis) == [0, 1, 2]
    engine.reset(other)
    assert np.array_equal(engine.eri, eri_tensor(other))
    assert not np.array_equal(engine.eri, eri_tensor(basis))
    assert engine.quartets_computed == _nquartets(basis) - 6   # (HH|HH)


def test_other_molecule_and_other_basis_rebuild_and_re_anchor():
    engine = TensorJKEngine(build_basis(builders.water()))
    for basis in (build_basis(builders.lih()),
                  build_basis(builders.water(), "3-21g"),
                  # same shell count as water/sto-3g, other momenta order
                  build_basis(Molecule([1, 1, 8],
                                       builders.water().coords[[1, 2, 0]]))):
        assert basis.moved_shells(engine._anchor[0]) is None
        engine.reset(basis)
        assert engine._anchor[0] is basis and engine._anchor[1] is engine.eri
        assert engine.quartets_computed == _nquartets(basis)
        assert np.array_equal(engine.eri, eri_tensor(basis))


def test_unchanged_geometry_is_a_copy_of_the_anchor():
    mol = builders.lih()
    engine = TensorJKEngine(build_basis(mol))
    anchor = engine.eri
    engine.reset(build_basis(mol))
    assert engine.quartets_computed == 0
    assert engine.eri is not anchor and np.array_equal(engine.eri, anchor)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                       st.sampled_from([H, -H, 2.5e-3])),
             min_size=0, max_size=3)), min_size=1, max_size=4))
def test_random_displacement_sequences_equal_fresh(sequence):
    mol = builders.water()
    engine = TensorJKEngine(build_basis(mol))
    for (moves,) in sequence:
        basis = _displaced(mol, moves)
        engine.reset(basis)
        assert np.array_equal(engine.eri, eri_tensor(basis))


def test_eri_tensor_refuses_reuse_with_a_screen(water_basis, water_eri):
    with pytest.raises(ValueError, match="unscreened"):
        eri_tensor(water_basis, 1e-10, reuse=(water_eri, [0]))


# --- memory contract ---------------------------------------------------------

def test_one_shot_scf_holds_one_tensor_and_close_drops_it(water):
    scf = RHF(water)
    scf._setup()
    engine = scf._jk
    assert engine._anchor[1] is engine.eri           # one nbf^4 array
    scf._close_jk()
    assert engine.eri is None and engine._anchor is None


def test_trajectory_holds_at_most_two_tensors(monkeypatch):
    import repro.scf.fock as fock

    mol = builders.lih()
    live = []
    real = fock.eri_tensor

    def spy(basis, *args, **kwargs):
        # at entry the engine has already let go of its previous tensor
        live.append(sum(t is not None for t in
                        (engine.eri, engine._anchor and engine._anchor[1])))
        return real(basis, *args, **kwargs)

    engine = TensorJKEngine(build_basis(mol))
    monkeypatch.setattr(fock, "eri_tensor", spy)
    engine.reset(_displaced(mol, [(0, 2, H)]))        # anchor + copy
    engine.reset(_displaced(mol, [(1, 2, H)]))        # anchor + copy
    engine.reset(_displaced(mol, [(0, 2, H), (1, 2, H)]))   # full: none kept
    assert live == [1, 1, 0]
    assert engine._anchor[1] is engine.eri
    engine.close()
    assert engine.eri is None and engine._anchor is None


# --- observability -----------------------------------------------------------

def test_force_call_counters_through_the_fd_stencil():
    """One LiH force call = 1 anchored SCF + 12 displaced ones, all
    against the same anchor (Li carries 3 of the 4 shells)."""
    mol = builders.lih()
    tracer = Tracer()
    engine = SCFForceEngine(mol, method="hf",
                            config=ExecutionConfig(tracer=tracer))
    try:
        engine.energy_forces(mol.coords)
        assert engine._jk._anchor[0].molecule.coords.tobytes() == \
            mol.coords.tobytes()
    finally:
        engine.close()
    total = 55                       # 10 shell pairs
    reused = 6 * 1 + 6 * 21          # Li moved: (HH|HH); H moved: 6 Li pairs
    m = tracer.metrics
    assert m.get("jk.tensor.quartets_reused") == reused
    assert m.get("jk.tensor.quartets_computed") == 13 * total - reused


# --- trajectories: reused engine == fresh engine per geometry ----------------

@pytest.mark.parametrize("name,method", [("lih", "pbe0"), ("water", "hf")])
def test_trajectory_bits_do_not_depend_on_engine_reuse(name, method,
                                                       monkeypatch):
    mol = MOLS[name]()

    real = SCFForceEngine._solver

    def fresh_engine_solver(self, mol_):
        self.close()
        return real(self, mol_)

    def final():
        md = BOMD(mol, method=method, dt_fs=0.5, temperature=300.0, seed=5)
        last = md.run(2)[-1]
        return (float(last.energy_pot).hex(),
                float(last.total_energy(mol.masses)).hex(),
                last.coords.tobytes(), last.velocities.tobytes())

    reused = final()
    with monkeypatch.context() as m:
        m.setattr(SCFForceEngine, "_solver", fresh_engine_solver)
        assert final() == reused


def test_rks_scf_on_reused_engine_equals_own_engine():
    mol = builders.lih()
    engine = TensorJKEngine(build_basis(mol))
    moved = mol.with_coords(mol.coords + np.array([[0, 0, H], [0, 0, 0]]))
    shared = RKS(moved, functional="pbe0", jk_engine=engine).run()
    own = RKS(moved, functional="pbe0").run()
    assert engine.quartets_computed < engine.quartets_total
    assert shared.energy.hex() == own.energy.hex()
    assert np.array_equal(shared.D, own.D)
