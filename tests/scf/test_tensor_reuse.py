"""Geometry-delta reuse in the in-core engine: ``reset(displaced)`` is a
fresh ``eri_tensor(displaced)``, bit for bit.

Both sides of every comparison run in this process on the same numpy
and BLAS, so ``np.array_equal`` holds on any platform.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.basis import BasisSet, Shell, build_basis
from repro.chem import builders
from repro.chem.molecule import Molecule
from repro.integrals import (ERIEngine, eri_tensor, kinetic_matrix,
                             nuclear_matrix, overlap_matrix)
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


def _nquartets_touching(basis, moved):
    kept = basis.nshell - len(moved)
    kept_pairs = kept * (kept + 1) // 2
    return _nquartets(basis) - kept_pairs * (kept_pairs + 1) // 2


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


@settings(max_examples=15, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                   st.sampled_from([H, -H, 2.5e-3])),
                         min_size=0, max_size=3), min_size=2, max_size=6))
def test_cumulative_moves_on_one_caller_buffer_equal_fresh(sequence):
    """The finite-difference loop's habit: one coordinate buffer mutated
    in place between resets.  Moves accumulate, so atoms a step leaves
    out stay *exactly* put against the previous geometry and against
    whatever became the anchor in between — the case where a basis that
    aliased the buffer made the anchor drift along with it."""
    mol = builders.water()
    coords = mol.coords.copy()
    engine = TensorJKEngine(build_basis(mol.with_coords(coords)))
    for moves in sequence:
        for atom, dim, step in moves:
            coords[atom, dim] += step
        fresh = build_basis(mol.with_coords(coords.copy()))
        moved = fresh.moved_shells(engine._anchor[0])
        engine.reset(build_basis(mol.with_coords(coords)))
        assert np.array_equal(engine.eri, eri_tensor(fresh))
        assert engine.quartets_computed == _nquartets_touching(fresh, moved)


def test_eri_tensor_refuses_reuse_with_a_screen(water_basis, water_eri):
    with pytest.raises(ValueError, match="unscreened"):
        eri_tensor(water_basis, 1e-10, reuse=(water_eri, [0]))


# --- nothing the engine keeps may alias a caller's buffer --------------------

def test_molecule_and_shells_own_their_coordinates():
    mol = builders.water()
    buf = mol.coords.copy()
    for made in (mol.with_coords(buf), Molecule(mol.numbers, buf)):
        basis = build_basis(made)
        buf += 0.125
        assert np.array_equal(made.coords, mol.coords)
        assert not np.shares_memory(made.coords, buf)
        for sh in basis.shells:
            assert np.array_equal(sh.center, mol.coords[sh.atom])
            assert not np.shares_memory(sh.center, made.coords)
        buf -= 0.125
    center = np.zeros(3)
    sh = Shell(0, np.array([1.0]), np.array([1.0]), center)
    center += 1.0
    assert np.array_equal(sh.center, np.zeros(3))


def test_warm_engine_forces_equal_fresh_when_one_atom_stays_put():
    """Second force call with atom 0 exactly where it was: its central
    geometry is only partially moved against the old anchor, so the
    first geometry to move every shell — a +h displacement of atom 0 —
    becomes the new anchor.  When that basis's centres were views of
    the finite-difference loop's scratch buffer, the ``-= 2h`` that
    followed moved the anchor along and the -h SCF ran on the +h
    tensor (about 0.02 Ha/bohr off on ``F[0, 0]``)."""
    mol = builders.water()
    first = mol.coords.copy()
    second = first.copy()
    second[1:] += 2.5e-3
    warm = SCFForceEngine(mol, method="hf", reuse_density=False)
    fresh = SCFForceEngine(mol, method="hf", reuse_density=False)
    try:
        warm.energy_forces(first)
        e_warm, f_warm = warm.energy_forces(second)
        e_fresh, f_fresh = fresh.energy_forces(second)
    finally:
        warm.close()
        fresh.close()
    assert e_warm == e_fresh
    assert np.array_equal(f_warm, f_fresh)


# --- inherited shell pairs ---------------------------------------------------

def _pair_arrays(pair):
    idx, lam = pair.hermite_lambda()
    return [pair.a, pair.b, pair.p, pair.P, pair.W, *pair.E, idx, lam]


def _assert_pair_tables_equal(got, ref):
    assert list(got) == list(ref)                    # same keys, same order
    for key in ref:
        assert (got[key].ia, got[key].ib) == key
        for x, y in zip(_pair_arrays(got[key]), _pair_arrays(ref[key])):
            assert np.array_equal(x, y)


def _freeze(pair):
    for arr in _pair_arrays(pair):
        arr.flags.writeable = False


@pytest.mark.parametrize("name", sorted(MOLS))
def test_inherited_pair_table_equals_a_fresh_one_over_the_stencil(name):
    mol = MOLS[name]()
    anchor = build_basis(mol)
    engine = TensorJKEngine(anchor)
    for m in (overlap_matrix, kinetic_matrix, nuclear_matrix):
        m(anchor)
    for pair in anchor.shell_pairs().values():
        _freeze(pair)                # nothing may write into a shared pair
    for atom in range(mol.natom):
        for step in (+H, -H):
            basis = _displaced(mol, [(atom, 2, step)])
            engine.reset(basis)
            fresh = _displaced(mol, [(atom, 2, step)])
            pairs = basis.shell_pairs()
            shared = {key for key, pair in pairs.items()
                      if pair is anchor.shell_pairs()[key]}
            assert shared == {
                (i, j) for i, j in pairs
                if atom not in (basis.shells[i].atom, basis.shells[j].atom)}
            if name == "li2o2":
                assert len(shared) == 45 and len(pairs) == 78
            _assert_pair_tables_equal(pairs, fresh.shell_pairs())
            for m in (overlap_matrix, kinetic_matrix, nuclear_matrix):
                assert np.array_equal(m(basis), m(fresh))
            assert not any("_cache" in key for key in
                           pickle.loads(pickle.dumps(basis)).__dict__)
            assert len(pickle.dumps(basis)) == len(pickle.dumps(fresh))


@settings(max_examples=10, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                   st.sampled_from([H, -H, 2.5e-3])),
                         min_size=0, max_size=3), min_size=1, max_size=4))
def test_inherited_pairs_equal_fresh_over_random_sequences(sequence):
    """Cumulative moves, so tables are inherited from anchors that
    themselves inherited from an earlier one."""
    mol = builders.water()
    coords = mol.coords.copy()
    engine = TensorJKEngine(build_basis(mol))
    for moves in sequence:
        for atom, dim, step in moves:
            coords[atom, dim] += step
        basis = build_basis(mol.with_coords(coords))
        engine.reset(basis)
        fresh = build_basis(mol.with_coords(coords))
        _assert_pair_tables_equal(basis.shell_pairs(), fresh.shell_pairs())
        for m in (overlap_matrix, kinetic_matrix, nuclear_matrix):
            assert np.array_equal(m(basis), m(fresh))


def test_a_basis_that_built_its_own_pairs_keeps_them():
    mol = builders.lih()
    anchor = build_basis(mol)
    moved = _displaced(mol, [(1, 0, H)])
    own = moved.shell_pairs()
    assert moved.inherit_pairs(anchor, moved.moved_shells(anchor)) == 0
    assert moved.shell_pairs() is own
    assert not any(own[key] is pair
                   for key, pair in anchor.shell_pairs().items())


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
        # the stencil is the jk="ri" force route and the tests' oracle;
        # an exact-J/K force call is one SCF plus the analytic gradient
        engine._fd_forces(mol.coords, engine._energy(mol.coords, None))
        assert engine._jk._anchor[0].molecule.coords.tobytes() == \
            mol.coords.tobytes()
    finally:
        engine.close()
    total = 55                       # 10 shell pairs
    reused = 6 * 1 + 6 * 21          # Li moved: (HH|HH); H moved: 6 Li pairs
    m = tracer.metrics
    assert m.get("jk.tensor.quartets_reused") == reused
    assert m.get("jk.tensor.quartets_computed") == 13 * total - reused
    assert m.get("jk.tensor.pairs_inherited") == 6 * 1 + 6 * 6
    # one span per tensor, carrying what the counters sum
    spans = [s for s in tracer.spans if s.name == "jk.tensor.build"]
    assert [s.args["mode"] for s in spans] == ["full"] + 12 * ["patched"]
    assert all(s.cat == "scf" and s.end >= s.start for s in spans)
    for key in ("quartets_computed", "quartets_reused", "class_batches",
                "pairs_inherited"):
        assert sum(s.args[key] for s in spans) == m.get(f"jk.tensor.{key}")
    # s and p shells with one primitive count: at most 2^4 classes a walk
    assert 13 <= m.get("jk.tensor.class_batches") <= 13 * 16
    from repro.analysis.report import profile_table
    table = profile_table(tracer.snapshot())
    assert "jk.tensor.build" in table
    assert "jk.tensor.class_batches" in table
    assert "jk.tensor.pairs_inherited" in table


def test_tensor_build_never_enters_the_direct_walks_batch_method(monkeypatch):
    """The benchmark attributes ``ERIEngine.quartet_batch`` to the
    direct walk (``integrals.quartet_batch.*``) and the tensor's time to
    ``integrals.eri_tensor``: the tensor walk shares the kernel, not
    that method — and still counts every quartet it evaluates."""
    def refuse(self, idx):
        raise AssertionError("tensor walk entered ERIEngine.quartet_batch")

    monkeypatch.setattr(ERIEngine, "quartet_batch", refuse)
    mol = builders.li2o2()
    engine = TensorJKEngine(build_basis(mol))
    assert engine.quartets_computed == 3081
    engine.reset(_displaced(mol, [(3, 1, H)]))
    assert engine.quartets_computed == 2046


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
