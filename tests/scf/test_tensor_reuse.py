"""One in-core engine re-targeted across geometries: ``reset(basis)`` is
a fresh ``eri_tensor(basis)``, and nothing an SCF, a force stencil or a
trajectory returns depends on whether its engine was used before.

A new geometry is a full walk: what is reused is the engine object, not
integrals.  Both sides of every comparison run in this process on the
same numpy and BLAS, so ``np.array_equal`` holds on any platform.
"""

import numpy as np
import pytest

from repro.basis import Shell, build_basis
from repro.chem import builders
from repro.chem.molecule import Molecule
from repro.integrals import ERIEngine, eri_tensor
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


@pytest.mark.parametrize("name", sorted(MOLS))
def test_single_atom_displacements_equal_fresh(name):
    """A stencil's worth of geometries through one engine: each atom
    displaced alone, then all of them, then another molecule."""
    mol = MOLS[name]()
    tracer = Tracer()
    engine = TensorJKEngine(build_basis(mol), ExecutionConfig(tracer=tracer))
    total = engine.quartets_total
    if name == "li2o2":
        assert total == 3081
    sequence = [[(atom, atom % 3, H if atom % 2 else -H)]
                for atom in range(mol.natom)]
    sequence.append([(atom, 1, 2.5e-3) for atom in range(mol.natom)])
    for moves in sequence:
        basis = _displaced(mol, moves)
        engine.reset(basis)
        assert np.array_equal(engine.eri, eri_tensor(basis))
        assert (engine.quartets_computed, engine.quartets_total) == \
            (total, total)
    m = tracer.metrics
    assert m.get("jk.tensor.quartets_computed") == (1 + len(sequence)) * total
    other = build_basis(builders.h2())
    engine.reset(other)
    assert np.array_equal(engine.eri, eri_tensor(other))
    assert engine.quartets_computed == engine.quartets_total == 6


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


def _forces_at(second, warm, **engine_kwargs):
    """``(energy, forces)`` at ``second`` from an engine that (``warm``)
    already served the builder geometry, or did not."""
    mol = builders.water()
    engine = SCFForceEngine(mol, method="hf", reuse_density=False,
                            **engine_kwargs)
    try:
        if warm:
            engine.energy_forces(mol.coords.copy())
        return engine.energy_forces(second)
    finally:
        engine.close()


def _one_atom_stays_put():
    second = builders.water().coords.copy()
    second[1:] += 2.5e-3
    return second


def test_warm_engine_forces_equal_fresh_when_one_atom_stays_put():
    """Second force call with atom 0 exactly where it was.  When a
    basis's centres were views of the caller's coordinate buffer, state
    the engine kept from the first call moved along with later in-place
    edits (about 0.02 Ha/bohr off on ``F[0, 0]``)."""
    second = _one_atom_stays_put()
    e_warm, f_warm = _forces_at(second, warm=True)
    e_fresh, f_fresh = _forces_at(second, warm=False)
    assert e_warm == e_fresh
    assert np.array_equal(f_warm, f_fresh)


def test_warm_smeared_stencil_equals_a_fresh_engine_per_displacement(
        monkeypatch):
    """The one in-core stencil left (smearing has no analytic gradient):
    19 SCFs through one used engine equal 19 SCFs through 19 engines."""
    second = _one_atom_stays_put()
    smeared = {"scf_kwargs": {"smearing": 0.01}}
    e_warm, f_warm = _forces_at(second, warm=True, **smeared)
    real = SCFForceEngine._solver

    def fresh_engine_solver(self, mol):
        self.close()
        return real(self, mol)

    monkeypatch.setattr(SCFForceEngine, "_solver", fresh_engine_solver)
    e_fresh, f_fresh = _forces_at(second, warm=False, **smeared)
    assert e_warm.hex() == e_fresh.hex()
    assert np.array_equal(f_warm, f_fresh) and np.abs(f_warm).max() > 1e-3


# --- memory contract ---------------------------------------------------------

def test_one_shot_scf_holds_one_tensor_and_close_drops_it(water):
    scf = RHF(water)
    scf._setup()
    engine = scf._jk
    assert engine.eri.shape == (scf.basis.nbf,) * 4
    scf._close_jk()
    assert engine.eri is None


# --- observability -----------------------------------------------------------

def test_force_call_counters_through_the_fd_stencil():
    """One LiH stencil = 1 central SCF + 12 displaced ones, each a full
    walk of the 55 quartets of 10 shell pairs."""
    mol = builders.lih()
    tracer = Tracer()
    engine = SCFForceEngine(mol, method="hf",
                            config=ExecutionConfig(tracer=tracer))
    try:
        # the stencil is the jk="ri" force route and the tests' oracle;
        # an exact-J/K force call is one SCF plus the analytic gradient
        engine._fd_forces(mol.coords, engine._energy(mol.coords, None))
    finally:
        engine.close()
    m = tracer.metrics
    assert m.get("jk.tensor.quartets_computed") == 13 * 55
    assert sorted(k for k in m.to_dict() if k.startswith("jk.tensor.")) == \
        ["jk.tensor.class_batches", "jk.tensor.quartets_computed"]
    # one span per tensor, carrying what the counters sum
    spans = [s for s in tracer.spans if s.name == "jk.tensor.build"]
    assert len(spans) == 13
    assert all(s.cat == "scf" and s.end >= s.start
               and sorted(s.args) == ["class_batches", "quartets_computed"]
               for s in spans)
    for key in ("quartets_computed", "class_batches"):
        assert sum(s.args[key] for s in spans) == m.get(f"jk.tensor.{key}")
    # s and p shells with one primitive count: at most 2^4 classes a walk
    assert 13 <= m.get("jk.tensor.class_batches") <= 13 * 16
    from repro.analysis.report import profile_table
    table = profile_table(tracer.snapshot())
    assert "jk.tensor.build" in table
    assert "jk.tensor.class_batches" in table


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
    assert engine.quartets_computed == 3081


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
    assert engine.quartets_computed == engine.quartets_total
    assert shared.energy.hex() == own.energy.hex()
    assert np.array_equal(shared.D, own.D)
