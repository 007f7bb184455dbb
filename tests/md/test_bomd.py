"""Tests for Born-Oppenheimer MD on SCF forces."""

import numpy as np
import pytest

from repro.chem import builders
from repro.md.bomd import BOMD, SCFForceEngine
from repro.md.observables import energy_drift


def test_fd_forces_match_bond_physics():
    """Compressed H2: forces push the atoms apart along the bond."""
    mol = builders.h2(0.55)
    eng = SCFForceEngine(mol, method="hf")
    e, f = eng.energy_forces(mol.coords)
    bond = mol.coords[1] - mol.coords[0]
    assert f[1] @ bond > 0      # atom 1 pushed outward
    assert np.allclose(f.sum(axis=0), 0.0, atol=1e-5)


def test_equilibrium_forces_small():
    mol = builders.h2(0.7122)   # near the STO-3G minimum
    eng = SCFForceEngine(mol, method="hf")
    _, f = eng.energy_forces(mol.coords)
    assert np.abs(f).max() < 5e-3


def test_bomd_h2_vibration_and_conservation():
    b = BOMD(builders.h2(0.80), method="hf", dt_fs=0.2)
    traj = b.run(20)
    drift = energy_drift(traj, builders.h2().masses)
    assert drift < 5e-3
    # the bond oscillates
    rs = [np.linalg.norm(s.coords[1] - s.coords[0]) for s in traj]
    assert max(rs) - min(rs) > 0.05


def test_density_reuse_cuts_scf_iterations():
    """Seeding the next step's SCF with the previous density (the
    paper's MD tailoring) slashes the iteration count on water."""
    mol = builders.water()
    fast = SCFForceEngine(mol, method="hf", reuse_density=True)
    slow = SCFForceEngine(mol, method="hf", reuse_density=False)
    coords2 = mol.coords * 1.0001   # an MD-step-sized displacement
    for eng in (fast, slow):
        base = eng._energy(mol.coords, None)
        eng.last_result = base
        res2 = eng._energy(coords2,
                           base.D if eng.reuse_density else None)
        eng.scf_iterations.extend([base.niter, res2.niter])
    # second-step iterations: warm start must be cheaper
    assert fast.scf_iterations[1] <= slow.scf_iterations[1] - 2


def test_nonconverged_scf_raises():
    # water from a core guess cannot converge in two iterations
    mol = builders.water()
    eng = SCFForceEngine(mol, method="hf")
    eng.scf_kwargs = {"max_iter": 2}
    with pytest.raises(RuntimeError, match="converge"):
        eng.energy_forces(mol.coords)


def test_bomd_with_temperature_initialization():
    b = BOMD(builders.h2(0.75), method="hf", dt_fs=0.2, temperature=300.0,
             seed=4)
    traj = b.run(3)
    assert len(traj) == 4
    assert np.abs(traj[0].velocities).max() > 0


@pytest.mark.parametrize("placement,de,df", [
    pytest.param({"executor": "process", "nworkers": 2}, 1e-8, 1e-6,
                 marks=pytest.mark.pool, id="process"),
    pytest.param({"jk": "ri"}, 1e-4, 1e-3, marks=pytest.mark.ri, id="ri"),
])
def test_pbe0_forces_through_any_engine(placement, de, df):
    """Kohn-Sham trajectories get the same one engine HF does: PBE0 on
    the worker pool / on the fitted tensor matches the in-core PBE0
    energy and forces (both used to be refused as "wired through the
    RHF builder")."""
    from repro.runtime import ExecutionConfig

    mol = builders.h2(0.70)
    e_ref, f_ref = SCFForceEngine(mol, method="pbe0").energy_forces(mol.coords)
    eng = SCFForceEngine(mol, method="pbe0",
                         config=ExecutionConfig(**placement))
    try:
        e, f = eng.energy_forces(mol.coords)
        assert not eng.degraded
    finally:
        eng.close()
    assert abs(e - e_ref) < de
    assert np.abs(f - f_ref).max() < df


@pytest.mark.ri
class TestRIForces:
    def test_ri_forces_close_to_direct(self):
        mol = builders.h2(0.60)
        from repro.runtime import ExecutionConfig

        e_d, f_d = SCFForceEngine(mol, method="hf").energy_forces(mol.coords)
        eng = SCFForceEngine(mol, method="hf",
                             config=ExecutionConfig(jk="ri"))
        e_r, f_r = eng.energy_forces(mol.coords)
        assert abs(e_r - e_d) < 1e-4
        assert np.abs(f_r - f_d).max() < 1e-3
        # one B assembly per displaced geometry of the FD stencil, all
        # SCF iterations at each geometry served from the cache
        assert eng._jk.b_builds == 1 + 2 * mol.natom * 3
        assert eng._jk.b_reuses > 0

    def test_ri_state_round_trip_guards_engine(self):
        from repro.md.bomd import CheckpointError
        from repro.runtime import ExecutionConfig

        mol = builders.h2(0.75)
        ri = SCFForceEngine(mol, method="hf",
                            config=ExecutionConfig(jk="ri"))
        ri.energy_forces(mol.coords)
        state = ri.get_state()
        assert state["jk"] == "ri"
        direct = SCFForceEngine(mol, method="hf")
        with pytest.raises(CheckpointError, match="jk"):
            direct.set_state(state)
        # same-config restore works and drops the stale fitted tensor
        fresh = SCFForceEngine(mol, method="hf",
                               config=ExecutionConfig(jk="ri"))
        fresh.set_state(state)
        assert fresh._jk is None

    def test_ri_rejects_incremental(self):
        # the switch is gone: the direct engine is always incremental,
        # the fitted one never
        from repro.runtime import ExecutionConfig

        with pytest.raises(TypeError, match="incremental"):
            SCFForceEngine(builders.h2(), method="hf", incremental=True,
                           config=ExecutionConfig(jk="ri"))
