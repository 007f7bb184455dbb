"""Checkpointed classical MD and optimizer checkpointing.

The two checkpoint-coverage gaps this sweep closed: classical
force-field trajectories and BFGS geometry optimizations now get the
same auto-snapshot/restore path BOMD has.
"""

import numpy as np
import pytest

from repro.chem import builders
from repro.constants import fs_to_aut
from repro.md import BOMD, CSVRThermostat, ClassicalMD
from repro.md.forcefield import ForceField
from repro.md.optimize import optimize_geometry
from repro.runtime import (CheckpointError, CheckpointStore, ExecutionConfig,
                           Tracer)

pytestmark = pytest.mark.checkpoint


def _assert_traj_identical(got, want):
    assert len(got) == len(want)
    for sg, sw in zip(got, want):
        assert sg.step == sw.step
        assert np.array_equal(sg.coords, sw.coords)
        assert np.array_equal(sg.velocities, sw.velocities)
        assert np.array_equal(sg.forces, sw.forces)
        assert sg.energy_pot == sw.energy_pot


# --- classical MD -------------------------------------------------------------


def test_classical_md_matches_hand_rolled_loop():
    """ClassicalMD is the same physics as driving VelocityVerlet over a
    ForceField by hand — it only adds the checkpoint plumbing."""
    from repro.md.integrator import VelocityVerlet

    mol = builders.water()
    ff = ForceField(mol)
    vv = VelocityVerlet(ff, mol.masses, fs_to_aut(0.5))
    s = vv.initial_state(mol.coords)
    want = [s]
    for _ in range(10):
        s = vv.step(s)
        want.append(s)

    got = ClassicalMD(builders.water(), dt_fs=0.5).run(10)
    _assert_traj_identical(got, want)


def test_classical_md_kill_restore_continue_bit_identical(tmp_path):
    want = ClassicalMD(builders.water(), dt_fs=0.5, temperature=300.0,
                       seed=4).run(20)

    ckdir = tmp_path / "ck"
    cfg = ExecutionConfig(checkpoint_dir=str(ckdir), checkpoint_every=6)
    victim = ClassicalMD(builders.water(), dt_fs=0.5, temperature=300.0,
                         seed=4, config=cfg)
    victim.run(9)
    del victim                      # the "crash"

    revived = ClassicalMD.restore(str(ckdir))
    assert revived.state.step == 9
    got = revived.run(20)
    _assert_traj_identical(got, want)


def test_classical_md_periodic_cell_kill_restore(tmp_path):
    """A periodic run's cell rides the snapshot as its vectors and comes
    back as the same :class:`Cell`."""
    from repro.chem import Cell

    def make(cfg=None):
        return ClassicalMD(builders.water(), dt_fs=0.5, temperature=300.0,
                           seed=2, cell=Cell.cubic(6.0), config=cfg)

    want = make().run(12)
    ckdir = tmp_path / "ck"
    make(ExecutionConfig(checkpoint_dir=str(ckdir),
                         checkpoint_every=5)).run(7)
    revived = ClassicalMD.restore(str(ckdir))
    assert np.array_equal(revived.cell.vectors, Cell.cubic(6.0).vectors)
    _assert_traj_identical(revived.run(12), want)


def test_classical_md_csvr_kill_restore(tmp_path):
    """The CSVR RNG stream rides in the snapshot for classical runs
    exactly like for BOMD ones."""
    def make(config=None):
        return ClassicalMD(builders.water(), dt_fs=0.5, temperature=300.0,
                           seed=7,
                           thermostat=CSVRThermostat(300.0, fs_to_aut(10.0),
                                                     seed=7), config=config)

    want = make().run(14)
    ckdir = tmp_path / "ck"
    victim = make(ExecutionConfig(checkpoint_dir=str(ckdir),
                                  checkpoint_every=5))
    victim.run(7)
    del victim
    revived = ClassicalMD.restore(str(ckdir))
    assert isinstance(revived.thermostat, CSVRThermostat)
    got = revived.run(14)
    _assert_traj_identical(got, want)


def test_classical_md_rejects_foreign_snapshot(tmp_path):
    cfg = ExecutionConfig(checkpoint_dir=str(tmp_path / "ck"))
    BOMD(builders.h2(0.78), dt_fs=0.5, config=cfg).run(2)
    with pytest.raises(CheckpointError, match="classical_md"):
        ClassicalMD.restore(str(tmp_path / "ck"))


def test_classical_md_restore_rejects_param_mismatch(tmp_path):
    cfg = ExecutionConfig(checkpoint_dir=str(tmp_path / "ck"))
    ClassicalMD(builders.water(), dt_fs=0.5, kbond=0.30, config=cfg).run(3)
    state, _ = CheckpointStore(str(tmp_path / "ck")).load_latest()
    other = ClassicalMD(builders.water(), dt_fs=0.5, kbond=0.35)
    with pytest.raises(CheckpointError, match="kbond"):
        other.set_state(state)


def test_classical_md_final_step_writes_once(tmp_path):
    """The snapshot-dedup guard covers the classical loop too: a
    cadence-aligned final step is written exactly once."""
    tr = Tracer()
    cfg = ExecutionConfig(checkpoint_dir=str(tmp_path / "ck"),
                          checkpoint_every=4, tracer=tr)
    ClassicalMD(builders.water(), dt_fs=0.5, config=cfg).run(8)
    assert tr.metrics.get("checkpoint.writes") == 3   # steps 0, 4, 8


# --- geometry-optimizer checkpointing -----------------------------------------


class _CountingQuadratic:
    """Separable quadratic bowl that counts force evaluations."""

    def __init__(self, k):
        self.k = np.asarray(k, dtype=np.float64)
        self.calls = 0

    def energy_forces(self, coords):
        self.calls += 1
        x = coords.reshape(-1)
        e = 0.5 * float(self.k @ (x * x))
        return e, (-self.k * x).reshape(-1, 3)


def test_optimize_checkpoint_resume_identical_iterates(tmp_path):
    """A killed optimization resumes from its snapshot and lands on the
    same minimum through the same iterate count (no restart from
    coords0)."""
    k = np.linspace(0.5, 5.0, 6)
    x0 = np.array([[1.0, -2.0, 0.5], [0.3, 1.2, -0.7]])

    ref = optimize_geometry(_CountingQuadratic(k), x0, fmax=1e-8)

    ckdir = tmp_path / "ck"
    cfg = ExecutionConfig(checkpoint_dir=str(ckdir), checkpoint_every=2)
    eng = _CountingQuadratic(k)
    partial = optimize_geometry(eng, x0, fmax=1e-8, max_steps=3, config=cfg)
    assert not partial.converged

    # "rerun" over the same directory: picks up at iteration 3
    eng2 = _CountingQuadratic(k)
    res = optimize_geometry(eng2, x0, fmax=1e-8, config=cfg)
    assert res.converged
    assert np.array_equal(res.coords, ref.coords)
    assert res.energy == ref.energy
    assert res.niter == ref.niter
    assert res.history == ref.history
    # the resumed run re-evaluated only the remaining iterations
    assert eng2.calls < ref.niter + 1 or ref.niter <= 3


def test_optimize_checkpoint_counts_writes_and_restores(tmp_path):
    tr = Tracer()
    cfg = ExecutionConfig(checkpoint_dir=str(tmp_path / "ck"),
                          checkpoint_every=2, tracer=tr)
    optimize_geometry(_CountingQuadratic(np.ones(3)), np.full((1, 3), 5.0),
                      fmax=1e-10, max_steps=4, max_step_length=0.5,
                      config=cfg)
    writes = tr.metrics.get("checkpoint.writes")
    assert writes >= 2              # initial + at least one cadence/final
    # the MD runners' checkpoint plumbing: one span per write
    assert [s.name for s in tr.spans].count("checkpoint.write") == writes
    tr2 = Tracer()
    cfg2 = cfg.replace(tracer=tr2)
    optimize_geometry(_CountingQuadratic(np.ones(3)), np.full((1, 3), 5.0),
                      fmax=1e-10, max_steps=4, max_step_length=0.5,
                      config=cfg2)
    assert tr2.metrics.get("checkpoint.restores") == 1
    assert [s.name for s in tr2.spans].count("checkpoint.restore") == 1


def test_optimize_rejects_md_snapshot(tmp_path):
    cfg = ExecutionConfig(checkpoint_dir=str(tmp_path / "ck"))
    ClassicalMD(builders.water(), dt_fs=0.5, config=cfg).run(2)
    with pytest.raises(CheckpointError, match="geom_opt"):
        optimize_geometry(_CountingQuadratic(np.ones(9)),
                          builders.water().coords, config=cfg)


def test_optimize_rejects_dof_mismatch(tmp_path):
    cfg = ExecutionConfig(checkpoint_dir=str(tmp_path / "ck"),
                          checkpoint_every=1)
    optimize_geometry(_CountingQuadratic(np.ones(3)), np.full((1, 3), 2.0),
                      fmax=1e-6, max_steps=2, config=cfg)
    with pytest.raises(CheckpointError, match="degrees of freedom"):
        optimize_geometry(_CountingQuadratic(np.ones(6)), np.ones((2, 3)),
                          config=cfg)
