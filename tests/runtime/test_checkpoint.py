"""Checkpoint/restart: snapshot store, Restartable round-trips, and
bit-identical kill/restore/continue trajectories.

The bit-identity tests are the contract the subsystem exists for: a
trajectory killed at step k and restored must walk the *exact* floating
point sequence of an uninterrupted run — warm-start density, thermostat
random stream, and step counter included — on both the serial and the
process-pool executor.
"""

import hashlib

import numpy as np
import pytest

from repro.chem import builders
from repro.constants import fs_to_aut
from repro.md import BOMD, CSVRThermostat, SCFForceEngine, restore_thermostat
from repro.runtime import (CheckpointCorruptError, CheckpointError,
                           CheckpointStore, ExecutionConfig, MetricsRegistry,
                           Restartable, RestartableRNG, Tracer)
from repro.runtime.checkpoint import _HEADER, FORMAT_VERSION, MAGIC

pytestmark = pytest.mark.checkpoint


# --- helpers ------------------------------------------------------------------


def _assert_traj_identical(got, want):
    """Bitwise trajectory equality: every array, every step."""
    assert len(got) == len(want)
    for sg, sw in zip(got, want):
        assert sg.step == sw.step
        assert np.array_equal(sg.coords, sw.coords)
        assert np.array_equal(sg.velocities, sw.velocities)
        assert np.array_equal(sg.forces, sw.forces)
        assert sg.energy_pot == sw.energy_pot


def _corrupt(path, offset=-8):
    """Flip one payload byte in a snapshot file."""
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))


# --- the store ----------------------------------------------------------------


def test_store_round_trip(tmp_path):
    store = CheckpointStore(tmp_path / "ck")
    state = {"kind": "demo", "x": np.arange(4.0), "nested": {"a": 1}}
    info = store.save(state, step=3)
    assert info.step == 3
    assert info.path.name == "snap-00000003.ckpt"
    assert info.nbytes == info.path.stat().st_size
    loaded, linfo = store.load_latest()
    assert linfo.step == 3
    assert linfo.age_s >= 0.0
    assert loaded["kind"] == "demo"
    assert np.array_equal(loaded["x"], state["x"])


def test_store_ring_pruning_and_latest_pointer(tmp_path):
    store = CheckpointStore(tmp_path, keep=3)
    for step in range(1, 7):
        store.save({"step": step}, step=step)
    names = sorted(p.name for p in store.snapshots())
    assert names == ["snap-00000004.ckpt", "snap-00000005.ckpt",
                     "snap-00000006.ckpt"]
    assert store.latest_path().name == "snap-00000006.ckpt"
    assert not list(tmp_path.glob("*.tmp"))


def test_store_invalid_keep():
    with pytest.raises(ValueError, match="keep"):
        CheckpointStore("/tmp/x", keep=0)
    with pytest.raises(ValueError, match="keep"):
        CheckpointStore("/tmp/x", keep=True)


def test_missing_directory_is_an_error(tmp_path):
    store = CheckpointStore(tmp_path / "never-created")
    with pytest.raises(CheckpointError, match="does not exist"):
        store.load_latest()


def test_empty_directory_is_an_error(tmp_path):
    (tmp_path / "empty").mkdir()
    store = CheckpointStore(tmp_path / "empty")
    with pytest.raises(CheckpointError, match="no snapshots"):
        store.load_latest()


def test_corrupted_latest_falls_back_through_ring(tmp_path):
    store = CheckpointStore(tmp_path, keep=3)
    for step in (2, 4, 6):
        store.save({"at": step}, step=step)
    _corrupt(tmp_path / "snap-00000006.ckpt")
    with pytest.warns(RuntimeWarning, match="checksum mismatch"):
        state, info = store.load_latest()
    assert info.step == 4
    assert state["at"] == 4


def test_truncated_snapshot_falls_back(tmp_path):
    store = CheckpointStore(tmp_path, keep=3)
    store.save({"at": 1}, step=1)
    store.save({"at": 2}, step=2)
    newest = tmp_path / "snap-00000002.ckpt"
    newest.write_bytes(newest.read_bytes()[:_HEADER.size + 5])
    with pytest.warns(RuntimeWarning, match="truncated payload"):
        state, info = store.load_latest()
    assert (state["at"], info.step) == (1, 1)


def test_all_snapshots_corrupt_raises(tmp_path):
    store = CheckpointStore(tmp_path, keep=2)
    store.save({"at": 1}, step=1)
    store.save({"at": 2}, step=2)
    for p in store.snapshots():
        _corrupt(p)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(CheckpointError, match="no usable snapshot"):
            store.load_latest()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "snap-00000001.ckpt"
    path.write_bytes(b"NOTACKPT!" + b"\x00" * 60)
    store = CheckpointStore(tmp_path)
    with pytest.raises(CheckpointCorruptError, match="bad magic"):
        store.load(path)


def test_newer_format_version_refused(tmp_path):
    store = CheckpointStore(tmp_path)
    info = store.save({"x": 1}, step=1)
    blob = bytearray(info.path.read_bytes())
    _, _, length, digest = _HEADER.unpack_from(blob)
    blob[:_HEADER.size] = _HEADER.pack(MAGIC, FORMAT_VERSION + 1,
                                       length, digest)
    info.path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointCorruptError, match="newer than this code"):
        store.load(info.path)


def _restamp(path, version=None, payload=None):
    """Rewrite a snapshot's header version and/or payload, with a digest
    that matches what the file then holds."""
    blob = path.read_bytes()
    _, v, _, _ = _HEADER.unpack_from(blob)
    version = v if version is None else version
    payload = blob[_HEADER.size:] if payload is None else payload
    path.write_bytes(_HEADER.pack(MAGIC, version, len(payload),
                                  hashlib.sha256(payload).digest())
                     + payload)


def test_only_format_versions_with_a_reader_load(tmp_path):
    """v1 and v2 have readers; v0 and v3 are refused even with a valid
    digest, and the ring falls back past them."""
    store = CheckpointStore(tmp_path, keep=3)
    for step in (1, 2, 3):
        store.save({"at": step}, step=step)
    _restamp(tmp_path / "snap-00000003.ckpt", version=FORMAT_VERSION + 1)
    _restamp(tmp_path / "snap-00000002.ckpt", version=0)
    with pytest.raises(CheckpointCorruptError, match="newer than this code"):
        store.load(tmp_path / "snap-00000003.ckpt")
    with pytest.raises(CheckpointCorruptError, match="v0 is not one"):
        store.load(tmp_path / "snap-00000002.ckpt")
    with pytest.warns(RuntimeWarning) as caught:
        state, info = store.load_latest()
    assert (state, info.step, info.version) == ({"at": 1}, 1, 2)
    assert [str(w.message).split(" is ")[0] for w in caught] == [
        "checkpoint: snapshot snap-00000003.ckpt",
        "checkpoint: snapshot snap-00000002.ckpt"]


def test_v1_snapshot_still_loads(tmp_path, write_v1_snapshot):
    state = {"kind": "demo", "x": np.arange(3.0), "mol": builders.h2(),
             "t": (1, 2)}
    write_v1_snapshot(tmp_path, state, 4)
    loaded, info = CheckpointStore(tmp_path).load_latest()
    assert (info.step, info.version) == (4, 1)
    assert np.array_equal(loaded["x"], state["x"]) and loaded["t"] == (1, 2)
    assert np.array_equal(loaded["mol"].coords, state["mol"].coords)


def test_v2_pickle_payload_never_executes(tmp_path, hostile_pickle):
    """A v2 snapshot whose digest matches a pickle payload is refused by
    the codec — the pickle never runs — and the ring falls back."""
    payload, marker = hostile_pickle
    store = CheckpointStore(tmp_path, keep=3)
    store.save({"at": 1}, step=1)
    info = store.save({"at": 2}, step=2)
    _restamp(info.path, payload=payload)
    with pytest.raises(CheckpointCorruptError, match="undecodable"):
        store.load(info.path)
    with pytest.warns(RuntimeWarning, match="undecodable"):
        state, _ = store.load_latest()
    assert state == {"at": 1}
    assert not marker.exists()


def test_save_refuses_a_state_the_codec_does_not_admit(tmp_path):
    from repro.runtime.codec import CodecError

    store = CheckpointStore(tmp_path)
    with pytest.raises(CodecError):
        store.save({"engine": object()}, step=1)
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


def test_save_is_atomic_over_existing_snapshot(tmp_path):
    """Re-saving the same step replaces the file in one rename."""
    store = CheckpointStore(tmp_path)
    store.save({"v": 1}, step=5)
    store.save({"v": 2}, step=5)
    state, _ = store.load_latest()
    assert state["v"] == 2
    assert len(store.snapshots()) == 1


# --- ExecutionConfig checkpoint fields ----------------------------------------


def test_execconfig_checkpoint_fields_validated():
    cfg = ExecutionConfig(checkpoint_dir="/tmp/ck", checkpoint_every=5,
                          checkpoint_keep=2)
    assert cfg.checkpoint_every == 5
    with pytest.raises(ValueError):
        ExecutionConfig(checkpoint_every=0)
    with pytest.raises(ValueError):
        ExecutionConfig(checkpoint_keep=True)
    with pytest.raises(ValueError):
        ExecutionConfig(checkpoint_dir=123)


# --- Restartable round-trips --------------------------------------------------


def test_restartable_protocol_membership():
    rng = RestartableRNG(0)
    assert isinstance(rng, Restartable)
    assert isinstance(MetricsRegistry(), Restartable)
    assert isinstance(CSVRThermostat(300.0, 100.0), Restartable)
    b = BOMD(builders.h2(0.78))
    assert isinstance(b, Restartable)
    assert isinstance(b.engine, Restartable)


def test_rng_stream_continues_not_restarts():
    a = RestartableRNG(42)
    a.normal(size=10)              # advance past the seed point
    snap = a.get_state()
    want = a.normal(size=20)
    b = RestartableRNG(42)
    b.set_state(snap)
    assert np.array_equal(b.normal(size=20), want)
    # re-seeding alone would NOT continue the stream
    c = RestartableRNG(42)
    assert not np.array_equal(c.normal(size=20), want)


def test_rng_rejects_foreign_state():
    rng = RestartableRNG(0)
    with pytest.raises(CheckpointError, match="bit-generator"):
        rng.set_state({"kind": "rng", "bit_generator": None})
    with pytest.raises(CheckpointError, match="bit generator"):
        rng.set_state({"kind": "rng",
                       "bit_generator": {"bit_generator": "MT19937",
                                         "state": {}}})


def test_csvr_thermostat_round_trip():
    t1 = CSVRThermostat(300.0, fs_to_aut(10.0), seed=9)
    t1._rng.normal(size=5)
    snap = t1.get_state()
    t2 = restore_thermostat(snap)
    assert isinstance(t2, CSVRThermostat)
    assert (t2.T, t2.tau, t2.seed) == (t1.T, t1.tau, 9)
    assert t2._rng.normal() == t1._rng.normal()


def test_restore_thermostat_unknown_kind():
    with pytest.raises(CheckpointError, match="unknown thermostat"):
        restore_thermostat({"kind": "nose-hoover"})


def test_metrics_registry_round_trip():
    m1 = MetricsRegistry()
    m1.count("builds", 3)
    m1.set("gauge", 7.5)
    m2 = MetricsRegistry()
    m2.set_state(m1.get_state())
    m2.count("builds", 1)          # restored counters keep accumulating
    assert m2.get("builds") == 4
    assert m2.get("gauge") == 7.5


def test_null_metrics_never_absorb_state():
    from repro.runtime.telemetry import NULL_TRACER
    NULL_TRACER.metrics.set_state({"poison": 1})
    assert NULL_TRACER.metrics.get("poison") == 0


def test_scf_engine_round_trip_warm_start():
    mol = builders.h2(0.76)
    e1 = SCFForceEngine(mol, method="hf")
    e1.energy_forces(mol.coords)
    snap = e1.get_state()
    assert snap["last_D"] is not None
    e2 = SCFForceEngine(builders.h2(0.76), method="hf")
    e2.set_state(snap)
    coords2 = mol.coords * 1.001
    en1, f1 = e1.energy_forces(coords2)
    en2, f2 = e2.energy_forces(coords2)
    assert en1 == en2
    assert np.array_equal(f1, f2)
    assert e1.scf_iterations == e2.scf_iterations


def test_scf_engine_rejects_mismatched_snapshot():
    e1 = SCFForceEngine(builders.h2(0.76), method="hf")
    e2 = SCFForceEngine(builders.water(), method="hf")
    with pytest.raises(CheckpointError, match="natom"):
        e2.set_state(e1.get_state())
    bad = e1.get_state() | {"kind": "other"}
    with pytest.raises(CheckpointError, match="scf_engine"):
        e1.set_state(bad)


# --- BOMD kill/restore/continue ----------------------------------------------


def test_bomd_checkpoint_requires_store():
    b = BOMD(builders.h2(0.78))
    with pytest.raises(CheckpointError, match="checkpoint_dir"):
        b.checkpoint()


def test_bomd_restore_requires_directory():
    with pytest.raises(CheckpointError, match="no checkpoint directory"):
        BOMD.restore()


def test_bomd_state_mismatch_diagnosed(tmp_path):
    cfg = ExecutionConfig(checkpoint_dir=str(tmp_path), checkpoint_every=2)
    b = BOMD(builders.h2(0.78), dt_fs=0.5, config=cfg)
    b.run(2)
    other = BOMD(builders.h2(0.78), dt_fs=0.25)
    with pytest.raises(CheckpointError, match="dt_fs"):
        other.set_state(b.get_state())


def test_bomd_run_is_resume_aware(tmp_path):
    """run(n) integrates until *logical* step n, from wherever it is."""
    b = BOMD(builders.h2(0.78), dt_fs=0.5)
    b.run(3)
    traj = b.run(5)                # takes only 2 more steps
    assert [s.step for s in traj] == list(range(6))
    assert b.run(5) == traj        # already there: a no-op


def test_bomd_kill_restore_continue_nve_serial(tmp_path):
    """The acceptance contract: kill at step 5, restore, run >= 20 more
    steps — bitwise identical to the uninterrupted trajectory."""
    ref = BOMD(builders.h2(0.80), dt_fs=0.5)
    want = ref.run(25)

    ckdir = tmp_path / "ck"
    cfg = ExecutionConfig(checkpoint_dir=str(ckdir), checkpoint_every=5)
    victim = BOMD(builders.h2(0.80), dt_fs=0.5, config=cfg)
    victim.run(5)
    del victim                     # the "crash"

    revived = BOMD.restore(str(ckdir))
    assert revived.state.step == 5
    got = revived.run(25)
    _assert_traj_identical(got, want)


def test_bomd_kill_restore_continue_csvr_thermostat(tmp_path):
    """Stochastic NVT: the restored thermostat continues the random
    stream, so the resumed trajectory is still bit-identical."""
    def make(config=None):
        return BOMD(builders.h2(0.78), dt_fs=0.5, temperature=300.0,
                    seed=11, config=config,
                    thermostat=CSVRThermostat(300.0, fs_to_aut(10.0),
                                              seed=11))

    want = make().run(27)

    ckdir = tmp_path / "ck"
    cfg = ExecutionConfig(checkpoint_dir=str(ckdir), checkpoint_every=7)
    victim = make(cfg)
    victim.run(7)
    del victim

    revived = BOMD.restore(str(ckdir))
    assert isinstance(revived.thermostat, CSVRThermostat)
    got = revived.run(27)
    _assert_traj_identical(got, want)


def test_bomd_restore_falls_back_past_corrupt_latest(tmp_path):
    """A bit-flipped newest snapshot costs a warning and a few redone
    steps — never the trajectory."""
    want = BOMD(builders.h2(0.80), dt_fs=0.5).run(12)

    ckdir = tmp_path / "ck"
    cfg = ExecutionConfig(checkpoint_dir=str(ckdir), checkpoint_every=2,
                          checkpoint_keep=4)
    victim = BOMD(builders.h2(0.80), dt_fs=0.5, config=cfg)
    victim.run(8)
    del victim
    _corrupt(ckdir / "snap-00000008.ckpt")

    with pytest.warns(RuntimeWarning, match="falling back"):
        revived = BOMD.restore(str(ckdir))
    assert revived.state.step == 6      # newest *uncorrupted* snapshot
    got = revived.run(12)
    _assert_traj_identical(got, want)


def test_bomd_checkpoint_telemetry_and_provenance(tmp_path):
    from repro.analysis.report import profile_table

    ckdir = tmp_path / "ck"
    tr = Tracer()
    cfg = ExecutionConfig(checkpoint_dir=str(ckdir), checkpoint_every=2,
                          tracer=tr)
    BOMD(builders.h2(0.78), dt_fs=0.5, config=cfg).run(4)

    tr2 = Tracer()
    revived = BOMD.restore(str(ckdir),
                           config=ExecutionConfig(tracer=tr2))
    revived.run(6)
    summ = tr2.snapshot().summary()
    assert "checkpoint.restore" in summ["span_totals"]
    assert "checkpoint.write" in summ["span_totals"]
    assert summ["counters"]["checkpoint.restored_step"] == 4
    # restored counters span the whole logical run, not just the tail
    assert summ["counters"]["md.steps"] == 6
    table = profile_table(tr2.snapshot())
    assert "restored from checkpoint: step 4" in table


@pytest.mark.pool
def test_bomd_kill_restore_continue_process_pool(tmp_path):
    """Kill/restore under the process executor: the revived run spawns
    a fresh 2-worker pool (never unpickles the dead one) and still
    reproduces the uninterrupted trajectory bitwise."""
    ckdir = tmp_path / "ck"
    pool_cfg = dict(executor="process", nworkers=2)

    ref = BOMD(builders.h2(0.80), dt_fs=0.5,
               config=ExecutionConfig(**pool_cfg))
    try:
        want = ref.run(24)
    finally:
        ref.engine.close()

    victim = BOMD(builders.h2(0.80), dt_fs=0.5,
                  config=ExecutionConfig(checkpoint_dir=str(ckdir),
                                         checkpoint_every=4, **pool_cfg))
    try:
        victim.run(4)
    finally:
        victim.engine.close()      # the "crash" kills the pool too
    del victim

    revived = BOMD.restore(str(ckdir),
                           config=ExecutionConfig(**pool_cfg))
    assert revived.engine._jk is None   # fresh engine + pool, made lazily
    try:
        got = revived.run(24)
    finally:
        revived.engine.close()
    _assert_traj_identical(got, want)


@pytest.mark.parametrize("method,pool_cfg", [
    ("hf", {}), ("pbe0", {}),
    pytest.param("hf", {"executor": "process", "nworkers": 2},
                 marks=pytest.mark.pool),
    pytest.param("pbe0", {"executor": "process", "nworkers": 2},
                 marks=pytest.mark.pool),
], ids=["hf-serial", "pbe0-serial", "hf-process", "pbe0-process"])
def test_analytic_route_restarts_bit_identically(tmp_path, method, pool_cfg):
    """Regression: the analytic-gradient engine used to be a separate
    class without get_state/set_state — the snapshot held
    ``engine=None`` and the first post-restore SCF started from the
    core guess (water: coordinates off by 1.6e-10 bohr after 2 + 2
    steps).  The analytic route now lives in SCFForceEngine, so the
    warm-start density rides the snapshot on either executor."""
    mol = builders.water() if not pool_cfg else builders.lih()

    def make(**extra):
        return BOMD(mol, method=method, dt_fs=0.5, temperature=300.0,
                    seed=3, config=ExecutionConfig(**pool_cfg, **extra))

    ref = make()
    try:
        assert ref.engine.analytic
        want = ref.run(4)
    finally:
        ref.engine.close()

    ckdir = tmp_path / "ck"
    victim = make(checkpoint_dir=str(ckdir), checkpoint_every=2)
    try:
        victim.run(2)
        assert victim.get_state()["engine"]["last_D"] is not None
    finally:
        victim.engine.close()
    del victim

    revived = BOMD.restore(str(ckdir), config=ExecutionConfig(**pool_cfg))
    try:
        assert revived.state.step == 2 and revived.engine.analytic
        got = revived.run(4)
    finally:
        revived.engine.close()
    _assert_traj_identical(got, want)
    assert float(got[-1].energy_pot).hex() == float(want[-1].energy_pot).hex()


def test_snapshot_with_the_old_analytic_forces_param_still_loads(tmp_path):
    """``BOMD(analytic_forces=...)`` is gone and the key is no longer
    written; a snapshot that carries it — with the ``engine=None`` the
    old analytic engine left behind — restores and runs on."""
    ckdir = tmp_path / "ck"
    BOMD(builders.h2(0.80), dt_fs=0.5, config=ExecutionConfig(
        checkpoint_dir=str(ckdir), checkpoint_every=2)).run(2)
    store = CheckpointStore(ckdir)
    state, info = store.load_latest()
    assert "analytic_forces" not in state["params"]
    state["params"]["analytic_forces"] = True
    state["engine"] = None
    store.save(state, step=info.step)

    revived = BOMD.restore(str(ckdir))
    assert revived.state.step == 2
    assert not hasattr(revived, "analytic_forces")
    assert len(revived.run(3)) == 4
    assert "analytic_forces" not in revived.get_state()["params"]


def test_bomd_incremental_engine_round_trip(tmp_path):
    """A direct-mode trajectory builds through the incremental engine
    and resumes bit-identically: the increment history resets at every
    geometry jump, so nothing beyond the warm start rides along."""
    from repro.hfx import IncrementalExchange

    def direct(b):
        # what api.run_md does for a JobSpec(mode="direct"), fresh or
        # revived: the SCF mode rides no snapshot
        b.engine.scf_kwargs["mode"] = "direct"
        return b

    ref = direct(BOMD(builders.water(), dt_fs=0.5, temperature=300.0,
                      seed=2))
    want = ref.run(4)
    assert isinstance(ref.engine._jk, IncrementalExchange)

    ckdir = tmp_path / "ck"
    cfg = ExecutionConfig(checkpoint_dir=str(ckdir), checkpoint_every=2)
    victim = direct(BOMD(builders.water(), dt_fs=0.5, temperature=300.0,
                         seed=2, config=cfg))
    victim.run(2)
    del victim

    revived = direct(BOMD.restore(str(ckdir)))
    got = revived.run(4)
    assert isinstance(revived.engine._jk, IncrementalExchange)
    _assert_traj_identical(got, want)


def test_bomd_cadence_aligned_final_step_writes_once(tmp_path):
    """Regression: when the last MD step lands exactly on the snapshot
    cadence, the cadence write and the final-state write used to both
    fire for the same step id.  The dedup is structural now
    (``_snapshot_if_new`` keys on the step), so a 6-step run at
    checkpoint_every=2 produces exactly 4 writes: step 0, 2, 4, 6 —
    the final step counted once."""
    tr = Tracer()
    cfg = ExecutionConfig(checkpoint_dir=str(tmp_path / "ck"),
                          checkpoint_every=2, tracer=tr)
    BOMD(builders.h2(0.78), dt_fs=0.5, config=cfg).run(6)
    assert tr.metrics.get("checkpoint.writes") == 4


def test_bomd_off_cadence_final_step_still_snapshotted(tmp_path):
    """The companion case: a final step off the cadence gets its own
    write (steps 0, 3, 5 -> 3 writes), so preemption always resumes
    from the true end of the slice."""
    tr = Tracer()
    cfg = ExecutionConfig(checkpoint_dir=str(tmp_path / "ck"),
                          checkpoint_every=3, tracer=tr)
    b = BOMD(builders.h2(0.78), dt_fs=0.5, config=cfg)
    b.run(5)
    assert tr.metrics.get("checkpoint.writes") == 3
    store = CheckpointStore(str(tmp_path / "ck"))
    _, info = store.load_latest()
    assert info.step == 5
