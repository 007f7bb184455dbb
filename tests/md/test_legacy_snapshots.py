"""Snapshots in the layout the runners wrote before the stride moved
into :class:`BOMD` restore through :func:`restore_md` and continue
bit-identically.

Before the fold there were three runner classes: ``BOMD`` (kind
``bomd``, no ``n_outer``/``inner``/``aspc_order`` params), ``MTSBOMD``
(kind ``mts_bomd``, its ASPC history, cached fast forces and inner
engine under ``mts``) and ``ClassicalMD``.  Each envelope below is built
by hand in that layout and written in checkpoint format v1 (the pickle
those runners wrote) and v2 (``CheckpointStore.save``'s codec).
"""

import numpy as np
import pytest

from repro.chem import builders
from repro.constants import fs_to_aut
from repro.md import BOMD, CSVRThermostat, ClassicalMD, restore_md
from repro.runtime import CheckpointError, CheckpointStore
from repro.scf.guess import ASPCExtrapolator

pytestmark = [pytest.mark.checkpoint, pytest.mark.mts]

def _assert_traj_identical(got, want):
    assert len(got) == len(want)
    for sg, sw in zip(got, want):
        assert sg.step == sw.step
        assert np.array_equal(sg.coords, sw.coords)
        assert np.array_equal(sg.velocities, sw.velocities)
        assert np.array_equal(sg.forces, sw.forces)
        assert float(sg.energy_pot).hex() == float(sw.energy_pot).hex()


def _envelope(b, kind, params, **extra):
    """The pre-fold snapshot envelope of a runner's current state."""
    return {"kind": kind, "mol": b.mol, "params": params,
            "step": int(b.state.step),
            "trajectory": [s.to_dict() for s in b.trajectory],
            "engine": (b.engine.get_state()
                       if hasattr(b.engine, "get_state") else None),
            "thermostat": (b.thermostat.get_state()
                           if b.thermostat is not None else None),
            "counters": {}, **extra}


def _bomd_params(b, **more):
    """Pre-fold ``BOMD`` params, plus ``MTSBOMD``'s or a retired key."""
    return {"method": b.method, "basis": b.basis, "dt_fs": float(b.dt_fs),
            "temperature": b.temperature, "seed": b.seed,
            "incremental": False, "natom": b.mol.natom, **more}


def _mts_block(b):
    ff = b._stepper.fast_forces
    return {"aspc": b._aspc.get_state() if b._aspc is not None else None,
            "fast_forces": None if ff is None else ff.copy(),
            "fast_engine": (b.fast_engine.get_state()
                            if hasattr(b.fast_engine, "get_state")
                            else None)}


def _csvr():
    return CSVRThermostat(300.0, fs_to_aut(10.0), seed=11)


# case -> (make runner, kill step, final step, pre-fold envelope)
_CASES = {
    "bomd-no-n_outer": (
        lambda: BOMD(builders.h2(0.78), dt_fs=0.5, temperature=300.0,
                     seed=4, thermostat=_csvr()),
        3, 8, lambda b: _envelope(b, "bomd", _bomd_params(b))),
    "bomd-analytic_forces": (
        lambda: BOMD(builders.h2(0.76), method="pbe0", dt_fs=0.5,
                     temperature=300.0, seed=3),
        2, 4, lambda b: _envelope(
            b, "bomd", _bomd_params(b, analytic_forces=True))),
    "mts_bomd-aspc": (
        lambda: BOMD(builders.h2(0.80), dt_fs=0.2, temperature=300.0,
                     seed=3, thermostat=_csvr(), n_outer=3, inner="pbe",
                     aspc_order=2),
        2, 5, lambda b: _envelope(
            b, "mts_bomd",
            _bomd_params(b, n_outer=3, inner="pbe", aspc_order=2),
            mts=_mts_block(b))),
    "mts_bomd-n_outer_1": (
        lambda: BOMD(builders.h2(0.80), dt_fs=0.2, temperature=300.0,
                     seed=3),
        3, 6, lambda b: _envelope(
            b, "mts_bomd",
            _bomd_params(b, n_outer=1, inner="ff", aspc_order=None),
            mts={"aspc": None, "fast_forces": None,
                 "fast_engine": None})),
    "classical_md": (
        lambda: ClassicalMD(builders.water(), dt_fs=0.5, temperature=300.0,
                            seed=7, thermostat=_csvr()),
        5, 12, lambda b: _envelope(
            b, "classical_md",
            {"dt_fs": float(b.dt_fs), "temperature": b.temperature,
             "seed": b.seed, "kbond": float(b.kbond),
             "kangle": float(b.kangle), "cell": None, "charges": None,
             "natom": b.mol.natom})),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_pre_fold_snapshot_continues_bit_identically(tmp_path, case):
    _continue(tmp_path, case, lambda state, step:
              CheckpointStore(tmp_path).save(state, step=step))


@pytest.mark.parametrize("case", sorted(_CASES))
def test_pre_fold_v1_snapshot_continues_bit_identically(tmp_path, case,
                                                        write_v1_snapshot):
    _continue(tmp_path, case, lambda state, step:
              write_v1_snapshot(tmp_path, state, step))


def _continue(tmp_path, case, write):
    """Kill a run of ``case``, ``write`` its pre-fold envelope, restore
    it and check the continuation against the uninterrupted run."""
    make, kill, final, envelope = _CASES[case]
    ref = make()
    want = ref.run(final)

    victim = make()
    victim.run(kill)
    write(envelope(victim), kill)
    del victim

    revived = restore_md(str(tmp_path))
    assert type(revived) is type(ref)
    assert getattr(revived, "n_outer", 1) == getattr(ref, "n_outer", 1)
    assert revived.state.step == kill
    _assert_traj_identical(revived.run(final), want)
    # the continued trajectory is written in today's layout
    latest, _ = CheckpointStore(tmp_path).load_latest()
    assert latest["kind"] == revived._KIND
    assert "analytic_forces" not in latest["params"]


def test_mts_bomd_at_n_outer_1_with_aspc_history_is_refused(tmp_path):
    """The old ``MTSBOMD(n_outer=1)`` ran ASPC on plain BOMD; that path
    is gone, so its snapshot is refused rather than continued on another
    warm start."""
    b = BOMD(builders.h2(0.80), dt_fs=0.2)
    b.run(2)
    aspc = ASPCExtrapolator(2)
    for s in b.trajectory:
        aspc.push(b.engine.last_result.D * (1.0 + 1e-3 * s.step))
    state = _envelope(
        b, "mts_bomd",
        _bomd_params(b, n_outer=1, inner="ff", aspc_order=2),
        mts={"aspc": aspc.get_state(), "fast_forces": None,
             "fast_engine": None})
    CheckpointStore(tmp_path).save(state, step=2)
    with pytest.raises(CheckpointError, match="aspc_order"):
        restore_md(str(tmp_path))
    with pytest.raises(CheckpointError, match="aspc_order"):
        BOMD(builders.h2(0.80), dt_fs=0.2).set_state(state)


def test_retired_incremental_switch_is_refused_by_name(tmp_path):
    """A stored ``incremental: False`` is dropped (the cases above carry
    it); ``True`` ran direct-mode SCFs, which no parameter selects any
    more, so that snapshot is refused rather than continued in-core."""
    b = BOMD(builders.h2(0.80), dt_fs=0.2)
    b.run(2)
    state = _envelope(b, "bomd", _bomd_params(b, incremental=True))
    CheckpointStore(tmp_path).save(state, step=2)
    with pytest.raises(CheckpointError, match="incremental"):
        restore_md(str(tmp_path))
    with pytest.raises(CheckpointError, match="incremental"):
        BOMD(builders.h2(0.80), dt_fs=0.2).set_state(state)
