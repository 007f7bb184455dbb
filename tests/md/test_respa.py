"""r-RESPA multiple-time-stepping BOMD (``BOMD(n_outer > 1)``): the
``n_outer=1`` velocity-Verlet path, reversibility, NVE conservation,
ASPC extrapolation, and bit-identical kill/restore/continue with the
extrapolation history.
"""

import numpy as np
import pytest

from repro.chem import builders
from repro.constants import fs_to_aut
from repro.md import (BOMD, CSVRThermostat, ClassicalMD, ForceField,
                      RESPAIntegrator, SCFForceEngine, VelocityVerlet,
                      restore_md)
from repro.md.observables import energy_drift
from repro.runtime import (CheckpointError, CheckpointStore, ExecutionConfig,
                           Tracer)
from repro.scf.guess import ASPCExtrapolator, aspc_coefficients

pytestmark = pytest.mark.mts


def _assert_traj_identical(got, want):
    """Bitwise trajectory equality: every array, every step."""
    assert len(got) == len(want)
    for sg, sw in zip(got, want):
        assert sg.step == sw.step
        assert np.array_equal(sg.coords, sw.coords)
        assert np.array_equal(sg.velocities, sw.velocities)
        assert np.array_equal(sg.forces, sw.forces)
        assert sg.energy_pot == sw.energy_pot


# --- ASPC extrapolation -------------------------------------------------------


def test_aspc_coefficients_known_orders():
    """Kolafa's published coefficient rows for k = 0, 1, 2."""
    for k, coeffs, omega in [(0, [2.0, -1.0], 2 / 3),
                             (1, [2.5, -2.0, 0.5], 3 / 5),
                             (2, [2.8, -2.8, 1.2, -0.2], 4 / 7)]:
        B, w = aspc_coefficients(k)
        assert np.allclose(B, coeffs)
        assert abs(w - omega) < 1e-15
        # predictor coefficients sum to 1 (consistency: a constant
        # density is extrapolated to itself)
        assert abs(B.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("bad", [-1, 1.5, True, "2"])
def test_aspc_rejects_bad_order(bad):
    with pytest.raises(ValueError, match="order"):
        aspc_coefficients(bad)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_aspc_predicts_linear_history_exactly(order):
    """ASPC coefficients (any order) reproduce a density drifting
    linearly in time exactly — the stability-weighted predictor stays
    first-order consistent."""
    rng = np.random.default_rng(7)
    C0, C1 = rng.normal(size=(2, 3, 3))
    aspc = ASPCExtrapolator(order=order)
    # push exact densities (predicted=None keeps the corrector out of
    # the way so the prediction error isolates the extrapolation)
    for t in range(order + 2):
        aspc.push(C0 + t * C1)
    pred = aspc.predict()
    assert np.allclose(pred, C0 + (order + 2) * C1, atol=1e-12)


def test_aspc_order_reduces_while_history_fills():
    aspc = ASPCExtrapolator(order=2)
    assert aspc.predict() is None           # cold
    D0 = np.eye(2)
    aspc.push(D0)
    assert np.array_equal(aspc.predict(), D0)   # one entry: plain reuse
    aspc.push(2 * D0, predicted=aspc.predict())
    # two entries: linear (order-0) extrapolation with omega damping
    pred = aspc.predict()
    assert pred.shape == (2, 2)
    assert len(aspc) == 2


def test_aspc_state_round_trip_bit_identical():
    rng = np.random.default_rng(3)
    a = ASPCExtrapolator(order=2)
    for _ in range(5):
        p = a.predict()
        a.push(rng.normal(size=(4, 4)), predicted=p)
    b = ASPCExtrapolator(order=2)
    b.set_state(a.get_state())
    assert len(b) == len(a)
    for ha, hb in zip(a.history, b.history):
        assert np.array_equal(ha, hb)
    assert np.array_equal(a.predict(), b.predict())


def test_aspc_set_state_rejects_order_mismatch():
    a = ASPCExtrapolator(order=1)
    a.push(np.eye(2))
    with pytest.raises(ValueError, match="order"):
        ASPCExtrapolator(order=2).set_state(a.get_state())


@pytest.mark.parametrize("config", [None, ExecutionConfig(),
                                    ExecutionConfig(kernel="batched")])
@pytest.mark.parametrize("n_outer", [1, 3])
def test_envelope_stride_is_the_hashed_specs(n_outer, config):
    """The stride is hashed physics owned by the spec alone: whatever
    config a job runs under, the envelope reports the spec's own MTS
    setup (the removed ``ExecutionConfig(mts_outer=)`` override ran
    stride 3 under the plain-BOMD cache address)."""
    from repro import api
    from repro.service import JobSpec

    spec = JobSpec(kind="md", molecule="h2", steps=2, dt_fs=0.2,
                   mts_outer=n_outer, mts_inner="ff")
    md = api.run_md(spec, config)["md"]
    assert md["mts_outer"] == spec.mts_outer
    assert md["mts_inner"] == (spec.mts_inner if n_outer > 1 else None)
    with pytest.raises(TypeError):
        ExecutionConfig(mts_outer=3)


def test_mtsbomd_rejects_hybrid_inner_and_analytic_forces():
    with pytest.raises(ValueError, match="inner"):
        BOMD(builders.h2(0.75), n_outer=3, inner="pbe0")
    # there is no force-route argument to refuse any more: the outer
    # engine and a DFT inner engine both take the analytic route, which
    # follows from their configs
    with pytest.raises(TypeError, match="analytic_forces"):
        BOMD(builders.h2(0.75), n_outer=3, analytic_forces=True)
    mts = BOMD(builders.h2(0.75), n_outer=3, inner="pbe")
    assert mts.engine.analytic and mts.fast_engine.analytic
    assert mts.fast_engine.method == "pbe"


def test_aspc_rides_the_respa_outer_loop_only():
    """ASPC warm-starts the outer force of the RESPA split; plain BOMD
    (``n_outer=1``) refuses an ``aspc_order`` instead of ignoring it."""
    with pytest.raises(ValueError, match="aspc_order"):
        BOMD(builders.h2(0.75), aspc_order=2)
    assert BOMD(builders.h2(0.75), n_outer=2, aspc_order=2)._aspc.order == 2


@pytest.mark.parametrize("bad", [0, None, 2.0, True, "3"])
def test_bomd_validates_n_outer_through_the_table(bad, monkeypatch):
    """The stride is an argument, never an environment override: a bad
    one is refused by the ``mts_outer`` row, and ``REPRO_MTS_OUTER`` is
    not read."""
    monkeypatch.setenv("REPRO_MTS_OUTER", "3")
    with pytest.raises(ValueError, match=r"BOMD\.mts_outer must be"):
        BOMD(builders.h2(0.75), n_outer=bad)
    assert BOMD(builders.h2(0.75)).n_outer == 1


def test_respa_integrator_rejects_bad_n_inner():
    ff = ForceField(builders.water())
    with pytest.raises(ValueError, match="n_inner"):
        RESPAIntegrator(ff, ff, builders.water().masses, 1.0, 0)


# --- reduction and reversibility ----------------------------------------------


def test_n_outer_1_reduces_bit_identically_to_bomd():
    """At n_outer=1 the runner is velocity Verlet on the full surface:
    bitwise equal to a hand-driven loop over the SCF engine, whatever
    ``inner`` says (no fast surface is built)."""
    vv = VelocityVerlet(SCFForceEngine(builders.h2(0.80), method="hf"),
                        builders.h2(0.80).masses, fs_to_aut(0.2))
    s = vv.initial_state(builders.h2(0.80).coords)
    want = [s]
    for _ in range(6):
        s = vv.step(s)
        want.append(s)
    for inner in ("ff", "pbe"):
        b = BOMD(builders.h2(0.80), method="hf", dt_fs=0.2, inner=inner)
        assert b.n_outer == 1 and b.fast_engine is None
        _assert_traj_identical(b.run(6), want)


def test_respa_is_time_reversible():
    """Integrate forward, negate velocities, integrate back: the impulse
    splitting recovers the initial condition to integration accuracy.
    Both surfaces are deterministic force fields so the test isolates
    the integrator (no SCF convergence noise)."""
    mol = builders.water()
    full = ForceField(mol, kbond=0.35, kangle=0.06)
    fast = ForceField(mol, kbond=0.30, kangle=0.05)
    respa = RESPAIntegrator(full, fast, mol.masses, fs_to_aut(0.25),
                            n_inner=4)
    rng = np.random.default_rng(5)
    v0 = 1e-4 * rng.normal(size=mol.coords.shape)
    s = respa.initial_state(mol.coords, v0)
    x0, vv0 = s.coords.copy(), s.velocities.copy()
    for _ in range(5):
        s = respa.step(s)
    # reverse: flip velocities and the cached fast-force phase
    back = RESPAIntegrator(full, fast, mol.masses, fs_to_aut(0.25),
                           n_inner=4)
    sb = back.initial_state(s.coords, -s.velocities)
    for _ in range(5):
        sb = back.step(sb)
    assert np.abs(sb.coords - x0).max() < 1e-10
    assert np.abs(sb.velocities + vv0).max() < 1e-10


def test_mts_nve_drift_bounded_vs_baseline():
    """NVE conservation: the RESPA trajectory's total-energy excursion
    stays within a small factor of the single-timestep baseline over
    the same simulated time span."""
    masses = builders.h2().masses

    def excursion(traj):
        e = np.array([s.total_energy(masses) for s in traj])
        return np.abs(e - e[0]).max()

    base = BOMD(builders.h2(0.74), method="hf", dt_fs=0.15,
                temperature=250.0, seed=3)
    t_base = base.run(18)
    mts = BOMD(builders.h2(0.74), method="hf", dt_fs=0.15,
               temperature=250.0, seed=3, n_outer=3, aspc_order=2)
    t_mts = mts.run(6)              # 18 inner-equivalent steps
    # 3x fewer SCF force builds...
    assert len(mts.engine.scf_iterations) * 2 < \
        len(base.engine.scf_iterations)
    # ...while staying on an adjacent constant-energy surface
    assert excursion(t_mts) < 10 * max(excursion(t_base), 1e-7)
    assert excursion(t_mts) < 2e-3


def test_aspc_warm_start_cuts_outer_scf_iterations():
    """The ASPC-predicted density must not be worse than plain
    previous-density reuse (and the trajectory stays sane)."""
    plain = BOMD(builders.h2(0.78), method="hf", dt_fs=0.2, n_outer=2)
    plain.run(5)
    aspc = BOMD(builders.h2(0.78), method="hf", dt_fs=0.2,
                n_outer=2, aspc_order=2)
    aspc.run(5)
    assert sum(aspc.engine.scf_iterations) <= \
        sum(plain.engine.scf_iterations) + 2
    assert len(aspc._aspc) == 4     # history filled to order + 2


def test_mts_counters_track_full_and_inner_builds():
    tr = Tracer(name="mts")
    cfg = ExecutionConfig(tracer=tr)
    m = BOMD(builders.h2(0.78), method="hf", dt_fs=0.2, n_outer=3,
             aspc_order=2, config=cfg)
    m.run(2)
    counters = tr.metrics.get_state()
    assert counters["mts.full_builds"] == 3      # initial + 2 outer
    assert counters["mts.inner_steps"] == 6
    assert counters["md.steps"] == 2


# --- checkpoint/restore -------------------------------------------------------


def test_mts_kill_restore_continue_bit_identical(tmp_path):
    """The acceptance contract: an MTS trajectory killed mid-run
    restores (ASPC history, cached fast forces, inner state included)
    and continues bitwise identically to the uninterrupted run."""
    def make(config=None):
        return BOMD(builders.h2(0.80), method="hf", dt_fs=0.2,
                    n_outer=3, aspc_order=2, config=config)

    want = make().run(8)

    ckdir = tmp_path / "ck"
    cfg = ExecutionConfig(checkpoint_dir=str(ckdir), checkpoint_every=3)
    victim = make(cfg)
    victim.run(4)
    hist_len = len(victim._aspc)
    del victim                      # the "crash"

    revived = BOMD.restore(str(ckdir))
    assert revived.state.step == 4
    assert revived.n_outer == 3
    assert len(revived._aspc) == hist_len
    got = revived.run(8)
    _assert_traj_identical(got, want)


def test_mts_kill_restore_with_csvr_thermostat(tmp_path):
    """Stochastic NVT under MTS: one thermostat draw per outer step, so
    the restored CSVR stream continues bit-identically."""
    def make(config=None):
        return BOMD(builders.h2(0.78), method="hf", dt_fs=0.2,
                    n_outer=2, aspc_order=2, temperature=300.0, seed=11,
                    thermostat=CSVRThermostat(300.0, fs_to_aut(10.0),
                                              seed=11), config=config)

    want = make().run(9)

    ckdir = tmp_path / "ck"
    cfg = ExecutionConfig(checkpoint_dir=str(ckdir), checkpoint_every=4)
    victim = make(cfg)
    victim.run(4)
    del victim

    revived = BOMD.restore(str(ckdir))
    assert isinstance(revived.thermostat, CSVRThermostat)
    got = revived.run(9)
    _assert_traj_identical(got, want)


@pytest.mark.pool
def test_mts_kill_restore_continue_process_executor(tmp_path):
    """Same contract on the process-pool executor: the pool is never
    serialized; the revived run spawns a fresh one and still walks the
    identical floating-point sequence."""
    def make(ckdir=None):
        cfg = ExecutionConfig(executor="process", nworkers=2,
                              checkpoint_dir=ckdir, checkpoint_every=2)
        return BOMD(builders.h2(0.80), method="hf", dt_fs=0.2,
                    n_outer=2, aspc_order=2, config=cfg)

    ref = make()
    try:
        want = ref.run(5)
    finally:
        ref.engine.close()

    ckdir = tmp_path / "ck"
    victim = make(str(ckdir))
    try:
        victim.run(2)
    finally:
        victim.engine.close()
    del victim

    revived = BOMD.restore(
        str(ckdir), config=ExecutionConfig(executor="process", nworkers=2))
    try:
        assert revived.engine._jk is None
        got = revived.run(5)
    finally:
        revived.engine.close()
    _assert_traj_identical(got, want)


@pytest.mark.parametrize("inner,pool_cfg", [
    ("pbe", {}),
    pytest.param("ff", {"executor": "process", "nworkers": 2},
                 marks=pytest.mark.pool),
    pytest.param("pbe", {"executor": "process", "nworkers": 2},
                 marks=pytest.mark.pool),
], ids=["pbe-serial", "ff-process", "pbe-process"])
def test_mts_analytic_route_restarts_bit_identically(tmp_path, inner,
                                                     pool_cfg):
    """Outer PBE0 engine and (for ``inner="pbe"``) the GGA inner engine
    both on analytic forces: warm-start densities of both, ASPC history
    and cached fast forces ride the snapshot, on either executor."""
    def make(**extra):
        return BOMD(builders.lih(), method="pbe0", dt_fs=0.25, n_outer=2,
                    aspc_order=2, inner=inner, temperature=300.0, seed=3,
                    config=ExecutionConfig(**pool_cfg, **extra))

    ref = make()
    try:
        assert ref.engine.analytic
        assert inner == "ff" or ref.fast_engine.analytic
        want = ref.run(3)
    finally:
        ref.engine.close()

    ckdir = tmp_path / "ck"
    victim = make(checkpoint_dir=str(ckdir), checkpoint_every=2)
    try:
        victim.run(2)
    finally:
        victim.engine.close()
    del victim

    revived = BOMD.restore(str(ckdir), config=ExecutionConfig(**pool_cfg))
    try:
        assert revived.state.step == 2
        got = revived.run(3)
    finally:
        revived.engine.close()
    _assert_traj_identical(got, want)
    assert float(got[-1].energy_pot).hex() == float(want[-1].energy_pot).hex()


def test_mts_pbe_inner_surface_costs_one_scf_per_inner_step():
    """The GGA inner surface used to pay a 6N + 1 stencil per inner
    step; now every force call of either engine is one SCF."""
    tr = Tracer()
    mts = BOMD(builders.lih(), method="pbe0", dt_fs=0.25, n_outer=3,
               aspc_order=2, inner="pbe", config=ExecutionConfig(tracer=tr))
    mts.run(2)
    scfs = sum(1 for s in tr.spans if s.name == "md.scf")
    calls = sum(1 for s in tr.spans if s.name == "md.force_eval")
    # per outer step: n_outer inner calls + 1 full call; plus the two
    # initial-state calls
    assert calls == scfs == 2 * (3 + 1) + 2
    assert not any(s.name == "md.fd" for s in tr.spans)
    assert tr.metrics.get("md.scf_per_force") == 1


def test_restore_md_dispatches_on_snapshot_kind(tmp_path):
    """One entrypoint revives whatever runner wrote the snapshot."""
    cfg1 = ExecutionConfig(checkpoint_dir=str(tmp_path / "bomd"))
    BOMD(builders.h2(0.78), dt_fs=0.5, config=cfg1).run(2)
    cfg2 = ExecutionConfig(checkpoint_dir=str(tmp_path / "mts"))
    BOMD(builders.h2(0.78), dt_fs=0.2, n_outer=2, config=cfg2).run(2)
    cfg3 = ExecutionConfig(checkpoint_dir=str(tmp_path / "classical"))
    ClassicalMD(builders.water(), dt_fs=0.5, config=cfg3).run(2)

    assert restore_md(str(tmp_path / "bomd")).n_outer == 1
    # ... from one read of the snapshot
    tr = Tracer()
    mts = restore_md(str(tmp_path / "mts"), ExecutionConfig(tracer=tr))
    assert type(mts) is BOMD and mts.n_outer == 2
    assert [s.name for s in tr.spans].count("checkpoint.restore") == 1
    assert tr.metrics.get("checkpoint.restores") == 1
    assert type(restore_md(str(tmp_path / "classical"))) is ClassicalMD
    # the class-specific entrypoints refuse another runner's snapshot
    with pytest.raises(CheckpointError, match="not 'bomd'"):
        BOMD.restore(str(tmp_path / "classical"))
    with pytest.raises(CheckpointError, match="not 'classical_md'"):
        ClassicalMD.restore(str(tmp_path / "mts"))


def test_mts_restore_rejects_parameter_mismatch(tmp_path):
    cfg = ExecutionConfig(checkpoint_dir=str(tmp_path / "ck"))
    BOMD(builders.h2(0.78), dt_fs=0.2, n_outer=3, config=cfg).run(2)
    state, _ = CheckpointStore(str(tmp_path / "ck")).load_latest()
    other = BOMD(builders.h2(0.78), dt_fs=0.2, n_outer=5)
    with pytest.raises(CheckpointError, match="n_outer"):
        other.set_state(state)
