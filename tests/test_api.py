"""The repro.api facade: uniform envelopes, dispatch, restore/preempt."""

import numpy as np
import pytest

from repro import api
from repro.runtime import ExecutionConfig, check_envelope
from repro.service import JobSpec

pytestmark = pytest.mark.service


def test_run_scf_envelope():
    res = api.run_scf(JobSpec(kind="scf", molecule="h2"))
    check_envelope(res, kind="scf_result")
    assert res["method"] == "RHF" and res["basis"] == "sto-3g"
    assert res["molecule"]["natom"] == 2
    assert res["scf"]["converged"] is True
    assert abs(res["scf"]["energy"] - -1.1166843872) < 1e-6
    assert res["counters"]["scf.fock_builds"] > 0
    assert res["wall_s"] > 0


def test_run_scf_accepts_spec_dict():
    res = api.run_scf({"kind": "scf", "molecule": "h2"})
    assert res["scf"]["converged"] is True


def test_run_scf_uhf_route():
    res = api.run_scf(JobSpec(kind="scf", molecule="li_atom",
                              multiplicity=2))
    assert res["method"] == "UHF"
    assert "s_squared" in res["scf"]


def test_run_scf_rejects_md_spec():
    with pytest.raises(ValueError, match="kind"):
        api.run_scf(JobSpec(kind="md", molecule="h2"))
    with pytest.raises(TypeError):
        api.run_scf("h2")


def test_run_md_envelope():
    res = api.run_md(JobSpec(kind="md", molecule="h2", steps=3,
                             dt_fs=0.5))
    check_envelope(res, kind="md_result")
    md = res["md"]
    assert md["step"] == 3 and md["complete"] and md["steps"] == 3
    assert md["restored_from"] is None
    assert len(res["final"]["coords"]) == 2
    assert res["counters"]["md.steps"] == 3


@pytest.mark.pool
def test_process_executor_pbe0_matches_serial():
    """A PBE0 spec on the worker pool (``JobSpec`` used to refuse it)
    runs the pooled direct builder: its SCF and a 2-step BOMD on water
    match the serial run to 1e-10."""
    scf = {}
    for executor in ("serial", "process"):
        scf[executor] = api.run_scf(JobSpec(
            molecule="water", method="pbe0", mode="direct",
            executor=executor, nworkers=2))["scf"]["energy"]
    assert abs(scf["process"] - scf["serial"]) < 1e-10
    md = {}
    for executor in ("serial", "process"):
        md[executor] = api.run_md(JobSpec(
            kind="md", molecule="water", method="pbe0", steps=2,
            temperature=300.0, seed=3, executor=executor,
            nworkers=2))["final"]
    assert abs(md["process"]["energy_pot"] - md["serial"]["energy_pot"]) \
        < 1e-10
    for key in ("coords", "velocities"):
        assert np.abs(np.subtract(md["process"][key],
                                  md["serial"][key])).max() < 1e-10


def test_run_md_until_step_and_resume(tmp_path):
    spec = JobSpec(kind="md", molecule="h2", steps=4, dt_fs=0.5)
    cfg = ExecutionConfig(checkpoint_dir=str(tmp_path / "ck"))
    part = api.run_md(spec, cfg, until_step=2)
    assert part["md"]["step"] == 2 and not part["md"]["complete"]
    rest = api.run_md(spec, cfg)
    assert rest["md"]["restored_from"] == 2
    assert rest["md"]["step"] == 4 and rest["md"]["complete"]
    straight = api.run_md(spec)
    assert rest["final"]["coords"] == straight["final"]["coords"]
    assert rest["final"]["velocities"] == straight["final"]["velocities"]


def test_run_md_explicit_restore_errors(tmp_path):
    from repro.runtime import CheckpointError

    spec = JobSpec(kind="md", molecule="h2", steps=2)
    with pytest.raises(CheckpointError):
        api.run_md(spec, restore_from=str(tmp_path / "nope"))


def test_run_job_dispatches_on_kind():
    assert api.run_job(JobSpec(kind="scf",
                               molecule="h2"))["kind"] == "scf_result"
    assert api.run_job(JobSpec(kind="md", molecule="h2", steps=2,
                               dt_fs=0.5))["kind"] == "md_result"
    with pytest.raises(ValueError, match="until_step"):
        api.run_job(JobSpec(kind="scf", molecule="h2"), until_step=3)


def test_submit_uses_explicit_service():
    from repro.service import CampaignService

    svc = CampaignService()
    job = api.submit(JobSpec(kind="scf", molecule="h2"), service=svc)
    assert job.id in svc.jobs
    report = svc.run()
    assert report["completed"] == 1


def test_submit_default_service_is_shared():
    first = api.submit(JobSpec(kind="scf", molecule="h2"))
    second = api.submit(JobSpec(kind="scf", molecule="h2",
                                basis="3-21g"))
    assert api.default_service().jobs[first.id] is first
    assert second.id == first.id + 1


def test_run_scf_rejects_soscf_for_uhf_route():
    """Explicitly requesting the Newton solver on an open-shell system
    fails loudly at the boundary instead of silently running DIIS."""
    spec = JobSpec(kind="scf", molecule="li_atom", multiplicity=2)
    with pytest.raises(ValueError, match="closed-shell only"):
        api.run_scf(spec, ExecutionConfig(scf_solver="soscf"))
    # inline molecules carry the open shell past JobSpec validation;
    # the api boundary still catches them
    inline = JobSpec(kind="scf", molecule={
        "symbols": ["Li"], "coords_bohr": [[0.0, 0.0, 0.0]],
        "multiplicity": 2, "name": "li_inline"})
    with pytest.raises(ValueError, match="li_inline"):
        api.run_scf(inline, ExecutionConfig(scf_solver="soscf"))
    # "auto" still quietly takes the DIIS route
    res = api.run_scf(spec, ExecutionConfig(scf_solver="auto"))
    assert res["method"] == "UHF"


def test_run_md_mts_route(tmp_path):
    """A spec with mts_outer > 1 runs the r-RESPA integrator and the
    envelope reports the cadence; plain specs report cadence 1."""
    spec = JobSpec(kind="md", molecule="h2", steps=3, dt_fs=0.2,
                   mts_outer=3, mts_inner="ff")
    res = api.run_md(spec)
    check_envelope(res, kind="md_result")
    assert res["md"]["mts_outer"] == 3
    assert res["md"]["mts_inner"] == "ff"
    assert res["md"]["complete"] is True

    res2 = api.run_md(spec.replace(mts_outer=1), ExecutionConfig())
    assert res2["md"]["mts_outer"] == 1
    assert res2["md"]["mts_inner"] is None


def test_run_md_mts_checkpoint_resume_bit_identical(tmp_path):
    """Preempted MTS slices resume through restore_md's kind dispatch:
    two 2+2 slices equal one 4-step run bitwise."""
    spec = JobSpec(kind="md", molecule="h2", steps=4, dt_fs=0.2,
                   mts_outer=2)
    whole = api.run_md(spec)

    cfg = ExecutionConfig(checkpoint_dir=str(tmp_path / "ck"),
                          checkpoint_every=2)
    first = api.run_md(spec, cfg, until_step=2)
    assert first["md"]["step"] == 2 and not first["md"]["complete"]
    second = api.run_md(spec, cfg)
    assert second["md"]["restored_from"] == 2
    assert second["md"]["mts_outer"] == 2
    assert second["final"] == whole["final"]


# --- every hashed field reaches the route that runs it ------------------------

#: field -> (base overrides, changed value): a spec on which the field
#: bites, and another value for it.
_HASHED = {
    "molecule": ({}, "lih"),
    "basis": ({}, "3-21g"),
    "method": ({}, "pbe"),
    "charge": ({"molecule": "lih"}, 2),
    "multiplicity": ({}, 3),
    "perturb": ({}, 0.05),
    "perturb_seed": ({"perturb": 0.05}, 1),
    "conv_tol": ({"molecule": "lih"}, 1e-3),
    "screen_eps": ({"molecule": "lih", "mode": "direct"}, 1e-2),
    "kernel": ({"mode": "direct"}, "batched"),
    "scf_solver": ({"molecule": "lih"}, "soscf"),
    "mode": ({"method": "pbe0"}, "direct"),
    "steps": ({}, 3),
    "dt_fs": ({}, 0.25),
    "temperature": ({}, 500.0),
    "thermostat": ({}, "berendsen"),
    "tau_fs": ({"thermostat": "berendsen"}, 10.0),
    "seed": ({}, 1),
    "mts_outer": ({}, 2),
    "mts_inner": ({"mts_outer": 2}, "lda"),
    "mts_aspc_order": ({"mts_outer": 2, "steps": 4}, None),
}


def _observed(spec):
    """What tells two runs apart: the numbers they return (not the
    envelope's echo of the spec), the program's own counters and which
    spans it opened — minus wall-clock."""
    from repro.runtime import Tracer

    tracer = Tracer()
    out = api.run_job(spec, api._config_for(spec, None).replace(
        tracer=tracer))
    result = out["final"] if spec.kind == "md" else \
        {k: v for k, v in out["scf"].items() if k != "wall_s"}
    return (result, tracer.metrics.to_dict(),
            sorted({s.name for s in tracer.spans}))


def _hashed_cases():
    from repro.service.jobspec import _EXECUTION_FIELDS, _MD_FIELDS

    for kind in ("scf", "md"):
        for field in JobSpec.__dataclass_fields__:
            if field == "kind" or field in _EXECUTION_FIELDS \
                    or (kind == "scf" and field in _MD_FIELDS):
                continue
            yield pytest.param(kind, field, id=f"{kind}-{field}")


@pytest.mark.parametrize("kind,field", _hashed_cases())
def test_no_hashed_field_is_silently_ignored(kind, field):
    """A field in the ``canonical_key()`` payload either changes what
    runs (result or counters) or is refused with its name: two specs
    with different cache keys must not be the same computation."""
    overrides, value = _HASHED[field]
    base = JobSpec(**{"kind": kind, "molecule": "h2", "steps": 2,
                      "temperature": 300.0, **overrides})
    try:
        changed = base.replace(**{field: value})
    except ValueError as refusal:
        assert field in str(refusal)
        return
    assert changed.canonical_key() != base.canonical_key()
    seen = _observed(base)
    assert _observed(changed) != seen
    assert _observed(base) == seen                  # the probe is stable


def test_kohn_sham_honours_mode_and_screen():
    """The RKS branch used to drop ``mode``/``screen_eps``: a direct
    spec ran the in-core tensor under a key that said otherwise."""
    _, counters, spans = _observed(JobSpec(
        molecule="lih", method="pbe0", mode="direct", screen_eps=1e-4))
    assert counters["jk.builds"] > 0 and "jk.build" in spans
    assert not any(k.startswith("jk.tensor.") for k in counters)


def test_md_slices_keep_the_specs_scf_numerics(tmp_path):
    """A revived runner gets ``conv_tol``/``screen_eps``/``mode`` from
    the spec again (no snapshot carries them): sliced == straight."""
    spec = JobSpec(kind="md", molecule="lih", steps=3, temperature=300.0,
                   conv_tol=1e-5, mode="direct", screen_eps=1e-6)
    cfg = ExecutionConfig(checkpoint_dir=str(tmp_path / "ck"))
    api.run_md(spec, cfg, until_step=1)
    sliced = api.run_md(spec, cfg)
    assert sliced["md"]["restored_from"] == 1
    assert sliced["final"] == api.run_md(spec)["final"]
    assert sliced["final"] != api.run_md(spec.replace(conv_tol=1e-8))["final"]
