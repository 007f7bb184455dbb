"""The repro.api facade: uniform envelopes, dispatch, restore/preempt."""

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
