"""CampaignService: completion, caching, fault isolation, preemption,
durability."""

import pytest

from repro import api
from repro.service import (CampaignService, InjectedWorkerDeath, Job,
                           JobSpec, ResultCache)

pytestmark = pytest.mark.service

H2_SCF = JobSpec(kind="scf", molecule="h2")
H2_MD = JobSpec(kind="md", molecule="h2", steps=3, dt_fs=0.5)


# --- construction boundary ----------------------------------------------------


@pytest.mark.parametrize("kw", [dict(max_retries=-1),
                                dict(max_retries=1.5),
                                dict(max_retries=True),
                                dict(preempt_steps=0)])
def test_rejects_bad_knobs(tmp_path, kw):
    with pytest.raises(ValueError):
        CampaignService(tmp_path, **kw)


def test_preemption_needs_directory():
    with pytest.raises(ValueError, match="campaign directory"):
        CampaignService(preempt_steps=2)


def test_submit_rejects_non_spec():
    svc = CampaignService()
    with pytest.raises(TypeError):
        svc.submit(42)
    with pytest.raises(ValueError):
        svc.submit({"kind": "interpretive"})


def test_run_rejects_bad_nworkers():
    with pytest.raises(ValueError):
        CampaignService().run(nworkers=0)


# --- completion and caching ---------------------------------------------------


def test_mixed_campaign_completes_in_memory():
    svc = CampaignService()
    svc.submit(H2_SCF)
    svc.submit(H2_MD)
    report = svc.run()
    assert report["kind"] == "campaign_report"
    assert report["completed"] == 2 and report["failed"] == 0
    statuses = {j["label"]: j["status"] for j in report["jobs"]}
    assert set(statuses.values()) == {"done"}
    results = svc.results()
    kinds = {r["result"]["kind"] for r in results}
    assert kinds == {"scf_result", "md_result"}


def test_duplicate_spec_is_served_from_cache():
    svc = CampaignService()
    svc.submit(H2_SCF)
    svc.submit(H2_SCF.replace(label="twin", executor="serial"))
    report = svc.run()
    assert report["completed"] == 2
    assert report["counters"]["service.cache_hits"] == 1
    assert report["counters"]["service.cache_misses"] == 1
    twin = next(j for j in report["jobs"] if j["label"] == "twin")
    assert twin["cache_hit"] is True
    # the twin's stored result is the original's, byte for byte
    recs = {r["label"]: r for r in svc.results()}
    assert recs["twin"]["result"] == recs["job-0"]["result"]


def test_resubmission_across_runs_hits_cache(tmp_path):
    svc = CampaignService(tmp_path)
    svc.submit(H2_SCF)
    svc.run()
    svc.submit(H2_SCF)      # same physics, later submission
    report = svc.run()
    assert report["counters"]["service.cache_hits"] == 1
    assert report["completed"] == 2


def test_mts_strides_never_share_a_cache_record(tmp_path):
    """Same molecule, stride 1 and stride 3: two addresses, two
    computes, two different trajectories (the removed
    ``ExecutionConfig(mts_outer=)`` override cached the stride-3 path
    under the stride-1 key)."""
    svc = CampaignService(tmp_path)
    plain = svc.submit(H2_MD.replace(steps=2, dt_fs=0.2, label="plain"))
    mts = svc.submit(plain.spec.replace(mts_outer=3, label="mts"))
    assert plain.key != mts.key
    report = svc.run()
    assert report["completed"] == 2
    assert report["counters"]["service.cache_misses"] == 2
    assert "service.cache_hits" not in report["counters"]
    for job in (plain, mts):
        assert svc.cache.get(job.key)["md"]["mts_outer"] == \
            job.spec.mts_outer
    assert svc.cache.get(plain.key)["md"]["energy_pot_final"] != \
        svc.cache.get(mts.key)["md"]["energy_pot_final"]


@pytest.mark.transport
def test_multi_lane_run_with_duplicates():
    """Two lanes with no transport named run forked process lanes; the
    twin waits out its key's in-flight compute and is served from it."""
    svc = CampaignService()
    svc.submit(H2_SCF)
    svc.submit(H2_SCF.replace(label="twin"))
    svc.submit(H2_SCF.replace(basis="3-21g", label="other"))
    report = svc.run(nworkers=2)
    assert report["transport"] == "process"
    assert report["completed"] == 3 and report["failed"] == 0
    assert report["counters"]["service.cache_hits"] == 1
    assert report["counters"]["service.cache_misses"] == 2


# --- fault isolation ----------------------------------------------------------


def test_injected_death_is_retried(tmp_path, monkeypatch):
    svc = CampaignService(tmp_path)
    svc.submit(H2_SCF)
    job = svc.submit(H2_SCF.replace(basis="3-21g", label="victim"))
    monkeypatch.setenv("REPRO_SERVICE_FAULT", f"job={job.id},times=1")
    report = svc.run()
    assert report["completed"] == 2 and report["failed"] == 0
    assert report["counters"]["service.jobs_retried"] == 1
    victim = next(j for j in report["jobs"] if j["label"] == "victim")
    assert victim["attempts"] == 1 and victim["status"] == "done"


def test_death_beyond_budget_fails_only_that_job(tmp_path, monkeypatch):
    svc = CampaignService(tmp_path, max_retries=1)
    job = svc.submit(H2_SCF.replace(label="victim"))
    svc.submit(H2_SCF.replace(basis="3-21g", label="bystander"))
    monkeypatch.setenv("REPRO_SERVICE_FAULT", f"job={job.id},times=5")
    report = svc.run()
    assert report["completed"] == 1 and report["failed"] == 1
    by_label = {j["label"]: j for j in report["jobs"]}
    assert by_label["victim"]["status"] == "failed"
    assert "InjectedWorkerDeath" in by_label["victim"]["error"]
    assert by_label["bystander"]["status"] == "done"
    # the failure is recorded in the durable store too
    rec = svc.store.read(job.id)
    assert rec["status"] == "failed" and rec["result"] is None


def test_bad_fault_spec_is_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_SERVICE_FAULT", "sometimes")
    svc = CampaignService()
    svc.submit(H2_SCF)
    with pytest.raises(ValueError, match="REPRO_SERVICE_FAULT"):
        svc.run()


# --- MD preemption ------------------------------------------------------------


def test_preempted_md_resumes_bit_identically(tmp_path):
    spec = JobSpec(kind="md", molecule="h2", steps=5, dt_fs=0.5,
                   temperature=300.0, seed=2)
    svc = CampaignService(tmp_path, preempt_steps=2)
    job = svc.submit(spec)
    report = svc.run()
    assert report["completed"] == 1
    assert report["counters"]["service.jobs_preempted"] == 2  # at 2 and 4
    sliced = svc.store.read(job.id)["result"]
    assert sliced["md"]["step"] == 5 and sliced["md"]["complete"]
    straight = api.run_md(spec)
    assert sliced["final"]["coords"] == straight["final"]["coords"]
    assert sliced["final"]["velocities"] == straight["final"]["velocities"]
    assert sliced["final"]["energy_pot"] == straight["final"]["energy_pot"]


def test_preemption_interleaves_with_scf(tmp_path):
    svc = CampaignService(tmp_path, preempt_steps=2)
    md = svc.submit(JobSpec(kind="md", molecule="h2", steps=4, dt_fs=0.5))
    svc.submit(H2_SCF)
    report = svc.run()
    assert report["completed"] == 2 and report["failed"] == 0
    assert report["counters"]["service.jobs_preempted"] >= 1
    assert svc.jobs[md.id].steps_done == 4


# --- durability ---------------------------------------------------------------


def test_campaign_resumes_from_manifest(tmp_path):
    first = CampaignService(tmp_path)
    first.submit(H2_SCF)
    first.submit(H2_MD)

    second = CampaignService(tmp_path)       # fresh process, same home
    assert sorted(second.jobs) == [0, 1]
    assert all(j.status == "pending" for j in second.jobs.values())
    report = second.run()
    assert report["completed"] == 2

    third = CampaignService(tmp_path)
    assert {j.status for j in third.jobs.values()} == {"done"}
    assert third.status()["counters"]["service.jobs_completed"] == 2
    # a brand-new spec submission continues the id sequence
    assert third.submit(H2_SCF.replace(basis="3-21g")).id == 2


def test_interrupted_running_job_rejoins_queue(tmp_path):
    svc = CampaignService(tmp_path)
    job = svc.submit(H2_SCF)
    svc.jobs[job.id].status = "running"
    svc._compact()
    resumed = CampaignService(tmp_path)
    assert resumed.jobs[job.id].status == "pending"


def test_job_record_round_trip():
    job = Job(id=4, spec=H2_MD, key=H2_MD.canonical_key(),
              status="done", attempts=1, cache_hit=True, steps_done=3,
              wall_s=1.5)
    clone = Job.from_record(job.record())
    assert clone == job


@pytest.mark.parametrize("garbage", ["", "{not json", '{"kind": "job"}',
                                     '{"jobs": [{"torn": tru'])
def test_unreadable_manifest_warns_and_starts_empty(tmp_path, garbage):
    """A torn or foreign campaign.json must not brick the directory:
    the service warns, keeps the file for post-mortem, and starts with
    an empty queue."""
    svc = CampaignService(tmp_path)
    svc.submit(H2_SCF)
    manifest = tmp_path / "campaign.json"
    manifest.write_text(garbage)
    with pytest.warns(RuntimeWarning, match="unreadable"):
        resumed = CampaignService(tmp_path)
    assert resumed.jobs == {}
    assert manifest.read_text() == garbage   # evidence preserved...
    job = resumed.submit(H2_SCF)             # ...and the service works
    assert resumed.run()["completed"] == 1
    assert job.id == 0


def test_status_envelope():
    svc = CampaignService()
    svc.submit(H2_SCF)
    status = svc.status()
    assert status["kind"] == "campaign_status"
    assert status["njobs"] == 1
    assert status["by_status"] == {"pending": 1}
