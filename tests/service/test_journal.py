"""The campaign queue store: snapshot + append-only journal.

Loader fuzz (truncated and bit-flipped journals load the longest intact
prefix), the directory states that must load, the kill-and-resume drill
at the three crash points, the one-record-per-transition guard, the
cache-hit wall time every store agrees on (on both lane kinds), and the
journal telemetry.
"""

import json
import multiprocessing
import os
import shutil
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime import ExecutionConfig, Tracer
from repro.service import (CampaignService, Job, JobSpec,
                           ProcessLaneTransport)
from repro.service import scheduler

pytestmark = pytest.mark.service

H2_SCF = JobSpec(kind="scf", molecule="h2")
#: Two computes, one in-campaign cache hit, one MD job preempted once.
SPECS = [H2_SCF, H2_SCF.replace(label="twin"),
         H2_SCF.replace(basis="3-21g", label="split"),
         JobSpec(kind="md", molecule="h2", steps=3, dt_fs=0.5, label="md")]
#: Submits plus finishes a drain of ``SPECS`` journals (the MD job
#: finishes twice: preempted at step 2, done at step 3).
TRANSITIONS = len(SPECS) + len(SPECS) + 1

FIXTURE = Path(__file__).parent / "data" / "manifest_before_journal.json"


def _state(svc):
    """Everything a load restores, JSON-normalised."""
    return json.loads(json.dumps(
        [{i: j.record() for i, j in sorted(svc.jobs.items())},
         svc._next_id, svc.metrics.to_dict()]))


def _drain(svc):
    """Drain without ``run()``'s compaction: the journal keeps every line."""
    lanes = ProcessLaneTransport(svc, 0, svc.config)    # the inline lane
    lanes.drain()
    lanes.close()


def _resume(directory):
    """``(service, warnings raised while loading it)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        svc = CampaignService(directory, preempt_steps=2)
    return svc, [w for w in caught if w.category is RuntimeWarning]


# --- loader fuzz --------------------------------------------------------------


@pytest.fixture(scope="module")
def journaled(tmp_path_factory):
    """A snapshot plus a journal of submit, finish and preempt lines, and
    the live state after each durable append (``states[0]``: the
    snapshot's).  The last line is a submit."""
    home = tmp_path_factory.mktemp("journaled")
    svc = CampaignService(home, preempt_steps=2)
    svc.submit(H2_SCF.replace(label="compacted"))
    svc.run()
    states = [_state(svc)]
    real = scheduler.append_durable

    def capture(path, data):
        real(path, data)
        states.append(_state(svc))

    scheduler.append_durable = capture
    try:
        for spec in SPECS:
            svc.submit(spec)
        _drain(svc)
        svc.submit(H2_SCF.replace(basis="6-31g", label="queued"))
    finally:
        scheduler.append_durable = real
    journal = (home / "campaign.journal").read_bytes()
    assert journal.count(b"\n") == len(states) - 1 == TRANSITIONS + 1
    return home, journal, states


def _install(home, directory, journal: bytes) -> None:
    shutil.copy(home / "campaign.json", directory / "campaign.json")
    (directory / "campaign.journal").write_bytes(journal)


def test_intact_journal_replays_every_transition(journaled, tmp_path):
    home, journal, states = journaled
    _install(home, tmp_path, journal)
    svc, caught = _resume(tmp_path)
    assert not caught
    assert _state(svc) == states[-1]


def test_truncated_final_line_loads_the_intact_prefix(journaled, tmp_path):
    """A crash mid-append at every byte of the last line: the lines
    before it load, with one warning once any byte of it landed."""
    home, journal, states = journaled
    start = journal.rindex(b"\n", 0, len(journal) - 1) + 1
    for cut in range(start, len(journal)):
        _install(home, tmp_path, journal[:cut])
        svc, caught = _resume(tmp_path)
        assert _state(svc) == states[-2], cut
        assert len(caught) == (cut > start), cut
    assert "torn" in str(caught[0].message)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_flipped_byte_loads_the_lines_before_it(journaled, tmp_path, data):
    home, journal, states = journaled
    at = data.draw(st.integers(0, len(journal) - 1), label="offset")
    mask = data.draw(st.integers(1, 255), label="xor")
    damaged = bytearray(journal)
    damaged[at] ^= mask
    _install(home, tmp_path, bytes(damaged))
    svc, caught = _resume(tmp_path)
    assert _state(svc) == states[journal.count(b"\n", 0, at)]
    assert len(caught) == 1 and "damaged" in str(caught[0].message)


def test_transition_after_damage_rewrites_the_snapshot(journaled, tmp_path):
    """Nothing is appended behind a bad line: the next transition
    writes a fresh snapshot, so a reload sees it without a warning."""
    home, journal, _ = journaled
    _install(home, tmp_path, journal[:-5])
    svc, caught = _resume(tmp_path)
    assert len(caught) == 1
    assert (tmp_path / "campaign.journal").read_bytes() == journal[:-5]
    svc.submit(H2_SCF.replace(label="after"))
    assert (tmp_path / "campaign.journal").read_bytes() == b""
    again, caught = _resume(tmp_path)
    assert not caught and _state(again) == _state(svc)


# --- directory states ---------------------------------------------------------


def test_journal_without_snapshot_loads(tmp_path):
    svc = CampaignService(tmp_path, preempt_steps=2)
    for spec in SPECS:
        svc.submit(spec)
    _drain(svc)
    assert not (tmp_path / "campaign.json").exists()
    resumed, caught = _resume(tmp_path)
    assert not caught and _state(resumed) == _state(svc)
    assert {j.status for j in resumed.jobs.values()} == {"done"}


def test_snapshot_without_journal_loads(tmp_path):
    svc = CampaignService(tmp_path, preempt_steps=2)
    for spec in SPECS:
        svc.submit(spec)
    svc.run()
    assert (tmp_path / "campaign.journal").read_bytes() == b""
    (tmp_path / "campaign.journal").unlink()
    resumed, caught = _resume(tmp_path)
    assert not caught and _state(resumed) == _state(svc)


def test_manifest_written_before_the_journal_loads_identically(tmp_path):
    """A ``campaign.json`` from the whole-manifest-rewrite store: the
    same jobs (``running`` rejoins as ``pending``), id sequence and
    counters; the journal then extends it without rewriting it."""
    shutil.copy(FIXTURE, tmp_path / "campaign.json")
    manifest = json.loads(FIXTURE.read_text())
    svc, caught = _resume(tmp_path)
    assert not caught
    expected = {}
    for record in manifest["jobs"]:
        if record["status"] == "running":
            record = dict(record, status="pending")
        expected[record["job_id"]] = record
    assert {i: j.record() for i, j in svc.jobs.items()} == expected
    assert svc._next_id == manifest["next_id"] == 5
    assert svc.metrics.to_dict() == manifest["counters"]

    job = svc.submit(H2_SCF.replace(label="appended"))
    assert (tmp_path / "campaign.json").read_text() == FIXTURE.read_text()
    resumed, caught = _resume(tmp_path)
    assert not caught and _state(resumed) == _state(svc)
    assert resumed.jobs[job.id].spec.label == "appended"


# --- kill and resume ----------------------------------------------------------


def _killed_drain(directory, point, at):
    """Child: drain ``SPECS`` in ``directory``, dying at ``point``."""
    real_append = scheduler.append_durable
    real_write = scheduler.atomic_write_text
    appends = 0

    def append(path, data):
        nonlocal appends
        appends += 1
        if point == "mid-append" and appends == at:
            real_append(path, data[:len(data) // 2])
            os._exit(0)
        real_append(path, data)
        if point == "after-append" and appends == at:
            os._exit(0)

    def write(path, text, **kw):
        real_write(path, text, **kw)
        if point == "mid-compaction" and Path(path).name == "campaign.json":
            os._exit(0)

    scheduler.append_durable = append
    scheduler.atomic_write_text = write
    try:
        svc = CampaignService(directory, preempt_steps=2)
        for spec in SPECS:
            svc.submit(spec)
        svc.run()
    finally:
        os._exit(1)         # the kill point was never reached


def _strip(result):
    """Drop the timing/telemetry fields that legitimately differ."""
    if isinstance(result, dict):
        return {k: _strip(v) for k, v in result.items()
                if k not in ("wall_s", "counters")}
    if isinstance(result, list):
        return [_strip(v) for v in result]
    return result


def _physics(svc):
    """results/ without the bookkeeping a resume legitimately changes."""
    return {r["job_id"]: (r["status"], r["key"], r["label"],
                          _strip(r["result"]))
            for r in svc.store.read_all()}


@pytest.mark.parametrize("point", ["after-append", "mid-append",
                                   "mid-compaction"])
def test_killed_campaign_resumes_without_recompute(tmp_path, point):
    """Killed right after the last append, halfway through it, or
    between the snapshot replace and the journal truncate: the reload
    finishes with no new compute and the results of a clean drain."""
    ref = CampaignService(tmp_path / "ref", preempt_steps=2)
    for spec in SPECS:
        ref.submit(spec)
    ref.run()
    assert ref.metrics.to_dict()["service.journal_appends"] == TRANSITIONS

    home = tmp_path / "killed"
    child = multiprocessing.get_context("fork").Process(
        target=_killed_drain, args=(home, point, TRANSITIONS))
    child.start()
    child.join(120)
    assert child.exitcode == 0, "the drain never reached its kill point"

    resumed, caught = _resume(home)
    assert len(caught) == (point == "mid-append")
    if point == "mid-compaction":
        # the stale journal names the old snapshot: replay skips it
        assert (home / "campaign.journal").stat().st_size > 0
        snap = json.loads((home / "campaign.json").read_text())
        assert [j.record() for _, j in sorted(resumed.jobs.items())] == \
            snap["jobs"]
        assert resumed.metrics.to_dict() == snap["counters"]
    misses = resumed.metrics.to_dict()["service.cache_misses"]
    report = resumed.run()
    assert report["completed"] == len(SPECS) and report["failed"] == 0
    assert report["counters"]["service.cache_misses"] == misses
    assert _physics(resumed) == _physics(ref)


# --- cost, consistency, telemetry ---------------------------------------------


def test_drain_builds_one_record_per_transition(tmp_path, monkeypatch):
    """Each transition serialises its own job once (its results/ record
    and its journal line share it) and compaction each job once — never
    every job on every transition."""
    calls = []
    real = Job.record
    monkeypatch.setattr(Job, "record",
                        lambda self: calls.append(self.id) or real(self))
    svc = CampaignService(tmp_path, preempt_steps=2)
    for spec in SPECS + [H2_SCF.replace(label=f"dup{i}") for i in range(4)]:
        svc.submit(spec)
    report = svc.run()
    njobs = len(SPECS) + 4
    transitions = TRANSITIONS + 2 * 4
    assert report["counters"]["service.journal_appends"] == transitions
    assert report["counters"]["service.compactions"] == 1
    assert len(calls) == transitions + njobs


@pytest.mark.parametrize("transport", [
    "local", pytest.param("process", marks=pytest.mark.transport)])
def test_cache_hit_wall_time_agrees_across_stores(tmp_path, transport):
    """The lookup a cache hit costs is charged before the job retires:
    results/, the journal and the snapshot carry one wall time."""
    svc = CampaignService(tmp_path)
    svc.submit(H2_SCF)
    twin = svc.submit(H2_SCF.replace(label="twin"))
    lanes = ProcessLaneTransport(svc, int(transport == "process"),
                                 svc.config)
    try:
        lanes.drain()
    finally:
        lanes.close()
    wall = svc.jobs[twin.id].wall_s
    assert svc.jobs[twin.id].cache_hit and wall > 0.0
    assert svc.store.read(twin.id)["wall_s"] == wall
    assert CampaignService(tmp_path).jobs[twin.id].wall_s == wall
    svc._compact()
    assert CampaignService(tmp_path).jobs[twin.id].wall_s == wall


def test_journal_and_compaction_are_traced(tmp_path):
    tracer = Tracer(name="campaign")
    svc = CampaignService(tmp_path, config=ExecutionConfig(tracer=tracer),
                          preempt_steps=2)
    for spec in SPECS:
        svc.submit(spec)
    report = svc.run()
    names = [s.name for s in tracer.spans]
    assert names.count("campaign.journal") == TRANSITIONS
    assert names.count("campaign.compact") == 1
    assert report["counters"]["service.journal_appends"] == TRANSITIONS
    assert report["counters"]["service.compactions"] == 1
    assert tracer.metrics.to_dict()["service.compactions"] == 1
