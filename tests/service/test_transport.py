"""The dispatch loop: frame-codec properties, transport resolution,
forked process lanes, worker-death requeue, hang detection, degradation
to the inline lane, parity with the inline (local) reference."""

import functools
import io
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import api
from repro.runtime import ExecutionConfig, Tracer
from repro.service import (CampaignService, FrameError, JobSpec,
                           ProcessLaneTransport, encode_frame, read_frame,
                           try_decode)
from repro.service import transport
from repro.runtime.codec import TAGS
from repro.service.transport import (FRAME_MAGIC, FRAME_VERSION,
                                     MAX_FRAME_BYTES, _FRAME_HEADER,
                                     parse_service_fault)

from ..runtime.codec_values import same

pytestmark = [pytest.mark.service, pytest.mark.transport]

H2_SCF = JobSpec(kind="scf", molecule="h2")
LIH_SCF = JobSpec(kind="scf", molecule="lih")
H2_MD = JobSpec(kind="md", molecule="h2", steps=3, dt_fs=0.5)


def _strip(record):
    """Drop the timing/telemetry fields that legitimately differ."""
    if isinstance(record, dict):
        return {k: _strip(v) for k, v in record.items()
                if k not in ("wall_s", "counters")}
    if isinstance(record, list):
        return [_strip(v) for v in record]
    return record


# --- frame codec: properties --------------------------------------------------

_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=40) | st.binary(max_size=40)
    | hnp.arrays(st.sampled_from([np.float64, np.int64]),
                 hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                                  max_side=4)),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=8).filter(lambda k: k not in TAGS),
                      inner, max_size=4),
    max_leaves=12)


@settings(max_examples=60, deadline=None)
@given(_payloads)
def test_codec_round_trips_arbitrary_payloads(obj):
    frame = encode_frame(obj)
    decoded, consumed = try_decode(frame)
    assert same(decoded, obj) and consumed == len(frame)
    assert same(read_frame(io.BytesIO(frame).read), obj)


@settings(max_examples=60, deadline=None)
@given(_payloads, st.binary(min_size=1, max_size=30))
def test_codec_consumes_exactly_one_frame(obj, trailing):
    frame = encode_frame(obj)
    decoded, consumed = try_decode(frame + trailing)
    assert same(decoded, obj) and consumed == len(frame)


@settings(max_examples=60, deadline=None)
@given(_payloads, st.data())
def test_codec_partial_frame_is_incomplete_not_garbage(obj, data):
    frame = encode_frame(obj)
    cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
    assert try_decode(frame[:cut]) is None


@settings(max_examples=60, deadline=None)
@given(_payloads, st.data())
def test_codec_truncated_stream_raises_not_hangs(obj, data):
    frame = encode_frame(obj)
    cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
    with pytest.raises(FrameError, match="stream ended"):
        read_frame(io.BytesIO(frame[:cut]).read)


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=64))
def test_codec_rejects_garbage_headers(blob):
    # any stream whose first bytes are not a prefix of the magic is
    # diagnosed as garbage immediately, never waited on
    assume(not FRAME_MAGIC.startswith(blob[:len(FRAME_MAGIC)]))
    with pytest.raises(FrameError, match="magic|garbage"):
        try_decode(blob)


def test_codec_refuses_version_mismatch():
    frame = encode_frame({"op": "hb"}, version=FRAME_VERSION + 1)
    with pytest.raises(FrameError, match="version"):
        try_decode(frame)
    with pytest.raises(FrameError, match="version"):
        read_frame(io.BytesIO(frame).read)


def test_codec_refuses_oversize_length():
    header = _FRAME_HEADER.pack(FRAME_MAGIC, FRAME_VERSION,
                                MAX_FRAME_BYTES + 1)
    with pytest.raises(FrameError, match="ceiling"):
        try_decode(header)


def test_codec_diagnoses_undecodable_payload():
    payload = b"\x00not a pickle\xff"
    frame = _FRAME_HEADER.pack(FRAME_MAGIC, FRAME_VERSION,
                               len(payload)) + payload
    with pytest.raises(FrameError, match="undecodable"):
        read_frame(io.BytesIO(frame).read)


def test_a_pickled_payload_never_executes(hostile_pickle):
    """RLNF v2 carries codec payloads: a pickle whose load would run
    code is refused as undecodable at either entry point, and a v1
    (pickle-era) frame is refused by its version before any payload
    byte is read."""
    payload, marker = hostile_pickle
    frame = _FRAME_HEADER.pack(FRAME_MAGIC, FRAME_VERSION,
                               len(payload)) + payload
    with pytest.raises(FrameError, match="undecodable"):
        try_decode(frame)
    with pytest.raises(FrameError, match="undecodable"):
        read_frame(io.BytesIO(frame).read)
    old = _FRAME_HEADER.pack(FRAME_MAGIC, 1, len(payload)) + payload
    with pytest.raises(FrameError, match="version"):
        try_decode(old)
    assert not marker.exists()


def test_codec_refuses_unencodable_messages():
    from repro.runtime.codec import CodecError

    with pytest.raises(CodecError, match="tracer=None"):
        encode_frame({"op": "job", "config": ExecutionConfig(
            tracer=Tracer())})
    with pytest.raises(CodecError):
        encode_frame({"op": "job", "spec": H2_SCF})


# --- fault-spec grammar -------------------------------------------------------

def test_fault_grammar_job_and_worker_kinds():
    assert parse_service_fault(None) is None
    assert parse_service_fault("job=3") == ("job", {3: 1})
    assert parse_service_fault("job=0,times=4") == ("job", {0: 4})
    assert parse_service_fault("worker=1") == ("worker", (1, 1, "kill"))
    assert parse_service_fault("worker=*,exec=2,mode=hang") == \
        ("worker", ("*", 2, "hang"))


@pytest.mark.parametrize("bad", ["sometimes", "job=x", "worker=0,mode=explode",
                                 "worker=0,times=2", "job=1,exec=2",
                                 "worker=0,exec=0", "times=3"])
def test_fault_grammar_rejects_garbage(bad):
    with pytest.raises(ValueError, match="REPRO_SERVICE_FAULT"):
        parse_service_fault(bad)


# --- transport selection ------------------------------------------------------

def test_unknown_transport_rejected(tmp_path):
    svc = CampaignService(tmp_path)
    svc.submit(H2_SCF)
    with pytest.raises(ValueError, match="carrier-pigeon"):
        svc.run(transport="carrier-pigeon")


def test_transport_resolution_by_lane_count(tmp_path):
    """Unnamed, one lane runs local and more run process; a named local
    with more than one lane is refused naming process — on the service,
    the facade and the CLI alike."""
    from repro.cli import main

    for lanes, want in ((1, "local"), (2, "process")):
        svc = CampaignService()
        svc.submit(H2_SCF)
        assert svc.run(nworkers=lanes)["transport"] == want
        assert api.run_campaign([H2_SCF], lanes=lanes)["transport"] == want

    # a named transport beats the lane count, and a named local stays
    # one lane
    assert CampaignService().run(transport="process")["transport"] \
        == "process"
    refusals = [lambda: CampaignService().run(nworkers=2, transport="local"),
                lambda: api.run_campaign([H2_SCF], lanes=2,
                                         transport="local")]
    for refused in refusals:
        with pytest.raises(ValueError, match="'process'"):
            refused()

    d = str(tmp_path / "camp")
    spec_file = tmp_path / "spec.json"
    spec_file.write_text('{"kind": "scf", "molecule": "h2"}')
    assert main(["campaign", "--dir", d, "submit",
                 "--spec", str(spec_file)]) == 0
    with pytest.raises(SystemExit, match="^error: .*'process'"):
        main(["campaign", "--dir", d, "run", "--lanes", "2",
              "--transport", "local"])
    assert CampaignService(d).status()["by_status"] == {"pending": 1}


# --- process lanes: parity with the inline (local) reference -------------------

def test_process_transport_bit_identical_to_local(tmp_path):
    specs = [H2_SCF, LIH_SCF, H2_MD]
    reports = {}
    results = {}
    for name, lanes in (("local", 1), ("process", 2)):
        svc = CampaignService(tmp_path / name)
        for spec in specs:
            svc.submit(spec)
        reports[name] = svc.run(nworkers=lanes, transport=name)
        results[name] = {r["label"]: _strip(r["result"])
                         for r in svc.results()}
    assert reports["local"]["completed"] == 3
    assert reports["process"]["completed"] == 3
    assert reports["process"]["failed"] == 0
    # same energies, same MD coordinates, bit for bit
    assert results["process"] == results["local"]


def test_process_transport_serves_duplicates_from_cache(tmp_path):
    svc = CampaignService(tmp_path)
    svc.submit(H2_SCF)
    svc.submit(LIH_SCF)
    svc.submit(H2_SCF)              # duplicate: one compute, one hit
    report = svc.run(nworkers=2, transport="process")
    assert report["completed"] == 3 and report["failed"] == 0
    assert report["counters"]["service.cache_hits"] == 1
    assert report["counters"]["service.cache_misses"] == 2
    assert report["counters"]["service.frames_sent"] == 2


def test_process_preemption_matches_straight_run(tmp_path):
    straight = CampaignService(tmp_path / "straight")
    straight.submit(JobSpec(kind="md", molecule="h2", steps=6, dt_fs=0.5))
    straight.run()
    sliced = CampaignService(tmp_path / "sliced", preempt_steps=2)
    job = sliced.submit(JobSpec(kind="md", molecule="h2", steps=6,
                                dt_fs=0.5))
    report = sliced.run(transport="process")
    assert report["completed"] == 1
    assert report["counters"]["service.jobs_preempted"] == 2
    ref = _strip(straight.results()[0]["result"]["final"])
    got = _strip(sliced.results()[0]["result"]["final"])
    assert got == ref               # slice boundaries leave no trace


# --- process lanes: fault tolerance -------------------------------------------

def test_worker_kill_requeues_within_budget(tmp_path, monkeypatch):
    ref = CampaignService(tmp_path / "ref")
    ref.submit(H2_SCF)
    ref.run()
    reference = _strip(ref.results()[0]["result"])

    monkeypatch.setenv("REPRO_SERVICE_FAULT", "worker=0,mode=kill")
    svc = CampaignService(tmp_path / "faulty")
    svc.submit(H2_SCF)
    report = svc.run(transport="process")
    c = report["counters"]
    assert report["completed"] == 1 and report["failed"] == 0
    assert c["service.worker_deaths"] == 1
    assert c["service.requeued_jobs"] == 1
    assert c["service.worker_respawns"] == 1
    assert report["jobs"][0]["attempts"] == 1
    # the requeued execution answers exactly what a clean run answers
    assert _strip(svc.results()[0]["result"]) == reference


def test_worker_hang_detected_by_heartbeat_deadline(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SERVICE_FAULT", "worker=*,mode=hang")
    monkeypatch.setenv("REPRO_SERVICE_HEARTBEAT", "0.2")
    svc = CampaignService(tmp_path,
                          config=ExecutionConfig(pool_timeout=2.0))
    svc.submit(H2_SCF)
    report = svc.run(transport="process")
    c = report["counters"]
    assert report["completed"] == 1 and report["failed"] == 0
    assert c["service.worker_deaths"] == 1
    assert c["service.requeued_jobs"] == 1


def test_job_exhausting_budget_fails_only_itself(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SERVICE_FAULT", "worker=0,exec=1,mode=kill")
    svc = CampaignService(tmp_path,
                          config=ExecutionConfig(pool_max_retries=2),
                          max_retries=0)
    svc.submit(H2_SCF)
    svc.submit(LIH_SCF)
    report = svc.run(transport="process")
    by_id = {j["id"]: j for j in report["jobs"]}
    assert by_id[0]["status"] == "failed"
    assert "LaneWorkerDeath" in by_id[0]["error"]
    assert by_id[1]["status"] == "done"     # isolation: never the campaign


def test_all_lanes_dead_degrades_to_local(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SERVICE_FAULT", "worker=*,mode=kill")
    tracer = Tracer(name="campaign")
    svc = CampaignService(tmp_path,
                          config=ExecutionConfig(pool_max_retries=0,
                                                 tracer=tracer),
                          max_retries=3)
    svc.submit(H2_SCF)
    svc.submit(LIH_SCF)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = svc.run(nworkers=2, transport="process")
    assert report["completed"] == 2 and report["failed"] == 0
    assert report["counters"]["service.degraded_drains"] == 1
    assert [str(w.message) for w in caught].count(
        "every process lane worker is dead and the respawn budget is "
        "exhausted; degrading the campaign drain to one inline lane in "
        "this process") == 1
    # the inline remainder runs traced: its jobs' spans sit after the
    # degrade span on the campaign tracer
    names = [s.name for s in sorted(tracer.spans, key=lambda s: s.start)]
    assert names.count("transport.degrade") == 1
    assert names.count("transport.requeue") == 2
    after = names[names.index("transport.degrade"):]
    assert after.count("scf.setup") == 2 and "scf.iteration" in after


def test_traced_process_drain_keeps_dispatch_spans_and_counters(tmp_path):
    tracer = Tracer(name="campaign")
    svc = CampaignService(tmp_path, config=ExecutionConfig(tracer=tracer))
    for spec in (H2_SCF, LIH_SCF, H2_SCF.replace(label="twin")):
        svc.submit(spec)
    report = svc.run(nworkers=2)
    assert report["transport"] == "process" and report["completed"] == 3
    names = [s.name for s in tracer.spans]
    assert names.count("transport.dispatch") == 2
    assert "scf.setup" not in names     # process lanes run untraced
    counters = tracer.metrics.to_dict()
    for name in ("service.jobs_submitted", "service.jobs_completed",
                 "service.cache_hits", "service.cache_misses",
                 "service.frames_sent", "service.frames_recv",
                 "service.journal_appends", "service.compactions"):
        assert counters[name] == report["counters"][name], name
    assert counters["service.frames_sent"] == 2


def _wrong_job(msg):
    return encode_frame({"op": "result", "job_id": msg["job_id"] + 99,
                         "ok": True, "result": {}})


def _rogue_lane(sock, wid, gen, *, reply, honest=transport._lane_worker_main):
    """A live lane worker that breaks the protocol once: generation 0
    answers its first job with ``reply(msg)`` and idles until the
    parent hangs up; the respawn is the real worker."""
    if gen > 0:
        return honest(sock, wid, gen)
    sock.sendall(reply(read_frame(sock.makefile("rb").read)))
    sock.recv(1)


@pytest.mark.parametrize("reply, complaint", [
    (lambda msg: b"not a frame at all", "corrupt frame"),
    (_wrong_job, "answered job"),
])
def test_protocol_violation_takes_the_death_path(tmp_path, monkeypatch,
                                                 reply, complaint):
    monkeypatch.setattr(transport, "_lane_worker_main",
                        functools.partial(_rogue_lane, reply=reply))
    svc = CampaignService(tmp_path)
    svc.submit(H2_SCF)
    with pytest.warns(RuntimeWarning, match=complaint):
        report = svc.run(transport="process")
    c = report["counters"]
    assert report["completed"] == 1 and report["failed"] == 0
    assert c["service.worker_deaths"] == 1
    assert c["service.requeued_jobs"] == 1
    assert c["service.worker_respawns"] == 1
    assert report["jobs"][0]["attempts"] == 1


def test_hanging_up_on_live_lanes_does_not_wait_out_the_grace(
        tmp_path, monkeypatch):
    """Both lanes break the protocol while alive and the budget allows
    no respawn: each reap hangs up on a worker that now reads EOF and
    leaves at once (it used to sit out one 5 s grace per lane), the
    drain degrades, and ``close()`` has nothing left to wait for."""
    monkeypatch.setattr(transport, "_lane_worker_main",
                        functools.partial(_rogue_lane, reply=_wrong_job))
    svc = CampaignService(tmp_path,
                          config=ExecutionConfig(pool_max_retries=0),
                          max_retries=3)
    svc.submit(H2_SCF)
    svc.submit(LIH_SCF)
    lanes = ProcessLaneTransport(svc, 2, svc.config)
    procs = [s.proc for s in lanes._sup.slots]
    t0 = time.monotonic()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lanes.drain()
    t1 = time.monotonic()
    assert any("degrading" in str(w.message) for w in caught)
    lanes.close()
    assert time.monotonic() - t1 < 1.0 and t1 - t0 < 3.0
    assert [p.exitcode for p in procs] == [0, 0]
    assert not svc._has_pending()


def test_heartbeat_must_undercut_the_timeout(tmp_path, monkeypatch):
    """A heartbeat no shorter than the hang deadline would reap every
    job outliving the deadline as hung: refused before anything forks."""
    from multiprocessing.process import BaseProcess

    monkeypatch.setattr(BaseProcess, "start",
                        lambda self: pytest.fail("forked a lane"))
    monkeypatch.setenv("REPRO_SERVICE_HEARTBEAT", "5")
    monkeypatch.setenv("REPRO_POOL_TIMEOUT", "2")
    svc = CampaignService(tmp_path)
    svc.submit(H2_SCF)
    with pytest.raises(ValueError, match="REPRO_SERVICE_HEARTBEAT must be "
                                         "shorter than REPRO_POOL_TIMEOUT"):
        svc.run(transport="process")
    monkeypatch.setenv("REPRO_SERVICE_HEARTBEAT", "2")      # equal: refused
    with pytest.raises(ValueError, match=r"\(2 s\), got 2"):
        ProcessLaneTransport(svc, 1, svc.config)


def test_injected_job_fault_works_across_transports(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SERVICE_FAULT", "job=0,times=1")
    svc = CampaignService(tmp_path, max_retries=1)
    svc.submit(H2_SCF)
    report = svc.run(transport="process")
    assert report["completed"] == 1
    assert report["jobs"][0]["attempts"] == 1
    assert report["counters"]["service.jobs_retried"] == 1


# --- lifecycle ----------------------------------------------------------------

def test_close_reaps_every_lane_worker(tmp_path):
    svc = CampaignService(tmp_path)
    lanes = ProcessLaneTransport(svc, 2, svc.config)
    procs = [s.proc for s in lanes._sup.slots]
    assert all(p.is_alive() for p in procs)
    lanes.drain()                   # empty queue: returns immediately
    lanes.close()
    lanes.close()                   # idempotent
    assert all(not p.is_alive() for p in procs)
    assert all(s.proc is None and s.chan is None for s in lanes._sup.slots)


def test_local_transport_is_one_inline_lane(tmp_path, monkeypatch):
    """No lane worker forks: the loop runs every job in this process,
    recorded the moment it returns, with no frame on any wire."""
    from multiprocessing.process import BaseProcess

    monkeypatch.setattr(BaseProcess, "start",
                        lambda self: pytest.fail("forked a lane"))
    svc = CampaignService(tmp_path)
    svc.submit(H2_SCF)
    svc.submit(H2_SCF.replace(label="twin"))
    lanes = ProcessLaneTransport(svc, 0, svc.config)
    assert lanes._sup.slots == []
    lanes.drain()
    lanes.close()
    assert svc.status()["by_status"] == {"done": 2}
    counters = svc.metrics.to_dict()
    assert counters["service.cache_hits"] == 1
    assert "service.frames_sent" not in counters
