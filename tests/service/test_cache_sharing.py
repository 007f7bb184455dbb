"""Cross-campaign cache sharing: separate CampaignService *processes*
pointed at one cache directory dedup each other's work, and concurrent
writers can only ever race complete records."""

import hashlib
import json
import multiprocessing as mp
import time

import pytest

from repro import api
from repro.runtime.schema import result_envelope
from repro.service import CampaignService, JobSpec, ResultCache, transport

pytestmark = [pytest.mark.service, pytest.mark.transport]

H2_SCF = JobSpec(kind="scf", molecule="h2")

_ctx = mp.get_context("fork")


def _run_campaign(home, cache_dir, barrier, queue):
    """One child campaign: submit the shared spec, drain, report."""
    svc = CampaignService(home, cache_dir=cache_dir)
    svc.submit(H2_SCF)
    barrier.wait(timeout=30)
    report = svc.run()
    result = svc.results()[0]["result"]
    queue.put({"counters": report["counters"],
               "energy": result["scf"]["energy"],
               "completed": report["completed"]})


def test_second_campaign_hits_first_campaigns_cache(tmp_path):
    shared = tmp_path / "shared-cache"
    first = CampaignService(tmp_path / "a", cache_dir=shared)
    first.submit(H2_SCF)
    first.run()
    second = CampaignService(tmp_path / "b", cache_dir=shared)
    second.submit(H2_SCF)
    report = second.run()
    assert report["completed"] == 1
    assert report["counters"]["service.cache_hits"] == 1
    assert "service.cache_misses" not in report["counters"]
    # byte-identical record, straight from the first campaign's compute
    assert second.results()[0]["result"] == first.results()[0]["result"]


def test_concurrent_campaigns_share_one_compute(tmp_path):
    """Two campaigns in two processes, one cache dir, one duplicate
    spec, released simultaneously: exactly one compute happens — the
    per-key lock makes the loser wait and then hit the cache."""
    shared = tmp_path / "shared-cache"
    barrier = _ctx.Barrier(2)
    queue = _ctx.Queue()
    procs = [_ctx.Process(target=_run_campaign,
                          args=(tmp_path / name, shared, barrier, queue))
             for name in ("a", "b")]
    for p in procs:
        p.start()
    outcomes = [queue.get(timeout=120) for _ in procs]
    for p in procs:
        p.join(timeout=30)
        assert p.exitcode == 0
    assert all(o["completed"] == 1 for o in outcomes)
    hits = sum(o["counters"].get("service.cache_hits", 0)
               for o in outcomes)
    misses = sum(o["counters"].get("service.cache_misses", 0)
                 for o in outcomes)
    assert misses == 1 and hits == 1    # deterministic, any interleaving
    energies = {o["energy"] for o in outcomes}
    assert len(energies) == 1           # both serve the one computed answer


def test_inline_lane_sleeps_until_a_locked_key_is_due(tmp_path,
                                                      monkeypatch):
    """A key a twin campaign is computing is skipped, and the inline lane
    sleeps until the key's retry time instead of spinning; the twin's
    record then serves it without a compute here."""
    shared = tmp_path / "shared-cache"
    svc = CampaignService(tmp_path / "camp", cache_dir=shared)
    job = svc.submit(H2_SCF)
    twin = ResultCache(shared)
    held = twin.try_lock(job.key)
    record = api.run_scf(H2_SCF)
    naps = []
    real_sleep = time.sleep

    def nap(seconds):
        naps.append(seconds)
        real_sleep(seconds)
        if len(naps) == 2:          # the twin lands its record, lets go
            twin.put(job.key, record)
            held.release()

    monkeypatch.setattr(transport.time, "sleep", nap)
    report = svc.run()
    assert report["transport"] == "local" and report["completed"] == 1
    assert report["counters"]["service.cache_hits"] == 1
    assert "service.cache_misses" not in report["counters"]
    assert len(naps) == 2
    assert all(0.02 < s <= transport._EXTERN_RETRY for s in naps)


def _hammer(cache_dir, nrecords, salt, barrier):
    cache = ResultCache(cache_dir)
    barrier.wait(timeout=30)
    for i in range(nrecords):
        # half shared keys (contended), half private to this writer
        tag = f"key-{i}" if i % 2 == 0 else f"key-{salt}-{i}"
        key = hashlib.sha256(tag.encode()).hexdigest()
        cache.put(key, result_envelope("stress", wall_s=0.0,
                                       writer=salt, index=i))


def test_concurrent_writers_leave_every_record_readable(tmp_path):
    """Writer processes hammering one cache directory — contended and
    private keys alike — never leave a torn or unreadable record."""
    shared = tmp_path / "cache"
    nwriters, nrecords = 4, 25
    barrier = _ctx.Barrier(nwriters)
    procs = [_ctx.Process(target=_hammer,
                          args=(shared, nrecords, w, barrier))
             for w in range(nwriters)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0
    cache = ResultCache(shared)
    paths = sorted(shared.glob("*.json"))
    assert len(cache) == len(paths) > nrecords
    for path in paths:
        record = json.loads(path.read_text())     # parses...
        hit = cache.get(path.stem)
        assert hit == record                      # ...and passes the
        assert hit["kind"] == "stress"            # envelope check
    assert not list(shared.glob("*.tmp"))         # no temp droppings
