"""F17 — lane kinds: the inline serial reference vs forked-process lanes.

The campaign dispatch loop runs a job either on its inline lane (in
the campaign process, one job at a time — ``transport="local"``) or on
forked lane workers that speak a framed RPC protocol over socketpairs
— real OS processes that the kernel can schedule on real cores.  The
Python-heavy SCF path holds the GIL, so only process lanes can
overlap compute.

Three legs, one GIL-bound SCF mix (perturbed water geometries — every
spec a distinct cache key, no dedup shortcuts):

* **local, 1 inline lane** — the serial reference;
* **process, 4 lanes** — must answer float-for-float what the inline
  lane answers, and on a multi-core host must win wall-clock;
* **process + injected worker kill** (``worker=0,mode=kill``) — the
  leased job is requeued against its retry budget, the dead lane is
  respawned, and the campaign's answers must *still* match the clean
  reference exactly.

On a single-core container the speedup leg can only demonstrate
correctness — the assertion arms itself only when at least ``NLANES``
cores are usable (the F9 convention).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.runtime.pool import default_nworkers
from repro.service import CampaignService, JobSpec

NJOBS = int(os.environ.get("REPRO_BENCH_TRANSPORT_JOBS", "6"))
NLANES = 4
SPEEDUP_FLOOR = 1.5

pytestmark = pytest.mark.transport

SPECS = [JobSpec(kind="scf", molecule="water", perturb=0.02,
                 perturb_seed=i, label=f"water/p{i}")
         for i in range(NJOBS)]


def _strip(record):
    """Drop the timing/telemetry fields that legitimately differ."""
    if isinstance(record, dict):
        return {k: _strip(v) for k, v in record.items()
                if k not in ("wall_s", "counters")}
    if isinstance(record, list):
        return [_strip(v) for v in record]
    return record


def _drain(home, transport, lanes=NLANES):
    svc = CampaignService(home)
    for spec in SPECS:
        svc.submit(spec)
    t0 = time.perf_counter()
    rep = svc.run(nworkers=lanes, transport=transport)
    wall = time.perf_counter() - t0
    answers = {r["label"]: _strip(r["result"]) for r in svc.results()}
    return wall, rep, answers


def test_f17_transport_lanes(tmp_path, report, monkeypatch):
    monkeypatch.delenv("REPRO_SERVICE_FAULT", raising=False)
    t_local, rep_local, ans_local = _drain(tmp_path / "local", "local", 1)
    t_proc, rep_proc, ans_proc = _drain(tmp_path / "process", "process")

    monkeypatch.setenv("REPRO_SERVICE_FAULT", "worker=0,mode=kill")
    t_fault, rep_fault, ans_fault = _drain(tmp_path / "fault", "process")

    speedup = t_local / t_proc
    cores = default_nworkers()
    cf = rep_fault["counters"]
    report(
        f"campaign          {NJOBS} GIL-bound SCF jobs "
        f"(perturbed water, all distinct keys)\n"
        f"lanes             1 inline vs {NLANES} process  "
        f"({cores} usable cores)\n"
        f"t(inline lane)    {t_local:.3f} s   (serial, in the campaign "
        f"process)\n"
        f"t(process lanes)  {t_proc:.3f} s   (forked workers, framed RPC)\n"
        f"speedup           {speedup:.2f}x   "
        f"(floor {SPEEDUP_FLOOR}x armed at >= {NLANES} cores)\n"
        f"answers           process == local: {ans_proc == ans_local}\n"
        f"fault leg         worker=0 killed: "
        f"{cf.get('service.worker_deaths', 0)} death(s), "
        f"{cf.get('service.requeued_jobs', 0)} requeue(s), "
        f"{cf.get('service.worker_respawns', 0)} respawn(s), "
        f"{rep_fault['completed']}/{NJOBS} completed in {t_fault:.3f} s\n"
        f"fault answers     identical to clean local reference: "
        f"{ans_fault == ans_local}"
    )

    # correctness: every leg completes everything, answers bit-identical
    assert rep_local["completed"] == NJOBS and rep_local["failed"] == 0
    assert rep_proc["completed"] == NJOBS and rep_proc["failed"] == 0
    assert ans_proc == ans_local

    # the killed worker's lease was requeued and recovered
    assert rep_fault["completed"] == NJOBS and rep_fault["failed"] == 0
    assert cf["service.worker_deaths"] >= 1
    assert cf["service.requeued_jobs"] >= 1
    assert ans_fault == ans_local

    # throughput: armed only where the cores exist to show it
    if cores >= NLANES:
        assert speedup >= SPEEDUP_FLOOR
