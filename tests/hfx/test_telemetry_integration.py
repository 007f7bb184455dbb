"""Telemetry integration contracts on the real hot paths.

* a traced RHF + process-pool run exports a valid Chrome trace with
  nested spans for screening, quartet batches, and per-worker dispatch;
* telemetry is observation-only: tracing on vs off leaves the SCF
  energies and the J/K matrices bitwise identical.
"""

import json

import numpy as np
import pytest

from repro.chem import builders
from repro.runtime import ExecutionConfig, Tracer
from repro.scf import DirectJKBuilder, run_rhf


def test_tracing_does_not_change_results():
    """Parity: identical energies and bitwise-identical J/K with
    telemetry enabled vs disabled (serial reference path)."""
    mol = builders.water()
    ref = run_rhf(mol, mode="direct")
    tr = Tracer("parity")
    res = run_rhf(mol, mode="direct", config=ExecutionConfig(tracer=tr))
    assert res.energy == ref.energy
    assert res.history == ref.history
    np.testing.assert_array_equal(res.F, ref.F)
    np.testing.assert_array_equal(res.D, ref.D)
    assert len(tr.spans) > 0

    from repro.basis import build_basis

    basis = build_basis(mol)
    plain = DirectJKBuilder(basis, eps=1e-11)
    traced = DirectJKBuilder(basis, eps=1e-11,
                             config=ExecutionConfig(tracer=Tracer("jk")))
    J0, K0 = plain.build(ref.D)
    J1, K1 = traced.build(ref.D)
    np.testing.assert_array_equal(J1, J0)
    np.testing.assert_array_equal(K1, K0)


@pytest.mark.pool
def test_traced_pool_run_chrome_trace(tmp_path):
    """Acceptance: Chrome-trace export from a traced RHF + pool run
    loads as valid JSON and shows the nested span hierarchy."""
    tr = Tracer("pool-run")
    cfg = ExecutionConfig(executor="process", nworkers=2, tracer=tr)
    res = run_rhf(builders.water(), mode="direct", config=cfg)
    assert res.converged

    path = tmp_path / "trace.json"
    nspans = tr.write_chrome_trace(path)
    assert nspans == len(tr.spans) > 0
    doc = json.loads(path.read_text())
    events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    names = {e["name"] for e in events}
    assert "jk.screen" in names            # screening
    assert "worker.rank_job" in names      # per-worker rank jobs
    assert "pool.dispatch" in names        # per-worker dispatch
    assert "pool.wait" in names

    spans = {i: s for i, s in enumerate(tr.spans)}
    # nesting: screening and dispatch live under jk.build, which lives
    # under scf.iteration
    def chain(s):
        names = []
        while s.parent is not None:
            s = spans[s.parent]
            names.append(s.name)
        return names

    screen = next(s for s in tr.spans if s.name == "jk.screen")
    assert "jk.build" in chain(screen)
    assert "scf.iteration" in chain(screen)
    dispatch = next(s for s in tr.spans if s.name == "pool.dispatch")
    assert "jk.build" in chain(dispatch)
    # worker rank jobs carry per-worker lanes and nest under pool.wait
    batches = [s for s in tr.spans if s.name == "worker.rank_job"]
    assert batches
    assert {s.tid for s in batches} <= {"worker-0", "worker-1"}
    assert {s.args["unit"] for s in batches} == {"eval_screened_pairs"}
    assert all("pool.wait" in chain(s) for s in batches)
    # per-rank batch timestamps are parent-comparable perf_counter times
    wait = next(s for s in tr.spans if s.name == "pool.wait")
    assert all(s.start >= wait.start - 1.0 for s in batches)

    # pool metrics were absorbed; the quartets are the J/K builder's
    assert tr.metrics.get("pool.builds") >= 1
    assert tr.metrics.get("jk.quartets") > 0


@pytest.mark.pool
@pytest.mark.ri
def test_pooled_ri_scf_traces_no_quartets():
    """A pooled RI SCF evaluates no four-index quartet, and its trace
    says so: the 3-index shards are ``worker.rank_job`` spans of the
    slab unit, counted by ``scf.ri_ints3c`` alone."""
    tr = Tracer("pool-ri")
    cfg = ExecutionConfig(executor="process", nworkers=2, jk="ri",
                          tracer=tr)
    res = run_rhf(builders.water(), mode="direct", config=cfg)
    assert res.converged
    counters = tr.snapshot().counters
    assert counters["scf.ri_ints3c"] > 0
    # the absorbed ERI-engine gauges read zero: workers own the engines
    assert {k: v for k, v in counters.items() if "quartet" in k and v} == {}
    assert not [s.name for s in tr.spans if "quartet" in s.name]
    jobs = [s for s in tr.spans if s.name == "worker.rank_job"]
    assert jobs and {s.args["unit"] for s in jobs} == {"_slab_unit"}


@pytest.mark.pool
def test_pool_parity_traced_vs_untraced():
    """The pool path is also observation-only under tracing."""
    mol = builders.water()
    ref = run_rhf(mol, mode="direct",
                  config=ExecutionConfig(executor="process", nworkers=2))
    res = run_rhf(mol, mode="direct",
                  config=ExecutionConfig(executor="process", nworkers=2,
                                         tracer=Tracer("t")))
    assert res.energy == ref.energy
    assert res.niter == ref.niter
