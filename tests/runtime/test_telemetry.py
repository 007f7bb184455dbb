"""Tests for the hierarchical span tracer and metrics registry."""

import json

import numpy as np
import pytest

from repro.runtime.telemetry import (NULL_TRACER, MetricsRegistry, NullTracer,
                                     Span, TelemetrySnapshot, Tracer,
                                     chrome_trace)


def test_span_nesting_depth_and_parent():
    tr = Tracer("t")
    with tr.span("outer"):
        with tr.span("inner"):
            with tr.span("leaf"):
                pass
        with tr.span("sibling"):
            pass
    by = {s.name: s for s in tr.spans}
    assert by["outer"].depth == 0 and by["outer"].parent is None
    assert by["inner"].depth == 1 and by["inner"].parent == 0
    assert by["leaf"].depth == 2 and by["leaf"].parent == 1
    assert by["sibling"].depth == 1 and by["sibling"].parent == 0
    # sequence numbers are the logical creation order
    assert [s.seq for s in tr.spans] == [1, 2, 3, 4]
    # all closed with non-negative durations
    assert all(s.duration >= 0.0 for s in tr.spans)


def test_span_closes_on_exception():
    tr = Tracer("t")
    with pytest.raises(RuntimeError):
        with tr.span("boom"):
            raise RuntimeError("x")
    s = tr.spans[0]
    assert s.end == s.end  # not NaN: closed despite the raise
    assert not tr._stack


def test_span_ctx_add_args():
    tr = Tracer("t")
    with tr.span("work", cat="scf", nbf=7) as ctx:
        ctx.add(niter=3)
    assert tr.spans[0].args == {"nbf": 7, "niter": 3}
    assert tr.spans[0].cat == "scf"


def test_add_span_nests_under_open_span():
    tr = Tracer("t")
    with tr.span("pool.wait"):
        tr.add_span("worker.quartet_batch", 1.0, 2.0, tid="worker-3",
                    rank=1)
    s = tr.spans[1]
    assert s.parent == 0 and s.depth == 1
    assert s.tid == "worker-3"
    assert s.duration == 1.0


def test_snapshot_summary_and_to_dict():
    tr = Tracer("run")
    with tr.span("a"):
        with tr.span("b"):
            pass
    with tr.span("b"):
        pass
    tr.metrics.count("quartets", 42)
    snap = tr.snapshot()
    summ = snap.summary()
    assert summ["nspans"] == 3
    assert summ["span_totals"]["b"]["calls"] == 2
    assert summ["wall_s"] >= summ["span_totals"]["a"]["total_s"]
    assert summ["counters"] == {"quartets": 42}
    d = snap.to_dict()
    json.dumps(d)  # fully serializable
    assert len(d["spans"]) == 3
    assert snap.by_category()  # nonempty


def test_snapshot_closes_open_spans():
    tr = Tracer("t")
    ctx = tr.span("open")
    snap = tr.snapshot()
    assert snap.spans[0].end == snap.spans[0].end  # not NaN
    ctx.__exit__(None, None, None)


def test_chrome_trace_structure():
    tr = Tracer("run")
    with tr.span("outer", cat="scf"):
        with tr.span("inner", cat="quartets"):
            pass
    tr.count("n", 3)
    doc = tr.chrome_trace()
    text = json.dumps(doc)
    doc2 = json.loads(text)
    events = doc2["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in xs} == {"outer", "inner"}
    assert all(e["pid"] == 1 for e in xs)
    assert all(e["dur"] >= 0 for e in xs)
    # metadata names the lanes
    meta = [e for e in events if e["ph"] == "M"]
    assert any(e["name"] == "thread_name" for e in meta)
    # counters ride along as an instant event
    inst = [e for e in events if e["ph"] == "i"]
    assert inst and inst[0]["args"] == {"n": 3}


def test_write_chrome_trace(tmp_path):
    tr = Tracer("t")
    with tr.span("x"):
        pass
    path = tmp_path / "trace.json"
    assert tr.write_chrome_trace(path) == 1
    doc = json.loads(path.read_text())
    assert any(e["name"] == "x" for e in doc["traceEvents"])


def test_null_tracer_is_inert(tmp_path):
    nt = NULL_TRACER
    assert isinstance(nt, NullTracer) and not nt.enabled
    with nt.span("anything", cat="x", foo=1) as ctx:
        ctx.add(bar=2)
    nt.add_span("a", 0.0, 1.0)
    nt.count("c", 5)
    nt.metrics.count("d", 5)
    nt.metrics.set("e", 5)
    assert nt.spans == []
    assert nt.metrics.to_dict() == {}
    assert nt.snapshot().spans == ()
    # the exporters still produce valid (empty) documents
    path = tmp_path / "empty.json"
    assert nt.write_chrome_trace(path) == 0
    json.loads(path.read_text())


def test_null_tracer_shares_span_ctx():
    nt = NULL_TRACER
    assert nt.span("a") is nt.span("b")


def test_metrics_count_and_set():
    m = MetricsRegistry()
    m.count("a")
    m.count("a", 2)
    m.set("b", 7.5)
    m.set("b", 2.5)
    assert m.get("a") == 3
    assert m.get("b") == 2.5
    assert m.get("missing", -1) == -1
    assert m.to_dict() == {"a": 3, "b": 2.5}


def test_metrics_absorbers():
    m = MetricsRegistry()

    class FakeEngine:
        quartets_computed = 10
        quartets_screening = 4

    m.absorb_engine(FakeEngine())
    assert m.get("eri.quartets_computed") == 10
    # gauge semantics: re-absorbing never double counts
    m.absorb_engine(FakeEngine())
    assert m.get("eri.quartets_computed") == 10


def test_profile_table_renders():
    from repro.analysis.report import profile_table

    tr = Tracer("t")
    with tr.span("jk.build"):
        with tr.span("jk.screen"):
            pass
    tr.count("jk.quartets", 128)
    text = profile_table(tr.snapshot(), title="test profile")
    assert "jk.build" in text and "jk.screen" in text
    assert "jk.quartets" in text
    assert "test profile" in text
    # row capping reports what was dropped
    capped = profile_table(tr.snapshot(), max_rows=1)
    assert "more spans" in capped


def test_mis_nested_close_recovers():
    tr = Tracer("t")
    outer = tr.span("outer")
    inner = tr.span("inner")
    # closing the outer first unwinds the stack past the inner
    outer.__exit__(None, None, None)
    assert not tr._stack
    with tr.span("next"):
        pass
    assert tr.spans[-1].depth == 0
