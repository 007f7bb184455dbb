import pytest

from bench import layers
from bench.tracing import (Patcher, SpanTracer, chrome_trace,
                           count_with_ancestor, leftover_wrappers, self_times)


def _tree():
    """root[0,10] > a[1,4] > b[2,3]; root > a[5,9] > (b[5,6], c[6,8])."""
    return [["root", 0.0, 10.0, -1, None], ["a", 1.0, 4.0, 0, None],
            ["b", 2.0, 3.0, 1, None], ["a", 5.0, 9.0, 0, None],
            ["b", 5.0, 6.0, 3, None], ["c", 6.0, 8.0, 3, None]]


def test_self_time_is_span_minus_direct_children():
    agg = self_times(_tree())
    assert agg["root"]["self_s"] == pytest.approx(10 - 3 - 4)
    assert agg["a"]["self_s"] == pytest.approx((3 - 1) + (4 - 1 - 2))
    assert agg["b"]["self_s"] == pytest.approx(2.0)
    assert agg["c"]["self_s"] == pytest.approx(2.0)
    assert agg["a"]["calls"] == 2 and agg["a"]["total_s"] == pytest.approx(7)
    # the self times of a tree add up to its root, exactly
    assert sum(v["self_s"] for v in agg.values()) == pytest.approx(10.0)


def test_ancestor_count_and_chrome_trace():
    spans = _tree()
    assert count_with_ancestor(spans, "b", "a") == 2
    assert count_with_ancestor(spans, "c", "root") == 1
    assert count_with_ancestor(spans, "a", "b") == 0
    events = chrome_trace(spans, label="t")["traceEvents"]
    assert len(events) == 6 and events[2]["args"]["parent"] == 1
    assert events[5]["ts"] == pytest.approx(6e6)
    assert events[5]["dur"] == pytest.approx(2e6)


def test_wrapper_records_nesting_and_runs_hook_after_the_span():
    tracer = SpanTracer()
    seen = []
    inner = tracer.wrap("inner", lambda x: x + 1,
                        lambda tr, rec, a, k, out: seen.append((rec[0], out)))
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    assert seen == [("inner", 2)] and tracer.stack == []

    boom = tracer.wrap("boom", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        boom()
    assert tracer.stack == [] and tracer.spans[-1][2] >= tracer.spans[-1][1]


def test_wrappers_are_removed_after_the_traced_pass():
    import importlib

    for modname in layers.REACHABLE:
        importlib.import_module(modname)
    import repro.integrals.eri as eri_mod
    import repro.scf.rhf as rhf_mod
    from repro import api
    from repro.scf.grid import MolecularGrid
    from repro.scf.rhf import RHF
    from repro.service import JobSpec

    def bindings():
        return (eri_mod.eri_tensor, rhf_mod.eri_tensor, vars(RHF)["run"],
                vars(MolecularGrid)["build"])

    originals = bindings()
    spec = JobSpec(kind="scf", molecule="h2", method="pbe0")
    tracer = SpanTracer()
    with Patcher(tracer) as patcher:
        patcher.install(layers.JOB + layers.PARENT)
        # one wrapper object replaces every binding of the function
        assert rhf_mod.eri_tensor is eri_mod.eri_tensor
        assert rhf_mod.eri_tensor is not originals[1]
        assert leftover_wrappers()
        traced = api.run_scf(spec)
    assert leftover_wrappers() == []
    assert all(now is was for now, was in zip(bindings(), originals))
    assert {"scf.run", "integrals.eri_tensor", "integrals.one_electron",
            "scf.grid.build", "scf.dft.xc"} <= {s[0] for s in tracer.spans}
    # the untraced run calls the original objects: nothing is recorded
    nspans = len(tracer.spans)
    assert api.run_scf(spec)["scf"]["energy"] == traced["scf"]["energy"]
    assert len(tracer.spans) == nspans

    metrics, _timings = layers.layer_metrics(tracer)
    assert metrics["scf.run.calls"] == 1 and metrics["scf.unconverged"] == 0
    assert metrics["integrals.quartet_batch.quartets"] == 0
    assert metrics["integrals.eri_tensor.quartets"] == 6    # 2 shells
