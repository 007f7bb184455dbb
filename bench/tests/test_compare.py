import copy

import pytest

from bench.compare import compare, gates
from bench.stats import summarize


def _entry(values, unit="s"):
    return {"unit": unit, "values": list(values), **summarize(values)}


def _record(wall=(20.0, 20.2, 19.9), failed_frac=(0.0, 0.0, 0.0)):
    return {"workloads": {"scf_direct_ladder": {
        "end_to_end": {
            "wall_s": _entry(wall), "setup_s": _entry((0.60, 0.62, 0.61)),
            "jobs_per_s": _entry([4 / w for w in wall], "1/s"),
            "peak_rss_mb": _entry((150.0, 150.5, 151.0), "MB"),
            "failed_frac": _entry(failed_frac, "frac")},
        "per_layer": {"wall_s_per_fs": _entry((0.0, 0.0, 0.0), "s/fs"),
                      "warm_jobs_per_s": _entry((0.0, 0.0, 0.0), "1/s")}}}}


def _verdicts(rows):
    return {row[1]: row[5] for row in rows}


def test_gates_cover_the_declared_and_the_local_metrics():
    g = gates()
    assert {"wall_s", "setup_s", "jobs_per_s", "peak_rss_mb",
            "wall_s_per_fs", "warm_jobs_per_s", "failed_frac"} == set(g)
    assert g["setup_s"]["bound"] == max(m["bound"] for m in g.values())


def test_a_versus_a_passes():
    rows, regressions, unresolved = compare(_record(), _record())
    assert (regressions, unresolved) == (0, 0)
    assert set(_verdicts(rows).values()) == {"ok"}
    # a workload without the figure gets no wall_s_per_fs row at all
    assert "wall_s_per_fs" not in _verdicts(rows)


def _slowed(factor):
    return _record(wall=tuple(w * factor for w in (20.0, 20.2, 19.9)))


def test_slowdown_beyond_the_declared_bound_is_a_regression():
    bound = gates()["wall_s"]["bound"]
    rows, regressions, _ = compare(_record(), _slowed(1 + bound + 0.10))
    v = _verdicts(rows)
    assert v["wall_s"] == "REGRESSION" and v["jobs_per_s"] == "REGRESSION"
    assert v["peak_rss_mb"] == "ok" and regressions == 2
    # inside the bound it is not, and neither is the same distance faster
    assert compare(_record(), _slowed(1 + bound - 0.05))[1] == 0
    assert compare(_slowed(1 + bound + 0.10), _record())[1] == 0


def test_any_failed_frac_rise_is_a_regression():
    bad = _record(failed_frac=(0.01, 0.01, 0.01))
    rows, regressions, _ = compare(_record(), bad)
    assert _verdicts(rows)["failed_frac"] == "REGRESSION" and regressions == 1


def test_noisy_parent_is_unresolved_not_unchanged():
    noisy = _record(wall=(14.0, 20.0, 26.0))          # spread 60 % > bound
    rows, regressions, unresolved = compare(noisy, _record())
    assert _verdicts(rows)["wall_s"] == "unresolved"
    assert regressions == 0 and unresolved >= 1
    # unless every run of the change beats every run of the parent
    fast = _record(wall=(10.0, 10.1, 10.2))
    assert _verdicts(compare(noisy, fast)[0])["wall_s"] == "ok"


def test_setup_needs_half_a_second_too():
    slower = copy.deepcopy(_record())
    slower["workloads"]["scf_direct_ladder"]["end_to_end"]["setup_s"] = \
        _entry((0.90, 0.92, 0.91))                    # +50 %, +0.3 s
    assert _verdicts(compare(_record(), slower)[0])["setup_s"] == "ok"
    slower["workloads"]["scf_direct_ladder"]["end_to_end"]["setup_s"] = \
        _entry((1.30, 1.32, 1.31))                    # +0.7 s
    assert _verdicts(compare(_record(), slower)[0])["setup_s"] == "REGRESSION"


def test_missing_workload_is_a_regression():
    rows, regressions, _ = compare(_record(), {"workloads": {}})
    assert regressions == 1 and rows[0][5] == "MISSING"
