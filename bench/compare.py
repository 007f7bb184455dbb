"""``--compare PARENT.json CHANGE.json``: the regression gate.

One row per (metric, workload).  A metric whose *parent* runs spread
wider than its bound cannot resolve a change of that size, so it is
reported ``unresolved`` — never ``unchanged`` — unless every run of the
change is better than every run of the parent.
"""

from __future__ import annotations

import json
from pathlib import Path

from .stats import spread

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: End-to-end figures only one workload has.  The driver's contract wants
#: every ``end_to_end`` metric on every workload, so ``BENCHMARK.json``
#: lists them under ``per_layer``; their bounds live here.
LOCAL_GATES = {
    "wall_s_per_fs": {"unit": "s/fs", "better": "lower", "bound": 0.25},
    "warm_jobs_per_s": {"unit": "1/s", "better": "higher", "bound": 0.25},
    "failed_frac": {"unit": "frac", "better": "lower", "bound": 0.0},
}

#: A relative bound alone over-reacts on a sub-second metric.
ABS_FLOOR = {"setup_s": 0.5}


def gates() -> dict[str, dict]:
    """Metric name -> {unit, better, bound} for everything gated."""
    declared = json.loads(BENCHMARK.read_text())["end_to_end"]
    out = {m["name"]: {k: m[k] for k in ("unit", "better", "bound")}
           for m in declared}
    out.update(LOCAL_GATES)
    return out


def _gated(workload: dict, name: str) -> dict | None:
    entry = workload["end_to_end"].get(name)
    if entry is None:
        # a per-layer slot that reads zero is a workload without the figure
        entry = workload.get("per_layer", {}).get(name)
        if entry is not None and entry["median"] == 0:
            return None
    return entry


def verdict(parent: dict, change: dict, gate: dict, name: str) -> tuple:
    """(verdict, worse_by) for one metric's parent/change summaries."""
    sign = 1.0 if gate["better"] == "lower" else -1.0
    base = parent["median"]
    delta = sign * (change["median"] - base)          # > 0 is worse
    worse_by = delta / abs(base) if base else (1.0 if delta > 0 else 0.0)
    if name == "failed_frac":
        return ("REGRESSION" if delta > 0 else "ok"), worse_by
    if spread(parent) > gate["bound"]:
        strictly_better = all(sign * c < sign * p
                              for c in change["values"]
                              for p in parent["values"])
        return ("ok" if strictly_better else "unresolved"), worse_by
    if worse_by > gate["bound"] and delta > ABS_FLOOR.get(name, 0.0):
        return "REGRESSION", worse_by
    return "ok", worse_by


def compare(parent_record: dict, change_record: dict) -> tuple[list, int, int]:
    """Rows, regression count and unresolved count."""
    rows, regressions, unresolved = [], 0, 0
    for wname, pw in parent_record["workloads"].items():
        cw = change_record["workloads"].get(wname)
        if cw is None:
            rows.append((wname, "*", "-", "-", "-", "MISSING"))
            regressions += 1
            continue
        for name, gate in gates().items():
            p, c = _gated(pw, name), _gated(cw, name)
            if p is None or c is None:
                continue
            v, worse_by = verdict(p, c, gate, name)
            regressions += v == "REGRESSION"
            unresolved += v == "unresolved"
            rows.append((wname, name, f"{p['median']:.6g}",
                         f"{c['median']:.6g}",
                         f"{worse_by:+.1%} (bound {gate['bound']:.0%}, "
                         f"parent spread {spread(p):.1%})", v))
    return rows, regressions, unresolved


def main(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    rows, regressions, unresolved = compare(a, b)
    header = ("workload", "metric", "parent", "change", "worse by", "verdict")
    widths = [max(len(str(r[i])) for r in [header, *rows])
              for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    print(f"{regressions} regression(s), {unresolved} unresolved, "
          f"{len(rows)} row(s)")
    return 1 if regressions else 0
