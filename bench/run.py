#!/usr/bin/env python3
"""The repository's benchmark — one command.

    python3 bench/run.py [--workload W] [--seed N] [--seconds S]
                         [--trace 0|1] [--repeat N] [--smoke] [--out FILE]
    python3 bench/run.py --compare PARENT.json CHANGE.json
    python3 bench/run.py --write-reference

Each workload runs in a fresh child process, one at a time, with BLAS
pinned to one thread and every ``REPRO_*`` override removed.  Every metric
is printed by name with its unit, every output is checked against
``bench/reference.json``, and one schema-versioned JSON record is written.
With ``--workload`` the last line of standard output is the one-object
summary ``BENCHMARK.json``'s driver reads: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Only measured wall-clock is reported here; the modelled BG/Q figures
(``repro.machine``, benchmarks F1-F6) are a different kind of number.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import compare as compare_mod  # noqa: E402
from bench.env import OUT, scrubbed_env  # noqa: E402
from bench.stats import median, summarize  # noqa: E402

SCHEMA_VERSION = 1
REFERENCE = ROOT / "bench" / "reference.json"
#: Fresh-process set-ups timed per run; ``setup_s`` reports their median
#: (``--smoke`` keeps the measuring child's own sample only).
SETUP_SAMPLES = 3
#: A child that runs longer than this is killed (the driver allows 180 s).
CHILD_TIMEOUT_S = 170


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --- children -----------------------------------------------------------------

def run_child(module: str, job: dict, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run ``python -m <module> <job>`` in its own session, wait for it,
    and leave no descendant behind (lane workers are forked by the
    child, so the whole process group is reaped)."""
    result_path = Path(job["result"])
    proc = subprocess.Popen(
        [sys.executable, "-m", module, json.dumps(job)], cwd=ROOT,
        env=scrubbed_env(os.environ), stdout=sys.stderr,
        start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    if code is None:
        raise RuntimeError(f"{module} exceeded {timeout:.0f} s and was killed")
    if code != 0 or not result_path.is_file():
        raise RuntimeError(f"{module} failed (exit code {code})")
    return json.loads(result_path.read_text())


def run_once(workload: str, *, seed: int, seconds: float, trace: int,
             smoke: bool, workdir: Path) -> dict:
    """One run of one workload: the measuring child plus the extra
    set-up-only children, strictly one after another."""
    workdir.mkdir(parents=True)
    job = {"workload": workload, "seed": seed, "seconds": seconds,
           "trace": trace, "smoke": smoke, "setup_only": False,
           "workdir": str(workdir), "reference": str(REFERENCE),
           "result": str(workdir / "result.json")}
    t0 = time.perf_counter()
    run = run_child("bench.child", job)
    setups = [run["setup_light_s"]]
    for i in range(0 if smoke else SETUP_SAMPLES - 1):
        extra = dict(job, setup_only=True,
                     result=str(workdir / f"setup{i}.json"))
        setups.append(run_child("bench.child", extra)["setup_light_s"])
    run["setup_samples_s"] = setups
    run["total_s"] = time.perf_counter() - t0
    return run


# --- one run -> metrics -------------------------------------------------------

def end_to_end_of(run: dict) -> dict[str, float]:
    passes = run["passes"]
    return {
        "wall_s": median(p["wall_s"] for p in passes),
        "jobs_per_s": median(p["jobs_per_s"] for p in passes),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": median(run["setup_samples_s"]) + run["setup_heavy_s"],
        "failed_frac": run["failed"] / run["attempted"],
    }


def per_layer_of(run: dict) -> dict[str, float]:
    out = dict(run["per_layer"])
    for name in ("wall_s_per_fs", "warm_jobs_per_s"):
        values = [p[name] for p in run["passes"] if name in p]
        out[name] = median(values) if values else 0.0
    return out


def contract_line(run: dict, trace: int, declared: dict) -> str:
    """The driver's last line: exactly the declared metrics of one kind."""
    kind = "per_layer" if trace else "end_to_end"
    values = per_layer_of(run) if trace else end_to_end_of(run)
    units = {m["name"]: m["unit"] for m in declared[kind]}
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units) - {"failed_frac"})
    if missing or extra:
        raise RuntimeError(f"metric names drifted from BENCHMARK.json: "
                           f"missing {missing}, undeclared {extra}")
    return json.dumps({
        "correct": run["failed"] == 0 and not run["failures"],
        "attempted": run["attempted"], "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}})


# --- reporting ----------------------------------------------------------------

def _entry(values, unit: str) -> dict:
    return {"unit": unit, "values": list(values), **summarize(values)}


def summarize_workload(runs: list[dict], trace: int, declared: dict) -> dict:
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    units["failed_frac"] = "frac"
    e2e = [end_to_end_of(r) for r in runs]
    out = {
        "end_to_end": {name: _entry([m[name] for m in e2e], units[name])
                       for name in e2e[0]},
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]],
        "total_s": sum(r["total_s"] for r in runs),
        "pass_walls_s": [[p["wall_s"] for p in r["passes"]] for r in runs],
        "provenance": runs[-1]["provenance"],
        "dropped_env": runs[-1]["dropped_env"],
        "malloc_pinned": all(r["malloc_pinned"] for r in runs),
    }
    if trace:
        layers = [per_layer_of(r) for r in runs]
        out["per_layer"] = {name: _entry([m[name] for m in layers],
                                         units[name])
                            for name in layers[0]}
        out["timings"] = runs[-1]["timings"]
        out["trace_file"] = runs[-1].get("trace_file")
    return out


def print_workload(name: str, summary: dict) -> None:
    def rows(kind):
        for metric, e in summary.get(kind, {}).items():
            spread = f"  [{e['q1']:.6g} .. {e['q3']:.6g}], n={e['n']}" \
                if e["n"] > 1 else ""
            print(f"  {metric:<46} {e['median']:>14.6g} {e['unit']}{spread}")

    print(f"== {name}: {summary['attempted']} operations, "
          f"{summary['failed']} failed, total {summary['total_s']:.1f} s")
    rows("end_to_end")
    if "per_layer" in summary:
        print("  -- per layer (traced pass) --")
        rows("per_layer")
        pl = summary["per_layer"]
        wall = pl["bench.traced_wall_s"]["median"]
        layer_s = sum(e["median"] for n, e in pl.items()
                      if n.endswith(".self_s"))
        unattributed = pl["bench.unattributed_frac"]["median"] * wall
        print(f"  layers {layer_s:.3f} s + unattributed {unattributed:.3f} s"
              f" = {layer_s + unattributed:.3f} s of {wall:.3f} s traced")
        for metric, t in summary["timings"].items():
            if t["tail"]:       # p50 above; the one tail n supports
                print(f"  {metric}: n={t['n']}, "
                      f"p{t['tail']['percentile']:g} = "
                      f"{t['tail']['value']:.6g}")
        print(f"  trace: {summary['trace_file']}")
    for failure in summary["failures"]:
        print(f"  FAILED: {failure}")


# --- entry point --------------------------------------------------------------

def parse_args(argv):
    declared = load_benchmark()
    names = [w["name"] for w in declared["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all, one at a time)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="floor on the timed region: whole passes repeat "
                         "until it is reached (a pass in flight completes); "
                         "default: run_seconds of BENCHMARK.json, one pass "
                         "with --smoke")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: add the traced pass and the per-layer metrics")
    ap.add_argument("--traced", dest="trace", action="store_const", const=1)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload; medians and quartiles reported")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes (LiH, (H2O)1-2, 8-job campaign)")
    ap.add_argument("--out", type=Path, help="record file (default: "
                    "bench/out/record-<workloads>-seed<N>-trace<T>.json)")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else declared["run_seconds"]
    return args, declared, names


def main(argv=None) -> int:
    args, declared, names = parse_args(argv)
    if args.compare:
        return compare_mod.main(*args.compare)

    OUT.mkdir(parents=True, exist_ok=True)
    workroot = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.write_reference:
            run_child("bench.reference", {
                "workdir": str(workroot), "reference": str(REFERENCE),
                "result": str(workroot / "result.json")}, timeout=7200)
            print(f"wrote {REFERENCE}")
            return 0

        selected = [args.workload] if args.workload else names
        record = {"schema_version": SCHEMA_VERSION, "kind": "bench_record",
                  "created": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                           time.gmtime()),
                  "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "smoke": args.smoke,
                  "repeat": args.repeat, "workloads": {}}
        last_run = None
        for name in selected:
            runs = [run_once(name, seed=args.seed, seconds=args.seconds,
                             trace=args.trace, smoke=args.smoke,
                             workdir=workroot / f"{name}-{i}")
                    for i in range(args.repeat)]
            last_run = runs[-1]
            record["workloads"][name] = summarize_workload(
                runs, args.trace, declared)
            print_workload(name, record["workloads"][name])
        out = args.out or OUT / (
            f"record-{args.workload or 'all'}-seed{args.seed}"
            f"-trace{args.trace}{'-smoke' if args.smoke else ''}.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1))
        total = sum(w["total_s"] for w in record["workloads"].values())
        print(f"total {total:.1f} s; record: {out}")
        failed = any(w["failed"] or w["failures"]
                     for w in record["workloads"].values())
        if args.workload:
            print(contract_line(last_run, args.trace, declared))
        return 1 if failed else 0
    finally:
        shutil.rmtree(workroot, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
