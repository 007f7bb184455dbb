"""One workload in one fresh process (``python -m bench.child``).

The parent (``bench/run.py``) hands over a JSON job on argv and reads a
JSON result file back; everything that imports numpy happens here, after
the environment is pinned and scrubbed.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

T_START = perf_counter()

from .env import MALLOC_PINS, OUT, scrub_in_place  # noqa: E402

#: malloc reads its thresholds at process start: the parent must have set them
MALLOC_PINNED = all(os.environ.get(k) == v for k, v in MALLOC_PINS.items())
DROPPED_ENV = scrub_in_place()        # before anything imports numpy


def _peak_rss_mb() -> float:
    """Peak resident set of this process and of its waited-for children
    (lane workers), whichever is larger; Linux reports KiB."""
    import resource

    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _fresh_pass(wl, specs, state, passdir):
    """Untimed: every pass gets directories of its own."""
    passdir.mkdir(parents=True)
    wl.prepare_pass(specs, state, passdir)
    return passdir


def _traced_passes(wl, specs, state, workdir):
    """One traced pass per plan of the workload; returns the tracer, the
    outputs, the wall of the first (the one comparable with the untraced
    pass) and this process's kernel-side figures over the passes."""
    import importlib
    import resource

    from . import layers
    from .tracing import (ROOT_SPAN, Patcher, SpanTracer, leftover_wrappers)

    for modname in layers.REACHABLE:
        importlib.import_module(modname)
    tracer = SpanTracer()
    sets = {"job": layers.JOB, "parent": layers.PARENT}
    outputs, walls = [], []
    before = resource.getrusage(resource.RUSAGE_SELF)
    for i, (which, kw) in enumerate(wl.traced_plans):
        passdir = _fresh_pass(wl, specs, state, workdir / f"traced{i}")
        with Patcher(tracer) as patcher:
            patcher.install([t for name in which for t in sets[name]])
            root = tracer.begin(ROOT_SPAN)
            try:
                outputs.append(wl.run_pass(specs, state, passdir, **kw))
            finally:
                tracer.end(root)
        walls.append(root[2] - root[1])
    after = resource.getrusage(resource.RUSAGE_SELF)
    left = leftover_wrappers()
    if left:
        raise RuntimeError(f"span wrappers left installed: {left}")
    # allocation churn shows as kernel time and page faults, not in a span
    kernel = {"bench.sys_frac": (after.ru_stime - before.ru_stime) / sum(walls),
              "bench.minor_faults": after.ru_minflt - before.ru_minflt}
    return tracer, outputs, walls[0], kernel


def run(job: dict) -> dict:
    from pathlib import Path

    from . import workloads
    from .stats import median

    wl = workloads.BY_NAME[job["workload"]](smoke=job["smoke"])
    specs = wl.specs(job["seed"])
    result = {"setup_light_s": perf_counter() - T_START}
    if job["setup_only"]:
        return result

    from .env import provenance

    workdir = Path(job["workdir"])
    reference = json.loads(Path(job["reference"]).read_text())
    t0 = perf_counter()
    state = wl.prepare(specs, workdir)
    result["setup_heavy_s"] = perf_counter() - t0

    # --- untraced: the end-to-end numbers ------------------------------------
    passes, outputs, elapsed = [], [], 0.0
    while True:
        passdir = _fresh_pass(wl, specs, state,
                              workdir / f"pass{len(passes)}")
        t0 = perf_counter()
        output = wl.run_pass(specs, state, passdir)
        wall = perf_counter() - t0
        passes.append({"wall_s": wall, **wl.figures(specs, output, wall)})
        outputs.append(output)
        elapsed += wall
        if elapsed >= job["seconds"]:
            break
    result["passes"] = passes
    result["peak_rss_mb"] = _peak_rss_mb()

    outcome = workloads.Outcome()
    for output in outputs:
        outcome.merge(wl.check(specs, output, reference))
    outcome.merge(wl.extra_check(specs, outputs[0], reference))

    # --- traced: the per-layer numbers ---------------------------------------
    if job["trace"]:
        from . import layers, probes
        from .tracing import chrome_trace

        tracer, traced, traced_wall, kernel = _traced_passes(
            wl, specs, state, workdir)
        for output in traced:
            outcome.merge(wl.check(specs, output, reference))
        outcome.merge(wl.cross_check(traced, reference))
        per_layer, timings = layers.layer_metrics(tracer)
        per_layer.update(kernel)
        untraced_wall = median(p["wall_s"] for p in passes)
        per_layer["bench.tracing_overhead_frac"] = \
            (traced_wall - untraced_wall) / untraced_wall
        per_layer.update(dict.fromkeys(workloads.CAMPAIGN_LAYER_NAMES, 0.0))
        per_layer.update(wl.layer_metrics(specs, traced[0]))
        per_layer.update(probes.run_all(job["smoke"], workdir))
        result["per_layer"] = per_layer
        result["timings"] = timings
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace_{job['workload']}_seed{job['seed']}.json"
        trace_path.write_text(json.dumps(chrome_trace(
            tracer.spans, label=f"{job['workload']} seed {job['seed']}")))
        result["trace_file"] = str(trace_path)

    result.update(attempted=outcome.attempted, failed=outcome.failed,
                  failures=outcome.failures[:20], dropped_env=DROPPED_ENV,
                  malloc_pinned=MALLOC_PINNED,
                  provenance=provenance(seed=job["seed"], lanes=wl.lanes,
                                        workdir=workdir, specs=specs))
    return result


def main(argv) -> int:
    from pathlib import Path

    job = json.loads(argv[1])
    result = run(job)
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
