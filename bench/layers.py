"""Which callables carry which span, and how spans become layer metrics.

Span names are the repo's module names.  ``JOB`` targets sit inside one
job (integrals, SCF, MD, checkpoints); ``PARENT`` targets sit in the
campaign parent (scheduler, cache, transport, job hashing).  A forked
lane worker's spans die with the child, so a process-lane drain installs
the ``PARENT`` set only and the in-job shares come from a one-lane local
drain that installs both.
"""

from __future__ import annotations

import weakref

from .stats import timing_summary
from .tracing import (ROOT_SPAN, count_with_ancestor, durations, self_times,
                      span_cost_s)

# --- hooks: counts taken at the same boundary as the span -------------------


def _eri_tensor_quartets(tr, rec, args, kwargs, out):
    basis = args[0] if args else kwargs["basis"]
    screen = args[1] if len(args) > 1 else kwargs.get("screen", 0.0)
    if not screen:
        # unscreened unique walk: P(P+1)/2 quartets over P shell pairs
        # (computed from the basis, not counted inside the kernel)
        npair = basis.nshell * (basis.nshell + 1) // 2
        tr.count("integrals.eri_tensor.quartets", npair * (npair + 1) // 2)


def _quartet_batch(tr, rec, args, kwargs, out):
    tr.count("integrals.quartet_batch.quartets", len(out))


def _scf_run(tr, rec, args, kwargs, res):
    tr.count("scf.iterations", res.niter)
    tr.count("scf.fock_builds", res.fock_builds)
    tr.count("scf.unconverged", 0 if res.converged else 1)


def _direct_build(tr, rec, args, kwargs, out):
    builder = args[0]
    tr.count("scf.fock.quartets_total", builder.quartets_total)
    tr.count("scf.fock.quartets_computed", builder.quartets_computed)


_RI_SEEN: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _ri_build(tr, rec, args, kwargs, out):
    builder = args[0]
    seen_builds, seen_reuses = _RI_SEEN.get(builder, (0, 0))
    tr.count("scf.ri_jk.b_builds", builder.b_builds - seen_builds)
    tr.count("scf.ri_jk.b_reuses", builder.b_reuses - seen_reuses)
    _RI_SEEN[builder] = (builder.b_builds, builder.b_reuses)
    # == fitted_tensor().nbytes, without bumping the builder's reuse count
    tr.maximum("scf.ri_jk.b_bytes_max",
               builder.aux.nbf * builder.basis.nbf ** 2 * 8)


def _grid_build(tr, rec, args, kwargs, grid):
    tr.maximum("scf.grid.points_max", grid.npts)


def _checkpoint_save(tr, rec, args, kwargs, info):
    tr.maximum("runtime.checkpoint.snapshot_bytes", info.nbytes)


def _cache_get(tr, rec, args, kwargs, out):
    rec[4] = "miss" if out is None else "hit"


def _encode_frame(tr, rec, args, kwargs, out):
    tr.sample("service.transport.frame_bytes", len(out))


def _try_decode(tr, rec, args, kwargs, out):
    rec[4] = "partial" if out is None else "frame"


JOB = [
    ("integrals.eri_tensor", "repro.integrals.eri:eri_tensor",
     _eri_tensor_quartets),
    ("integrals.one_electron", "repro.integrals.overlap:overlap_matrix", None),
    ("integrals.one_electron", "repro.integrals.kinetic:kinetic_matrix", None),
    ("integrals.one_electron", "repro.integrals.nuclear:nuclear_matrix", None),
    ("integrals.quartet_batch", "repro.integrals.eri:ERIEngine.quartet_batch",
     _quartet_batch),
    ("integrals.three_center_slab", "repro.integrals.ri:three_center_slab",
     None),
    # the metric and its inverse square root: both are "the metric" cost
    ("integrals.metric_2c", "repro.integrals.ri:metric_2c", None),
    ("integrals.metric_2c", "repro.integrals.ri:inv_sqrt_metric", None),
    ("scf.fock.direct_build", "repro.scf.fock:DirectJKBuilder.build",
     _direct_build),
    ("scf.ri_jk.build", "repro.scf.ri_jk:RIJKBuilder.build", _ri_build),
    ("scf.grid.build", "repro.scf.grid:MolecularGrid.build", _grid_build),
    ("scf.grid.build", "repro.scf.grid:eval_aos", None),
    ("scf.dft.xc", "repro.scf.dft:XCIntegrator.exc_and_potential", None),
    ("scf.run", "repro.scf.rhf:RHF.run", _scf_run),
    ("scf.run", "repro.scf.dft:RKS.run", _scf_run),
    ("md.force_eval", "repro.md.bomd:SCFForceEngine.energy_forces", None),
    ("md.integrator", "repro.md.integrator:VelocityVerlet.step", None),
    ("md.integrator", "repro.md.respa:RESPAIntegrator.step", None),
    ("runtime.checkpoint.save",
     "repro.runtime.checkpoint:CheckpointStore.save", _checkpoint_save),
    ("runtime.checkpoint.load",
     "repro.runtime.checkpoint:CheckpointStore.load_latest", None),
]

PARENT = [
    ("service.scheduler.run", "repro.service.scheduler:CampaignService.run",
     None),
    ("service.scheduler.submit",
     "repro.service.scheduler:CampaignService.submit", None),
    ("service.jobspec.canonical_key",
     "repro.service.jobspec:JobSpec.canonical_key", None),
    ("service.cache.get", "repro.service.cache:ResultCache.get", _cache_get),
    ("service.cache.put", "repro.service.cache:ResultCache.put", None),
    ("service.transport.encode", "repro.service.transport:encode_frame",
     _encode_frame),
    ("service.transport.decode", "repro.service.transport:try_decode",
     _try_decode),
]

SPAN_NAMES = sorted({name for name, _path, _hook in JOB + PARENT})

#: Modules a workload can reach; imported before wrappers go in, so no
#: module binds a wrapper at import time and keeps it after removal.
REACHABLE = sorted({path.partition(":")[0] for _n, path, _h in JOB + PARENT}
                   | {"repro.api", "repro.scf", "repro.scf.uhf", "repro.md",
                      "repro.service", "repro.integrals", "repro.hfx",
                      "repro.runtime.pool", "repro.basis.auxbasis"})


# --- spans -> metrics ---------------------------------------------------------

#: metric -> (span, tag, scale): the p50 of a span's durations.
SPAN_P50 = {
    "md.force_eval.s_p50": ("md.force_eval", None, 1.0),
    "runtime.checkpoint.save.ms_p50": ("runtime.checkpoint.save", None, 1e3),
    "runtime.checkpoint.load.ms_p50": ("runtime.checkpoint.load", None, 1e3),
    "service.jobspec.canonical_key.us":
        ("service.jobspec.canonical_key", None, 1e6),
    "service.cache.get_hit.us": ("service.cache.get", "hit", 1e6),
    "service.cache.get_miss.us": ("service.cache.get", "miss", 1e6),
    "service.cache.put.us": ("service.cache.put", None, 1e6),
    "service.transport.encode.us": ("service.transport.encode", None, 1e6),
    "service.transport.decode.us": ("service.transport.decode", "frame", 1e6),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer) -> tuple[dict[str, float], dict[str, dict]]:
    """Every span-derived per-layer metric (zero where a layer is idle),
    and for the timing ones their sample count and supported tail."""
    spans = tracer.spans
    agg = self_times(spans)
    c, mx = tracer.counts, tracer.maxima
    m: dict[str, float] = {}
    timings: dict[str, dict] = {}

    def p50(name: str, values) -> None:
        m[name] = 0.0
        if values:
            timings[name] = timing_summary(values)
            m[name] = timings[name]["p50"]

    for name in SPAN_NAMES:
        m[f"{name}.self_s"] = agg.get(name, {}).get("self_s", 0.0)
    for name in ("scf.fock.direct_build", "scf.ri_jk.build", "scf.dft.xc",
                 "scf.run", "md.force_eval"):
        m[f"{name}.calls"] = agg.get(name, {}).get("calls", 0)
    for name, (span, tag, scale) in SPAN_P50.items():
        p50(name, [d * scale for d in durations(spans, span, tag)])
    p50("service.transport.frame_bytes_p50",
        tracer.samples.get("service.transport.frame_bytes", []))
    for name in ("integrals.eri_tensor.quartets",
                 "integrals.quartet_batch.quartets", "scf.ri_jk.b_builds",
                 "scf.iterations", "scf.fock_builds", "scf.unconverged"):
        m[name] = c.get(name, 0)
    for name in ("scf.ri_jk.b_bytes_max", "scf.grid.points_max",
                 "runtime.checkpoint.snapshot_bytes"):
        m[name] = mx.get(name, 0)
    total = c.get("scf.fock.quartets_total", 0)
    m["scf.fock.screened_frac"] = \
        1.0 - c.get("scf.fock.quartets_computed", 0) / total if total else 0.0
    builds, reuses = m["scf.ri_jk.b_builds"], c.get("scf.ri_jk.b_reuses", 0)
    m["scf.ri_jk.b_reuse_frac"] = _ratio(reuses, builds + reuses)
    m["md.scf_per_force"] = _ratio(
        count_with_ancestor(spans, "scf.run", "md.force_eval"),
        m["md.force_eval.calls"])
    roots = agg.get(ROOT_SPAN, {"total_s": 0.0, "self_s": 0.0})
    m["bench.traced_wall_s"] = roots["total_s"]
    m["bench.unattributed_frac"] = _ratio(roots["self_s"], roots["total_s"])
    m["bench.span_cost_frac"] = _ratio(len(spans) * span_cost_s(),
                                       roots["total_s"])
    return m, timings
