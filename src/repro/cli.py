"""Command-line interface: ``python -m repro <command>``.

Commands
--------
info        package, machine, and workload overview
scf         run an SCF (HF / LDA / PBE / PBE0 / UHF) on a built-in or
            XYZ geometry
md          Born-Oppenheimer MD with crash-safe checkpoint/restart
            (``--checkpoint DIR`` / ``--restore [DIR]``)
campaign    high-throughput screening campaigns: submit / run /
            status / results against a durable campaign directory
workload    generate a condensed-phase HFX workload and print its stats
scale       strong-scaling sweep of the scheme (and optionally the
            legacy baseline) on BG/Q partitions
liair       solvent-stability screening (peroxide attack profiles)

``scf`` and ``md`` are thin shells over :mod:`repro.api` — they build
a :class:`repro.service.JobSpec` from the flags and print the result
envelope the facade returns; ``campaign`` drives
:class:`repro.service.CampaignService` the same way.  The execution
flags (``--executor``/``--nworkers``/``--kernel``/``--scf-solver``)
and the observability flags (``--trace``/``--profile``/``--json``) are
shared argparse parents, so every subcommand spells them identically.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

import numpy as np

from repro.runtime.boundary import KNOBS, from_text, resolve

__all__ = ["main"]


def _cmd_info(args) -> int:
    import repro
    from repro.machine import bgq_racks

    cfg = bgq_racks(96)
    print(f"repro {repro.__version__} — reproduction of Weber et al., "
          "IPDPS 2014")
    print(f"full machine: {cfg.nodes} nodes / "
          f"{cfg.total_threads} hardware threads / torus {cfg.torus_dims}")
    print("subpackages: " + ", ".join(sorted(
        n for n in repro.__all__ if n.islower() and n != "__version__")))
    return 0


# --- JobSpec construction from flags ------------------------------------------


def _spec_molecule(args):
    """The JobSpec ``molecule`` field for the geometry flags: a builder
    name, or an inline (exact-Bohr) dict for ``--xyz``."""
    if args.xyz:
        from repro.chem import read_xyz

        mol = read_xyz(args.xyz, charge=args.charge,
                       multiplicity=args.multiplicity)
        return {"symbols": list(mol.symbols),
                "coords_bohr": [[float(x) for x in row]
                                for row in mol.coords],
                "charge": mol.charge, "multiplicity": mol.multiplicity,
                "name": mol.name}
    return args.molecule


def _spec_from_args(args, kind: str):
    """Build (and validate) the JobSpec the scf/md flags describe;
    validation errors become clean CLI errors."""
    from repro.service import JobSpec

    common = dict(kind=kind, molecule=_spec_molecule(args),
                  basis=args.basis, method=args.method,
                  charge=args.charge, multiplicity=args.multiplicity,
                  executor=args.executor, nworkers=args.nworkers,
                  kernel=args.kernel, jk=args.jk,
                  scf_solver=args.scf_solver)
    try:
        if kind == "scf":
            common["mode"] = args.mode
        else:
            # --mts-aspc-order: a negative value disables extrapolation
            order = args.mts_aspc_order
            common.update(steps=args.steps, dt_fs=args.dt,
                          temperature=args.temperature,
                          thermostat=args.thermostat, tau_fs=args.tau,
                          seed=args.seed,
                          mts_outer=args.mts_outer,
                          mts_inner=args.mts_inner,
                          mts_aspc_order=None if order < 0 else order)
        return JobSpec(**common)
    except ValueError as e:
        raise SystemExit(f"error: {e}") from None


def _resolve_or_die(spec):
    try:
        return spec.resolve_molecule()
    except ValueError as e:
        raise SystemExit(str(e)) from None


def _config_from_args(args, tracer):
    """The one ``ExecutionConfig`` the flags describe.

    The env-backed knobs are resolved through the boundary table here,
    before anything spawns, so a typo'd ``REPRO_*`` override is one
    clean CLI error instead of a traceback inside a blocking wait.
    Subcommands without a flag leave its field at the default.
    """
    from repro.runtime import ExecutionConfig

    given = {field: getattr(args, field)
             for field in ("executor", "nworkers", "kernel", "jk",
                           "scf_solver", "checkpoint_keep")
             if hasattr(args, field)}
    try:
        if hasattr(args, "checkpoint"):
            given.update(checkpoint_dir=args.checkpoint,
                         checkpoint_every=resolve("checkpoint_every",
                                                  args.checkpoint_every))
        return ExecutionConfig(pool_timeout=resolve("pool_timeout"),
                               pool_max_retries=resolve("pool_max_retries"),
                               tracer=tracer, **given)
    except ValueError as e:
        raise SystemExit(f"error: {e}") from None


def _emit_trace_and_profile(tracer, args, quiet, say, title) -> None:
    """The shared ``--trace``/``--profile`` tail of scf and md."""
    if tracer is None:
        return
    ndegraded = tracer.snapshot().counters.get("pool.degraded_builds", 0)
    if ndegraded:
        say(f"note: {ndegraded} build(s) degraded to the serial "
            "executor after unrecoverable worker-pool failures "
            "(see pool.* counters)")
    if args.trace:
        nspans = tracer.write_chrome_trace(args.trace)
        print(f"trace: {nspans} spans -> {args.trace}",
              file=sys.stderr if quiet else sys.stdout)
    if args.profile and not quiet:
        from repro.analysis.report import profile_table

        print(profile_table(tracer.snapshot(), title=title))


def _cmd_scf(args) -> int:
    import json

    from repro import api
    from repro.runtime import Tracer

    spec = _spec_from_args(args, kind="scf")
    mol = _resolve_or_die(spec)
    quiet = args.json
    say = (lambda *a, **k: None) if quiet else print
    tracer = Tracer(name=f"scf:{mol.name or 'molecule'}") \
        if (args.trace or args.profile) else None
    config = _config_from_args(args, tracer)
    say(f"{mol.name or 'molecule'}: {mol.natom} atoms, "
        f"{mol.nelectron} electrons, charge {mol.charge}, "
        f"multiplicity {mol.multiplicity}")
    if config.executor == "process":
        say(f"executor: process pool, {resolve('nworkers', config.nworkers)} "
            "workers (direct J/K builds)")
    try:
        out = api.run_scf(spec, config)
    except ValueError as e:         # a route the driver rule refuses
        raise SystemExit(f"error: {e}") from None
    scf, label = out["scf"], out["method"]
    say(f"E({label}/{args.basis}) = {scf['energy']:.8f} Ha  "
        f"converged={scf['converged']} niter={scf['niter']}")
    if label == "UHF":
        say(f"<S^2> = {scf['s_squared']:.4f}")
    elif label == "RHF":
        say(f"E_x(exact) = {scf['exchange_energy']:.6f} Ha   "
            f"gap = {scf['homo_lumo_gap']:.4f} Ha")
    _emit_trace_and_profile(tracer, args, quiet, say,
                            title=f"profile: {label}/{args.basis}")
    if quiet:
        if tracer is not None:
            out["telemetry"] = tracer.snapshot().summary()
        print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_md(args) -> int:
    import json

    from repro import api
    from repro.runtime import CheckpointError, Tracer

    restore_from = None
    if args.restore is not None:
        restore_from = args.restore if isinstance(args.restore, str) \
            else args.checkpoint
        if restore_from is None:
            raise SystemExit("error: --restore needs a directory (give "
                             "one, or combine with --checkpoint DIR)")
    spec = _spec_from_args(args, kind="md")
    quiet = args.json
    say = (lambda *a, **k: None) if quiet else print
    tracer = Tracer(name="md") if (args.trace or args.profile) else None
    config = _config_from_args(args, tracer)
    if restore_from is None:
        mol = _resolve_or_die(spec)
        say(f"{mol.name or 'molecule'}: {mol.natom} atoms, "
            f"{args.method.upper()}/{args.basis}, dt = {args.dt} fs, "
            f"{args.steps} steps"
            + (f", {args.thermostat} thermostat at {args.temperature} K"
               if args.thermostat != "none" else ""))
        if spec.mts_outer > 1:
            order = spec.mts_aspc_order
            say(f"MTS (r-RESPA): full {args.method.upper()} force every "
                f"{spec.mts_outer} steps, '{spec.mts_inner}' "
                f"inner surface, ASPC "
                + (f"order {order}" if order is not None else "off"))
        if args.checkpoint:
            say(f"checkpointing to '{args.checkpoint}' every "
                f"{config.checkpoint_every} steps")
    try:
        out = api.run_md(spec, config,
                         restore_from=restore_from if restore_from
                         else False)
    except (CheckpointError, ValueError) as e:
        raise SystemExit(f"error: {e}") from None
    md = out["md"]
    if restore_from is not None:
        say(f"restored {out['molecule']['name'] or 'molecule'} trajectory "
            f"from '{restore_from}' at step {md['restored_from']}")
    say(f"steps {md['step_first']}..{md['step']}  "
        f"E_pot(final) = {md['energy_pot_final']:.8f} Ha  "
        f"T(final) = {md['temperature_final']:.1f} K  "
        f"drift = {md['drift']:.3e}")
    _emit_trace_and_profile(
        tracer, args, quiet, say,
        title=f"profile: BOMD {out['method']}/{out['basis']}")
    if quiet:
        if tracer is not None:
            out["telemetry"] = tracer.snapshot().summary()
        print(json.dumps(out, indent=2, sort_keys=True))
    return 0


# --- campaign -----------------------------------------------------------------


def _campaign_service(args, config=None, **kw):
    from repro.service import CampaignService

    try:
        return CampaignService(args.dir, config=config, **kw)
    except ValueError as e:
        raise SystemExit(f"error: {e}") from None


def _campaign_specs(args) -> list:
    """Specs named by ``campaign submit`` flags: JSON files and/or the
    solvent-screening axis product."""
    import json

    from repro.service import JobSpec, solvent_screening_specs

    specs = []
    for path in args.spec or ():
        try:
            doc = json.loads(open(path).read())
        except (OSError, ValueError) as e:
            raise SystemExit(f"error: cannot read spec file "
                             f"'{path}': {e}") from None
        docs = doc if isinstance(doc, list) else [doc]
        try:
            specs.extend(JobSpec.from_dict(d) for d in docs)
        except (TypeError, ValueError) as e:
            raise SystemExit(f"error: bad spec in '{path}': {e}") from None
    if args.screen:
        overrides = dict(executor=args.executor, nworkers=args.nworkers,
                         kernel=args.kernel, scf_solver=args.scf_solver)
        if args.kind == "md":
            overrides.update(steps=args.steps, dt_fs=args.dt)
        try:
            specs.extend(solvent_screening_specs(
                solvents=tuple(args.solvents.split(",")),
                methods=tuple(args.methods.split(",")),
                basis=args.basis, nperturb=args.nperturb,
                perturb=args.perturb,
                seeds=tuple(int(s) for s in args.seeds.split(",")),
                kind=args.kind, jks=tuple((args.jks or args.jk).split(",")),
                mts_outers=tuple(int(n) for n in args.mts_outers.split(",")),
                **overrides))
        except (KeyError, ValueError) as e:
            raise SystemExit(f"error: {e}") from None
    if not specs:
        raise SystemExit("error: nothing to submit (give --spec FILE "
                         "and/or --screen)")
    return specs


def _cmd_campaign(args) -> int:
    import json

    if args.action == "submit":
        svc = _campaign_service(args)
        jobs = [svc.submit(spec) for spec in _campaign_specs(args)]
        for job in jobs:
            print(f"submitted job {job.id}  {job.spec.label or job.spec.kind}"
                  f"  key={job.key[:12]}")
        print(f"{len(jobs)} job(s) queued in '{args.dir}'")
        return 0

    if args.action == "run":
        from repro.runtime import Tracer

        tracer = Tracer(name="campaign") \
            if (args.trace or args.profile) else None
        svc = _campaign_service(args, config=_config_from_args(args, tracer),
                                max_retries=args.max_retries,
                                preempt_steps=args.preempt_steps,
                                cache_dir=args.cache_dir)
        try:
            report = svc.run(nworkers=args.lanes, transport=args.transport)
        except ValueError as e:     # bad REPRO_SERVICE_*, local x lanes
            raise SystemExit(f"error: {e}") from None
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0
        for j in report["jobs"]:
            line = f"job {j['id']:>3}  {j['status']:<7} {j['label']}"
            if j.get("jk", "direct") != "direct":
                line += f"  [{j['jk']}]"
            if j["cache_hit"]:
                line += "  [cache]"
            if j["error"]:
                line += f"  ({j['error']})"
            print(line)
        hits = report["counters"].get("service.cache_hits", 0)
        print(f"campaign: {report['completed']}/{report['njobs']} "
              f"completed, {report['failed']} failed, "
              f"{hits} cache hit(s), "
              f"{report['transport']} lanes, {report['wall_s']:.2f}s")
        _emit_trace_and_profile(
            tracer, args, quiet=False, say=print,
            title=f"profile: campaign '{args.dir}'")
        return 0 if report["failed"] == 0 else 1

    svc = _campaign_service(args)
    if args.action == "status":
        status = svc.status()
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
            return 0
        counts = ", ".join(f"{v} {k}" for k, v in
                           status["by_status"].items()) or "empty"
        print(f"campaign '{args.dir}': {status['njobs']} job(s) — {counts}")
        for j in status["jobs"]:
            print(f"job {j['id']:>3}  {j['status']:<7} {j['kind']:<3} "
                  f"{j['label']}"
                  + (f"  steps={j['steps_done']}" if j["kind"] == "md"
                     else ""))
        return 0

    # results
    records = svc.results()
    if args.json:
        print(json.dumps(records, indent=2, sort_keys=True))
        return 0
    from repro.analysis.report import campaign_table

    if not records:
        print("no retired jobs yet")
        return 0
    print(campaign_table(records, title=f"campaign '{args.dir}'"))
    return 0


def _cmd_workload(args) -> int:
    from repro.analysis.report import format_si
    from repro.hfx import electrolyte_workload, water_box_workload

    if args.system == "water":
        wl = water_box_workload(args.size, eps=args.eps)
    else:
        wl = electrolyte_workload(args.system.upper(), args.size,
                                  eps=args.eps)
    s = wl.summary()
    print(f"workload {s['label']}")
    print(f"  pair tasks      {s['ntasks']}")
    print(f"  quartets        {format_si(float(s['total_quartets']))}")
    print(f"  work            {s['total_gflops']:.4g} GFlop (STO-3G "
          "cost scale)")
    print(f"  heaviest task   {s['max_task_flops'] / 1e6:.3g} MFlop")
    return 0


def _cmd_scale(args) -> int:
    from repro.analysis.report import format_seconds, format_si, print_table
    from repro.hfx import (HFXScheme, ReplicatedDynamicBaseline,
                           legacy_ranks_per_node, water_box_workload)
    from repro.machine import bgq_racks, parallel_efficiency

    wl = water_box_workload(args.size, eps=args.eps)
    racks = [float(r) for r in args.racks.split(",")]
    cfg_max = bgq_racks(max(racks))
    wls = wl.split(wl.total_flops / (cfg_max.nranks * 16))
    timings = {}
    rows = []
    base_rows = {}
    for r in racks:
        cfg = bgq_racks(r)
        bt = HFXScheme(wls, cfg, flop_scale=args.flop_scale).simulate()
        timings[cfg.total_threads] = bt
        if args.baseline:
            rpn = legacy_ranks_per_node(int(wl.nbf * 58 / 7))
            cfgb = bgq_racks(r, ranks_per_node=rpn)
            base = ReplicatedDynamicBaseline(
                wl, cfgb, flop_scale=args.flop_scale,
                cores=min(4, cfgb.cores_per_rank))
            base_rows[cfg.total_threads] = base.simulate().makespan
    eff = parallel_efficiency(timings)
    for thr in sorted(timings):
        row = [format_si(thr), format_seconds(timings[thr].makespan),
               f"{eff[thr]:.3f}"]
        if args.baseline:
            row.append(format_seconds(base_rows[thr]))
        rows.append(row)
    headers = ["threads", "t(build)", "efficiency"]
    if args.baseline:
        headers.append("t(legacy)")
    print_table(rows, headers=headers,
                title=f"strong scaling, (H2O){args.size}, eps={args.eps:g}")
    return 0


def _cmd_liair(args) -> int:
    from repro.analysis.report import print_table
    from repro.liair import screen_solvents

    methods = tuple(args.methods.split(","))
    distances = np.linspace(4.0, 2.0, args.points)
    result = screen_solvents(solvents=tuple(args.solvents.split(",")),
                             methods=methods, distances=distances)
    rows = [[r["solvent"], r["method"], r["well_kcal"],
             r["attack_kcal"], "ATTACKED" if r["degrades"] else "stable"]
            for r in result.table()]
    print_table(rows, headers=["solvent", "method", "well(kcal)",
                               "contact dE", "verdict"],
                title="peroxide attack screening")
    m = methods[-1]
    print("\nranking (most stable first): "
          + " > ".join(sv for sv, _ in result.ranking(m)))
    return 0


def _knob_text(key: str, text: str):
    """argparse ``type=`` of a boundary-table row (bound per flag)."""
    try:
        return from_text(key, text, "value")
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _knob_flag(parser, key: str, **kw) -> None:
    """Add the flag of boundary-table row ``key``: its choices tuple or
    its text parser, and its default (``None`` = resolved later, for
    rows with an environment override or a computed default)."""
    knob = KNOBS[key]
    if knob.kind == "choice":
        kw["choices"] = knob.choices
    else:
        kw["type"] = partial(_knob_text, key)
    kw.setdefault("default", None if knob.env or callable(knob.default)
                  else knob.default)
    parser.add_argument(knob.flag, **kw)


# --- shared flag groups (argparse parents) ------------------------------------


def _geometry_parent() -> argparse.ArgumentParser:
    """``--xyz`` / ``--charge`` / ``--multiplicity``."""
    g = argparse.ArgumentParser(add_help=False)
    g.add_argument("--xyz", help="XYZ file instead of a built-in")
    _knob_flag(g, "charge")
    _knob_flag(g, "multiplicity")
    return g


def _execution_parent() -> argparse.ArgumentParser:
    """The ExecutionConfig flags every computing subcommand shares."""
    e = argparse.ArgumentParser(add_help=False)
    _knob_flag(e, "executor",
               help="where direct J/K builds run: in-process or on a "
                    "persistent local worker pool")
    _knob_flag(e, "nworkers",
               help="worker count for --executor process "
                    "(default: usable cores)")
    _knob_flag(e, "kernel",
               help="ERI evaluation granularity for direct builds: "
                    "one shell quartet per call (reference) or whole "
                    "L-class batches (faster, ~1e-13 agreement)")
    _knob_flag(e, "jk",
               help="J/K engine: exact quartet walk (reference) or "
                    "density fitting (ri) — one fitted tensor per "
                    "geometry, reused by every SCF iteration; pays "
                    "off beyond ~a dozen atoms, fitted energies "
                    "agree to ~1e-5 Ha/atom (forces mode=direct)")
    _knob_flag(e, "scf_solver",
               help="SCF convergence strategy: Pulay DIIS (bit-exact "
                    "reference), ADIIS+Newton (soscf), or DIIS with "
                    "Newton handoff (auto) — the accelerated solvers "
                    "agree to the convergence tolerance in fewer "
                    "Fock builds (see scf.fock_builds in --profile)")
    return e


def _output_parent() -> argparse.ArgumentParser:
    """``--trace`` / ``--profile`` / ``--json``."""
    o = argparse.ArgumentParser(add_help=False)
    o.add_argument("--trace", metavar="FILE",
                   help="write a Chrome-trace JSON of the run "
                        "(chrome://tracing / Perfetto)")
    o.add_argument("--profile", action="store_true",
                   help="print a per-span profile table after the run")
    o.add_argument("--json", action="store_true",
                   help="emit the result (and telemetry summary, when "
                        "traced) as JSON on stdout")
    return o


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Shedding Light on Lithium/Air "
                    "Batteries Using Millions of Threads' (IPDPS 2014)")
    sub = p.add_subparsers(dest="command", required=True)
    geometry, execution, output = (_geometry_parent(), _execution_parent(),
                                   _output_parent())

    sub.add_parser("info", help="package and machine overview") \
        .set_defaults(func=_cmd_info)

    ps = sub.add_parser("scf", help="run an SCF calculation",
                        parents=[geometry, execution, output])
    ps.add_argument("molecule", nargs="?", default="water",
                    help="built-in builder name (default: water)")
    _knob_flag(ps, "method")
    ps.add_argument("--basis", default="sto-3g")
    _knob_flag(ps, "mode",
               help="J/K build style (default: direct under --executor "
                    "process or --jk ri, else incore)")
    ps.set_defaults(func=_cmd_scf)

    pm = sub.add_parser("md", help="Born-Oppenheimer MD with "
                                   "checkpoint/restart",
                        parents=[geometry, execution, output])
    pm.add_argument("molecule", nargs="?", default="h2",
                    help="built-in builder name (default: h2); ignored "
                         "with --restore")
    _knob_flag(pm, "md_method")
    pm.add_argument("--basis", default="sto-3g")
    _knob_flag(pm, "steps",
               help="integrate until logical step N (a restored "
                    "run takes only the remaining steps)")
    _knob_flag(pm, "dt_fs", help="timestep in fs (default 0.5)")
    pm.add_argument("--temperature", type=float, default=None,
                    help="initial Maxwell-Boltzmann temperature (K)")
    _knob_flag(pm, "thermostat",
               help="NVT thermostat (csvr continues its random "
                    "stream across restarts)")
    _knob_flag(pm, "tau_fs",
               help="thermostat time constant in fs (default 50)")
    _knob_flag(pm, "seed", help="velocity/thermostat RNG seed")
    _knob_flag(pm, "mts_outer", metavar="N",
               help="r-RESPA multiple time stepping: evaluate the full "
                    "SCF force every N steps, integrating the inner "
                    "motion on the --mts-inner surface (default 1 = off)")
    _knob_flag(pm, "mts_inner",
               help="fast-force surface for the MTS inner loop "
                    "(default ff: the classical force field)")
    pm.add_argument("--mts-aspc-order", type=int, default=2, metavar="K",
                    help="ASPC density-extrapolation order for the outer "
                         "SCF warm starts (default 2; negative disables)")
    pm.add_argument("--checkpoint", metavar="DIR",
                    help="snapshot the trajectory into DIR (atomic, "
                         "checksummed, ring-pruned)")
    _knob_flag(pm, "checkpoint_every", metavar="N",
               help="snapshot cadence in MD steps (default: "
                    "REPRO_CHECKPOINT_EVERY or 10)")
    _knob_flag(pm, "checkpoint_keep", metavar="K",
               help="ring size: snapshots kept on disk (default 3)")
    pm.add_argument("--restore", nargs="?", const=True, metavar="DIR",
                    help="resume from the newest uncorrupted snapshot in "
                         "DIR (default: the --checkpoint directory)")
    pm.set_defaults(func=_cmd_md)

    pg = sub.add_parser(
        "campaign", help="high-throughput screening campaigns")
    pg.add_argument("--dir", required=True, metavar="DIR",
                    help="campaign directory (queue manifest, result "
                         "cache, results store, MD checkpoints)")
    gsub = pg.add_subparsers(dest="action", required=True)
    gs = gsub.add_parser("submit", parents=[execution],
                         help="queue spec files and/or the "
                              "solvent-screening axis product")
    gs.add_argument("--spec", action="append", metavar="FILE",
                    help="JSON JobSpec (object or list; repeatable)")
    gs.add_argument("--screen", action="store_true",
                    help="generate the F7 screening set: solvents x "
                         "methods x perturbed geometries x seeds")
    gs.add_argument("--solvents", default="PC,DMSO,ACN")
    gs.add_argument("--methods", default="hf")
    gs.add_argument("--basis", default="sto-3g")
    _knob_flag(gs, "nperturb",
               help="perturbed-geometry copies per solvent/method")
    gs.add_argument("--perturb", type=float, default=0.02,
                    help="coordinate jitter stddev in Bohr (default 0.02)")
    gs.add_argument("--seeds", default="0",
                    help="comma-separated MD seeds (kind=md only)")
    gs.add_argument("--jks", default=None, metavar="LIST",
                    help="comma-separated J/K engines fanning the screen "
                         "(e.g. 'direct,ri'; default: the --jk value). "
                         "A placement axis: both engines of a point "
                         "share one cache entry")
    _knob_flag(gs, "kind")
    _knob_flag(gs, "steps", help="MD steps for --kind md")
    gs.add_argument("--dt", type=float, default=0.5,
                    help="MD timestep in fs for --kind md")
    gs.add_argument("--mts-outers", default="1", metavar="LIST",
                    help="comma-separated RESPA full-force strides "
                         "fanning --kind md points (e.g. '1,5'); a "
                         "physics axis — every stride is its own cache "
                         "entry")
    gr = gsub.add_parser("run", help="drain the queue")
    _knob_flag(gr, "lanes",
               help="concurrent dispatch lanes (default 1); more than "
                    "one runs forked 'process' lanes")
    _knob_flag(gr, "service_transport",
               help="lane kind: 'local' is one inline lane in this "
                    "process (refused with --lanes > 1), 'process' forks "
                    "one worker per lane (default: local for one lane "
                    "and process for more)")
    gr.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="shared result-cache directory (default: "
                         "<campaign>/cache); point concurrent campaigns "
                         "at one DIR to dedup work across them")
    _knob_flag(gr, "preempt_steps", metavar="N",
               help="slice MD trajectories every N steps through "
                    "the checkpoint store")
    _knob_flag(gr, "max_retries",
               help="execution attempts per job beyond the first")
    gr.add_argument("--json", action="store_true",
                    help="emit the campaign report as JSON")
    gr.add_argument("--trace", metavar="FILE",
                    help="write a Chrome-trace JSON of the drain "
                         "(transport.* spans included)")
    gr.add_argument("--profile", action="store_true",
                    help="print a per-span profile table after the "
                         "drain (service.* and transport.* counters)")
    gt = gsub.add_parser("status", help="queue and counter overview")
    gt.add_argument("--json", action="store_true")
    gq = gsub.add_parser("results", help="retired job records")
    gq.add_argument("--json", action="store_true")
    pg.set_defaults(func=_cmd_campaign)

    pw = sub.add_parser("workload", help="generate an HFX workload")
    pw.add_argument("system", nargs="?", default="water",
                    choices=KNOBS["workload_system"].choices)
    pw.add_argument("--size", type=int, default=64,
                    help="molecule count (default 64)")
    pw.add_argument("--eps", type=float, default=1e-8)
    pw.set_defaults(func=_cmd_workload)

    pc = sub.add_parser("scale", help="strong-scaling sweep")
    pc.add_argument("--size", type=int, default=128)
    pc.add_argument("--eps", type=float, default=1e-8)
    pc.add_argument("--racks", default="1,4,16,48,96")
    pc.add_argument("--flop-scale", type=float, default=50.0)
    pc.add_argument("--baseline", action="store_true",
                    help="include the legacy replicated baseline")
    pc.set_defaults(func=_cmd_scale)

    pl = sub.add_parser("liair", help="solvent-stability screening")
    pl.add_argument("--solvents", default="PC,DMSO,ACN")
    pl.add_argument("--methods", default="hf")
    pl.add_argument("--points", type=int, default=5)
    pl.set_defaults(func=_cmd_liair)
    return p


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
