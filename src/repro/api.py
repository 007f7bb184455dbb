"""Stable public facade: one entrypoint for every calculation.

Before this module, every consumer (CLI subcommands, benchmarks, the
screening service) hand-assembled ``RHF``/``RKS``/``BOMD`` objects,
builders, thermostats, and ``ExecutionConfig`` plumbing — six slightly
different copies of the same wiring.  ``repro.api`` replaces them with
three calls over declarative :class:`repro.service.JobSpec` values:

* :func:`run_scf` — one SCF single point (RHF / UHF / LDA / PBE /
  PBE0), returning a uniform JSON-serializable result envelope;
* :func:`run_md` — one BOMD trajectory, checkpoint/preemption-aware:
  if the config's ``checkpoint_dir`` already holds snapshots the
  trajectory *resumes* bit-identically instead of restarting, and
  ``until_step`` lets a scheduler run it in time slices;
* :func:`submit` — enqueue a spec on a campaign service (the
  high-throughput path) instead of running it inline;
* :func:`run_campaign` — submit a batch of specs to a campaign and
  drain it in one call, with ``lanes`` / ``transport`` (one inline
  lane or forked-process lanes) / shared ``cache_dir`` knobs exposed.

Every result is a schema-versioned envelope (see
:mod:`repro.runtime.schema`): ``kind`` (``"scf_result"`` /
``"md_result"``), ``wall_s``, ``counters``, plus the payload the old
CLI JSON already exposed (``molecule``, ``method``, ``basis``, and a
``scf``/``md`` sub-record).

Migration note: direct construction of ``RHF(...)``/``BOMD(...)``
keeps working — the classes are not deprecated — but new code and
anything that wants its results stored, cached, or served should go
through this facade.
"""

from __future__ import annotations

import time

from .runtime.execconfig import ExecutionConfig, resolve_execution
from .runtime.schema import result_envelope
from .service.jobspec import JobSpec

__all__ = ["run_scf", "run_md", "run_job", "submit", "default_service",
           "run_campaign"]


def _as_spec(spec: JobSpec | dict, kind: str | None = None) -> JobSpec:
    """Normalize (and validate) the spec argument at the boundary."""
    if isinstance(spec, dict):
        spec = JobSpec.from_dict(spec)
    if not isinstance(spec, JobSpec):
        raise TypeError(f"expected a JobSpec or a spec dict, "
                        f"got {type(spec).__name__}")
    if kind is not None and spec.kind != kind:
        raise ValueError(f"expected a kind={kind!r} spec, "
                         f"got kind={spec.kind!r}")
    return spec


def _config_for(spec: JobSpec, config: ExecutionConfig | None
                ) -> ExecutionConfig:
    """The execution config a spec runs under.

    An explicit ``config`` wins untouched (the campaign scheduler has
    already merged the spec's execution fields into it); otherwise one
    is derived from the spec's own placement fields.
    """
    if config is not None:
        return resolve_execution(config, owner="repro.api")
    return ExecutionConfig(executor=spec.executor, nworkers=spec.nworkers,
                           kernel=spec.kernel, jk=spec.jk,
                           scf_solver=spec.scf_solver)


def _molecule_payload(mol) -> dict:
    return {"name": mol.name, "natom": mol.natom,
            "nelectron": mol.nelectron, "charge": mol.charge,
            "multiplicity": mol.multiplicity}


def run_scf(spec: JobSpec | dict,
            config: ExecutionConfig | None = None) -> dict:
    """One SCF single point; returns a ``"scf_result"`` envelope.

    The driver is :func:`repro.scf.scf_driver`'s (UHF for
    ``method="uhf"`` or an open-shell ``hf``, RHF for ``hf``, Kohn-Sham
    otherwise; open-shell Kohn-Sham is refused) and the J/K route
    :func:`repro.scf.fock.make_jk_engine`'s (``mode=None`` derives it).
    """
    from .scf import RHF, UHF, scf_driver

    spec = _as_spec(spec, kind="scf")
    cfg = _config_for(spec, config)
    mol = spec.resolve_molecule()
    t0 = time.perf_counter()
    driver = scf_driver(mol, spec.method, spec.basis, config=cfg,
                        conv_tol=spec.conv_tol, screen_eps=spec.screen_eps,
                        mode=spec.mode)
    res = driver.run()
    label = {UHF: "UHF", RHF: "RHF"}.get(type(driver), spec.method.upper())
    scf = res.summary()
    counters = dict(scf.get("counters", {}))
    return result_envelope(
        "scf_result", wall_s=time.perf_counter() - t0, counters=counters,
        molecule=_molecule_payload(mol), method=label, basis=spec.basis,
        scf=scf,
    )


def _build_bomd(spec: JobSpec, cfg: ExecutionConfig,
                restore_from=None):
    """Fresh-or-restored MD runner for a spec.

    ``restore_from`` names an explicit snapshot directory (missing or
    corrupt is a :class:`~repro.runtime.CheckpointError`); ``None``
    restores automatically whenever the config's checkpoint directory
    already holds a snapshot; ``False`` never restores (fresh start
    even over an existing checkpoint directory).  Restores dispatch on
    the snapshot's own ``kind`` tag (:func:`repro.md.restore_md`).

    ``mts_outer > 1`` runs :class:`repro.md.BOMD` on the r-RESPA
    integrator: the full SCF force every ``mts_outer`` steps, the
    ``mts_inner`` surface in between, and ``mts_aspc_order`` ASPC warm
    starts (which ride the RESPA outer loop only).
    """
    from .md import BOMD, SCFForceEngine, restore_md
    from .runtime.checkpoint import CheckpointStore

    if restore_from is None and cfg.checkpoint_dir is not None and \
            CheckpointStore(cfg.checkpoint_dir).snapshots():
        restore_from = cfg.checkpoint_dir
    if restore_from:
        b = restore_md(restore_from, config=cfg)
        restored_from = b.state.step
    else:
        restored_from = None
        thermostat = None
        if spec.thermostat != "none":
            from .constants import fs_to_aut
            from .md import BerendsenThermostat, CSVRThermostat

            tau = fs_to_aut(spec.tau_fs)
            cls = {"csvr": CSVRThermostat,
                   "berendsen": BerendsenThermostat}[spec.thermostat]
            kw = {"seed": spec.seed} if spec.thermostat == "csvr" else {}
            thermostat = cls(T=spec.temperature, tau=tau, **kw)
        b = BOMD(spec.resolve_molecule(), method=spec.method,
                 basis=spec.basis, dt_fs=spec.dt_fs,
                 temperature=spec.temperature, seed=spec.seed,
                 thermostat=thermostat, config=cfg,
                 n_outer=spec.mts_outer, inner=spec.mts_inner,
                 aspc_order=(spec.mts_aspc_order if spec.mts_outer > 1
                             else None))
    # the spec's hashed SCF numerics: neither a runner's constructor
    # nor its snapshot carries them, so fresh and revived runners alike
    # get them here, on the fields the engines already have
    for engine in (b.engine, b.fast_engine):
        if isinstance(engine, SCFForceEngine):
            engine.conv_tol = spec.conv_tol
            engine.scf_kwargs.update(screen_eps=spec.screen_eps,
                                     mode=spec.mode)
    return b, restored_from


def run_md(spec: JobSpec | dict, config: ExecutionConfig | None = None,
           *, until_step: int | None = None, restore_from=None) -> dict:
    """One BOMD trajectory (or one slice of it); an ``"md_result"``
    envelope.

    With a ``checkpoint_dir`` on the config, an existing snapshot is
    resumed bit-identically (``restored_from`` reports the step);
    ``until_step`` caps this call at a logical step short of
    ``spec.steps`` — the preemption primitive: the final slice state
    is always snapshotted, so the next call picks the trajectory up
    where this one yielded.  ``md.step`` in the payload tells the
    caller whether the trajectory is complete.
    """
    from .md import temperature as kinetic_temperature
    from .md.observables import energy_drift

    spec = _as_spec(spec, kind="md")
    cfg = _config_for(spec, config)
    t0 = time.perf_counter()
    b, restored_from = _build_bomd(spec, cfg, restore_from)
    target = spec.steps if until_step is None \
        else min(spec.steps, int(until_step))
    try:
        traj = b.run(target)
    finally:
        if hasattr(b.engine, "close"):
            b.engine.close()
    masses = b.mol.masses
    final = traj[-1]
    t_final = kinetic_temperature(masses, final.velocities)
    return result_envelope(
        "md_result", wall_s=time.perf_counter() - t0,
        counters={"md.steps": int(final.step)},
        molecule=_molecule_payload(b.mol), method=b.method, basis=b.basis,
        md={"steps": int(spec.steps), "step": int(final.step),
            "step_first": int(traj[0].step),
            "complete": bool(final.step >= spec.steps),
            "dt_fs": float(b.dt_fs),
            "energy_pot_final": float(final.energy_pot),
            "temperature_final": float(t_final),
            "drift": float(energy_drift(traj, masses)),
            "mts_outer": int(b.n_outer),
            "mts_inner": b.inner if b.n_outer > 1 else None,
            "restored_from": restored_from},
        final={"step": int(final.step),
               "energy_pot": float(final.energy_pot),
               "coords": [[float(x) for x in row] for row in final.coords],
               "velocities": [[float(v) for v in row]
                              for row in final.velocities]},
    )


def run_job(spec: JobSpec | dict, config: ExecutionConfig | None = None,
            *, until_step: int | None = None) -> dict:
    """Kind-dispatched entrypoint (what the campaign scheduler calls)."""
    spec = _as_spec(spec)
    if spec.kind == "md":
        return run_md(spec, config, until_step=until_step)
    if until_step is not None:
        raise ValueError("until_step only applies to MD jobs")
    return run_scf(spec, config)


_DEFAULT_SERVICE = None


def default_service():
    """The process-wide in-memory campaign service :func:`submit` uses
    when no explicit service is given (created lazily)."""
    global _DEFAULT_SERVICE
    if _DEFAULT_SERVICE is None:
        from .service import CampaignService

        _DEFAULT_SERVICE = CampaignService()
    return _DEFAULT_SERVICE


def submit(spec: JobSpec | dict, service=None):
    """Enqueue a spec for campaign execution; returns its
    :class:`repro.service.Job` handle immediately.

    ``service`` defaults to the process-wide in-memory
    :func:`default_service`; pass a directory-backed
    :class:`repro.service.CampaignService` for durable campaigns.
    Call ``service.run()`` to drain the queue.
    """
    target = service if service is not None else default_service()
    return target.submit(_as_spec(spec))


def run_campaign(specs, directory=None, *, lanes: int = 1,
                 transport: str | None = None, cache_dir=None,
                 config: ExecutionConfig | None = None,
                 max_retries: int | None = None,
                 preempt_steps: int | None = None) -> dict:
    """Submit ``specs`` to a fresh campaign service and drain it.

    The one-call facade over :class:`repro.service.CampaignService`:
    ``directory`` makes the campaign durable (manifest, results store,
    cache, checkpoints), ``lanes``/``transport`` pick the dispatch
    width and lane kind (``"local"``: one inline lane in this process;
    ``"process"``: forked workers; ``None`` lets the lane count decide —
    ``"local"`` for one lane, ``"process"`` for more), and ``cache_dir``
    points the content-addressed result cache somewhere shareable so
    concurrent campaigns dedup each other's work.  Returns the
    campaign report envelope.
    """
    from .service import CampaignService, DEFAULT_MAX_RETRIES

    kwargs = {"config": config, "preempt_steps": preempt_steps,
              "cache_dir": cache_dir,
              "max_retries": DEFAULT_MAX_RETRIES
              if max_retries is None else max_retries}
    service = CampaignService(directory, **kwargs)
    for spec in specs:
        service.submit(_as_spec(spec))
    return service.run(nworkers=lanes, transport=transport)
