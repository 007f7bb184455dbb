"""The four workloads: seeded input generation, one timed pass, checks.

Closed loop, one generator process: a pass submits its ``JobSpec``s one
after another (the campaign hands the batch to ``lanes <= nproc`` lanes).
The seed only chooses *which* jittered geometries / velocity draws run;
the program sees nothing but the generated ``JobSpec``s.

Every jitter and velocity draw comes from a small fixed pool of variants
whose reference values are committed in ``bench/reference.json``, so any
``--seed`` is checked against an independent reference at full strength,
not only the seeds someone remembered to record.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import api
from repro.runtime.execconfig import ExecutionConfig
from repro.service import JobSpec, ResultsStore

#: Jitter width (bohr) and variants per system the reference covers.
SIGMA = 0.01
SCF_POOL = 8
MD_POOL = 4            # velocity-draw seeds of the Li2O2 / LiH trajectory
CAMPAIGN_POOL = 16     # perturbation seeds the campaign picks 8 from
CAMPAIGN_MD_POOL = 4   # velocity seeds of the campaign's water MD jobs

#: Independent random streams; both SCF ladders share one, so the direct
#: and the fitted walk see the same jittered (H2O)n / Li2O2 geometries.
_STREAMS = ("md_pbe0_li2o2", "scf_ladder", "campaign_screen")


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), _STREAMS.index(stream)])


def _water_cluster(n: int) -> dict:
    from repro.chem import builders

    mol = builders.water_cluster(n)
    return {"symbols": list(mol.symbols), "coords_bohr": mol.coords.tolist(),
            "name": mol.name}


def molecule(system: str):
    """``JobSpec.molecule`` value of a ladder system name."""
    if system.startswith("w"):
        return _water_cluster(int(system[1:]))
    return system


def scf_spec(system: str, variant: int, method: str, **placement) -> JobSpec:
    return JobSpec(kind="scf", molecule=molecule(system), method=method,
                   conv_tol=1e-8, perturb=SIGMA, perturb_seed=int(variant),
                   label=f"{system}/v{variant}/{method}", **placement)


def reference_spec(spec: JobSpec) -> JobSpec:
    """The independent path a spec is checked against: serial in-core
    tensor J/K, per-quartet kernel, plain DIIS."""
    return spec.replace(jk="direct", mode=None, kernel="quartet",
                        scf_solver="diis", executor="serial", nworkers=None)


@dataclass
class Outcome:
    """What one check pass found."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        """One operation (SCF solve, MD step, campaign job)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def require(self, ok: bool, what: str) -> None:
        """A structural condition (not an operation of its own)."""
        if not ok:
            self.failures.append(what)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


def _check_scf(out: Outcome, spec: JobSpec, scf: dict, natom: int,
               reference: dict, tol_key: str) -> None:
    ref = reference["scf"].get(spec.label)
    tol = reference["tolerances"][tol_key]
    if tol_key.endswith("per_atom"):
        tol *= natom
    if ref is None or ref["key"] != reference_spec(spec).canonical_key():
        out.op(False, f"{spec.label}: no current reference entry "
                      f"(run --write-reference)")
        return
    err = abs(scf["energy"] - ref["energy"])
    out.op(bool(scf["converged"]) and err <= tol,
           f"{spec.label}: converged={scf['converged']} "
           f"|dE|={err:.3e} > {tol:.1e}")


class Workload:
    """One workload.  ``lanes`` is what provenance records."""

    name = ""
    lanes = 1
    #: traced passes: (which target sets, extra run_pass kwargs)
    traced_plans = ((("job", "parent"), {}),)

    def __init__(self, smoke: bool = False):
        self.smoke = smoke

    def specs(self, seed: int) -> list[JobSpec]:
        raise NotImplementedError

    def prepare(self, specs, workdir: Path):
        """Untimed one-off set-up, counted in ``setup_s``."""
        return None

    def prepare_pass(self, specs, state, passdir: Path) -> None:
        """Untimed per-pass set-up (fresh directories)."""

    def run_pass(self, specs, state, passdir: Path, **kw):
        raise NotImplementedError

    def check(self, specs, output, reference: dict) -> Outcome:
        raise NotImplementedError

    def extra_check(self, specs, output, reference: dict) -> Outcome:
        """Costly checks run once per run, outside every timed region."""
        return Outcome()

    def cross_check(self, outputs, reference: dict) -> Outcome:
        """Agreement between the outputs of the traced plans."""
        return Outcome()

    def figures(self, specs, output, wall_s: float) -> dict:
        """Workload-specific end-to-end figures of one pass."""
        return {"jobs_per_s": len(specs) / wall_s}

    def layer_metrics(self, specs, output) -> dict:
        """Per-layer figures a pass's own output carries (not its spans)."""
        return {}


# --- SCF ladders --------------------------------------------------------------

class _Ladder(Workload):
    rungs: tuple = ()          # (system, jitters)
    smoke_rungs: tuple = ()
    methods: tuple = ("hf",)
    placement: dict = {}
    tolerance = ""

    def specs(self, seed):
        rng = _rng(seed, "scf_ladder")
        out = []
        for system, jitters in (self.smoke_rungs if self.smoke
                                else self.rungs):
            for variant in sorted(rng.choice(SCF_POOL, size=jitters,
                                             replace=False)):
                for method in self.methods:
                    out.append(scf_spec(system, variant, method,
                                        **self.placement))
        return out

    def run_pass(self, specs, state, passdir, **kw):
        return [api.run_scf(spec) for spec in specs]

    def check(self, specs, output, reference):
        out = Outcome()
        for spec, res in zip(specs, output):
            _check_scf(out, spec, res["scf"], res["molecule"]["natom"],
                       reference, self.tolerance)
        return out


class DirectLadder(_Ladder):
    """The paper's screened direct HFX walk through the batched kernel."""

    name = "scf_direct_ladder"
    # (H2O)4 is the rung where screening bites, so it carries the second
    # jitter; one each elsewhere keeps the timed region near 16 s
    rungs = (("w3", 1), ("w4", 2), ("li2o2", 1))
    smoke_rungs = (("w1", 1), ("w2", 1))
    placement = {"mode": "direct", "kernel": "batched"}
    tolerance = "direct_ha"


class RILadder(_Ladder):
    """The same geometries (plus PC) through the density-fitted path."""

    name = "scf_ri_ladder"
    # the direct ladder's rungs and jitters, then PC (the big rung, twice)
    rungs = DirectLadder.rungs + (("propylene_carbonate", 2),)
    smoke_rungs = (("w1", 1), ("w2", 1))
    methods = ("hf", "pbe0")
    placement = {"jk": "ri"}
    tolerance = "ri_ha_per_atom"


# --- PBE0 BOMD ----------------------------------------------------------------

def md_label(spec: JobSpec) -> str:
    mol = spec.molecule if isinstance(spec.molecule, str) else "inline"
    tag = f"/mts{spec.mts_outer}" if spec.mts_outer > 1 else ""
    return f"md/{mol}/{spec.method}/n{spec.steps}/s{spec.seed}{tag}"


def _check_md(out: Outcome, spec: JobSpec, md: dict, energy_pot: float,
              reference: dict, *, ops: int, check_drift: bool) -> None:
    """One trajectory counted as ``ops`` operations (its timed MD steps,
    or one campaign job): a wrong final energy or — for an unsliced run,
    whose drift spans the same frames as the reference's — an excessive
    energy drift fails all of them."""
    ref = reference["md"].get(md_label(spec))
    tol = reference["tolerances"]
    if ref is None or ref["key"] != spec.canonical_key():
        ok, why = False, "no current reference entry (run --write-reference)"
    else:
        err = abs(energy_pot - ref["energy_pot"])
        drift_max = max(10.0 * ref["drift"], tol["md_drift_rel"])
        ok = bool(md["complete"]) and err <= tol["md_energy_ha"] \
            and (not check_drift or md["drift"] <= drift_max)
        why = (f"complete={md['complete']} |dE|={err:.3e} "
               f"drift={md['drift']:.3e} (max {drift_max:.1e})")
    for _ in range(ops):
        out.op(ok, f"{md_label(spec)}: {why}")


class PBE0MD(Workload):
    """The north-star number: wall-seconds per simulated fs of PBE0 BOMD
    on Li2O2.  The ``until_step=0`` slice (initial SCF + FD force +
    snapshot) is set-up; the timed pass resumes a copy of that snapshot
    and integrates to completion."""

    name = "md_pbe0_li2o2"

    def spec(self, vseed: int) -> JobSpec:
        return JobSpec(kind="md", molecule="lih" if self.smoke else "li2o2",
                       method="pbe0", temperature=300.0, thermostat="none",
                       dt_fs=0.5, steps=1 if self.smoke else 2,
                       seed=int(vseed))

    def specs(self, seed):
        return [self.spec(_rng(seed, self.name).integers(MD_POOL))]

    def prepare(self, specs, workdir):
        ckpt = workdir / "md-slice0"
        first = api.run_md(specs[0], ExecutionConfig(checkpoint_dir=str(ckpt)),
                           until_step=0)
        if first["md"]["step"] != 0:
            raise RuntimeError("MD set-up slice did not stop at step 0")
        return ckpt

    def prepare_pass(self, specs, state, passdir):
        shutil.copytree(state, passdir / "ckpt")

    def run_pass(self, specs, state, passdir, **kw):
        return api.run_md(specs[0], ExecutionConfig(
            checkpoint_dir=str(passdir / "ckpt")))

    def check(self, specs, output, reference):
        out = Outcome()
        md = output["md"]
        out.require(md["restored_from"] == 0 and md["step_first"] == 0,
                    f"timed slice did not resume the step-0 snapshot: {md}")
        _check_md(out, specs[0], md, output["final"]["energy_pot"],
                  reference, ops=specs[0].steps, check_drift=True)
        return out

    def figures(self, specs, output, wall_s):
        fs = specs[0].steps * specs[0].dt_fs
        return {"jobs_per_s": 1.0 / wall_s, "wall_s_per_fs": wall_s / fs}


# --- campaign -----------------------------------------------------------------

class CampaignScreen(Workload):
    """Campaign jobs/s over real forked lanes.  Cold: cache writes plus
    compute; warm: the same specs replayed into fresh campaign
    directories on the cold cache — cache reads plus scheduler only."""

    name = "campaign_screen"
    solvents = ("carbonate_model", "sulfoxide_model", "nitrile_model")
    methods = ("hf", "pbe0")
    traced_plans = ((("parent",), {}),
                    (("job", "parent"), {"local": True}))

    def __init__(self, smoke: bool = False):
        import os

        super().__init__(smoke)
        self.lanes = min(2, os.cpu_count() or 1)
        if smoke:
            self.solvents = self.solvents[2:]
            self.nperturb, self.ndup, self.nwarm = 2, 2, 2
            self.md_steps, self.md_stride, self.md_each = 2, 2, 1
            self.preempt = 1
        else:
            self.nperturb, self.ndup, self.nwarm = 8, 12, 10
            self.md_steps, self.md_stride, self.md_each = 6, 3, 2
            self.preempt = 2

    def scf_spec(self, mol: str, method: str, variant: int) -> JobSpec:
        return JobSpec(kind="scf", molecule=mol, method=method, jk="ri",
                       perturb=SIGMA, perturb_seed=int(variant),
                       label=f"{mol}/v{variant}/{method}")

    def md_spec(self, vseed: int, mts: bool) -> JobSpec:
        return JobSpec(kind="md", molecule="water", method="hf",
                       steps=self.md_steps, temperature=300.0,
                       seed=int(vseed), mts_inner="ff",
                       mts_outer=self.md_stride if mts else 1)

    def specs(self, seed):
        rng = _rng(seed, self.name)
        variants = sorted(rng.choice(CAMPAIGN_POOL, size=self.nperturb,
                                     replace=False))
        out = [self.scf_spec(mol, method, v) for mol in self.solvents
               for method in self.methods for v in variants]
        out += out[:self.ndup]            # resubmitted: in-campaign hits
        vseeds = rng.permutation(CAMPAIGN_MD_POOL)[:2 * self.md_each]
        out += [self.md_spec(vseed, mts=i >= self.md_each)
                for i, vseed in enumerate(vseeds)]
        return out

    def run_pass(self, specs, state, passdir, local=False, **kw):
        from time import perf_counter

        common = {"cache_dir": passdir / "cache",
                  "preempt_steps": self.preempt}
        if local:
            common.update(lanes=1, transport="local")
            nwarm = 0
        else:
            common.update(lanes=self.lanes, transport="process")
            nwarm = self.nwarm
        t0 = perf_counter()
        cold = api.run_campaign(specs, passdir / "cold", **common)
        t1 = perf_counter()
        warm = [api.run_campaign(specs, passdir / f"warm{i}", **common)
                for i in range(nwarm)]
        t2 = perf_counter()
        return {"cold": cold, "warm": warm, "cold_s": t1 - t0,
                "warm_s": t2 - t1, "lanes": common["lanes"],
                "records": ResultsStore(passdir / "cold").read_all(),
                "warm_records": ResultsStore(passdir / f"warm{nwarm - 1}")
                .read_all() if nwarm else []}

    def check(self, specs, output, reference):
        out = Outcome()
        cold, records = output["cold"], output["records"]
        out.require(len(records) == len(specs),
                    f"{len(records)} stored records for {len(specs)} jobs")
        for rec in records:
            spec = JobSpec.from_dict(rec["spec"])
            res = rec["result"] or {}
            if rec["status"] != "done":
                out.op(False, f"job {rec['job_id']} {rec['status']}: "
                              f"{rec['error']}")
            elif spec.kind == "scf":
                _check_scf(out, spec, res["scf"], res["molecule"]["natom"],
                           reference, "campaign_ri_ha_per_atom")
            else:
                _check_md(out, spec, res["md"], res["final"]["energy_pot"],
                          reference, ops=1, check_drift=False)
        if output["warm"]:
            hits_cold, hits_warm = self.ndup, self.nwarm * len(specs)
            got_cold = cold["counters"].get("service.cache_hits", 0)
            out.require(got_cold == hits_cold,
                        f"cold cache_hits {got_cold} != {hits_cold}")
            got_warm = 0
            for report in output["warm"]:
                got_warm += report["counters"].get("service.cache_hits", 0)
                for job in report["jobs"]:
                    out.op(job["status"] == "done" and job["cache_hit"],
                           f"warm job {job['id']}: {job['status']}, "
                           f"cache_hit={job['cache_hit']}")
            out.require(got_warm == hits_warm,
                        f"warm cache_hits {got_warm} != {hits_warm}")
            out.require(job_energies(output["warm_records"])
                        == job_energies(records),
                        "warm replay served different energies than the "
                        "cold drain computed")
        return out

    def cross_check(self, outputs, reference):
        """The process-lane and the one-lane local drain must agree."""
        out = Outcome()
        tol = reference["tolerances"]["inline_ha"]
        first = job_energies(outputs[0]["records"])
        for other in outputs[1:]:
            energies = job_energies(other["records"])
            worst = max((abs(energies.get(j, float("nan")) - e)
                         for j, e in first.items()), default=0.0)
            out.require(len(energies) == len(first) and worst <= tol,
                        f"traced drains disagree: max |dE|={worst:.3e}")
        return out

    def extra_check(self, specs, output, reference) -> Outcome:
        """One job per solvent re-run inline through ``api.run_scf``: the
        service must return what the facade computes."""
        out = Outcome()
        tol = reference["tolerances"]["inline_ha"]
        energies = job_energies(output["records"])
        seen = set()
        for job_id, spec in enumerate(specs):
            if spec.kind != "scf" or spec.molecule in seen:
                continue
            seen.add(spec.molecule)
            inline = api.run_scf(spec)["scf"]["energy"]
            err = abs(inline - energies.get(job_id, float("nan")))
            out.require(err <= tol, f"{spec.label}: campaign vs inline "
                                    f"api.run_scf |dE|={err:.3e}")
        return out

    def figures(self, specs, output, wall_s):
        figs = {"jobs_per_s": len(specs) / output["cold_s"]}
        if output["warm"]:
            figs["warm_jobs_per_s"] = \
                len(output["warm"]) * len(specs) / output["warm_s"]
        return figs

    def layer_metrics(self, specs, output) -> dict:
        """Scheduler and transport figures from the campaign reports (the
        names in ``CAMPAIGN_LAYER_NAMES``; zero on every other workload)."""
        cold, lanes = output["cold"], output["lanes"]
        busy = sum(rec["wall_s"] for rec in output["records"])
        counters = dict(cold["counters"])
        hits = counters.get("service.cache_hits", 0)
        lookups = hits + counters.get("service.cache_misses", 0)
        for report in output["warm"]:
            hits += report["counters"].get("service.cache_hits", 0)
            lookups += report["counters"].get("service.cache_hits", 0) \
                + report["counters"].get("service.cache_misses", 0)
        return {
            "service.scheduler.overhead_ms_per_job":
                (lanes * output["cold_s"] - busy) / len(specs) * 1e3,
            "service.scheduler.lane_busy_frac":
                busy / (lanes * output["cold_s"]),
            "service.scheduler.requeued_jobs":
                counters.get("service.requeued_jobs", 0),
            "service.scheduler.preemptions":
                counters.get("service.jobs_preempted", 0),
            "service.transport.frames_sent":
                counters.get("service.frames_sent", 0),
            "service.transport.frames_recv":
                counters.get("service.frames_recv", 0),
            "service.cache.hit_frac": hits / lookups if lookups else 0.0,
        }


def job_energies(records) -> dict[int, float]:
    """Job id -> the energy a finished job record carries."""
    out = {}
    for rec in records:
        res = rec["result"] or {}
        if "scf" in res:
            out[rec["job_id"]] = res["scf"]["energy"]
        elif "final" in res:
            out[rec["job_id"]] = res["final"]["energy_pot"]
    return out


CAMPAIGN_LAYER_NAMES = (
    "service.scheduler.overhead_ms_per_job",
    "service.scheduler.lane_busy_frac", "service.scheduler.requeued_jobs",
    "service.scheduler.preemptions", "service.transport.frames_sent",
    "service.transport.frames_recv", "service.cache.hit_frac")


BY_NAME = {cls.name: cls for cls in (PBE0MD, DirectLadder, RILadder,
                                     CampaignScreen)}


def pool_specs() -> tuple[list[JobSpec], list[JobSpec]]:
    """Every (SCF, MD) spec any seed can generate, full size and smoke —
    what ``--write-reference`` must cover."""
    scf = [scf_spec(system, variant, method)
           for system in ("w1", "w2", "w3", "w4", "li2o2",
                          "propylene_carbonate")
           for variant in range(SCF_POOL) for method in ("hf", "pbe0")]
    md = []
    for smoke in (False, True):
        campaign, traj = CampaignScreen(smoke), PBE0MD(smoke)
        scf += [campaign.scf_spec(mol, method, variant)
                for mol in campaign.solvents for method in campaign.methods
                for variant in range(CAMPAIGN_POOL)]
        md += [traj.spec(vseed) for vseed in range(MD_POOL)]
        md += [campaign.md_spec(vseed, mts) for mts in (False, True)
               for vseed in range(CAMPAIGN_MD_POOL)]
    return list({s.label: s for s in scf}.values()), md
