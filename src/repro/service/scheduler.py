"""The campaign runtime: queue, scheduler, fault isolation, preemption.

This is the "millions of users" layer the ROADMAP names: it promotes
the one-shot CLI into a long-running screening service.  A
:class:`CampaignService` owns

* a **job queue** of validated :class:`~repro.service.JobSpec`\\ s
  (``submit`` returns immediately; ``run`` drains),
* a **scheduler** that shards pending jobs across ``nworkers``
  dispatch lanes — each lane runs jobs through the one public
  :mod:`repro.api` entrypoint, and a job that uses
  ``executor="process"`` gets its own persistent worker pool
  underneath (PR 4's fault-tolerant pool).  One single-threaded
  dispatch loop (:mod:`~repro.service.transport`) drives every lane:
  ``"local"`` is one inline lane in this process (the bit-exact
  reference), ``"process"`` lanes are persistent forked workers behind
  a framed RPC protocol with heartbeat liveness and job leases,
* **per-job fault isolation**: an exception (a dead pool, a diverged
  SCF, an injected worker death) fails *that job* after its retry
  budget — never the campaign,
* **checkpoint-based preemption** for MD jobs: with
  ``preempt_steps=n`` a trajectory runs in n-step slices through the
  PR 5 snapshot store and re-enters the queue between slices, resuming
  bit-identically — the scheduler can interleave long trajectories
  with cheap single points,
* a **content-addressed result cache** (duplicate or resubmitted specs
  are served for free) and a **JSON results store** the analysis layer
  reads back,
* a **snapshot + journal** queue store: every transition (submit,
  finish, retire, preempt, requeue) appends one self-checking line to
  ``campaign.journal`` and fsyncs it before the service acts on it;
  ``run`` compacts the journal into the ``campaign.json`` snapshot.  A
  transition costs one job record, not a rewrite of every record.

Telemetry: ``service.jobs_submitted`` / ``_completed`` / ``_failed`` /
``_retried`` / ``_preempted``, ``service.cache_hits`` /
``service.cache_misses``, ``service.journal_appends`` /
``service.compactions`` — accumulated on the service's own metrics
registry and mirrored into the campaign tracer when one is attached,
which also receives ``campaign.journal`` / ``campaign.compact`` spans.

Deterministic fault injection (tests/benchmarks only):
``REPRO_SERVICE_FAULT="job=N[,times=K]"`` makes the first ``K``
execution attempts of job ``N`` die with
:class:`~repro.service.transport.InjectedWorkerDeath` (either lane
kind); ``"worker=W[,exec=N][,mode=kill|hang]"`` kills or wedges a
process lane worker (see
:func:`~repro.service.transport.parse_service_fault`).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from ..runtime.boundary import KNOBS, check, env_text
from ..runtime.execconfig import ExecutionConfig, resolve_execution
from ..runtime.fsio import append_durable, atomic_write_text
from ..runtime.schema import check_envelope, result_envelope
from ..runtime.telemetry import MetricsRegistry
from .cache import ResultCache
from .jobspec import JobSpec
from .store import ResultsStore
from .transport import ProcessLaneTransport, parse_service_fault

__all__ = ["Job", "CampaignService", "DEFAULT_MAX_RETRIES"]

#: Execution attempts a job gets beyond its first (per-job isolation:
#: exhausting the budget fails the job, never the campaign).
DEFAULT_MAX_RETRIES = KNOBS["max_retries"].default

_JOB_STATUSES = ("pending", "running", "done", "failed")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _journal_line(entry: dict) -> bytes:
    """One self-checking journal line: ``<sha256 of body> <body>\\n``."""
    body = json.dumps(entry, sort_keys=True).encode()
    return _digest(body).encode() + b" " + body + b"\n"


def _read_journal_line(line: bytes) -> dict:
    """The entry a journal line carries; ``ValueError`` unless intact."""
    digest, _, body = line.partition(b" ")
    if _digest(body).encode() != digest:
        raise ValueError("checksum mismatch")
    return check_envelope(json.loads(body), kind="campaign_journal")


@dataclass
class Job:
    """One queued unit of work and its lifecycle bookkeeping."""

    id: int
    spec: JobSpec
    key: str
    status: str = "pending"
    attempts: int = 0
    cache_hit: bool = False
    error: str | None = None
    steps_done: int = 0
    wall_s: float = 0.0
    result: dict | None = field(default=None, repr=False)

    def record(self) -> dict:
        """Schema-versioned job record (snapshot, journal, results
        store)."""
        return result_envelope(
            "job", wall_s=self.wall_s,
            job_id=self.id, label=self.spec.label or f"job-{self.id}",
            key=self.key, status=self.status, attempts=self.attempts,
            cache_hit=bool(self.cache_hit), error=self.error,
            steps_done=int(self.steps_done), spec=self.spec.to_dict(),
            result=self.result,
        )

    @classmethod
    def from_record(cls, record: dict) -> "Job":
        """Rebuild a job from a stored record (crash-interrupted
        ``running`` jobs rejoin the queue as ``pending``)."""
        check_envelope(record, kind="job")
        status = record["status"]
        if status not in _JOB_STATUSES:
            raise ValueError(f"job record has unknown status {status!r}")
        if status == "running":
            status = "pending"
        return cls(id=int(record["job_id"]),
                   spec=JobSpec.from_dict(record["spec"]),
                   key=str(record["key"]), status=status,
                   attempts=int(record["attempts"]),
                   cache_hit=bool(record["cache_hit"]),
                   error=record.get("error"),
                   steps_done=int(record.get("steps_done", 0)),
                   wall_s=float(record.get("wall_s", 0.0)),
                   result=record.get("result"))


class CampaignService:
    """Long-running screening campaign runtime.

    Parameters
    ----------
    directory:
        Campaign home.  When given, the queue snapshot
        (``campaign.json``) and its journal (``campaign.journal``), the
        result cache (``cache/``), the results store (``results/``),
        and MD preemption checkpoints (``ckpt/job-NNNNN/``) all live
        under it, and a new service on the same directory resumes the
        existing campaign.  A directory has one owning service at a
        time.  ``None`` runs fully in memory (no preemption — slicing
        needs the snapshot store).
    config:
        Base :class:`~repro.runtime.ExecutionConfig` for every job;
        each spec's execution fields (executor/nworkers/kernel/
        scf_solver) override their base values per job.  The tracer
        (if any) receives the ``service.*`` counters, the dispatch
        loop's ``transport.*`` spans, and the spans of every job the
        inline lane runs (process lanes run their jobs untraced).
    max_retries:
        Execution attempts each job gets beyond its first.
    preempt_steps:
        MD time-slice in steps: a trajectory yields the lane and
        re-enters the queue every ``preempt_steps`` steps (requires
        ``directory``).  ``None`` runs trajectories to completion.
    cache_dir:
        Where the content-addressed result cache lives.  Defaults to
        ``<directory>/cache`` (or in-memory for a memory-only
        campaign).  Point several campaigns — including campaigns in
        different processes — at one ``cache_dir`` and duplicate specs
        across them cost a single compute: the cache's per-key compute
        locks serialize the first execution and every twin is served
        from the landed record.
    """

    def __init__(self, directory=None, config: ExecutionConfig | None = None,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 preempt_steps: int | None = None,
                 cache_dir=None):
        check("max_retries", max_retries, owner="CampaignService")
        check("preempt_steps", preempt_steps, owner="CampaignService")
        if preempt_steps is not None and directory is None:
            raise ValueError(
                "preempt_steps needs a campaign directory — MD "
                "time-slicing rides on the checkpoint store")
        self.directory = Path(directory) if directory is not None else None
        self.config = resolve_execution(config, owner="CampaignService")
        self.max_retries = max_retries
        self.preempt_steps = preempt_steps
        self.jobs: dict[int, Job] = {}
        self._next_id = 0
        self.metrics = MetricsRegistry()
        if cache_dir is not None:
            self.cache = ResultCache(cache_dir)
        else:
            self.cache = ResultCache(self.directory / "cache"
                                     if self.directory else None)
        self.store = ResultsStore(self.directory) if self.directory else None
        self._inflight: set[str] = set()
        self._fault_budget: dict[int, int] = {}
        # digest of the snapshot the journal extends (None: no snapshot)
        self._base: str | None = None
        # set when the load met damage: the next transition rewrites
        # the snapshot instead of appending behind a bad line
        self._snapshot_due = False
        if self.directory is not None:
            self._load()

    # --- counters -------------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        """Bump a service counter (and mirror it into the tracer)."""
        self.metrics.count(name, n)
        tr = self.config.trace
        if tr.enabled:
            tr.metrics.count(name, n)

    # --- persistence ----------------------------------------------------------
    #
    # ``campaign.json`` is the compacted snapshot (the envelope every
    # earlier version wrote); ``campaign.journal`` holds one line per
    # transition since then: ``<sha256> <entry>`` where the entry carries
    # the job's record, ``next_id``, the counters and ``base`` — the
    # digest of the snapshot it extends.  Loading replays the lines
    # whose base is the snapshot on disk, last record per job winning,
    # and stops at the first line that fails its checksum.

    def _snapshot_path(self) -> Path:
        return self.directory / "campaign.json"

    def _journal_path(self) -> Path:
        return self.directory / "campaign.journal"

    def _persist(self, job: Job) -> None:
        """Make one transition durable before the service acts on it.

        A retired job's record lands in ``results/`` first; the same
        record then rides one journal line.
        """
        if self.directory is None:
            return
        record = job.record()
        if job.status in ("done", "failed"):
            self.store.write(job.id, record)
        if self._snapshot_due:
            self._compact()
            return
        with self.config.trace.span("campaign.journal", cat="service",
                                    job=job.id):
            self._count("service.journal_appends")
            entry = result_envelope(
                "campaign_journal", counters=self.metrics.to_dict(),
                next_id=self._next_id, base=self._base, job=record)
            append_durable(self._journal_path(), _journal_line(entry))

    def _compact(self) -> None:
        """Fold the journal into a fresh snapshot."""
        if self.directory is None:
            return
        with self.config.trace.span("campaign.compact", cat="service",
                                    njobs=len(self.jobs)):
            self._count("service.compactions")
            text = json.dumps(result_envelope(
                "campaign",
                counters=self.metrics.to_dict(),
                next_id=self._next_id,
                jobs=[self.jobs[i].record() for i in sorted(self.jobs)],
            ), sort_keys=True)
            # the replace is durable before the truncate: a crash in
            # between leaves lines naming the old snapshot, which the
            # load skips
            atomic_write_text(self._snapshot_path(), text, sync_dir=True)
            self._base = _digest(text.encode())
            self._snapshot_due = False
            with contextlib.suppress(FileNotFoundError):
                os.truncate(self._journal_path(), 0)

    def _load(self) -> None:
        jobs: dict[int, Job] = {}
        next_id, counters = 0, {}
        path = self._snapshot_path()
        if path.is_file():
            try:
                raw = path.read_bytes()
                manifest = check_envelope(json.loads(raw), kind="campaign")
                for record in manifest.get("jobs", ()):
                    job = Job.from_record(record)
                    jobs[job.id] = job
                next_id = int(manifest.get("next_id", len(jobs)))
                counters = manifest.get("counters", {})
            except (OSError, ValueError, TypeError, KeyError) as e:
                # a torn or foreign snapshot must not brick the campaign
                # directory: warn, keep the file for post-mortem, start
                # with an empty queue (results/cache records are
                # untouched; the journal extends a state we cannot read)
                warnings.warn(
                    f"campaign manifest '{path}' is unreadable "
                    f"({type(e).__name__}: {e}); starting with an empty "
                    f"queue", RuntimeWarning, stacklevel=3)
                self._snapshot_due = True
                return
            self._base = _digest(raw)
        for job, next_id, counters in self._replay():
            jobs[job.id] = job
        self.jobs = jobs
        self._next_id = next_id
        self.metrics.set_state(counters)

    def _replay(self) -> list[tuple[Job, int, dict]]:
        """``(job, next_id, counters)`` of each intact journal line that
        extends the snapshot, up to the first damaged one."""
        path = self._journal_path()
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return []
        except OSError as e:
            return self._damaged(path, [], f"{type(e).__name__}: {e}")
        *lines, tail = data.split(b"\n")
        out = []
        for n, line in enumerate(lines, 1):
            try:
                entry = _read_journal_line(line)
                if entry["base"] != self._base:
                    continue        # compacted into the snapshot already
                out.append((Job.from_record(entry["job"]),
                            int(entry["next_id"]), dict(entry["counters"])))
            except (ValueError, TypeError, KeyError) as e:
                return self._damaged(path, out, f"line {n}: {e}")
        if tail:
            return self._damaged(path, out, f"line {len(lines) + 1} is torn")
        return out

    def _damaged(self, path: Path, good: list, why: str) -> list:
        warnings.warn(
            f"campaign journal '{path}' is damaged ({why}); resuming from "
            f"the last good record", RuntimeWarning, stacklevel=5)
        self._snapshot_due = True
        return good

    # --- queue API ------------------------------------------------------------

    def submit(self, spec: JobSpec | dict) -> Job:
        """Validate and enqueue one spec; returns its :class:`Job`.

        Duplicate specs are accepted — the second one is served from
        the content-addressed cache at dispatch time, not rejected at
        the boundary (a duplicate is a legitimate query, and "free" is
        the service's answer to it).
        """
        if isinstance(spec, dict):
            spec = JobSpec.from_dict(spec)
        elif not isinstance(spec, JobSpec):
            raise TypeError(
                f"submit needs a JobSpec or a spec dict, "
                f"got {type(spec).__name__}")
        job = Job(id=self._next_id, spec=spec, key=spec.canonical_key())
        self._next_id += 1
        self.jobs[job.id] = job
        self._count("service.jobs_submitted")
        self._persist(job)
        return job

    def status(self) -> dict:
        """Queue counts and counters (schema envelope)."""
        by_status: dict[str, int] = {}
        for job in self.jobs.values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return result_envelope(
            "campaign_status",
            counters=self.metrics.to_dict(),
            njobs=len(self.jobs),
            by_status=dict(sorted(by_status.items())),
            jobs=[{"id": j.id, "label": j.spec.label or f"job-{j.id}",
                   "kind": j.spec.kind, "status": j.status,
                   "jk": j.spec.jk,
                   "attempts": j.attempts, "cache_hit": j.cache_hit,
                   "steps_done": j.steps_done, "error": j.error}
                  for _, j in sorted(self.jobs.items())],
        )

    def results(self) -> list[dict]:
        """Every retired job record (store-backed when durable)."""
        if self.store is not None:
            return self.store.read_all()
        return [self.jobs[i].record() for i in sorted(self.jobs)
                if self.jobs[i].status in ("done", "failed")]

    # --- scheduler ------------------------------------------------------------

    def _transport(self, nworkers: int, transport: str | None) -> str:
        """The lane kind a drain over ``nworkers`` lanes runs on:
        ``transport`` if named, else ``"local"`` for one lane and
        ``"process"`` for more.  ``"local"`` is one inline lane, so
        naming it with more lanes is refused.
        """
        if transport is None:
            return "local" if nworkers == 1 else "process"
        name = check("service_transport", transport)
        if name == "local" and nworkers > 1:
            raise ValueError(
                f"transport 'local' is one inline lane and cannot run "
                f"{nworkers} lanes; name transport 'process' for more "
                f"than one")
        return name

    def run(self, nworkers: int = 1, transport: str | None = None) -> dict:
        """Drain the queue across ``nworkers`` dispatch lanes.

        ``transport`` picks the lane kind: ``"local"`` runs every job
        on one inline lane in this process, ``"process"`` on
        ``nworkers`` forked workers.  ``None`` lets the lane count
        decide (``"local"`` for one lane, ``"process"`` for more).  Returns a campaign report envelope (job outcomes +
        ``service.*`` counters).  Safe to call again after further
        ``submit``\\ s.
        """
        check("lanes", nworkers, owner="CampaignService.run")
        name = self._transport(nworkers, transport)
        fault = parse_service_fault(env_text("REPRO_SERVICE_FAULT"))
        self._fault_budget = dict(fault[1]) \
            if fault is not None and fault[0] == "job" else {}
        t0 = time.perf_counter()
        lanes = ProcessLaneTransport(
            self, nworkers if name == "process" else 0, self.config)
        try:
            lanes.drain()
        finally:
            lanes.close()
        self._compact()
        jobs = [self.jobs[i] for i in sorted(self.jobs)]
        return result_envelope(
            "campaign_report",
            wall_s=time.perf_counter() - t0,
            counters=self.metrics.to_dict(),
            njobs=len(jobs),
            transport=name,
            completed=sum(j.status == "done" for j in jobs),
            failed=sum(j.status == "failed" for j in jobs),
            jobs=[{"id": j.id,
                   "label": j.spec.label or f"job-{j.id}",
                   "status": j.status, "jk": j.spec.jk,
                   "cache_hit": j.cache_hit,
                   "attempts": j.attempts, "error": j.error}
                  for j in jobs],
        )

    def _next_pending(self, skip=()) -> Job | None:
        """Claim the next runnable pending job, or ``None`` when nothing
        is claimable *right now* — the dispatch loop keeps draining
        leases and asks again.

        A pending job whose key is in flight on another lane is passed
        over (its twin's result will serve it from the cache), and so
        are the keys in ``skip`` (keys whose compute lock a twin
        campaign currently holds).
        """
        for jid in sorted(self.jobs):
            job = self.jobs[jid]
            if job.status == "pending" and \
                    job.key not in self._inflight and \
                    job.key not in skip:
                job.status = "running"
                self._inflight.add(job.key)
                return job
        return None

    def _unclaim(self, job: Job) -> None:
        """Put a claimed-but-undispatched job back in the queue."""
        job.status = "pending"
        self._inflight.discard(job.key)

    def _has_pending(self) -> bool:
        return any(j.status == "pending" for j in self.jobs.values())

    def _finish(self, job: Job) -> None:
        """Persist a job's transition, then release its in-flight slot
        (only then may another lane claim its twin or its requeue)."""
        self._persist(job)
        self._inflight.discard(job.key)

    # --- per-job execution ----------------------------------------------------

    def _job_config(self, job: Job, config: ExecutionConfig
                    ) -> ExecutionConfig:
        spec = job.spec
        cfg = config.replace(executor=spec.executor,
                             nworkers=spec.nworkers,
                             kernel=spec.kernel,
                             jk=spec.jk,
                             scf_solver=spec.scf_solver,
                             checkpoint_dir=None)
        if spec.kind == "md" and self.directory is not None:
            cfg = cfg.replace(
                checkpoint_dir=str(self.directory / "ckpt"
                                   / f"job-{job.id:05d}"))
        return cfg

    def _until_step(self, job: Job) -> int | None:
        """The MD step this attempt runs to (``None`` = completion)."""
        if job.spec.kind == "md" and self.preempt_steps is not None:
            return min(job.spec.steps, job.steps_done + self.preempt_steps)
        return None

    def _take_injected_fault(self, job: Job) -> bool:
        """Consume one ``job=N`` fault charge, if this job has any."""
        remaining = self._fault_budget.get(job.id, 0)
        if remaining > 0:
            self._fault_budget[job.id] = remaining - 1
            return True
        return False

    def _serve_cached(self, job: Job, t0: float) -> bool:
        """Complete ``job`` from the cache if its record is in, charging
        the lookup since ``t0`` to its wall time."""
        cached = self.cache.get(job.key)
        if cached is None:
            return False
        job.wall_s += time.perf_counter() - t0
        job.result = cached
        job.cache_hit = True
        job.status = "done"
        self._count("service.cache_hits")
        self._count("service.jobs_completed")
        return True

    def _record_success(self, job: Job, result: dict,
                        elapsed: float) -> None:
        """Fold one successful execution attempt into the job.

        An MD slice that stopped short of the spec's step count was
        preempted: it re-enters the queue (the checkpoint store holds
        the slice-boundary snapshot).  A finished job lands in the
        cache and retires.  Call with the job's cache compute lock
        held, so a twin campaign's recheck sees the record.
        """
        job.wall_s += elapsed
        if job.spec.kind == "md":
            step = int(result.get("md", {}).get("step", job.spec.steps))
            job.steps_done = step
            if step < job.spec.steps:
                job.status = "pending"
                self._count("service.jobs_preempted")
                return
        self._count("service.cache_misses")
        self.cache.put(job.key, result)
        job.result = result
        job.status = "done"
        self._count("service.jobs_completed")

    def _record_failure(self, job: Job, error: str, elapsed: float,
                        counter: str = "service.jobs_retried") -> None:
        """Fold one failed attempt into the job: requeue within the
        retry budget (bumping ``counter`` — ``service.requeued_jobs``
        for transport-level worker deaths), else fail and retire."""
        job.wall_s += elapsed
        job.attempts += 1
        if job.attempts <= self.max_retries:
            job.status = "pending"
            self._count(counter)
            return
        job.status = "failed"
        job.error = error
        self._count("service.jobs_failed")
