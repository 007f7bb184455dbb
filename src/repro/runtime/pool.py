"""Process-pool execution backend: a rank-job executor.

The paper's scheme runs the exchange build over p MPI ranks times 64
hardware threads, as one static, master-less partition of independent
rank jobs.  :func:`run_rank_jobs` is that one rank loop: it hands each
job's work list to a *unit* — a module-level function
``unit(engine, basis, D, work, tr, *args) -> (A, B, count)`` — and runs
in-process for the serial executor and inside every pool worker, so a
rank's result is the same bits wherever it runs.  The pool knows
nothing about J/K or RI; the units live with their builders (the
screened J/K walk :func:`repro.scf.fock.eval_screened_pairs`, the RI
3-index slab ``repro.scf.ri_jk._slab_unit``).  This module runs the
loop in parallel on local cores:

* a pool of **persistent worker processes**, forked once per basis and
  reused across SCF iterations and MD steps (an MD step re-targets the
  workers with :meth:`ExchangeWorkerPool.reset` instead of respawning);
* **shared read-only state**: the basis (and therefore the shell pairs
  each worker rebuilds from it) rides along on the fork, while the
  density lives in a ``multiprocessing`` shared-memory buffer the parent
  rewrites before every build — workers never receive matrices over the
  pipe.  Every message crosses as :mod:`repro.runtime.codec` bytes
  (``send_bytes``/``recv_bytes``): an ``exec`` message is ``("exec",
  "module:qualname", jobs, args)``, the unit looked up by that name in
  the modules the forked worker already holds, and a ``reset`` carries
  the new geometry as a ``BasisSet`` record;
* **static balancing**: rank jobs are assigned to workers by the one
  greedy LPT, :func:`repro.hfx.partition.lpt_bins`, on each job's
  ``cost`` (the surviving quartets of its bras, :func:`own_bras`, for
  the direct builder, the partitioner's flops for
  ``distributed_exchange``, function counts for RI shards), mirroring
  the paper's master-less static schedule (no runtime dispatch);
* the per-rank results come back keyed by rank id; the caller reduces
  them (the J/K partials are summed exactly like the scheme's
  allreduce, RI slabs are scattered by aux-shell slice).

A rank job is the whole of its rank's work: the direct builder's job
names the bras the rank owns and the rank screens them itself, so the
pool changes only *where* a rank job runs, never *what* it computes.

Fault tolerance (the paper's 96-rack reality, one level down: node
failure is a fact of life and the static master-less schedule must
survive it):

* **detection** — the process lifecycle (start, sentinel-aware wait,
  reap, respawn, shutdown) is :mod:`repro.runtime.supervisor`'s, shared
  with the campaign lanes: a worker that dies (OOM kill, BLAS segfault)
  is diagnosed immediately as a :class:`WorkerDeathError` carrying the
  worker id, exit code / signal, and the rank jobs it held; a worker
  that *hangs* is caught by the deadline (default 120 s,
  ``REPRO_POOL_TIMEOUT`` overrides), killed, and diagnosed the same
  way, and so is one whose reply does not decode or has the wrong
  shape;
* **recovery** — rank jobs are deterministic whatever a worker's
  class store holds, so a dead worker's jobs are simply re-run: the pool
  respawns dead slots (bounded rounds with backoff; default 2,
  ``REPRO_POOL_MAX_RETRIES`` / ``ExecutionConfig(pool_max_retries=)``
  override) and re-dispatches *exactly* the lost rank slices — LPT over
  the survivors when a respawn fails — so the recovered K is
  bit-identical to an undisturbed build;
* **degradation** — when the pool cannot be healed it tears itself down
  and raises; every caller holds its pool through a :class:`PoolLease`,
  whose ``map`` catches that and runs the rank jobs in-process instead
  of aborting the SCF/trajectory;
* **fault injection** — ``REPRO_POOL_FAULT="worker=1,build=2,
  mode=kill"`` makes worker 1 die at the start of its 2nd ``exec``
  message (``worker=*`` matches every worker; modes: ``kill`` = SIGKILL
  mid-build, ``exc`` = simulated unhandled exception, ``hang`` = stop
  answering), which is how the recovery paths are tested
  deterministically (``pytest -m fault``).
"""

from __future__ import annotations

import multiprocessing as mp
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import codec
from .boundary import (KNOBS, default_nworkers, env_text, parse_fault,
                       resolve_nworkers, resolve_pool_max_retries,
                       resolve_pool_timeout)
from .supervisor import FaultGate, Supervisor, WorkerDeath

__all__ = ["RankJob", "ExchangeWorkerPool", "PoolLease", "WorkerDeathError",
           "run_rank_jobs", "own_bras", "default_nworkers",
           "resolve_nworkers", "resolve_pool_timeout",
           "resolve_pool_max_retries"]

# The pool knobs are rows of the boundary table: ``pool_timeout``, the
# hard ceiling on any single wait for a worker reply (a forked worker
# that wedges, e.g. on a BLAS lock inherited mid-acquisition, surfaces
# as a diagnosed hung-worker death instead of a hung test session), and
# ``pool_max_retries``, the recovery rounds per operation before the
# pool declares itself broken.
DEFAULT_MAX_RETRIES = KNOBS["pool_max_retries"].default


class WorkerDeathError(WorkerDeath):
    """A pool worker died (or hung past the deadline) mid-operation.

    The supervisor's diagnosis plus ``ranks``: the rank ids of the jobs
    the worker held — the exact slices a recovery pass must re-run.
    """

    noun = "pool worker"

    def __init__(self, worker: int, ranks=(), **diagnosis):
        self.ranks = tuple(ranks)
        held = f" holding rank jobs {sorted(self.ranks)}" if ranks else ""
        super().__init__(worker, held=held, **diagnosis)


@dataclass
class RankJob:
    """One rank's slice of the build.

    ``pairs`` is the work the unit is handed: for the direct builder's
    J/K job the bool mask of the bras the rank owns, for a task-list
    J/K job a list of ``(nq, 4)`` quartet arrays, for the RI slab unit a
    list of auxiliary shell indices.  ``cost`` is the job's weight in
    the LPT assignment.
    """

    rank: int
    pairs: list = field(default_factory=list)
    cost: float = 0.0


def run_rank_jobs(unit, engine, basis, D, jobs, tr, args=()) -> list:
    """The one rank loop: each ``(rank, work)`` job through ``unit``.

    ``unit(engine, basis, D, work, tr, *args)`` returns ``(A, B,
    count)``.  Runs in-process (:meth:`PoolLease.map`) and inside every
    pool worker, so a rank's result is the same bits wherever it runs.
    Returns one ``(rank, A, B, count, t0, t1)`` per job, ``t0``/``t1``
    the job's ``perf_counter`` interval.
    """
    out = []
    for rank, work in jobs:
        t0 = time.perf_counter()
        A, B, n = unit(engine, basis, D, work, tr, *args)
        out.append((rank, A, B, n, t0, time.perf_counter()))
    return out


def own_bras(counts: np.ndarray, nworkers: int
             ) -> tuple[np.ndarray, list[float]]:
    """The static schedule's bra ownership: every bra ``b`` (``i *
    nshell + j``), weighted by ``counts[b]``, its surviving quartets at
    a geometry's first build, goes to a rank by
    :func:`repro.hfx.partition.lpt_bins`.  Returns ``(rank_of_bra,
    loads)``, ``loads[w]`` the job cost of rank ``w``, so the pool's
    dispatch sends each rank to the same worker on every build."""
    from ..hfx.partition import lpt_bins

    rank_of_bra = np.empty(len(counts), dtype=np.int64)
    loads = []
    for w, mine in enumerate(lpt_bins(counts, nworkers)):
        rank_of_bra[mine] = w
        loads.append(float(counts[mine].sum()))
    return rank_of_bra, loads


def _parse_fault(spec: str | None):
    """Parse the test-only ``REPRO_POOL_FAULT`` injection spec.

    Format: ``worker=<id|*>,build=<n>,mode=<kill|hang|exc>`` — the
    matching worker triggers the fault at the start of its ``n``-th
    ``exec`` message (1-based, counted per worker process, so a
    respawned worker counts from 1 again).  Returns ``(worker, build,
    mode)`` or ``None`` when unset.
    """
    return parse_fault(spec, "REPRO_POOL_FAULT", "build",
                       ("kill", "hang", "exc"))


def _unit_name(unit) -> str:
    """``unit``'s ``module:qualname``, the name an ``exec`` message
    carries; refused unless :func:`_find_unit` resolves it to ``unit``
    (a lambda or a nested function has no such name)."""
    name = f"{unit.__module__}:{unit.__qualname__}"
    if _find_unit(name) is not unit:
        raise ValueError(f"pool unit {name} is not a module-level "
                         f"function the workers can look up by name")
    return name


def _find_unit(name: str):
    """The function ``name`` (``module:qualname``) names, looked up in
    the modules this process already holds (``None`` when it holds
    none by that name): no import runs."""
    module, _, qualname = name.partition(":")
    obj = sys.modules.get(module)
    for attr in qualname.split("."):
        obj = getattr(obj, attr, None)
    return obj if callable(obj) else None


def _send(conn, msg) -> None:
    conn.send_bytes(codec.encode(msg))


def _reply(buf) -> tuple:
    """A worker's reply, checked for shape: ``(status, payload, count,
    timings, tally)``.  :class:`~repro.runtime.codec.CodecError` for
    bytes that do not decode or decode to anything else."""
    reply = codec.decode(buf)
    if type(reply) is not tuple or len(reply) != 5 \
            or reply[0] not in ("ok", "err") or type(reply[2]) is not int:
        raise codec.CodecError(f"malformed pool reply {reply!r:.80}")
    status, payload, _, timings, tally = reply
    if status == "ok" and not (
            (payload is None or type(payload) is list and all(
                type(p) is tuple and len(p) == 3 for p in payload))
            and (timings is None or type(timings) is list and all(
                type(t) is tuple and len(t) == 4 for t in timings))
            and (tally is None or type(tally) is dict)):
        raise codec.CodecError(f"malformed pool reply {reply!r:.80}")
    return reply


def _worker_main(conn, wid: int, _gen: int, dbuf, basis, nbf: int) -> None:
    """Worker loop: run rank jobs until told to stop.

    Runs in the child process.  The engine (shell pairs) is rebuilt
    locally from the fork-inherited basis; the density is read from the
    shared buffer, so an ``exec`` message ``("exec", unit, jobs, args)``
    carries only the unit's ``module:qualname``, work lists and small
    arguments.

    Every reply is ``(status, payload, count, timings, tally)``; for
    ``exec``, ``payload`` lists one ``(rank, A, B)`` per job, ``timings``
    one ``(rank, t0, t1, count)`` record (``perf_counter`` is
    CLOCK_MONOTONIC under fork, so the parent's tracer can graft the
    spans onto its own timeline) and ``tally`` is what the worker's
    engine evaluated and looked up in its class store for the message
    (:meth:`~repro.integrals.eri.ERIEngine.tally`).  The engine, and
    with it the store, is rebuilt on every ``reset``, so a worker's
    store never spans two geometries; a respawned worker starts empty.

    ``wid`` is this worker's pool slot — only used to match the
    test-only ``REPRO_POOL_FAULT`` injection spec, which fires in every
    spawn generation (so ``worker=*,build=1`` re-kills each respawn:
    the degradation drills depend on it).
    """
    import traceback

    from ..integrals.eri import ERIEngine
    from .telemetry import NULL_TRACER

    gate = FaultGate(_parse_fault(env_text("REPRO_POOL_FAULT")), wid)
    engine = ERIEngine(basis)
    D = np.frombuffer(dbuf, dtype=np.float64).reshape(nbf, nbf)
    while True:
        try:
            msg = codec.decode(conn.recv_bytes())
        except (EOFError, OSError, KeyboardInterrupt, codec.CodecError):
            break               # parent gone, or a stream it never wrote
        cmd = msg[0] if type(msg) is tuple and msg else None
        if cmd == "stop":
            break
        if cmd == "exec":
            gate.tick()
        try:
            if cmd == "reset":
                basis = msg[1]
                if basis.nbf != nbf:
                    raise ValueError(
                        f"reset changed nbf {nbf} -> {basis.nbf}; the "
                        "shared density buffer is sized at pool creation")
                engine = ERIEngine(basis)
                _send(conn, ("ok", None, 0, None, None))
            elif cmd == "exec":
                _, name, jobs, args = msg
                unit = _find_unit(name)
                if unit is None:
                    raise ValueError(f"pool unit {name} is not loaded in "
                                     f"the worker")
                before = engine.tally()
                done = run_rank_jobs(unit, engine, basis, D, jobs,
                                     NULL_TRACER, args)
                _send(conn, ("ok", [(rank, A, B) for rank, A, B, *_ in done],
                             int(sum(d[3] for d in done)),
                             [(rank, t0, t1, n)
                              for rank, _, _, n, t0, t1 in done],
                             engine.tally(since=before)))
            elif cmd == "ping":
                _send(conn, ("ok", None, 0, None, None))
            else:
                raise ValueError(f"unknown pool command {cmd!r}")
        except Exception:
            _send(conn, ("err", traceback.format_exc(), 0, None, None))
    conn.close()


class ExchangeWorkerPool:
    """Persistent worker processes executing rank jobs.

    Parameters
    ----------
    basis:
        The basis the workers build their ERI engines from.  Forked
        workers inherit it; a ``reset`` sends the next one as a codec
        ``BasisSet`` record.
    nworkers:
        Pool size (default: the usable core count).
    timeout:
        Seconds any single wait for a worker may take before the pool
        declares the worker hung and treats it as dead (default: the
        validated ``REPRO_POOL_TIMEOUT`` override, else 120 s).
    max_retries:
        Recovery rounds per operation before the pool declares itself
        broken and raises :class:`WorkerDeathError` (default: the
        validated ``REPRO_POOL_MAX_RETRIES`` override, else 2; ``0``
        disables recovery).
    start_method:
        ``"fork"`` (default where available) shares the read-only state
        by inheritance; ``"spawn"`` is the portable fallback.
    """

    def __init__(self, basis, nworkers: int | None = None,
                 timeout: float | None = None,
                 max_retries: int | None = None,
                 start_method: str | None = None):
        self.basis = basis
        self.nworkers = resolve_nworkers(nworkers)
        self.timeout = resolve_pool_timeout(timeout)
        self.max_retries = resolve_pool_max_retries(max_retries)
        self.nbuilds = 0
        self.worker_deaths = 0       # diagnosed deaths (incl. hangs), total
        self.respawns = 0            # successful worker respawns, total
        self.retried_jobs = 0        # rank jobs re-dispatched after a death
        self._closed = False
        self._nbf = basis.nbf
        # density broadcast buffer: allocated before the fork so every
        # worker maps the same pages; the parent rewrites it per build
        self._dbuf = mp.RawArray("d", self._nbf * self._nbf)
        self._D = np.frombuffer(self._dbuf, dtype=np.float64) \
            .reshape(self._nbf, self._nbf)
        self._sup = Supervisor(
            self.nworkers, _worker_main, (self._dbuf, basis, self._nbf),
            pair=mp.Pipe, death=WorkerDeathError, timeout=self.timeout,
            start_method=start_method)

    # --- lifecycle ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether the pool has been torn down (explicitly or after an
        unrecoverable failure)."""
        return self._closed

    def _live(self) -> list[int]:
        """Slots with a (presumed) live worker."""
        return [s.wid for s in self._sup.live]

    def _death(self, w: int, phase: str, ranks=(),
               hung: bool = False) -> WorkerDeathError:
        """Reap slot ``w`` (survivors keep running, so a recovery pass
        can redistribute the lost jobs) and return the diagnosis."""
        self.worker_deaths += 1
        return self._sup.reap(self._sup.slots[w], hung, phase=phase,
                              ranks=ranks)

    def _respawn_dead(self, round_: int) -> int:
        """Respawn every dead slot (with backoff); returns the count.
        A slot whose respawn fails stays dead; the caller's next
        dispatch redistributes its jobs LPT-style over the survivors."""
        n = len(self._sup.respawn(
            [s for s in self._sup.slots if not s.alive], round_))
        self.respawns += n
        return n

    def reset(self, basis) -> None:
        """Re-target the live workers at a new geometry (same nbf).

        This is the MD-step path: nuclei moved, so shell pairs and
        Schwarz data are stale, but the workers themselves survive.  A
        worker found dead here (it crashed after its last build) is
        diagnosed and respawned from the new basis instead of leaving
        the pool half-alive; an unrecoverable pool tears down fully and
        raises the diagnosis.
        """
        from .telemetry import NULL_TRACER

        if self._closed:
            raise RuntimeError("pool is closed")
        if basis.nbf != self.basis.nbf:
            raise ValueError(
                "reset requires an equally sized basis "
                f"({self.basis.nbf} != {basis.nbf}); build a new pool")
        sent, deaths = self._post(
            {w: ("reset", basis) for w in self._live()}, "reset", {})
        deaths += self._collect(sent, "reset", {}, NULL_TRACER)[1]
        # respawned workers must build their engines from the new basis
        self.basis = basis
        self._sup.args = (self._dbuf, basis, self._nbf)
        if deaths:
            self._respawn_dead(round_=1)
            if not self._live():
                self.close(force=True)
                raise deaths[-1]

    def close(self, force: bool = False) -> None:
        """Stop the workers and release the pipes (idempotent).

        The orderly path (``force=False``) reports workers that did not
        exit cleanly: a nonzero exit code after the final build warns
        instead of disappearing, and a worker that ignores ``stop`` is
        escalated terminate → kill.
        """
        if self._closed:
            return
        self._closed = True
        for d in self._sup.shutdown(lambda s: _send(s.chan, ("stop",)),
                                    force):
            warnings.warn(
                f"pool worker {d.worker} had crashed ({d.how}) before "
                "close; its last build may have been recovered or degraded",
                RuntimeWarning, stacklevel=2)

    def __enter__(self) -> "ExchangeWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close(force=True)
        except Exception:
            pass

    # --- execution ---------------------------------------------------------------

    def _post(self, outbox, phase: str, held):
        """Send ``outbox[w]`` to each worker.  Returns the workers that
        took their message and the diagnosis of each found dead at send
        time (``held[w]``: the rank ids it would have held)."""
        # every message is encoded before any is sent: a value the codec
        # refuses raises while no worker holds a message to answer
        blobs = {w: codec.encode(msg) for w, msg in outbox.items()}
        sent, deaths = [], []
        for w, blob in blobs.items():
            try:
                self._sup.slots[w].chan.send_bytes(blob)
            except OSError:         # BrokenPipeError included
                deaths.append(self._death(w, phase, held.get(w, ())))
            else:
                sent.append(w)
        return sent, deaths

    def _collect(self, sent, phase: str, held, tr, unit: str = ""):
        """One reply from each worker in ``sent``, under one deadline.

        Returns ``({w: (payload, count, timings, tally)}, deaths)``: a
        worker whose pipe closes (possibly mid-message), whose reply
        does not decode or has the wrong shape, whose sentinel fires, or
        that stays silent past the deadline (``hung``) is reaped and
        diagnosed; its siblings' replies are kept.  A worker that
        *answers* with an error is a bug, not a fault: the pool tears
        down and raises.
        """
        deadline = time.monotonic() + self.timeout
        replies, deaths = {}, []
        with tr.span("pool.wait", cat="pool", nworkers=len(sent)):
            for w in sent:
                slot = self._sup.slots[w]
                news = self._sup.wait([slot], deadline)
                reply, why = None, phase
                if news and news[0][1]:
                    try:
                        reply = _reply(slot.chan.recv_bytes())
                    except (EOFError, OSError):
                        pass        # pipe closed, possibly mid-message
                    except codec.CodecError as e:
                        why = f"{phase} (reply refused: {e})"
                if reply is None:
                    deaths.append(self._death(w, why, held.get(w, ()),
                                              hung=not news))
                    continue
                status, payload, n, timings, tally = reply
                if status != "ok":
                    self.close(force=True)
                    raise RuntimeError(f"pool worker {w} failed:\n{payload}")
                replies[w] = (payload, n, timings, tally)
                if tr.enabled and timings:
                    for rank, t0, t1, n_rank in timings:
                        tr.add_span("worker.rank_job", t0, t1, cat="pool",
                                    tid=f"worker-{w}", unit=unit,
                                    rank=rank, n=n_rank)
        return replies, deaths

    def run(self, unit, jobs: list[RankJob], args=(), D=None, tracer=None,
            engine=None) -> tuple[dict[int, tuple], int]:
        """Run ``unit`` over rank jobs on the workers, against density
        ``D`` (``None`` leaves the shared buffer untouched).

        Each worker runs its jobs through :func:`run_rank_jobs`.
        Returns ``(results, count)``: ``results`` maps each job's rank
        id to the unit's ``(A, B)`` and ``count`` sums the units'
        counts.  ``engine`` (the caller's
        :class:`~repro.integrals.eri.ERIEngine`), when given, absorbs
        the workers' engine tallies of a run that completes, so it
        counts the evaluations done on its behalf as if it had run them.

        ``tracer`` (a :class:`repro.runtime.telemetry.Tracer`) records
        the dispatch/wait phases and grafts each worker's per-rank job
        timings — shipped back over the result pipes — into the trace
        as ``worker.rank_job`` spans on ``worker-N`` lanes.

        A worker death mid-build triggers recovery: dead slots are
        respawned (up to ``max_retries`` rounds, with backoff; a failed
        respawn leaves the lost jobs to the LPT pass over the
        survivors) and exactly the lost rank jobs re-run, so the
        returned results are bit-identical to an undisturbed run.
        When the budget is exhausted — or no worker survives — the pool
        tears itself down and raises :class:`WorkerDeathError`; callers
        degrade to the serial executor.
        """
        from ..hfx.partition import lpt_bins
        from .telemetry import NULL_TRACER

        tr = tracer if tracer is not None else NULL_TRACER
        if self._closed:
            raise RuntimeError("pool is closed")
        if D is not None:
            D = np.asarray(D, dtype=np.float64)
            if D.shape != self._D.shape:
                raise ValueError(f"density shape {D.shape} does not match "
                                 f"the pool's basis ({self._D.shape})")
            self._D[:] = D
        name = unit.__name__
        qualified = _unit_name(unit)
        results: dict[int, tuple] = {}
        total = 0
        tallies = []
        outstanding = list(range(len(jobs)))
        rounds = 0
        while outstanding:
            live = self._live()
            with tr.span("pool.dispatch", cat="pool", njobs=len(outstanding),
                         nworkers=len(live), unit=name):
                # LPT on job cost over whoever is alive this round
                assign = lpt_bins([jobs[t].cost for t in outstanding],
                                  len(live))
                holds = {w: [outstanding[k] for k in sorted(sub)]
                         for w, sub in zip(live, assign) if sub}
                held = {w: [jobs[t].rank for t in mine]
                        for w, mine in holds.items()}
                sent, deaths = self._post(
                    {w: ("exec", qualified, [(jobs[t].rank, jobs[t].pairs)
                                             for t in mine], tuple(args))
                     for w, mine in holds.items()}, "dispatch", held)
            replies, dead = self._collect(sent, "build", held, tr, name)
            for payload, n, _, tally in replies.values():
                total += n
                tallies.append(tally)
                for rank, A, B in payload:
                    results[rank] = (A, B)
            deaths += dead
            if not deaths:
                break
            # exactly the dead workers' rank jobs go round again
            lost = sorted(t for e in deaths for t in holds[e.worker])
            rounds += 1
            if rounds > self.max_retries:
                self.close(force=True)
                raise deaths[-1]
            with tr.span("pool.recover", cat="pool", round=rounds,
                         njobs=len(lost)) as ctx:
                ctx.add(respawned=self._respawn_dead(rounds))
            if not self._live():
                self.close(force=True)
                raise deaths[-1]
            self.retried_jobs += len(lost)
            outstanding = lost
        self.nbuilds += 1
        if engine is not None:
            for tally in tallies:
                engine.absorb(tally)
        if tr.enabled:
            tr.metrics.count("pool.builds", 1)
            # gauge semantics (like the absorb_* helpers): the pool's
            # cumulative fault counters, re-published every build
            tr.metrics.set("pool.worker_deaths", self.worker_deaths)
            tr.metrics.set("pool.respawns", self.respawns)
            tr.metrics.set("pool.retried_jobs", self.retried_jobs)
        return results, total


class PoolLease:
    """One builder's hold on a worker pool, and the one degrade path.

    With ``config.executor == "process"`` the lease shares a
    caller-owned ``pool`` (re-targeting it when it serves another
    basis) or spawns — and then owns — one.  :meth:`map` is the one
    serial-or-pooled choice: it runs a unit's rank jobs on the pool
    while the pool is healthy; when the pool is gone (closed under
    another builder, or a :class:`WorkerDeathError` past the retry
    budget) the lease warns once, counts ``pool.degraded_builds``, and
    runs this and every later map in-process.  :meth:`close` only ever
    closes a pool the lease spawned.
    """

    def __init__(self, basis, config, pool=None, owner: str = "builder"):
        self.owner = owner
        self.trace = config.trace
        self.executor = config.executor
        self.degraded = False
        self.pool = None
        self.owns = False
        if self.executor == "process":
            self.owns = pool is None
            if pool is None:
                with config.trace.span("pool.spawn", cat="pool"):
                    pool = ExchangeWorkerPool(
                        basis, nworkers=config.nworkers,
                        timeout=config.pool_timeout,
                        max_retries=config.pool_max_retries)
            self.pool = pool
            self.reset(basis)

    def reset(self, basis) -> None:
        """Re-target a live pool at a new geometry (no-op when the pool
        already serves ``basis``; a dead pool is left for :meth:`map`
        to degrade)."""
        if self.pool is not None and not self.pool.closed \
                and self.pool.basis is not basis:
            self.pool.reset(basis)

    def close(self) -> None:
        """Stop a pool this lease spawned (idempotent); a borrowed pool
        is left running for its owner."""
        if self.owns and self.pool is not None:
            self.pool.close()
            self.pool = None

    def map(self, unit, jobs, engine, D=None, args=()
            ) -> tuple[dict[int, tuple], int]:
        """``unit`` over rank jobs: ``({rank: (A, B)}, count)``.

        ``jobs(pool)`` returns the :class:`RankJob` list to run on a
        healthy pool (:meth:`ExchangeWorkerPool.run`, whose workers'
        engine tallies ``engine`` absorbs); ``jobs(None)`` the list to
        run in-process on ``engine`` through :func:`run_rank_jobs`.
        Either way ``engine``'s counters end up counting what was
        evaluated for it.
        """
        if self.executor == "process":
            if self.pool is None or self.pool.closed:
                # closed by its owner, or died under another builder
                self._degrade("pool already closed")
            else:
                try:
                    return self.pool.run(unit, jobs(self.pool), args, D,
                                         self.trace, engine)
                except WorkerDeathError as e:
                    # partial worker results are discarded: the
                    # in-process loop re-runs every job
                    self._degrade(e)
        done = run_rank_jobs(unit, engine, engine.basis, D,
                             [(job.rank, job.pairs) for job in jobs(None)],
                             self.trace, args)
        return ({rank: (A, B) for rank, A, B, *_ in done},
                sum(d[3] for d in done))

    def _degrade(self, reason) -> None:
        warnings.warn(
            f"{self.owner}: worker pool is unrecoverable ({reason}); "
            "falling back to the serial executor for this and later "
            "builds", RuntimeWarning, stacklevel=4)
        pool, self.pool = self.pool, None
        if pool is not None and self.owns:
            pool.close(force=True)
        self.executor = "serial"
        self.degraded = True
        if self.trace.enabled:
            self.trace.metrics.count("pool.degraded_builds", 1)
