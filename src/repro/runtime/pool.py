"""Process-pool execution backend for the HFX build.

The paper's scheme runs the exchange build over p MPI ranks times 64
hardware threads.  The serial executor runs those ranks one after the
other through :func:`repro.scf.fock.eval_rank_jobs`; this module runs
the same rank loop in parallel on local cores:

* a pool of **persistent worker processes**, forked once per basis and
  reused across SCF iterations and MD steps (an MD step re-targets the
  workers with :meth:`ExchangeWorkerPool.reset` instead of respawning);
* **shared read-only state**: the basis (and therefore the shell pairs
  each worker rebuilds from it) rides along on the fork, while the
  density lives in a ``multiprocessing`` shared-memory buffer the parent
  rewrites before every build — workers never receive matrices over the
  pipe;
* **static balancing**: rank jobs are assigned to workers by the one
  greedy LPT, :func:`repro.hfx.partition.lpt_bins`, on each job's
  ``cost`` (surviving quartets for the direct builder, the partitioner's
  flops for ``distributed_exchange``, function counts for RI shards),
  mirroring the paper's master-less static schedule (no runtime
  dispatch);
* the per-rank partial J/K matrices are summed in the parent exactly
  like the scheme's allreduce.

All Cauchy-Schwarz / density screening happens in the parent so the
serial and process executors walk byte-identical quartet lists — the
pool changes only *where* quartets are evaluated, never *which*.

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
  way;
* **recovery** — screening happens in the parent and rank jobs are
  deterministic, so a dead worker's jobs are simply re-run: the pool
  respawns dead slots (bounded rounds with backoff; default 2,
  ``REPRO_POOL_MAX_RETRIES`` / ``ExecutionConfig(pool_max_retries=)``
  override) and re-dispatches *exactly* the lost rank slices — LPT over
  the survivors when a respawn fails — so the recovered K is
  bit-identical to an undisturbed build;
* **degradation** — when the pool cannot be healed it tears itself down
  and raises; every caller holds its pool through a :class:`PoolLease`,
  whose ``run`` catches that and falls back to the serial executor
  instead of aborting the SCF/trajectory;
* **fault injection** — ``REPRO_POOL_FAULT="worker=1,build=2,
  mode=kill"`` makes worker 1 die at the start of its 2nd ``exec``
  message (``worker=*`` matches every worker; modes: ``kill`` = SIGKILL
  mid-build, ``exc`` = simulated unhandled exception, ``hang`` = stop
  answering), which is how the recovery paths are tested
  deterministically (``pytest -m fault``).
"""

from __future__ import annotations

import multiprocessing as mp
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .boundary import (KNOBS, default_nworkers, env_text, parse_fault,
                       resolve_nworkers, resolve_pool_max_retries,
                       resolve_pool_timeout)
from .supervisor import FaultGate, Supervisor, WorkerDeath

__all__ = ["RankJob", "ExchangeWorkerPool", "PoolLease", "WorkerDeathError",
           "balance_pairs", "default_nworkers", "resolve_nworkers",
           "resolve_pool_timeout", "resolve_pool_max_retries"]

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

    ``pairs`` lists ``(i, j, kets)`` bra tasks where ``kets`` is an
    ``(m, 2)`` integer array of surviving ket shell pairs — the exact
    screened quartet batch of the serial path.
    """

    rank: int
    pairs: list = field(default_factory=list)
    cost: float = 0.0


def balance_pairs(pairs, nworkers: int) -> list[RankJob]:
    """One rank job per worker from a screened ``(i, j, kets)`` list,
    balanced by :func:`repro.hfx.partition.lpt_bins` on the surviving
    quartet count of each bra (each job keeps its pairs largest first,
    ties in list order)."""
    from ..hfx.partition import lpt_bins

    costs = [len(p[2]) for p in pairs]
    return [RankJob(rank=w, pairs=[pairs[t] for t in mine],
                    cost=float(sum(costs[t] for t in mine)))
            for w, mine in enumerate(lpt_bins(costs, nworkers))]


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


def _worker_main(conn, wid: int, _gen: int, dbuf, basis, nbf: int) -> None:
    """Worker loop: serve quartet batches until told to stop.

    Runs in the child process.  The engine (shell pairs) is rebuilt
    locally from the fork-inherited basis; the density is read from the
    shared buffer, so an ``exec`` message carries only index arrays.

    Every reply is ``(status, payload, nquartets, timings)``; for
    ``exec``, ``timings`` lists one ``(rank, t0, t1, nq)`` record per
    rank batch (``perf_counter`` is CLOCK_MONOTONIC under fork, so the
    parent's tracer can graft the spans onto its own timeline).

    ``wid`` is this worker's pool slot — only used to match the
    test-only ``REPRO_POOL_FAULT`` injection spec, which fires in every
    spawn generation (so ``worker=*,build=1`` re-kills each respawn:
    the degradation drills depend on it).
    """
    import traceback

    from ..integrals.eri import ERIEngine
    from ..integrals.ri import three_center_slab
    from ..scf.fock import eval_rank_jobs
    from .telemetry import NULL_TRACER

    gate = FaultGate(_parse_fault(env_text("REPRO_POOL_FAULT")), wid)
    engine = ERIEngine(basis)
    D = np.frombuffer(dbuf, dtype=np.float64).reshape(nbf, nbf)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        cmd = msg[0]
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
                conn.send(("ok", None, 0, None))
            elif cmd == "exec":
                _, jobs, want_j, want_k, kernel, op, aux, eps = msg
                if op == "ri3c":
                    # 3-index RI assembly: each rank job carries a list
                    # of auxiliary shell indices; the slab rides back in
                    # the J slot of the usual (rank, J, K) triple.  The
                    # aux basis travels in the message, so a respawned
                    # worker needs no extra setup and the same
                    # death/retry machinery applies unchanged.
                    done = []
                    for rank, aux_idx in jobs:
                        t0 = time.perf_counter()
                        slab, nints = three_center_slab(
                            basis, aux, aux_idx, eps, engine=engine)
                        done.append((rank, slab, None, nints, t0,
                                     time.perf_counter()))
                else:
                    # the parent already screened, so each rank's slice
                    # is exactly the serial path's quartet list
                    done = eval_rank_jobs(engine, basis, jobs, D, want_j,
                                          want_k, kernel, NULL_TRACER)
                conn.send(("ok", [(rank, J, K) for rank, J, K, *_ in done],
                           sum(d[3] for d in done),
                           [(rank, t0, t1, n)
                            for rank, _, _, n, t0, t1 in done]))
            elif cmd == "ping":
                conn.send(("ok", None, 0, None))
            else:
                raise ValueError(f"unknown pool command {cmd!r}")
        except Exception:
            conn.send(("err", traceback.format_exc(), 0, None))
    conn.close()


class ExchangeWorkerPool:
    """Persistent worker processes executing screened quartet batches.

    Parameters
    ----------
    basis:
        The basis the workers build their ERI engines from.  Forked
        workers inherit it for free; ``spawn`` fallbacks pickle it.
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
        self.quartets_computed = 0   # quartets evaluated by workers, total
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
        for d in self._sup.shutdown(lambda s: s.chan.send(("stop",)), force):
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
        sent, deaths = [], []
        for w, msg in outbox.items():
            try:
                self._sup.slots[w].chan.send(msg)
            except OSError:         # BrokenPipeError included
                deaths.append(self._death(w, phase, held.get(w, ())))
            else:
                sent.append(w)
        return sent, deaths

    def _collect(self, sent, phase: str, held, tr):
        """One reply from each worker in ``sent``, under one deadline.

        Returns ``({w: (payload, nquartets, timings)}, deaths)``: a
        worker whose pipe closes (possibly mid-message), whose sentinel
        fires, or that stays silent past the deadline (``hung``) is
        reaped and diagnosed; its siblings' replies are kept.  A worker
        that *answers* with an error is a bug, not a fault: the pool
        tears down and raises.
        """
        deadline = time.monotonic() + self.timeout
        replies, deaths = {}, []
        with tr.span("pool.wait", cat="pool", nworkers=len(sent)):
            for w in sent:
                slot = self._sup.slots[w]
                news = self._sup.wait([slot], deadline)
                reply = None
                if news and news[0][1]:
                    try:
                        reply = slot.chan.recv()
                    except (EOFError, OSError):
                        pass        # pipe closed, possibly mid-message
                if reply is None:
                    deaths.append(self._death(w, phase, held.get(w, ()),
                                              hung=not news))
                    continue
                status, payload, nq, timings = reply
                if status != "ok":
                    self.close(force=True)
                    raise RuntimeError(f"pool worker {w} failed:\n{payload}")
                replies[w] = (payload, nq, timings)
                if tr.enabled and timings:
                    for rank, t0, t1, nq_rank in timings:
                        tr.add_span("worker.quartet_batch", t0, t1,
                                    cat="quartets", tid=f"worker-{w}",
                                    rank=rank, nq=nq_rank)
        return replies, deaths

    def exchange(self, D: np.ndarray | None, jobs: list[RankJob],
                 want_j: bool = False, want_k: bool = True, tracer=None,
                 kernel: str = "quartet", op: str = "jk", aux=None,
                 eps: float = 0.0
                 ) -> tuple[dict[int, tuple[np.ndarray | None,
                                            np.ndarray | None]], int]:
        """Execute rank jobs against density ``D``.

        Returns ``(results, nquartets)`` where ``results`` maps each
        job's rank id to its partial ``(J, K)`` matrices (``None`` for
        the unrequested one) and ``nquartets`` counts the quartets the
        workers evaluated — the caller folds it into its engine counter
        so the bookkeeping matches the serial path.

        ``kernel`` selects the workers' evaluation granularity:
        ``"quartet"`` (reference) or ``"batched"`` (each worker groups
        its rank slices by L-class and runs the batched kernel +
        class-level scatters).  Both see the identical screened quartet
        lists and report identical counts.

        ``tracer`` (a :class:`repro.runtime.telemetry.Tracer`) records
        the dispatch/wait phases and grafts each worker's per-rank
        batch timings — shipped back over the result pipes — into the
        trace as ``worker-N`` lanes.

        A worker death mid-build triggers recovery: dead slots are
        respawned (up to ``max_retries`` rounds, with backoff; a failed
        respawn leaves the lost jobs to the LPT pass over the
        survivors) and exactly the lost rank jobs re-run, so the
        returned partials are bit-identical to an undisturbed build.
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
            # density-free operations (op="ri3c") leave the shared
            # buffer untouched
            D = np.asarray(D, dtype=np.float64)
            if D.shape != self._D.shape:
                raise ValueError(f"density shape {D.shape} does not match "
                                 f"the pool's basis ({self._D.shape})")
            self._D[:] = D
        results: dict[int, tuple[np.ndarray | None, np.ndarray | None]] = {}
        nq_total = 0
        outstanding = list(range(len(jobs)))
        rounds = 0
        while outstanding:
            live = self._live()
            with tr.span("pool.dispatch", cat="pool", njobs=len(outstanding),
                         nworkers=len(live), kernel=kernel, op=op):
                # LPT on job cost over whoever is alive this round
                assign = lpt_bins([jobs[t].cost for t in outstanding],
                                  len(live))
                holds = {w: [outstanding[k] for k in sorted(sub)]
                         for w, sub in zip(live, assign) if sub}
                held = {w: [jobs[t].rank for t in mine]
                        for w, mine in holds.items()}
                sent, deaths = self._post(
                    {w: ("exec", [(jobs[t].rank, jobs[t].pairs)
                                  for t in mine],
                         want_j, want_k, kernel, op, aux, eps)
                     for w, mine in holds.items()}, "dispatch", held)
            replies, dead = self._collect(sent, "build", held, tr)
            for payload, nq, _ in replies.values():
                nq_total += nq
                for rank, J, K in payload:
                    results[rank] = (J, K)
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
        self.quartets_computed += nq_total
        self.nbuilds += 1
        if tr.enabled:
            tr.metrics.count("pool.builds", 1)
            tr.metrics.count("pool.quartets", nq_total)
            # gauge semantics (like the absorb_* helpers): the pool's
            # cumulative fault counters, re-published every build
            tr.metrics.set("pool.worker_deaths", self.worker_deaths)
            tr.metrics.set("pool.respawns", self.respawns)
            tr.metrics.set("pool.retried_jobs", self.retried_jobs)
        return results, nq_total

    def ri3c(self, aux, jobs: list[RankJob], eps: float = 0.0,
             tracer=None) -> tuple[dict[int, np.ndarray], int]:
        """Assemble 3-index RI slabs ``(uv|P)`` sharded by aux shells.

        Each rank job's ``pairs`` is a list of auxiliary shell indices;
        the returned dict maps the job's rank id to its slab (rows
        ordered by that index list; see
        :func:`repro.integrals.ri.three_center_slab`).  The second
        element counts evaluated shell triples.

        Rides the ``exec`` retry loop, so worker death/hang recovery,
        respawn budgets, and ``REPRO_POOL_FAULT`` injection behave
        exactly as for J/K builds — and since slabs for distinct aux
        shells are disjoint, a recovered assembly is bit-identical to
        an undisturbed one.
        """
        results, nints = self.exchange(None, jobs, want_j=False,
                                       want_k=False, tracer=tracer,
                                       op="ri3c", aux=aux, eps=eps)
        return {rank: slab for rank, (slab, _) in results.items()}, nints


class PoolLease:
    """One builder's hold on a worker pool, and the one degrade path.

    With ``config.executor == "process"`` the lease shares a
    caller-owned ``pool`` (re-targeting it when it serves another
    basis) or spawns — and then owns — one.  :meth:`run` executes the
    pooled variant of an operation while the pool is healthy; when the
    pool is gone (closed under another builder, or a
    :class:`WorkerDeathError` past the retry budget) the lease warns
    once, counts ``pool.degraded_builds``, and runs this and every
    later operation through the serial variant.  :meth:`close` only
    ever closes a pool the lease spawned.
    """

    def __init__(self, basis, config, pool=None, owner: str = "builder"):
        self.owner = owner
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
        already serves ``basis``; a dead pool is left for :meth:`run`
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

    def run(self, pooled, serial, tr):
        """``pooled(pool)`` on a healthy pool, else ``serial()``."""
        if self.executor == "process":
            if self.pool is None or self.pool.closed:
                # closed by its owner, or died under another builder
                self._degrade("pool already closed", tr)
            else:
                try:
                    return pooled(self.pool)
                except WorkerDeathError as e:
                    # partial worker results are discarded: the serial
                    # variant re-runs the whole operation
                    self._degrade(e, tr)
        return serial()

    def _degrade(self, reason, tr) -> None:
        warnings.warn(
            f"{self.owner}: worker pool is unrecoverable ({reason}); "
            "falling back to the serial executor for this and later "
            "builds", RuntimeWarning, stacklevel=4)
        pool, self.pool = self.pool, None
        if pool is not None and self.owns:
            pool.close(force=True)
        self.executor = "serial"
        self.degraded = True
        if tr.enabled:
            tr.metrics.count("pool.degraded_builds", 1)
