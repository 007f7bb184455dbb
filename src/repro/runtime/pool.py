"""Process-pool execution backend for the HFX build.

The paper's scheme runs the exchange build over p MPI ranks times 64
hardware threads; the in-process :class:`repro.runtime.comm.SimWorld`
executes those ranks *sequentially* and only meters the communication.
This module is the first backend that actually runs them in parallel on
local cores:

* a pool of **persistent worker processes**, forked once per basis and
  reused across SCF iterations and MD steps (an MD step re-targets the
  workers with :meth:`ExchangeWorkerPool.reset` instead of respawning);
* **shared read-only state**: the basis (and therefore the shell pairs
  each worker rebuilds from it) rides along on the fork, while the
  density lives in a ``multiprocessing`` shared-memory buffer the parent
  rewrites before every build — workers never receive matrices over the
  pipe;
* **static balancing**: rank jobs are assigned to workers by greedy LPT
  on their cost-model flops, mirroring the paper's master-less static
  schedule (no runtime dispatch);
* the per-rank partial J/K matrices are summed in the parent exactly
  like the scheme's allreduce.

All Cauchy-Schwarz / density screening happens in the parent so the
serial and process executors walk byte-identical quartet lists — the
pool changes only *where* quartets are evaluated, never *which*.

Fault tolerance (the paper's 96-rack reality, one level down: node
failure is a fact of life and the static master-less schedule must
survive it):

* **detection** — every wait watches the worker's ``Process.sentinel``
  alongside its pipe, so a worker that dies (OOM kill, BLAS segfault)
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

import heapq
import multiprocessing as mp
import os
import signal as _signal
import time
import warnings
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _sentinel_wait

import numpy as np

from .boundary import (KNOBS, default_nworkers, env_text, parse_fault,
                       resolve_nworkers, resolve_pool_max_retries,
                       resolve_pool_timeout)

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

# Backoff before respawning dead workers, scaled by the recovery round
# (a crash loop — e.g. the machine is out of memory — should not spin).
RESPAWN_BACKOFF = 0.05


class WorkerDeathError(RuntimeError):
    """A pool worker died (or hung past the deadline) mid-operation.

    Carries the diagnosis: which worker, how it exited (``exitcode``,
    and ``signum`` when it was killed by a signal), whether it was a
    deadline expiry (``hung``), which phase of the pool protocol it was
    in, and the rank ids of the jobs it held — the exact slices a
    recovery pass must re-run.
    """

    def __init__(self, worker: int, exitcode: int | None = None,
                 signum: int | None = None, ranks=(),
                 phase: str = "build", hung: bool = False,
                 timeout: float | None = None):
        self.worker = worker
        self.exitcode = exitcode
        self.signum = signum
        self.ranks = tuple(ranks)
        self.phase = phase
        self.hung = hung
        if hung:
            within = f" within {timeout:g} s" if timeout else ""
            what = f"did not answer{within} — treating it as hung"
        elif signum is not None:
            try:
                name = _signal.Signals(signum).name
            except ValueError:
                name = str(signum)
            what = f"died (killed by signal {name})"
        elif exitcode is not None:
            what = f"died (exit code {exitcode})"
        else:
            what = "died (no exit status)"
        held = f" holding rank jobs {sorted(self.ranks)}" if ranks else ""
        super().__init__(f"pool worker {worker} {what} during {phase}{held}")


@dataclass
class RankJob:
    """One simulated rank's slice of the build.

    ``pairs`` lists ``(i, j, kets)`` bra tasks where ``kets`` is an
    ``(m, 2)`` integer array of surviving ket shell pairs — the exact
    screened quartet batch of the serial path.
    """

    rank: int
    pairs: list = field(default_factory=list)
    cost: float = 0.0


def _lpt_assign(costs: list[float], nworkers: int) -> list[list[int]]:
    """Greedy longest-processing-time assignment of jobs to workers."""
    heap = [(0.0, w) for w in range(nworkers)]
    heapq.heapify(heap)
    out: list[list[int]] = [[] for _ in range(nworkers)]
    for t in sorted(range(len(costs)), key=lambda t: -costs[t]):
        load, w = heapq.heappop(heap)
        out[w].append(t)
        heapq.heappush(heap, (load + costs[t], w))
    for lst in out:
        lst.sort()
    return out


def balance_pairs(pairs, nworkers: int) -> list[RankJob]:
    """One rank job per worker from a screened ``(i, j, kets)`` list,
    greedily balanced by surviving quartet count (largest bra first)."""
    jobs = [RankJob(rank=w) for w in range(nworkers)]
    for p in sorted(pairs, key=lambda p: -len(p[2])):
        job = min(jobs, key=lambda job: job.cost)
        job.pairs.append(p)
        job.cost += len(p[2])
    return jobs


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


def _trigger_fault(mode: str) -> None:
    """Act out an injected worker fault (runs in the child)."""
    if mode == "kill":
        os.kill(os.getpid(), _signal.SIGKILL)
    elif mode == "hang":
        time.sleep(3600.0)   # parent's deadline kills us long before
    elif mode == "exc":
        # simulate an unhandled exception escaping the worker loop:
        # exit nonzero without replying (no traceback noise in tests)
        os._exit(1)


def _worker_main(conn, dbuf, basis, nbf: int, wid: int) -> None:
    """Worker loop: serve quartet batches until told to stop.

    Runs in the child process.  The engine (shell pairs) is rebuilt
    locally from the fork-inherited basis; the density is read from the
    shared buffer, so an ``exec`` message carries only index arrays.

    Every reply is ``(status, payload, nquartets, timings)``; for
    ``exec``, ``timings`` lists one ``(rank, t0, t1, nq)`` record per
    rank batch (``perf_counter`` is CLOCK_MONOTONIC under fork, so the
    parent's tracer can graft the spans onto its own timeline).

    ``wid`` is this worker's pool slot — only used to match the
    test-only ``REPRO_POOL_FAULT`` injection spec.
    """
    import traceback

    from ..integrals.eri import ERIEngine
    from ..integrals.ri import three_center_slab
    from ..scf.fock import eval_screened_pairs
    from .telemetry import NULL_TRACER

    fault = _parse_fault(env_text("REPRO_POOL_FAULT"))
    nexec = 0
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
            nexec += 1
            if fault is not None and fault[0] in ("*", wid) \
                    and nexec == fault[1]:
                _trigger_fault(fault[2])
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
                jobs, want_j, want_k = msg[1], msg[2], msg[3]
                kernel = msg[4] if len(msg) > 4 else "quartet"
                op = msg[5] if len(msg) > 5 else "jk"
                aux = msg[6] if len(msg) > 6 else None
                eps = msg[7] if len(msg) > 7 else 0.0
                results = []
                timings = []
                nq = 0
                if op == "ri3c":
                    # 3-index RI assembly: each rank job carries a list
                    # of auxiliary shell indices; the slab rides back in
                    # the J slot of the usual (rank, J, K) triple.  The
                    # aux basis travels in the message, so a respawned
                    # worker needs no extra setup and the same
                    # death/retry machinery applies unchanged.
                    for rank, aux_idx in jobs:
                        t0 = time.perf_counter()
                        slab, nints = three_center_slab(
                            basis, aux, aux_idx, eps, engine=engine)
                        results.append((rank, slab, None))
                        timings.append((rank, t0, time.perf_counter(),
                                        nints))
                        nq += nints
                    conn.send(("ok", results, nq, timings))
                    continue
                for rank, pairs in jobs:
                    t0 = time.perf_counter()
                    J = np.zeros((nbf, nbf)) if want_j else None
                    K = np.zeros((nbf, nbf)) if want_k else None
                    # the parent already screened, so this rank's slice
                    # is exactly the serial path's quartet list
                    nq_rank = eval_screened_pairs(engine, basis, pairs, D,
                                                  J, K, kernel, NULL_TRACER)
                    results.append((rank, J, K))
                    timings.append((rank, t0, time.perf_counter(), nq_rank))
                    nq += nq_rank
                conn.send(("ok", results, nq, timings))
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
        if start_method is None:
            start_method = ("fork" if "fork" in mp.get_all_start_methods()
                            else "spawn")
        self._ctx = mp.get_context(start_method)
        self._nbf = basis.nbf
        # density broadcast buffer: allocated before the fork so every
        # worker maps the same pages; the parent rewrites it per build
        self._dbuf = mp.RawArray("d", self._nbf * self._nbf)
        self._D = np.frombuffer(self._dbuf, dtype=np.float64) \
            .reshape(self._nbf, self._nbf)
        self._conns = [None] * self.nworkers
        self._procs = [None] * self.nworkers
        for w in range(self.nworkers):
            self._spawn_worker(w)

    # --- lifecycle ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether the pool has been torn down (explicitly or after an
        unrecoverable failure)."""
        return self._closed

    def _spawn_worker(self, w: int) -> None:
        """(Re)create the worker in slot ``w`` from the current basis."""
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._dbuf, self.basis, self._nbf, w),
            daemon=True)
        proc.start()
        child_conn.close()
        self._conns[w] = parent_conn
        self._procs[w] = proc

    def _live(self) -> list[int]:
        """Slots with a (presumed) live worker."""
        return [w for w in range(self.nworkers)
                if self._procs[w] is not None]

    def _diagnose_death(self, w: int, phase: str, ranks=(),
                        hung: bool = False) -> WorkerDeathError:
        """Reap slot ``w`` and build the diagnosis.

        Tears down only this worker — survivors keep running so a
        recovery pass can redistribute the lost jobs.  A hung worker is
        killed first so its slot is safe to respawn.
        """
        proc = self._procs[w]
        exitcode = None
        if proc is not None:
            if hung and proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.kill()
            proc.join(timeout=5.0)
            exitcode = proc.exitcode
        signum = -exitcode if (exitcode is not None and exitcode < 0) \
            else None
        if self._conns[w] is not None:
            self._conns[w].close()
        self._conns[w] = None
        self._procs[w] = None
        self.worker_deaths += 1
        return WorkerDeathError(
            worker=w, exitcode=exitcode, signum=signum, ranks=ranks,
            phase=phase, hung=hung, timeout=self.timeout)

    def _respawn_dead(self, round_: int) -> int:
        """Respawn every dead slot (with backoff); returns the count.

        A slot whose respawn fails (fork refused — e.g. out of memory)
        stays dead; the caller's next dispatch redistributes its jobs
        LPT-style over the survivors.
        """
        dead = [w for w in range(self.nworkers) if self._procs[w] is None]
        if dead:
            time.sleep(min(RESPAWN_BACKOFF * round_, 1.0))
        n = 0
        for w in dead:
            try:
                self._spawn_worker(w)
            except OSError:
                continue
            self.respawns += 1
            n += 1
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
        if self._closed:
            raise RuntimeError("pool is closed")
        if basis.nbf != self.basis.nbf:
            raise ValueError(
                "reset requires an equally sized basis "
                f"({self.basis.nbf} != {basis.nbf}); build a new pool")
        deadline = time.monotonic() + self.timeout
        sent, deaths = [], []
        for w in self._live():
            try:
                self._conns[w].send(("reset", basis))
                sent.append(w)
            except (BrokenPipeError, OSError):
                deaths.append(self._diagnose_death(w, "reset"))
        for w in sent:
            try:
                status, payload = self._recv(w, deadline, phase="reset")[:2]
            except WorkerDeathError as e:
                deaths.append(e)
                continue
            if status != "ok":
                self.close(force=True)
                raise RuntimeError(f"pool worker {w} failed:\n{payload}")
        # respawned workers must build their engines from the new basis
        self.basis = basis
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
        for conn in self._conns:
            if conn is None:
                continue
            if not force:
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            conn.close()
        for w, proc in enumerate(self._procs):
            if proc is None:
                continue
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
            if not force and proc.exitcode not in (0, None):
                code = proc.exitcode
                how = (f"killed by signal {-code}" if code < 0
                       else f"exit code {code}")
                warnings.warn(
                    f"pool worker {w} had crashed ({how}) before close; "
                    "its last build may have been recovered or degraded",
                    RuntimeWarning, stacklevel=2)
        self._conns = [None] * self.nworkers
        self._procs = [None] * self.nworkers

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

    def _recv(self, w: int, deadline: float, phase: str = "build",
              ranks=()):
        """One worker reply, or a :class:`WorkerDeathError` diagnosis.

        Waits on the reply pipe *and* the worker's ``Process.sentinel``
        so a death is detected the moment the OS reaps the child — a
        closed pipe (``poll()`` is true on EOF too) or an armed sentinel
        is diagnosed via the exit code instead of surfacing as a bare
        ``EOFError``; deadline expiry kills the worker and reports it
        as hung.
        """
        conn = self._conns[w]
        proc = self._procs[w]
        remaining = deadline - time.monotonic()
        ready = (_sentinel_wait([conn, proc.sentinel], remaining)
                 if remaining > 0 else [])
        if conn in ready:
            try:
                return conn.recv()
            except (EOFError, OSError):
                # pipe closed (possibly mid-message): the worker died
                raise self._diagnose_death(w, phase, ranks) from None
        if proc.sentinel in ready:
            raise self._diagnose_death(w, phase, ranks)
        raise self._diagnose_death(w, phase, ranks, hung=True)

    def _dispatch(self, idxs, jobs, want_j, want_k, kernel, tr,
                  op: str = "jk", aux=None, eps: float = 0.0):
        """Send jobs ``idxs`` to the live workers (LPT on job cost).

        Returns ``(pending, lost, err)``: which worker holds which job
        indices, plus any jobs whose worker died at send time (its
        diagnosis rides along for the caller's recovery pass).

        ``op`` selects the worker-side operation: ``"jk"`` (screened
        quartet J/K partials; the default) or ``"ri3c"`` (3-index RI
        slabs — ``aux``/``eps`` ride in the message).
        """
        live = self._live()
        pending: dict[int, list[int]] = {}
        lost: list[int] = []
        err = None
        with tr.span("pool.dispatch", cat="pool", njobs=len(idxs),
                     nworkers=len(live), kernel=kernel, op=op):
            assign = _lpt_assign([jobs[t].cost for t in idxs], len(live))
            for slot, sub in zip(live, assign):
                mine = [idxs[k] for k in sub]
                if not mine:
                    continue
                payload = [(jobs[t].rank, jobs[t].pairs) for t in mine]
                try:
                    self._conns[slot].send(("exec", payload, want_j,
                                            want_k, kernel, op, aux, eps))
                except (BrokenPipeError, OSError):
                    err = self._diagnose_death(
                        slot, "dispatch",
                        ranks=[jobs[t].rank for t in mine])
                    lost.extend(mine)
                    continue
                pending[slot] = mine
        return pending, lost, err

    def _collect(self, pending, jobs, results, tr):
        """Receive every pending reply; deaths become lost-job lists.

        Surviving workers' results are kept even when a sibling dies —
        only the dead worker's rank jobs return to the caller for
        re-dispatch.
        """
        deadline = time.monotonic() + self.timeout
        lost: list[int] = []
        err = None
        nq_total = 0
        with tr.span("pool.wait", cat="pool", nworkers=len(pending)):
            for w, mine in pending.items():
                try:
                    status, payload, nq, timings = self._recv(
                        w, deadline, phase="build",
                        ranks=[jobs[t].rank for t in mine])
                except WorkerDeathError as e:
                    lost.extend(mine)
                    err = e
                    continue
                if status != "ok":
                    self.close(force=True)
                    raise RuntimeError(f"pool worker {w} failed:\n{payload}")
                nq_total += nq
                for rank, J, K in payload:
                    results[rank] = (J, K)
                if tr.enabled and timings:
                    for rank, t0, t1, nq_rank in timings:
                        tr.add_span("worker.quartet_batch", t0, t1,
                                    cat="quartets", tid=f"worker-{w}",
                                    rank=rank, nq=nq_rank)
        return lost, err, nq_total

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
            pending, lost, err = self._dispatch(outstanding, jobs, want_j,
                                                want_k, kernel, tr,
                                                op=op, aux=aux, eps=eps)
            lost_c, err_c, nq = self._collect(pending, jobs, results, tr)
            nq_total += nq
            lost = sorted(lost + lost_c)
            err = err_c or err
            if not lost:
                break
            rounds += 1
            if rounds > self.max_retries:
                self.close(force=True)
                raise err
            with tr.span("pool.recover", cat="pool", round=rounds,
                         njobs=len(lost)) as ctx:
                ctx.add(respawned=self._respawn_dead(rounds))
            if not self._live():
                self.close(force=True)
                raise err
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
