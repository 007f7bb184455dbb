"""Pluggable lane transports: how campaign dispatch lanes execute.

PR 7's :class:`~repro.service.CampaignService` ran every dispatch lane
as a *thread* inside one interpreter — correct, but GIL-bound on the
Python-heavy SCF paths, and a single interpreter crash took the whole
queue with it.  This module makes the lane layer a pluggable subsystem
with two backends behind one interface:

* :class:`LocalLaneTransport` (``"local"``) — the PR 7 threads, kept as
  the bit-exact reference;
* :class:`ProcessLaneTransport` (``"process"``) — persistent **forked
  lane workers**, one OS process per lane, speaking a length-prefixed,
  versioned pickle **frame codec** over ``socketpair`` connections.

The process backend follows the PR 4 pool's detect → retry → degrade
idiom one level up the stack, on the same process-lifecycle core
(:mod:`repro.runtime.supervisor`: start, sentinel-aware wait, reap,
respawn, shutdown); what stays here is the wire format and the lease:

* **framed RPC** — every message is ``magic | version | length |
  pickled payload`` (:func:`encode_frame` / :func:`read_frame` /
  :func:`try_decode`); truncated, garbage, or future-version frames
  are diagnosed as :class:`FrameError`, never half-parsed and never
  hung on;
* **heartbeat liveness** — each worker streams ``hb`` frames from a
  daemon thread (cadence ``REPRO_SERVICE_HEARTBEAT``, default 1 s), so
  the parent can tell "still computing a long job" from "wedged": a
  lane that goes silent past the ``pool_timeout`` deadline is killed
  and treated as dead;
* **job leases** — a dispatched job is *leased* to its worker; when
  the worker dies or hangs mid-lease, the job is requeued against the
  campaign's existing per-job retry budget
  (``service.requeued_jobs``) and the worker slot is respawned with
  bounded backoff (``pool_max_retries`` respawns per slot);
* **degradation** — when every lane slot is dead and unrespawnable the
  transport warns once, counts ``service.degraded_drains``, and drains
  the remaining queue through the local (thread) transport instead of
  aborting the campaign;
* **graceful drain** — shutdown sends ``stop`` frames, joins, and only
  then escalates terminate → kill.

Cross-campaign work sharing rides on the
:class:`~repro.service.ResultCache` compute locks: before computing a
missing key a lane takes the key's advisory file lock, so duplicate
specs submitted to *different campaigns in different processes* on one
cache directory cost a single compute (the loser blocks, then hits the
cache on recheck).  The thread lanes take the lock blocking; the
process transport's single-threaded parent uses the non-blocking
flavour and defers the job instead.

Deterministic fault injection (tests/benchmarks only), extending the
PR 7 ``REPRO_SERVICE_FAULT`` grammar:

* ``job=N[,times=K]`` — the first K execution attempts of job N fail
  with an injected error (any transport; the per-job isolation path);
* ``worker=W[,exec=N][,mode=kill|hang]`` — process transport: lane
  worker W (or ``*`` = any) dies with SIGKILL — or goes silent — at
  the start of its N-th job (default 1st).  Only the *original* worker
  generation triggers, so the respawned lane proves the requeue path
  instead of dying forever.

Telemetry: ``transport.dispatch`` / ``transport.requeue`` /
``transport.respawn`` / ``transport.degrade`` spans on the campaign
tracer, plus ``service.frames_sent`` / ``service.frames_recv`` /
``service.worker_deaths`` / ``service.worker_respawns`` /
``service.requeued_jobs`` / ``service.degraded_drains`` counters in
``--profile``.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import time
import warnings
from dataclasses import dataclass, field

from ..runtime.boundary import (KNOBS, env_text, fault_fields, parse_fault,
                                resolve)
from ..runtime.execconfig import ExecutionConfig
from ..runtime.supervisor import FaultGate, Slot, Supervisor, WorkerDeath

__all__ = [
    "FrameError", "FRAME_MAGIC", "FRAME_VERSION", "MAX_FRAME_BYTES",
    "encode_frame", "try_decode", "read_frame",
    "LaneTransport", "LocalLaneTransport", "ProcessLaneTransport",
    "LaneWorkerDeath", "make_transport", "parse_service_fault",
]

# --- frame codec --------------------------------------------------------------

#: Frame magic: identifies a lane-RPC frame on the wire.
FRAME_MAGIC = b"RLNF"

#: Frame format version; a mismatched peer is refused, never half-read.
FRAME_VERSION = 1

#: Sanity ceiling on one frame's payload.  A garbage length field must
#: fail fast instead of "allocating" gigabytes while waiting forever
#: for bytes that will never arrive.
MAX_FRAME_BYTES = 1 << 28        # 256 MiB

_FRAME_HEADER = struct.Struct("<4sHI")    # magic, version, payload length


class FrameError(RuntimeError):
    """A frame could not be read: truncation, garbage, or a version /
    size the codec refuses.  Always a diagnosis, never a hang."""


def encode_frame(obj, *, version: int = FRAME_VERSION) -> bytes:
    """Serialize one message as a self-delimiting frame."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame ceiling")
    return _FRAME_HEADER.pack(FRAME_MAGIC, version, len(payload)) + payload


def _check_header(header: bytes) -> int:
    """Validate a complete header; returns the payload length."""
    magic, version, length = _FRAME_HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise FrameError(
            f"bad frame magic {magic!r} (expected {FRAME_MAGIC!r}): "
            f"the stream is garbage or desynchronized")
    if version != FRAME_VERSION:
        raise FrameError(
            f"frame version {version} does not match this codec "
            f"(v{FRAME_VERSION}) — refusing to half-parse it")
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame claims a {length}-byte payload, over the "
            f"{MAX_FRAME_BYTES}-byte ceiling — treating it as garbage")
    return length


def _decode_payload(payload: bytes):
    try:
        return pickle.loads(payload)
    except Exception as e:
        raise FrameError(
            f"frame payload is undecodable ({type(e).__name__}: {e})"
        ) from e


def try_decode(buf) -> tuple[object, int] | None:
    """Decode one frame from the head of ``buf`` (bytes-like).

    Returns ``(message, bytes_consumed)`` for a complete frame,
    ``None`` when ``buf`` holds only a valid *prefix* (read more), and
    raises :class:`FrameError` the moment the prefix is provably
    garbage (bad magic, refused version, oversize length, undecodable
    payload) — a corrupt stream is diagnosed at the first bad byte
    instead of waiting for bytes that never come.
    """
    view = bytes(buf[:_FRAME_HEADER.size])
    if len(view) < _FRAME_HEADER.size:
        if view and not FRAME_MAGIC.startswith(view[:len(FRAME_MAGIC)]):
            raise FrameError(
                f"bad frame magic {view[:len(FRAME_MAGIC)]!r} "
                f"(expected {FRAME_MAGIC!r}): the stream is garbage "
                f"or desynchronized")
        return None
    length = _check_header(view)
    end = _FRAME_HEADER.size + length
    if len(buf) < end:
        return None
    return _decode_payload(bytes(buf[_FRAME_HEADER.size:end])), end


def _read_exact(read, n: int, what: str) -> bytes:
    """Read exactly ``n`` bytes from a blocking ``read(k)`` callable."""
    chunks = []
    got = 0
    while got < n:
        chunk = read(n - got)
        if not chunk:
            raise FrameError(
                f"stream ended mid-{what}: got {got} of {n} bytes")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(read):
    """Read one complete frame from a blocking byte stream.

    ``read(n)`` must return at most ``n`` bytes and ``b""`` at end of
    stream (a socket file object or ``io.BytesIO.read`` both qualify).
    A stream that ends mid-frame — or at the very boundary, before any
    header byte — raises :class:`FrameError` with the byte counts.
    """
    header = _read_exact(read, _FRAME_HEADER.size, "frame header")
    length = _check_header(header)
    payload = _read_exact(read, length, "frame payload") if length else b""
    return _decode_payload(payload)


# --- fault injection ----------------------------------------------------------

def parse_service_fault(spec: str | None):
    """Parse ``REPRO_SERVICE_FAULT`` into a ``(kind, payload)`` pair.

    * ``("job", {job_id: remaining_failures})`` for the PR 7 grammar
      ``job=N[,times=K]`` (handled by the scheduler, any transport);
    * ``("worker", (worker, nexec, mode))`` for the process-transport
      grammar ``worker=<id|*>[,exec=N][,mode=kill|hang]`` — the pool's
      worker-fault grammar (:func:`repro.runtime.boundary.parse_fault`)
      with ``exec`` as its counter, handled inside the lane worker;
    * ``None`` when unset.
    """
    var = "REPRO_SERVICE_FAULT"
    if spec and "worker" in spec:
        return "worker", parse_fault(spec, var, "exec", ("kill", "hang"))
    usage = "job=N[,times=K] or worker=<id|*>[,exec=N][,mode=kill|hang]"
    fields = fault_fields(spec, var, ("job", "times"), usage)
    if fields is None:
        return None
    try:
        return "job", {int(fields["job"]): int(fields.get("times", "1"))}
    except (KeyError, ValueError):
        raise ValueError(
            f"{var} must look like {usage!r}, got {spec!r}") from None


class LaneWorkerDeath(WorkerDeath):
    """A process lane worker died (or hung past the deadline) while it
    held a job lease.  The job itself is requeued against its retry
    budget; this is the diagnosis recorded when the budget runs out."""

    noun = "lane worker"

    def __init__(self, worker: int, job_id: int | None = None, **diagnosis):
        self.job_id = job_id
        held = f" holding job {job_id}" if job_id is not None else ""
        super().__init__(worker, held=held, **diagnosis)


# --- worker process -----------------------------------------------------------

def _lane_worker_main(sock: socket.socket, wid: int, gen: int) -> None:
    """Lane worker loop: serve framed job requests until told to stop.

    Runs in the child process.  Every job request is executed through
    the one public :func:`repro.api.run_job` entrypoint; the reply is a
    ``result`` frame carrying either the result envelope or the
    formatted error (per-job isolation — an exception never kills the
    lane).  A daemon thread streams ``hb`` frames so the parent can
    distinguish a long job from a wedged worker.

    ``gen`` is the slot's spawn generation: the ``REPRO_SERVICE_FAULT``
    worker fault only fires on generation 0, so a respawned lane
    demonstrates recovery instead of re-dying forever.
    """
    fault = parse_service_fault(env_text("REPRO_SERVICE_FAULT"))
    gate = FaultGate(fault[1] if fault and fault[0] == "worker" else None,
                     wid, armed=gen == 0)
    interval = resolve("heartbeat")     # the parent validated it pre-fork
    send_lock = threading.Lock()
    hb_stop = threading.Event()

    def _send(msg) -> None:
        data = encode_frame(msg)
        with send_lock:
            sock.sendall(data)

    def _hb_loop() -> None:
        while not hb_stop.wait(interval):
            try:
                _send({"op": "hb", "worker": wid})
            except OSError:
                return

    threading.Thread(target=_hb_loop, daemon=True,
                     name=f"lane-{wid}-hb").start()
    rfile = sock.makefile("rb")
    try:
        while True:
            try:
                msg = read_frame(rfile.read)
            except FrameError:
                break               # parent went away / corrupt stream
            op = msg.get("op")
            if op == "stop":
                break
            if op == "ping":
                _send({"op": "pong", "worker": wid})
                continue
            if op != "job":
                continue            # unknown ops are ignored, not fatal
            job_id = msg["job_id"]
            gate.tick(silence=hb_stop.set)  # a hang goes silent, not idle
            if msg.get("inject_fail"):
                _send({"op": "result", "job_id": job_id, "ok": False,
                       "error": f"InjectedWorkerDeath: injected worker "
                                f"death on job {job_id} "
                                f"(REPRO_SERVICE_FAULT)"})
                continue
            try:
                from .. import api
                from .jobspec import JobSpec

                result = api.run_job(JobSpec.from_dict(msg["spec"]),
                                     config=msg["config"],
                                     until_step=msg["until_step"])
            except Exception as e:
                _send({"op": "result", "job_id": job_id, "ok": False,
                       "error": f"{type(e).__name__}: {e}"})
            else:
                _send({"op": "result", "job_id": job_id, "ok": True,
                       "result": result})
    finally:
        hb_stop.set()
        try:
            sock.close()
        except OSError:
            pass


# --- transports ---------------------------------------------------------------

class LaneTransport:
    """How a campaign's dispatch lanes execute.

    A transport owns lane *execution* only; the
    :class:`~repro.service.CampaignService` keeps owning the queue,
    the in-flight dedup, the cache, the retry budgets, and the
    queue store.  ``drain()`` runs until the queue has no runnable work;
    ``close()`` releases lane resources (idempotent).
    """

    #: The :func:`resolve_service_transport` name of this backend.
    name: str = "?"

    def __init__(self, service, nlanes: int, config: ExecutionConfig):
        self.service = service
        self.nlanes = int(nlanes)
        self.config = config

    def drain(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class LocalLaneTransport(LaneTransport):
    """The PR 7 reference: ``nlanes`` threads inside this process.

    Single-lane drains run on the caller's thread with the campaign
    tracer attached; multi-lane drains strip the tracer from the lane
    configs (the span tracer is not thread-safe) — counters still
    accumulate on the service's lock-guarded registry.
    """

    name = "local"

    def drain(self) -> None:
        svc = self.service
        if self.nlanes == 1:
            svc._lane(self.config)
            return
        lane_cfg = self.config.replace(tracer=None)
        threads = [threading.Thread(target=svc._lane, args=(lane_cfg,),
                                    name=f"campaign-lane-{i}")
                   for i in range(self.nlanes)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()


@dataclass
class _Lane(Slot):
    """One process lane: a supervised worker slot (``chan`` is its
    socket) plus the framed-RPC receive state and the job lease."""

    buf: bytearray = field(default_factory=bytearray)
    job: object | None = None    # leased Job (None = idle)
    key_lock: object | None = None   # held cache compute lock
    t_dispatch: float = 0.0
    last_seen: float = 0.0       # monotonic time of the last frame

    @property
    def busy(self) -> bool:
        return self.job is not None

    def release(self):
        """Drop the lease; returns the job that was held (or None)."""
        job, self.job = self.job, None
        if self.key_lock is not None:
            self.key_lock.release()
            self.key_lock = None
        return job


#: How long a key blocked by another campaign's compute lock is skipped
#: before the dispatch loop retries it.
_EXTERN_RETRY = 0.05


class ProcessLaneTransport(LaneTransport):
    """Persistent forked lane workers behind the framed RPC protocol.

    The parent side is a single-threaded event loop: dispatch jobs to
    idle lanes, wait on every lane socket *and* worker sentinel, and
    fold results / deaths / hangs back into the service's bookkeeping.
    Because the loop is single-threaded, the campaign tracer stays
    attached even at ``nlanes > 1`` — the process transport is the
    first multi-lane configuration with full span telemetry.
    """

    name = "process"

    def __init__(self, service, nlanes: int, config: ExecutionConfig):
        super().__init__(service, nlanes, config)
        self.timeout = resolve("pool_timeout", config.pool_timeout)
        self.max_respawns = resolve("pool_max_retries",
                                    config.pool_max_retries)
        heartbeat = resolve("heartbeat")     # validated here, pre-fork
        if heartbeat >= self.timeout:
            # a busy lane is reaped as hung after ``timeout`` s without
            # a frame, so every job outliving the timeout would be too
            raise ValueError(
                f"{KNOBS['heartbeat'].env} must be shorter than "
                f"{KNOBS['pool_timeout'].env} ({self.timeout:g} s), "
                f"got {heartbeat:g}")
        self._closed = False
        self._skip: dict[str, float] = {}    # key -> retry-at (monotonic)
        self._sup = Supervisor(
            self.nlanes, _lane_worker_main, pair=socket.socketpair,
            death=LaneWorkerDeath, slot=_Lane, timeout=self.timeout)
        self._lanes = self._sup.slots
        for lane in self._lanes:
            self._fresh(lane)

    # --- lifecycle ------------------------------------------------------------

    def _fresh(self, lane: _Lane) -> None:
        """Receive state for a lane whose worker just started."""
        lane.chan.setblocking(False)
        lane.buf = bytearray()
        lane.last_seen = time.monotonic()

    def _live(self) -> list[_Lane]:
        return self._sup.live

    def close(self) -> None:
        """Graceful drain: ``stop`` frames, join, escalate, release."""
        if self._closed:
            return
        self._closed = True
        self._sup.shutdown(
            lambda ln: ln.chan.sendall(encode_frame({"op": "stop"})))
        for lane in self._lanes:
            lane.release()

    # --- the drain loop -------------------------------------------------------

    def drain(self) -> None:
        svc = self.service
        while True:
            self._dispatch_ready()
            if not self._outstanding():
                return
            if not self._live():
                self._degrade()
                return
            self._wait_events()

    def _outstanding(self) -> bool:
        """Whether any lease is held or any job is still pending."""
        if any(ln.busy for ln in self._lanes):
            return True
        return self.service._has_pending()

    def _dispatch_ready(self) -> None:
        """Fill idle live lanes from the queue (cache- and lock-aware)."""
        svc = self.service
        tr = self.config.trace
        now = time.monotonic()
        for key in [k for k, t in self._skip.items() if t <= now]:
            del self._skip[key]
        idle = [ln for ln in self._live() if not ln.busy]
        while idle:
            job = svc._claim_nowait(skip=self._skip)
            if job is None:
                return
            t0 = time.perf_counter()
            if svc._serve_cached(job, t0):
                svc._finish(job)
                continue
            lk = svc.cache.try_lock(job.key)
            if lk is None:
                # a twin campaign is computing this key right now:
                # either its record just landed, or we defer briefly
                if svc._serve_cached(job, t0):
                    svc._finish(job)
                else:
                    svc._unclaim(job)
                    self._skip[job.key] = time.monotonic() + _EXTERN_RETRY
                continue
            if svc._serve_cached(job, t0):  # landed while we took the lock
                lk.release()
                svc._finish(job)
                continue
            lane = idle.pop()
            msg = {"op": "job", "job_id": job.id,
                   "spec": job.spec.to_dict(),
                   "config": svc._job_config(job, self.config)
                                .replace(tracer=None),
                   "until_step": svc._until_step(job)}
            if svc._take_injected_fault(job):
                msg["inject_fail"] = True
            with tr.span("transport.dispatch", cat="transport",
                         job=job.id, worker=lane.wid):
                sent = self._send(lane, msg)
            lane.job, lane.key_lock = job, lk
            lane.t_dispatch = time.monotonic()
            if not sent:
                # the lane died at send time: requeue-and-respawn, then
                # try the remaining idle lanes with the same queue
                self._on_lane_death(lane, hung=False)
                idle = [ln for ln in self._live() if not ln.busy]

    def _send(self, lane: _Lane, msg) -> bool:
        """Frame ``msg`` to a lane; ``False`` when the lane is dead."""
        data = encode_frame(msg)
        try:
            lane.chan.setblocking(True)
            try:
                lane.chan.sendall(data)
            finally:
                lane.chan.setblocking(False)
        except OSError:
            return False
        self.service._count("service.frames_sent")
        return True

    def _wait_events(self) -> None:
        """Block until a frame, a death, or a deadline needs handling."""
        now = time.monotonic()
        live = self._live()
        deadlines = [ln.last_seen + self.timeout for ln in live if ln.busy]
        if self._skip:
            deadlines.append(min(self._skip.values()))
        deadline = min(min(deadlines, default=now + 0.2), now + 0.5)
        for lane, readable in self._sup.wait(live, deadline):
            if readable:
                self._pump(lane)
            else:
                self._on_lane_death(lane, hung=False)
        now = time.monotonic()
        for lane in self._live():
            if lane.busy and now - lane.last_seen > self.timeout:
                self._on_lane_death(lane, hung=True)

    def _pump(self, lane: _Lane) -> None:
        """Drain a readable lane socket; decode and handle its frames."""
        while True:
            try:
                chunk = lane.chan.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._on_lane_death(lane, hung=False)
                return
            if not chunk:       # EOF: the worker is gone
                self._on_lane_death(lane, hung=False)
                return
            lane.buf += chunk
            lane.last_seen = time.monotonic()
        while lane.alive:
            try:
                decoded = try_decode(lane.buf)
            except FrameError as e:
                warnings.warn(
                    f"lane worker {lane.wid} sent a corrupt frame ({e}); "
                    f"treating the worker as dead", RuntimeWarning,
                    stacklevel=2)
                self._on_lane_death(lane, hung=False)
                return
            if decoded is None:
                return
            msg, consumed = decoded
            del lane.buf[:consumed]
            self.service._count("service.frames_recv")
            self._handle(lane, msg)

    def _handle(self, lane: _Lane, msg) -> None:
        op = msg.get("op") if isinstance(msg, dict) else None
        if op != "result":      # hb / pong: liveness only
            return
        job = lane.job
        if job is None or msg.get("job_id") != job.id:
            warnings.warn(
                f"lane worker {lane.wid} answered job "
                f"{msg.get('job_id')!r} but holds "
                f"{job.id if job else None!r}; treating the worker as "
                f"dead", RuntimeWarning, stacklevel=2)
            self._on_lane_death(lane, hung=False)
            return
        svc = self.service
        elapsed = time.monotonic() - lane.t_dispatch
        if msg.get("ok"):
            svc._record_success(job, msg["result"], elapsed)
        else:
            svc._record_failure(job, str(msg.get("error")), elapsed)
        lane.release()
        svc._finish(job)

    # --- death, requeue, respawn, degrade -------------------------------------

    def _on_lane_death(self, lane: _Lane, hung: bool) -> None:
        """Reap a dead/hung lane, requeue its lease, respawn the slot."""
        svc = self.service
        tr = self.config.trace
        job = lane.release()
        death = self._sup.reap(lane, hung,
                               job_id=job.id if job is not None else None)
        svc._count("service.worker_deaths")
        if job is not None:
            with tr.span("transport.requeue", cat="transport", job=job.id,
                         worker=lane.wid, hung=hung):
                elapsed = time.monotonic() - lane.t_dispatch
                svc._record_failure(job, f"LaneWorkerDeath: {death}",
                                    elapsed,
                                    counter="service.requeued_jobs")
            svc._finish(job)
        if lane.respawns < self.max_respawns:   # budget is per slot
            with tr.span("transport.respawn", cat="transport",
                         worker=lane.wid, gen=lane.gen + 1):
                back = self._sup.respawn([lane], lane.respawns + 1)
            if back:
                self._fresh(lane)
                svc._count("service.worker_respawns")

    def _degrade(self) -> None:
        """Every lane slot is dead and unrespawnable: finish the drain
        on the thread transport instead of abandoning the queue."""
        svc = self.service
        if not svc._has_pending():
            return
        warnings.warn(
            "every process lane worker is dead and the respawn budget "
            "is exhausted; degrading the campaign drain to the local "
            "(thread) transport", RuntimeWarning, stacklevel=2)
        svc._count("service.degraded_drains")
        with self.config.trace.span("transport.degrade", cat="transport",
                                    nlanes=self.nlanes):
            pass
        LocalLaneTransport(svc, self.nlanes, self.config).drain()


def make_transport(name: str, service, nlanes: int,
                   config: ExecutionConfig) -> LaneTransport:
    """Build the named lane transport for one campaign drain."""
    if name == "local":
        return LocalLaneTransport(service, nlanes, config)
    if name == "process":
        return ProcessLaneTransport(service, nlanes, config)
    raise ValueError(f"unknown lane transport {name!r}")
