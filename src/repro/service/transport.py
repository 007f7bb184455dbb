"""The campaign dispatch loop and its two lane kinds.

The Python-heavy SCF paths hold the GIL, so only separate processes
overlap campaign compute; the paper likewise spreads work over
processes and keeps threads inside a rank.  :class:`ProcessLaneTransport`
is the one dispatcher of a :class:`~repro.service.CampaignService`: a
single-threaded event loop in the campaign parent that claims jobs,
runs the cache protocol, dispatches to a lane and folds the answer
back into the service.  It has two lane kinds:

* **process lanes** — persistent **forked lane workers**, one OS
  process per lane, speaking length-prefixed, versioned **frames** over
  ``socketpair`` connections (``"process"``);
* the **inline lane** — runs the job in the parent the moment the loop
  dispatches to it and records the answer at once.  ``"local"`` is
  exactly this one lane (the bit-exact reference), and it is where the
  loop finishes the queue when every process lane is gone.

The process lanes follow the PR 4 pool's detect → retry → degrade
idiom one level up the stack, on the same process-lifecycle core
(:mod:`repro.runtime.supervisor`: start, sentinel-aware wait, reap,
respawn, shutdown); what stays here is the wire format and the lease:

* **framed RPC** — every message is ``magic | version | length |
  payload`` (:func:`encode_frame` / :func:`read_frame` /
  :func:`try_decode`), the payload in the :mod:`repro.runtime.codec`
  format (a job's config crosses as its tracer-less ``ExecutionConfig``
  record), so no frame byte can run code; truncated, garbage,
  undecodable or other-version frames are diagnosed as
  :class:`FrameError`, never half-parsed and never hung on;
* **heartbeat liveness** — each worker streams ``hb`` frames from a
  daemon thread in the child (cadence ``REPRO_SERVICE_HEARTBEAT``,
  default 1 s), so the parent can tell "still computing a long job"
  from "wedged": a lane that goes silent past the ``pool_timeout``
  deadline is killed and treated as dead;
* **job leases** — a dispatched job is *leased* to its worker; when
  the worker dies or hangs mid-lease, the job is requeued against the
  campaign's existing per-job retry budget
  (``service.requeued_jobs``) and the worker slot is respawned with
  bounded backoff (``pool_max_retries`` respawns per slot);
* **degradation** — when every lane slot is dead and unrespawnable the
  loop warns once, counts ``service.degraded_drains``, and drains the
  remaining queue on its inline lane instead of aborting the campaign;
* **graceful drain** — shutdown sends ``stop`` frames, joins, and only
  then escalates terminate → kill.

Cross-campaign work sharing rides on the
:class:`~repro.service.ResultCache` compute locks: before computing a
missing key the loop takes the key's advisory file lock without
blocking, so duplicate specs submitted to *different campaigns in
different processes* on one cache directory cost a single compute.  A
key another campaign holds is skipped for a short retry interval (the
loop sleeps until then when nothing else is runnable) and is served
from the cache once the twin's record lands.

Deterministic fault injection (tests/benchmarks only), extending the
PR 7 ``REPRO_SERVICE_FAULT`` grammar:

* ``job=N[,times=K]`` — the first K execution attempts of job N fail
  with an injected error (either lane kind: the loop consumes the
  charge when it dispatches; the per-job isolation path);
* ``worker=W[,exec=N][,mode=kill|hang]`` — process lanes: lane
  worker W (or ``*`` = any) dies with SIGKILL — or goes silent — at
  the start of its N-th job (default 1st).  Only the *original* worker
  generation triggers, so the respawned lane proves the requeue path
  instead of dying forever.

Telemetry: ``transport.dispatch`` / ``transport.requeue`` /
``transport.respawn`` / ``transport.degrade`` spans on the campaign
tracer (inline jobs keep the tracer, so their spans land there too),
plus ``service.frames_sent`` / ``service.frames_recv`` /
``service.worker_deaths`` / ``service.worker_respawns`` /
``service.requeued_jobs`` / ``service.degraded_drains`` counters in
``--profile``.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
import warnings
from dataclasses import dataclass, field

from ..runtime import codec
from ..runtime.boundary import (KNOBS, env_text, fault_fields, parse_fault,
                                resolve)
from ..runtime.execconfig import ExecutionConfig
from ..runtime.supervisor import FaultGate, Slot, Supervisor, WorkerDeath

__all__ = [
    "FrameError", "FRAME_MAGIC", "FRAME_VERSION", "MAX_FRAME_BYTES",
    "encode_frame", "try_decode", "read_frame",
    "ProcessLaneTransport", "LaneWorkerDeath", "InjectedWorkerDeath",
    "parse_service_fault",
]

# --- frame codec --------------------------------------------------------------

#: Frame magic: identifies a lane-RPC frame on the wire.
FRAME_MAGIC = b"RLNF"

#: Frame format version; a mismatched peer is refused, never half-read.
#: v1 carried pickled payloads; v2 carries :mod:`repro.runtime.codec`.
FRAME_VERSION = 2

#: Sanity ceiling on one frame's payload.  A garbage length field must
#: fail fast instead of "allocating" gigabytes while waiting forever
#: for bytes that will never arrive.
MAX_FRAME_BYTES = 1 << 28        # 256 MiB

_FRAME_HEADER = struct.Struct("<4sHI")    # magic, version, payload length


class FrameError(RuntimeError):
    """A frame could not be read: truncation, garbage, or a version /
    size the codec refuses.  Always a diagnosis, never a hang."""


def encode_frame(obj, *, version: int = FRAME_VERSION) -> bytes:
    """Serialize one message as a self-delimiting frame (a value the
    codec refuses raises :class:`~repro.runtime.codec.CodecError`)."""
    payload = codec.encode(obj)
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
        return codec.decode(payload)
    except codec.CodecError as e:
        raise FrameError(f"frame payload is undecodable ({e})") from e


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


class InjectedWorkerDeath(RuntimeError):
    """Deterministic test fault: a job's execution lane 'died'."""


# --- job execution (both lane kinds) ------------------------------------------

def _serve(msg: dict) -> dict:
    """Execute one ``job`` request; returns its ``result`` reply.

    Every job runs through the one public :func:`repro.api.run_job`
    entrypoint; the reply carries either the result envelope or the
    formatted error (per-job isolation — an exception never kills the
    lane).  A process lane worker frames the reply back to the parent;
    the inline lane hands it straight to the dispatch loop.
    """
    job_id = msg["job_id"]
    try:
        if msg.get("inject_fail"):
            raise InjectedWorkerDeath(f"injected worker death on job "
                                      f"{job_id} (REPRO_SERVICE_FAULT)")
        from .. import api

        result = api.run_job(msg["spec"], config=msg["config"],
                             until_step=msg["until_step"])
    except Exception as e:
        return {"op": "result", "job_id": job_id, "ok": False,
                "error": f"{type(e).__name__}: {e}"}
    return {"op": "result", "job_id": job_id, "ok": True, "result": result}


def _lane_worker_main(sock: socket.socket, wid: int, gen: int) -> None:
    """Lane worker loop: serve framed job requests until told to stop.

    Runs in the child process; each ``job`` frame is answered with the
    :func:`_serve` reply.  A daemon thread streams ``hb`` frames so the
    parent can distinguish a long job from a wedged worker.

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
            gate.tick(silence=hb_stop.set)  # a hang goes silent, not idle
            _send(_serve(msg))
    finally:
        hb_stop.set()
        try:
            sock.close()
        except OSError:
            pass


# --- the dispatch loop --------------------------------------------------------

@dataclass
class _Lane(Slot):
    """One dispatch lane: a supervised worker slot (``chan`` is its
    socket) plus the framed-RPC receive state and the job lease.  The
    inline lane is a ``_Lane`` outside the supervisor — no process, no
    socket — whose lease ends inside the dispatch that starts it."""

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


class ProcessLaneTransport:
    """The campaign dispatch loop over ``nlanes`` forked lane workers.

    The parent side is a single-threaded event loop: dispatch jobs to
    idle lanes, wait on every lane socket *and* worker sentinel, and
    fold results / deaths / hangs back into the service's bookkeeping.
    With ``nlanes == 0`` nothing forks and every job runs on the inline
    lane (the ``"local"`` transport); a drain whose process slots are
    all dead and unrespawnable moves to the inline lane too.  Because
    the loop is single-threaded, the campaign tracer stays attached at
    any lane count.

    The loop owns lane *execution* only; the
    :class:`~repro.service.CampaignService` keeps owning the queue,
    the in-flight dedup, the cache, the retry budgets, and the queue
    store.  ``drain()`` runs until the queue has no runnable work;
    ``close()`` stops the workers (idempotent).
    """

    def __init__(self, service, nlanes: int, config: ExecutionConfig):
        self.service = service
        self.nlanes = int(nlanes)
        self.config = config
        self.timeout = resolve("pool_timeout", config.pool_timeout)
        self.max_respawns = resolve("pool_max_retries",
                                    config.pool_max_retries)
        heartbeat = resolve("heartbeat")     # validated here, pre-fork
        if self.nlanes and heartbeat >= self.timeout:
            # a busy lane is reaped as hung after ``timeout`` s without
            # a frame, so every job outliving the timeout would be too
            raise ValueError(
                f"{KNOBS['heartbeat'].env} must be shorter than "
                f"{KNOBS['pool_timeout'].env} ({self.timeout:g} s), "
                f"got {heartbeat:g}")
        self._closed = False
        self._skip: dict[str, float] = {}    # key -> retry-at (monotonic)
        # the inline lane: from the start with no process lanes, else
        # installed by ``_degrade`` once every process slot is gone
        self._inline = _Lane(wid=0) if self.nlanes == 0 else None
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

    def _idle(self) -> list[_Lane]:
        """Lanes a job can go to now: the inline lane once the loop runs
        on it, else every live process lane without a lease."""
        if self._inline is not None:
            return [self._inline]
        return [ln for ln in self._live() if not ln.busy]

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
        while True:
            self._dispatch_ready()
            if not self._outstanding():
                return
            if self._inline is None and not self._live():
                self._degrade()
            else:
                self._wait_events()

    def _outstanding(self) -> bool:
        """Whether any lease is held or any job is still pending."""
        if any(ln.busy for ln in self._lanes):
            return True
        return self.service._has_pending()

    def _dispatch_ready(self) -> None:
        """Fill idle lanes from the queue (cache- and lock-aware).

        The inline lane stays idle across its dispatches — each runs
        the job to its recorded answer — so it drains everything
        claimable in one call."""
        svc = self.service
        tr = self.config.trace
        now = time.monotonic()
        for key in [k for k, t in self._skip.items() if t <= now]:
            del self._skip[key]
        idle = self._idle()
        while idle:
            job = svc._next_pending(skip=self._skip)
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
            cfg = svc._job_config(job, self.config)
            msg = {"op": "job", "job_id": job.id,
                   "spec": job.spec.to_dict(),
                   "config": cfg if lane is self._inline
                   else cfg.replace(tracer=None),
                   "until_step": svc._until_step(job)}
            if svc._take_injected_fault(job):
                msg["inject_fail"] = True
            lane.job, lane.key_lock = job, lk
            lane.t_dispatch = time.monotonic()
            if lane is self._inline:
                self._handle(lane, _serve(msg))
                idle.append(lane)
                continue
            with tr.span("transport.dispatch", cat="transport",
                         job=job.id, worker=lane.wid):
                sent = self._send(lane, msg)
            if not sent:
                # the lane died at send time: requeue-and-respawn, then
                # try the remaining idle lanes with the same queue
                self._on_lane_death(lane, hung=False)
                idle = self._idle()

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
        if not live:
            # the inline lane: what is left waits on a twin campaign's
            # compute lock, so sleep until the next skipped key is due
            time.sleep(max(0.0, deadline - now))
            return
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
        """Every lane slot is dead and unrespawnable: the loop finishes
        the drain on its inline lane instead of abandoning the queue."""
        warnings.warn(
            "every process lane worker is dead and the respawn budget "
            "is exhausted; degrading the campaign drain to one inline "
            "lane in this process", RuntimeWarning, stacklevel=2)
        self.service._count("service.degraded_drains")
        with self.config.trace.span("transport.degrade", cat="transport",
                                    nlanes=self.nlanes):
            pass
        self._inline = _Lane(wid=self.nlanes)
