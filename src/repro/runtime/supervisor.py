"""Worker supervision: the one process lifecycle under both worker layers.

The paper's two-level hierarchy (ranks x threads) is reproduced here as
campaign lanes x pool workers, and both levels need the same thing from
the OS: start a child, notice the moment it dies or goes silent, say
*how* it died, get rid of what is left, start a replacement without
spinning, and stop everything at the end.  This is the only module
under ``src/repro`` that does any of that (a tier-1 guard checks it);
:class:`repro.runtime.pool.ExchangeWorkerPool` and
:class:`repro.service.transport.ProcessLaneTransport` keep what differs
— the message format, what a lost worker held and where that work goes
next, and when to give up and degrade.

The channel is a parameter the supervisor never reads through: a
``pair()`` factory (``multiprocessing.Pipe`` for the pool,
``socket.socketpair`` for the lanes) whose two ends have ``fileno()``
and ``close()``.  The child runs ``target(child_end, wid, gen, *args)``.

Two policies stay with the callers on purpose (DESIGN §5c): the pool
budgets respawn *rounds per operation* and its injected fault fires in
every worker generation; the lanes budget respawns *per slot* and their
injected fault fires in generation 0 only.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait

__all__ = ["RESPAWN_BACKOFF", "FaultGate", "Slot", "Supervisor",
           "WorkerDeath"]

# Backoff before restarting dead workers, scaled by the recovery round
# (a crash loop — e.g. the machine is out of memory — should not spin).
RESPAWN_BACKOFF = 0.05


class WorkerDeath(RuntimeError):
    """A supervised worker died, or hung past the deadline.

    The diagnosis: which ``worker``, its ``exitcode`` (and ``signum``
    when a signal killed it), whether it was a deadline expiry
    (``hung``), and the caller's ``phase``.  Subclasses name the worker
    kind (``noun``) and word what it held (``held``).
    """

    noun = "worker"

    def __init__(self, worker: int, exitcode: int | None = None,
                 hung: bool = False, timeout: float | None = None,
                 phase: str | None = None, held: str = ""):
        self.worker = worker
        self.exitcode = exitcode
        self.signum = -exitcode if exitcode is not None and exitcode < 0 \
            else None
        self.hung = hung
        self.phase = phase
        if self.signum is not None:
            try:
                name = signal.Signals(self.signum).name
            except ValueError:
                name = str(self.signum)
            self.how = f"killed by signal {name}"
        elif exitcode is not None:
            self.how = f"exit code {exitcode}"
        else:
            self.how = "no exit status"
        if hung:
            within = f" within {timeout:g} s" if timeout else ""
            what = f"did not answer{within} — treating it as hung"
        else:
            what = f"died ({self.how})"
        during = f" during {phase}" if phase else ""
        super().__init__(f"{self.noun} {worker} {what}{during}{held}")


class FaultGate:
    """Child-side half of worker fault injection.

    ``fault`` is a parsed ``(worker, nth, mode)`` spec
    (:func:`repro.runtime.boundary.parse_fault`) or ``None``.  The
    worker loop calls :meth:`tick` once per unit of work; on the
    ``nth`` tick of a matching worker the gate acts the fault out.
    ``armed=False`` disarms it (the lanes pass ``gen == 0``).
    """

    def __init__(self, fault, wid: int, armed: bool = True):
        self.fault = fault if armed and fault is not None \
            and fault[0] in ("*", wid) else None
        self.n = 0

    def tick(self, silence=None) -> None:
        """Count one unit of work; die here if this is the one.
        ``silence()`` runs first (a hang must stop its heartbeat)."""
        self.n += 1
        if self.fault is None or self.n != self.fault[1]:
            return
        if silence is not None:
            silence()
        mode = self.fault[2]
        if mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif mode == "hang":
            time.sleep(3600.0)   # the parent's deadline kills us first
        elif mode == "exc":
            # an unhandled exception escaping the worker loop: exit
            # nonzero without replying (no traceback noise in tests)
            os._exit(1)


def _enter(target, inherited, child, *args) -> None:
    """First frame of every worker.  A forked child holds a copy of
    each parent-side channel end that was open at the fork — its own
    and its older siblings'; until every copy is closed no worker reads
    EOF when the parent closes (or loses) its end."""
    for end in inherited:
        end.close()
    target(child, *args)


@dataclass
class Slot:
    """One supervised worker slot.  Callers subclass it for their own
    per-worker state; ``proc``/``chan`` are ``None`` while it is dead."""

    wid: int
    proc: object = None
    chan: object = None          # the parent's end of the channel
    gen: int = 0                 # spawn generation of the current worker
    respawns: int = 0            # restart attempts made for this slot

    @property
    def alive(self) -> bool:
        return self.proc is not None


class Supervisor:
    """``n`` worker slots: start, wait, reap, respawn, shut down.

    ``death`` is the :class:`WorkerDeath` subclass :meth:`reap` builds
    (extra keywords to ``reap`` go to its constructor), ``slot`` the
    :class:`Slot` subclass to allocate, ``timeout`` the deadline quoted
    in a hang diagnosis.  ``args`` may be reassigned between respawns.
    A constructor that cannot start every worker stops the ones it did
    start and re-raises.
    """

    #: Seconds each step of join -> terminate -> kill waits.
    grace = 5.0

    def __init__(self, n: int, target, args=(), *, pair, death=WorkerDeath,
                 slot=Slot, timeout: float | None = None,
                 start_method: str | None = None):
        if start_method is None:
            start_method = ("fork" if "fork" in mp.get_all_start_methods()
                            else "spawn")
        self._ctx = mp.get_context(start_method)
        self.target, self.args, self.pair = target, args, pair
        self.death, self.timeout = death, timeout
        self.slots = [slot(wid=w) for w in range(n)]
        try:
            for s in self.slots:
                self._start(s)
        except OSError:
            self.shutdown(force=True)
            raise

    @property
    def live(self) -> list[Slot]:
        return [s for s in self.slots if s.alive]

    def _start(self, slot: Slot) -> None:
        parent, child = self.pair()
        # only a fork hands the child the parent's open ends
        inherited = [parent] + [s.chan for s in self.live] \
            if self._ctx.get_start_method() == "fork" else []
        try:
            proc = self._ctx.Process(
                target=_enter,
                args=(self.target, inherited, child, slot.wid, slot.gen,
                      *self.args), daemon=True,
                name=f"{self.death.noun.replace(' ', '-')}-{slot.wid}")
            proc.start()
        except OSError:
            parent.close()
            raise
        finally:
            child.close()
        slot.proc, slot.chan = proc, parent

    def _end(self, proc, wait_first: bool) -> None:
        """join -> terminate -> kill, each step only while it lives."""
        if wait_first:
            proc.join(self.grace)
        for stop in (proc.terminate, proc.kill):
            if not proc.is_alive():
                break
            stop()
            proc.join(self.grace)

    def wait(self, slots, deadline: float) -> list[tuple[Slot, bool]]:
        """Block until a live slot has news or ``deadline`` (monotonic).

        Watches each channel *and* each ``Process.sentinel``, so a death
        is seen the moment the OS reaps the child.  Returns ``(slot,
        readable)`` per slot with news: ``readable`` means the channel
        has bytes or EOF (read it first — a worker may answer and then
        exit); otherwise only the sentinel fired and the worker is gone.
        """
        objs = [o for s in slots for o in (s.chan, s.proc.sentinel)]
        ready = _wait(objs, max(0.0, deadline - time.monotonic())) \
            if objs else []
        return [(s, s.chan in ready) for s in slots
                if s.chan in ready or s.proc.sentinel in ready]

    def reap(self, slot: Slot, hung: bool = False, **held) -> WorkerDeath:
        """Tear down one slot and return its diagnosis; siblings keep
        running.  The channel closes first (a merely confused child
        exits on EOF); a hung worker is terminated at once, any other
        gets ``grace`` to finish dying before the same escalation."""
        proc = slot.proc
        slot.chan.close()
        self._end(proc, wait_first=not hung)
        slot.proc = slot.chan = None
        return self.death(slot.wid, exitcode=proc.exitcode, hung=hung,
                          timeout=self.timeout, **held)

    def respawn(self, slots, round_: int) -> list[Slot]:
        """Restart dead ``slots`` after the backoff for recovery round
        ``round_``; returns the ones that came back.  A slot whose start
        fails (fork refused — e.g. out of memory) stays dead."""
        if slots:
            time.sleep(min(RESPAWN_BACKOFF * round_, 1.0))
        back = []
        for s in slots:
            s.gen += 1
            s.respawns += 1
            try:
                self._start(s)
            except OSError:
                continue
            back.append(s)
        return back

    def shutdown(self, stop=None, force: bool = False) -> list[WorkerDeath]:
        """Stop every live worker and release the channels (idempotent).

        The orderly path calls ``stop(slot)`` (the caller's polite stop
        message), joins, and only then escalates; ``force`` skips the
        message, closes the channels and terminates without waiting for
        an exit nobody asked for.  Returns a diagnosis for each worker
        the orderly path found had not exited cleanly.
        """
        live = self.live
        for s in live:
            if force or stop is None:
                s.chan.close()
            else:
                try:
                    stop(s)
                except OSError:
                    pass
        unclean = []
        for s in live:
            self._end(s.proc, wait_first=not force)
            s.chan.close()
            if not force and s.proc.exitcode not in (0, None):
                unclean.append(self.death(s.wid, exitcode=s.proc.exitcode))
            s.proc = s.chan = None
        return unclean
