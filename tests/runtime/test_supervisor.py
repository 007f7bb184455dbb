"""The worker-supervision core: one contract over both channel kinds.

The supervisor never reads through its channels, so neither does this
file: parent and child talk over the raw ``fileno()`` of whichever pair
the factory made (``multiprocessing.Pipe`` as the HFX pool passes it,
``socket.socketpair`` as the campaign lanes do).  Plus the structural
guard that keeps the process lifecycle in this one module.
"""

import ast
import multiprocessing as mp
import os
import signal
import socket
import time
from multiprocessing.process import BaseProcess
from pathlib import Path

import pytest

from repro.runtime.supervisor import FaultGate, Supervisor, WorkerDeath

pytestmark = [pytest.mark.pool, pytest.mark.fault]

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
PAIRS = pytest.mark.parametrize("pair", [mp.Pipe, socket.socketpair],
                                ids=["Pipe", "socketpair"])


def _child(chan, wid, gen, behaviour):
    """Trivial worker: ``echo`` answers every message until ``stop`` or
    EOF; ``silent`` never answers; ``deaf`` also ignores SIGTERM."""
    fd = chan.fileno()
    if behaviour == "deaf":
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        os.write(fd, b"up")
    while behaviour != "echo":
        time.sleep(60.0)
    while True:
        msg = os.read(fd, 64)
        if msg in (b"", b"stop"):
            return
        os.write(fd, msg + b"/%d.%d" % (wid, gen))


def _ask(sup, slot, msg=b"ping"):
    os.write(slot.chan.fileno(), msg)
    assert sup.wait([slot], time.monotonic() + 10.0) == [(slot, True)]
    return os.read(slot.chan.fileno(), 64)


@pytest.fixture
def started(monkeypatch):
    """Every child ``Process.start`` is recorded; ``started.fail_at``
    makes the n-th start raise like a refused fork."""
    real = BaseProcess.start

    class Started(list):
        fail_at = None

    log = Started()

    def start(proc):
        log.append(proc)
        if log.fail_at is not None and len(log) >= log.fail_at:
            raise OSError("fork refused (test)")
        real(proc)

    monkeypatch.setattr(BaseProcess, "start", start)
    yield log
    for proc in log:            # whatever a failing test left behind
        if proc.pid is not None and proc.is_alive():
            proc.kill()


@PAIRS
def test_sigkill_is_diagnosed_with_signum(pair, started):
    sup = Supervisor(2, _child, ("echo",), pair=pair, timeout=5.0)
    a, b = sup.slots
    assert _ask(sup, a) == b"ping/0.0"
    os.kill(a.proc.pid, signal.SIGKILL)
    (slot, _readable), = sup.wait(sup.slots, time.monotonic() + 10.0)
    assert slot is a
    death = sup.reap(a, phase="build")
    assert (death.worker, death.signum, death.hung) == (0, signal.SIGKILL,
                                                        False)
    assert str(death) == ("worker 0 died (killed by signal SIGKILL) "
                          "during build")
    assert not a.alive and a.chan is None
    assert _ask(sup, b) == b"ping/1.0"          # the sibling carries on
    sup.shutdown()
    assert all(p.exitcode is not None for p in started)


@PAIRS
def test_silence_past_the_deadline_is_terminated_as_hung(pair, started):
    sup = Supervisor(1, _child, ("silent",), pair=pair, timeout=0.2)
    slot, = sup.slots
    t0 = time.monotonic()
    assert sup.wait([slot], t0 + 0.2) == []
    assert time.monotonic() - t0 >= 0.2
    death = sup.reap(slot, hung=True)
    assert death.hung and death.signum == signal.SIGTERM
    assert "did not answer within 0.2 s" in str(death)
    assert not started[0].is_alive()


@PAIRS
def test_sigterm_deaf_child_is_escalated_to_kill(pair, started):
    sup = Supervisor(2, _child, ("deaf",), pair=pair, timeout=1.0)
    sup.grace = 0.3
    for slot in sup.slots:      # SIGTERM is ignored from here on
        assert sup.wait([slot], time.monotonic() + 10.0) == [(slot, True)]
    death = sup.reap(sup.slots[0], hung=True)
    assert death.hung and death.signum == signal.SIGKILL
    sup.shutdown(force=True)    # same escalation on the way out
    assert [p.exitcode for p in started] == [-signal.SIGKILL] * 2


@PAIRS
def test_failed_respawn_leaves_the_slot_dead(pair, started):
    sup = Supervisor(2, _child, ("echo",), pair=pair, timeout=5.0)
    a, b = sup.slots
    a.proc.kill()
    sup.reap(a)
    started.fail_at = len(started) + 1
    assert sup.respawn([a], 1) == []
    assert not a.alive and (a.gen, a.respawns) == (1, 1)
    assert _ask(sup, b) == b"ping/1.0"          # survivors carry on
    started.fail_at = None
    assert sup.respawn([a], 2) == [a]
    assert _ask(sup, a) == b"ping/0.2"          # third generation
    sup.shutdown()


@PAIRS
def test_failed_construction_leaves_no_child_behind(pair, started):
    started.fail_at = 3
    with pytest.raises(OSError, match="fork refused"):
        Supervisor(3, _child, ("echo",), pair=pair)
    assert len(started) == 3
    assert all(p.exitcode is not None for p in started[:2])


@PAIRS
def test_shutdown_is_idempotent_and_reports_unclean_exits(pair, started):
    sup = Supervisor(3, _child, ("echo",), pair=pair, timeout=5.0)
    sup.slots[1].proc.kill()
    sup.slots[1].proc.join(10.0)

    def stop(slot):
        os.write(slot.chan.fileno(), b"stop")   # EPIPE for slot 1

    unclean = sup.shutdown(stop)
    assert [(d.worker, d.signum) for d in unclean] == [(1, signal.SIGKILL)]
    assert sup.shutdown(stop) == []
    assert [p.exitcode for p in started] == [0, -signal.SIGKILL, 0]
    assert not any(s.alive for s in sup.slots)


@PAIRS
def test_closing_the_parent_end_reads_as_eof_in_the_child(pair, started):
    """A forked child holds a copy of every parent-side end open at its
    fork — its own and its older siblings'.  Unless it closes them, no
    worker ever reads EOF: not when the parent closes a channel, not
    when the parent is gone."""
    sup = Supervisor(3, _child, ("echo",), pair=pair, timeout=5.0)
    for slot in sup.slots:
        slot.chan.close()
        slot.proc.join(2.0)
        assert slot.proc.exitcode == 0
    sup.shutdown(force=True)


@PAIRS
def test_forced_shutdown_does_not_wait_out_the_grace(pair, started):
    sup = Supervisor(3, _child, ("silent",), pair=pair)   # EOF-blind
    t0 = time.monotonic()
    assert sup.shutdown(force=True) == []
    assert time.monotonic() - t0 < 1.0
    assert [p.exitcode for p in started] == [-signal.SIGTERM] * 3


def test_forced_pool_close_is_immediate(water_basis):
    """The degrade path (``PoolLease._degrade``, retry-budget exhaustion,
    ``__del__``): it used to cost one 5 s grace per worker."""
    from repro.runtime.pool import ExchangeWorkerPool

    pool = ExchangeWorkerPool(water_basis, nworkers=3)
    procs = [s.proc for s in pool._sup.slots]
    t0 = time.monotonic()
    pool.close(force=True)
    assert time.monotonic() - t0 < 1.0
    assert not any(p.is_alive() for p in procs)


def _hold_pool(conn, _tmp):
    from repro.basis import build_basis
    from repro.chem import builders
    from repro.runtime.pool import ExchangeWorkerPool

    pool = ExchangeWorkerPool(build_basis(builders.water()), nworkers=2)
    conn.send([s.proc.pid for s in pool._sup.slots])
    time.sleep(60.0)


def _hold_lanes(conn, tmp):
    from repro.service import CampaignService
    from repro.service.transport import ProcessLaneTransport

    svc = CampaignService(tmp)
    lanes = ProcessLaneTransport(svc, 2, svc.config)
    conn.send([s.proc.pid for s in lanes._sup.slots])
    time.sleep(60.0)


def _gone(pid):
    """Exited (a zombie nobody reaped yet counts)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("hold", [
    _hold_pool, pytest.param(_hold_lanes, marks=pytest.mark.transport)])
def test_workers_do_not_outlive_a_sigkilled_parent(hold, tmp_path):
    """No ``stop``, no ``atexit``: the only thing a SIGKILLed owner
    leaves its workers is EOF on their channel."""
    ctx = mp.get_context("fork")
    here, there = ctx.Pipe()
    owner = ctx.Process(target=hold, args=(there, tmp_path))
    owner.start()
    there.close()
    pids = []
    try:
        assert here.poll(30.0)
        pids = here.recv()
        assert len(pids) == 2 and not any(_gone(pid) for pid in pids)
        owner.kill()
        owner.join(10.0)
        deadline = time.monotonic() + 2.0
        while not all(map(_gone, pids)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert all(map(_gone, pids))
    finally:
        owner.kill()
        for pid in pids:
            if not _gone(pid):
                os.kill(pid, signal.SIGKILL)


def test_owners_guard_their_initial_spawn(started, water_basis, tmp_path):
    """Pool and lanes both construct through the supervisor, so a fork
    refused half-way leaks neither's first children."""
    from repro.runtime.pool import ExchangeWorkerPool
    from repro.service import CampaignService
    from repro.service.transport import ProcessLaneTransport

    svc = CampaignService(tmp_path)
    for make in (lambda: ExchangeWorkerPool(water_basis, nworkers=3),
                 lambda: ProcessLaneTransport(svc, 3, svc.config)):
        del started[:]
        started.fail_at = 3
        with pytest.raises(OSError, match="fork refused"):
            make()
        assert len(started) == 3
        assert all(p.exitcode is not None for p in started[:2])


def test_diagnosis_wording():
    assert str(WorkerDeath(3, exitcode=1)) == "worker 3 died (exit code 1)"
    assert str(WorkerDeath(3)) == "worker 3 died (no exit status)"
    assert WorkerDeath(3, exitcode=-250).how == "killed by signal 250"
    hung = WorkerDeath(0, exitcode=-15, hung=True, phase="reset",
                       held=" holding job 7")
    assert str(hung) == ("worker 0 did not answer — treating it as hung "
                         "during reset holding job 7")


def test_fault_gate_only_fires_for_its_worker_and_when_armed():
    FaultGate(None, 0).tick()
    FaultGate((1, 1, "kill"), 0).tick()                 # another worker
    FaultGate(("*", 1, "kill"), 0, armed=False).tick()  # later generation
    gate = FaultGate(("*", 2, "kill"), 0)
    gate.tick()                                         # not yet
    assert gate.n == 1


# --- the guard: one module owns the process lifecycle -------------------------

def test_process_lifecycle_lives_in_one_module():
    """Under ``src/repro`` only ``runtime/supervisor.py`` starts, watches,
    signals or picks a start method for a child process, and the service
    layer borrows no private name from the pool."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if rel != "runtime/supervisor.py":
                if isinstance(node, ast.Attribute) and node.attr == "sentinel":
                    offenders.append((rel, node.lineno, ".sentinel"))
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.attr if isinstance(f, ast.Attribute) else \
                        f.id if isinstance(f, ast.Name) else None
                    if name in ("Process", "get_context") or (
                            name in ("terminate", "kill")
                            and isinstance(f, ast.Attribute)):
                        offenders.append((rel, node.lineno, f"{name}("))
            if rel.startswith("service/") \
                    and isinstance(node, ast.ImportFrom) \
                    and (node.module or "").endswith("pool"):
                offenders += [(rel, node.lineno, f"import {a.name}")
                              for a in node.names if a.name.startswith("_")]
    assert offenders == []
