"""Fixed micro-calls timed in the traced pass.

No end-to-end workload uses ``executor="process"`` or kills a lane, so
these layers would otherwise have no number at all.  Each probe sets the
fault variable it needs only around its own call.
"""

from __future__ import annotations

import os
import socket
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

from .stats import median


def _time(fn, reps: int) -> float:
    """Median seconds per call over ``reps`` calls (after one warm-up)."""
    fn()
    samples = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return median(samples)


@contextmanager
def _env(name: str, value: str):
    os.environ[name] = value
    try:
        yield
    finally:
        del os.environ[name]


# --- integrals ----------------------------------------------------------------

def kernel_probes(reps: int) -> dict:
    """us/quartet by L-class for both kernels, on water/STO-3G pairs —
    the classes ``benchmarks/results/test_eri_kernel_throughput.txt``
    recorded as 66.7 / 180.7 / 657.3 us."""
    from repro.basis import build_basis
    from repro.basis.shellpair import build_shell_pairs
    from repro.chem import builders
    from repro.integrals import boys, eri_quartet, eri_quartet_batch

    pairs = build_shell_pairs(build_basis(builders.water()).shells)
    classes = {"ssss": pairs[(0, 1)], "spsp": pairs[(0, 2)],
               "pppp": pairs[(2, 2)]}
    nbatch = 128
    out = {}
    for label, pair in classes.items():
        out[f"integrals.eri_quartet.us_per_quartet.{label}"] = \
            _time(lambda: eri_quartet(pair, pair), reps) * 1e6
        bra = [pair] * nbatch
        out[f"integrals.eri_quartet_batch.us_per_quartet.{label}"] = \
            _time(lambda: eri_quartet_batch(bra, bra),
                  max(3, reps // 20)) / nbatch * 1e6
    t = np.linspace(0.0, 30.0, 20000)
    mmax = 8
    out["integrals.boys.ns_per_value"] = \
        _time(lambda: boys(mmax, t), max(3, reps // 10)) \
        / ((mmax + 1) * t.size) * 1e9
    return out


# --- runtime.pool / hfx -------------------------------------------------------

def pool_probes(nwaters: int) -> dict:
    """Spawn, one pooled build, the same build serially, and one build
    that loses a worker — all on the same density."""
    from repro.basis import build_basis
    from repro.chem import builders
    from repro.hfx import IncrementalExchange, build_tasklist
    from repro.runtime.execconfig import ExecutionConfig
    from repro.runtime.pool import ExchangeWorkerPool
    from repro.scf import DirectJKBuilder

    basis = build_basis(builders.water_cluster(nwaters))
    rng = np.random.default_rng(0)
    A = rng.standard_normal((basis.nbf, basis.nbf)) * 0.1
    D = A + A.T + np.eye(basis.nbf)
    serial_cfg = ExecutionConfig(kernel="batched")
    pool_cfg = ExecutionConfig(executor="process", nworkers=2,
                               kernel="batched")
    out = {}

    serial = DirectJKBuilder(basis, config=serial_cfg)   # warms Schwarz
    t0 = perf_counter()
    _, K_ref = serial.build(D)
    out["runtime.pool.serial_build_ms"] = (perf_counter() - t0) * 1e3

    def pooled_build(fault: str | None) -> tuple[float, float]:
        with _env("REPRO_POOL_FAULT", fault) if fault else nullcontext():
            t0 = perf_counter()
            pool = ExchangeWorkerPool(basis, nworkers=2)
            spawn = perf_counter() - t0
            try:
                builder = DirectJKBuilder(basis, pool=pool, config=pool_cfg)
                builder.build(D)      # warm-up: steady-state workers
                t0 = perf_counter()
                _, K = builder.build(D)
                wall = perf_counter() - t0
            finally:
                pool.close()
        if np.abs(K - K_ref).max() > 1e-10:
            raise RuntimeError("pooled exchange build disagrees with the "
                               "serial build")
        return spawn, wall

    spawn, clean = pooled_build(None)
    # build=2 is the timed build; a respawned worker counts from 1 again,
    # so the re-run of the lost rank jobs survives
    _, faulted = pooled_build("worker=0,build=2,mode=kill")
    out["runtime.pool.spawn_ms"] = spawn * 1e3
    out["runtime.pool.exchange_ms"] = clean * 1e3
    out["runtime.pool.recovery_ms"] = (faulted - clean) * 1e3

    t0 = perf_counter()
    build_tasklist(basis, eps=1e-8)
    out["hfx.tasklist.build_ms"] = (perf_counter() - t0) * 1e3

    kinc = IncrementalExchange(basis, config=serial_cfg)
    kinc.update(D)
    kinc.update(D + 1e-4 * (A + A.T))        # an SCF-step-sized change
    full = kinc.total_quartets_full - kinc.total_quartets_incremental
    out["hfx.incremental.recompute_frac"] = \
        kinc.last_quartets / (kinc.last_quartets + full) \
        if kinc.last_quartets + full else 0.0
    return out


# --- service.transport --------------------------------------------------------

def transport_probes(reps: int, njobs: int, workdir: Path) -> dict:
    """Frame echo over a socketpair, and the price of one lane death."""
    from repro import api
    from repro.service import JobSpec, encode_frame, read_frame

    out = {}
    a, b = socket.socketpair()
    try:
        ra, rb = a.makefile("rb"), b.makefile("rb")
        msg = {"op": "result", "job_id": 1, "ok": True,
               "result": {"energies": list(range(200))}}

        def echo():
            a.sendall(encode_frame(msg))
            b.sendall(encode_frame(read_frame(rb.read)))
            read_frame(ra.read)

        out["service.transport.roundtrip.us"] = _time(echo, reps) * 1e6
    finally:
        a.close()
        b.close()

    specs = [JobSpec(kind="scf", molecule="water", perturb=0.01,
                     perturb_seed=100 + i) for i in range(njobs)]

    def drain(tag: str) -> tuple[float, dict]:
        t0 = perf_counter()
        report = api.run_campaign(specs, workdir / f"probe-{tag}", lanes=2,
                                  transport="process")
        wall = perf_counter() - t0
        if report["completed"] != njobs:
            raise RuntimeError(f"transport probe ({tag}): "
                               f"{report['completed']}/{njobs} jobs done")
        return wall, report

    drain("warmup")            # first-use imports in the forked lanes
    clean, _ = drain("clean")
    with _env("REPRO_SERVICE_FAULT", "worker=0,exec=1,mode=kill"):
        faulted, report = drain("fault")
    if report["counters"].get("service.worker_deaths", 0) != 1:
        raise RuntimeError("transport probe: the injected lane death did "
                           "not happen")
    out["service.transport.recovery_ms"] = (faulted - clean) * 1e3
    return out


def run_all(smoke: bool, workdir: Path) -> dict:
    reps = 20 if smoke else 200
    out = kernel_probes(reps)
    out.update(pool_probes(2 if smoke else 3))
    out.update(transport_probes(reps, 6, workdir))
    return out
