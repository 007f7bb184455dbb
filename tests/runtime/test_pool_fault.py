"""Fault-tolerance tests for the process pool (deterministic injection).

``REPRO_POOL_FAULT="worker=<id|*>,build=<n>,mode=kill|hang|exc"`` makes
workers die on cue (the matching worker faults at the start of its
``n``-th exec message, counted per process — a respawned worker counts
from 1 again), which lets these tests pin down the three contract
levels of ISSUE 4:

* **recovery** — a worker killed mid-build is diagnosed, respawned, and
  exactly its lost rank jobs re-run: K stays bit-identical to the
  serial executor;
* **degradation** — when every recovery round dies too (``worker=*``
  with ``build=1`` re-kills each respawn), the callers warn once, count
  ``pool.degraded_builds``, and finish the build serially;
* **diagnosis** — deaths carry worker id / exit code / signal / held
  rank jobs; hangs and sends to dead pipes route through the same
  error.
"""

import os
import signal
import time
import warnings

import numpy as np
import pytest

from repro.runtime import ExecutionConfig, Tracer
from repro.runtime.pool import (ExchangeWorkerPool, RankJob,
                                WorkerDeathError, _parse_fault, run_rank_jobs)
from repro.scf.fock import eval_screened_pairs

pytestmark = [pytest.mark.pool, pytest.mark.fault]

#: ``pool.run`` arguments of a K-only build with the reference kernel
K_ONLY = (False, True, "quartet")


@pytest.fixture(scope="module")
def density(water_basis):
    rng = np.random.default_rng(3)
    A = rng.standard_normal((water_basis.nbf, water_basis.nbf))
    return A + A.T


@pytest.fixture
def clean_fault_env(monkeypatch):
    """Keep injected faults out of pools other tests might spawn."""
    monkeypatch.delenv("REPRO_POOL_FAULT", raising=False)
    return monkeypatch


def _serial_K(basis, D, nranks, eps=1e-10):
    from repro.hfx import distributed_exchange

    K, _, _, _ = distributed_exchange(basis, D, nranks=nranks, eps=eps)
    return K


# --- recovery: kill / hang / exc mid-build, K bit-identical ------------------


@pytest.mark.parametrize("nworkers", [1, 2, 4])
def test_killed_worker_recovers_bit_identical(clean_fault_env, water_basis,
                                              density, nworkers):
    """Acceptance: one worker SIGKILLed mid-build; the pool respawns it,
    re-runs exactly the lost rank slices, and K equals the serial
    executor bit-for-bit."""
    from repro.hfx import distributed_exchange

    K_ref = _serial_K(water_basis, density, nranks=4)
    clean_fault_env.setenv("REPRO_POOL_FAULT", "worker=0,build=2,mode=kill")
    cfg = ExecutionConfig(executor="process")
    with ExchangeWorkerPool(water_basis, nworkers=nworkers) as pool:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # recovery must stay silent
            K1, _, _, _ = distributed_exchange(water_basis, density,
                                               nranks=4, pool=pool,
                                               config=cfg)
            # build 2: worker 0 dies at the start of its second exec
            K2, _, _, _ = distributed_exchange(water_basis, density,
                                               nranks=4, pool=pool,
                                               config=cfg)
        assert pool.worker_deaths == 1
        assert pool.respawns == 1
        assert pool.retried_jobs >= 1
        assert not pool.closed
    assert np.abs(K1 - K_ref).max() == 0.0
    assert np.abs(K2 - K_ref).max() == 0.0


def test_exc_death_recovers(clean_fault_env, water_basis, density):
    """A worker lost to an unhandled error (nonzero exit, no reply) is
    diagnosed by exit code and recovered like a signal death."""
    from repro.hfx import distributed_exchange

    K_ref = _serial_K(water_basis, density, nranks=3)
    clean_fault_env.setenv("REPRO_POOL_FAULT", "worker=0,build=2,mode=exc")
    cfg = ExecutionConfig(executor="process")
    with ExchangeWorkerPool(water_basis, nworkers=2) as pool:
        distributed_exchange(water_basis, density, nranks=3, pool=pool,
                             config=cfg)
        # build 2: worker 0 exits 1 without replying, then recovers
        K, _, _, _ = distributed_exchange(water_basis, density, nranks=3,
                                          pool=pool, config=cfg)
        assert pool.worker_deaths == 1
    assert np.abs(K - K_ref).max() == 0.0


def test_refused_respawn_redistributes_over_survivors(clean_fault_env,
                                                      water_basis, density):
    """When the fork of a replacement is refused the slot stays dead and
    the lost rank jobs go LPT over the survivors — K still bit-identical."""
    from multiprocessing.process import BaseProcess

    from repro.hfx import distributed_exchange

    K_ref = _serial_K(water_basis, density, nranks=4)
    clean_fault_env.setenv("REPRO_POOL_FAULT", "worker=0,build=1,mode=kill")
    cfg = ExecutionConfig(executor="process")
    with ExchangeWorkerPool(water_basis, nworkers=2) as pool:
        def refuse(proc):
            raise OSError("fork refused (test)")

        clean_fault_env.setattr(BaseProcess, "start", refuse)
        K, _, _, _ = distributed_exchange(water_basis, density, nranks=4,
                                          pool=pool, config=cfg)
        assert (pool.worker_deaths, pool.respawns) == (1, 0)
        assert pool._live() == [1] and pool.retried_jobs >= 1
    assert np.abs(K - K_ref).max() == 0.0


def test_hung_worker_is_killed_and_retried(clean_fault_env, water_basis,
                                           density):
    """A hang is a death with ``hung=True``: the deadline expires, the
    worker is killed, and its jobs re-run on the respawn."""
    clean_fault_env.setenv("REPRO_POOL_FAULT", "worker=0,build=2,mode=hang")
    jobs = [RankJob(rank=0, pairs=[np.array([[0, 0, 0, 0]])], cost=1.0)]
    with ExchangeWorkerPool(water_basis, nworkers=1, timeout=0.5) as pool:
        D = np.eye(water_basis.nbf)
        pool.run(eval_screened_pairs, jobs, K_ONLY, D)
        # build 2 hangs; the 0.5 s deadline converts it into a death
        results, nq = pool.run(eval_screened_pairs, jobs, K_ONLY, D)
        assert nq == 1 and 0 in results
        assert pool.worker_deaths == 1
        assert pool.respawns == 1


def _row_unit(engine, basis, D, work, tr, scale):
    """A unit that knows nothing about J/K: scaled density rows and the
    worker engine's Schwarz diagonal for each shell index it is handed."""
    Q = engine.schwarz_bounds()
    rows = scale * D[[basis.shell_slice(i).start for i in work]]
    return rows, np.array([Q[(i, i)] for i in work]), len(work)


def test_pool_runs_any_unit_like_the_rank_loop(clean_fault_env, water_basis,
                                                density):
    """The executor's contract, independent of J/K: a unit defined here
    returns the same bits through ``pool.run`` as through
    ``run_rank_jobs`` in-process — also when a worker is killed and its
    jobs recovered."""
    from repro.integrals.eri import ERIEngine

    shells = list(range(water_basis.nshell))
    jobs = [RankJob(rank=r, pairs=shells[r::3], cost=float(r + 1))
            for r in range(3)]
    done = run_rank_jobs(_row_unit, ERIEngine(water_basis), water_basis,
                         density, [(j.rank, j.pairs) for j in jobs], None,
                         (0.5,))
    want = {rank: (A, B) for rank, A, B, *_ in done}
    assert sum(d[3] for d in done) == len(shells)
    clean_fault_env.setenv("REPRO_POOL_FAULT", "worker=0,build=1,mode=kill")
    with ExchangeWorkerPool(water_basis, nworkers=2) as pool:
        # only the first generation is armed: the respawn recovers
        clean_fault_env.delenv("REPRO_POOL_FAULT")
        results, n = pool.run(_row_unit, jobs, (0.5,), density)
        assert (pool.worker_deaths, pool.respawns) == (1, 1)
        assert pool.retried_jobs >= 1
        again, _ = pool.run(_row_unit, jobs, (0.5,), density)
    assert n == len(shells)
    for got in (results, again):
        assert set(got) == set(want)
        for rank, (A, B) in want.items():
            assert np.array_equal(got[rank][0], A)
            assert np.array_equal(got[rank][1], B)


@pytest.mark.parametrize("reply", [
    "hostile pickle", b"\x00garbage", ("ok",), ("ok", [(0, 1)], 0, None, None),
    ("done", None, 0, None, None)])
def test_refused_reply_is_a_worker_death(clean_fault_env, water_basis,
                                         density, hostile_pickle, reply):
    """A reply that does not decode, or decodes to the wrong shape, is
    handled like a pipe that closed mid-message: the worker is reaped
    and diagnosed, its rank jobs re-run, and the pickle a worker might
    send is never executed."""
    from repro.integrals.eri import ERIEngine
    from repro.runtime import codec, pool as pool_mod
    from repro.runtime.telemetry import NULL_TRACER

    payload, marker = hostile_pickle
    if reply == "hostile pickle":
        blob = payload
    elif isinstance(reply, bytes):
        blob = reply
    else:
        blob = codec.encode(reply)
    jobs = [RankJob(rank=0, pairs=[np.array([[0, 0, 0, 0], [0, 0, 0, 1],
                                             [0, 0, 1, 1]])], cost=3.0),
            RankJob(rank=1, pairs=[np.array([[0, 1, 0, 1]])], cost=1.0)]
    want = run_rank_jobs(eval_screened_pairs, ERIEngine(water_basis),
                         water_basis, density,
                         [(j.rank, j.pairs) for j in jobs], NULL_TRACER,
                         K_ONLY)
    # the forked workers inherit the bad sender; respawns do not
    clean_fault_env.setattr(pool_mod, "_send",
                            lambda conn, msg: conn.send_bytes(blob))
    with ExchangeWorkerPool(water_basis, nworkers=2) as pool:
        clean_fault_env.undo()
        results, _ = pool.run(eval_screened_pairs, jobs, K_ONLY, density)
        assert (pool.worker_deaths, pool.respawns) == (2, 2)
    for rank, _, K, *_ in want:
        assert np.array_equal(results[rank][1], K)
    assert not marker.exists()


def test_refused_reply_is_diagnosed(clean_fault_env, water_basis, density):
    from repro.runtime import pool as pool_mod

    jobs = [RankJob(rank=0, pairs=[np.array([[0, 0, 0, 0]])], cost=1.0)]
    clean_fault_env.setattr(pool_mod, "_send",
                            lambda conn, msg: conn.send_bytes(b"junk"))
    pool = ExchangeWorkerPool(water_basis, nworkers=1, max_retries=0)
    clean_fault_env.undo()
    with pytest.raises(WorkerDeathError, match="reply refused") as info:
        pool.run(eval_screened_pairs, jobs, K_ONLY, density)
    assert info.value.ranks == (0,) and pool.closed


# --- degradation: retries exhausted -> serial fallback -----------------------


@pytest.mark.parametrize("nworkers", [1, 2, 4])
def test_retries_exhausted_degrades_to_serial(clean_fault_env, water_basis,
                                              density, nworkers):
    """Acceptance: with every worker (and every respawn) dying on its
    first exec, recovery can never finish — the build completes on the
    serial executor, with a warning and the telemetry counter."""
    from repro.hfx import distributed_exchange

    K_ref = _serial_K(water_basis, density, nranks=4)
    clean_fault_env.setenv("REPRO_POOL_FAULT", "worker=*,build=1,mode=kill")
    tr = Tracer("fault")
    with pytest.warns(RuntimeWarning, match="serial"):
        K, _, _, _ = distributed_exchange(
            water_basis, density, nranks=4,
            config=ExecutionConfig(executor="process", nworkers=nworkers,
                                   pool_max_retries=1, tracer=tr))
    assert np.abs(K - K_ref).max() == 0.0
    assert tr.snapshot().counters.get("pool.degraded_builds") == 1


def test_direct_builder_degrades_and_stays_serial(clean_fault_env,
                                                  water_basis, density):
    clean_fault_env.setenv("REPRO_POOL_FAULT", "worker=*,build=1,mode=kill")
    from repro.scf.fock import DirectJKBuilder

    ref = DirectJKBuilder(water_basis, eps=1e-11)
    J_ref, K_ref = ref.build(density)
    b = DirectJKBuilder(
        water_basis, eps=1e-11,
        config=ExecutionConfig(executor="process", nworkers=2,
                               pool_max_retries=1))
    try:
        with pytest.warns(RuntimeWarning, match="serial"):
            J, K = b.build(density)
        assert b.degraded and b.executor == "serial"
        assert np.abs(J - J_ref).max() == 0.0
        assert np.abs(K - K_ref).max() == 0.0
        # later builds run serially without re-warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            J2, K2 = b.build(density)
        assert np.abs(K2 - K_ref).max() == 0.0
    finally:
        b.close()


def test_recovered_direct_build_sums_ranks_in_order(clean_fault_env):
    """A recovered build gets the respawned worker's partials last; the
    builder sums them in rank order, so J and K are the undisturbed
    pooled build's bits, whatever order the replies came in."""
    from repro.basis import build_basis
    from repro.chem import builders
    from repro.scf.fock import DirectJKBuilder

    basis = build_basis(builders.water_cluster(3))
    rng = np.random.default_rng(5)
    A = rng.standard_normal((basis.nbf, basis.nbf))
    D = A + A.T
    cfg = ExecutionConfig(executor="process", nworkers=4)

    def second_build():
        b = DirectJKBuilder(basis, config=cfg)
        try:
            b.build(D)
            return b.build(D), b.lease.pool.worker_deaths
        finally:
            b.close()

    (J_ref, K_ref), _ = second_build()
    clean_fault_env.setenv("REPRO_POOL_FAULT", "worker=0,build=2,mode=kill")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # recovery must stay silent
        (J, K), deaths = second_build()
    assert deaths == 1
    assert np.array_equal(J, J_ref) and np.array_equal(K, K_ref)


def test_incremental_degrades_keeps_running_k(clean_fault_env, water_basis,
                                              density):
    clean_fault_env.setenv("REPRO_POOL_FAULT", "worker=*,build=1,mode=kill")
    from repro.hfx import IncrementalExchange

    inc_ref = IncrementalExchange(water_basis, eps=1e-10)
    inc = IncrementalExchange(
        water_basis, eps=1e-10,
        config=ExecutionConfig(executor="process", nworkers=2,
                               pool_max_retries=1))
    try:
        with pytest.warns(RuntimeWarning, match="serial"):
            K1 = inc.update(density)
        K1_ref = inc_ref.update(density)
        assert inc.degraded
        assert np.abs(K1 - K1_ref).max() == 0.0
        K2 = inc.update(density * 1.01)
        K2_ref = inc_ref.update(density * 1.01)
        assert np.abs(K2 - K2_ref).max() == 0.0
    finally:
        inc.close()


def test_scf_survives_unrecoverable_pool(clean_fault_env):
    """The end-to-end promise: an SCF whose pool dies beyond repair
    still converges to the reference energy (via the serial fallback)
    instead of crashing."""
    from repro.chem import builders
    from repro.scf import run_rhf

    mol = builders.water()
    ref = run_rhf(mol)
    clean_fault_env.setenv("REPRO_POOL_FAULT", "worker=*,build=1,mode=kill")
    with pytest.warns(RuntimeWarning, match="serial"):
        res = run_rhf(mol, mode="direct",
                      config=ExecutionConfig(executor="process", nworkers=2,
                                             pool_max_retries=1))
    assert res.converged
    assert abs(res.energy - ref.energy) < 1e-8


def test_trajectory_degrades_once_and_finishes_serially(clean_fault_env):
    """One engine per trajectory means one degrade: the pool dies in the
    first SCF, the engine warns once, and every later geometry keeps
    building on it serially — same trajectory as the serial executor."""
    from repro.chem import builders
    from repro.md.bomd import BOMD

    ref = BOMD(builders.h2(0.80), dt_fs=0.5)
    ref.engine.scf_kwargs = {"mode": "direct"}
    want = ref.run(2)
    clean_fault_env.setenv("REPRO_POOL_FAULT", "worker=*,build=1,mode=kill")
    tr = Tracer("md-fault")
    md = BOMD(builders.h2(0.80), dt_fs=0.5,
              config=ExecutionConfig(executor="process", nworkers=2,
                                     pool_max_retries=0, tracer=tr))
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = md.run(2)
        assert md.engine.degraded
    finally:
        md.engine.close()
    assert len([w for w in caught
                if issubclass(w.category, RuntimeWarning)
                and "serial" in str(w.message)]) == 1
    assert tr.snapshot().counters.get("pool.degraded_builds") == 1
    for s_ref, s in zip(want, got):
        assert np.array_equal(s.coords, s_ref.coords)
        assert s.energy_pot == s_ref.energy_pot


# --- diagnosis ---------------------------------------------------------------


def test_death_error_diagnosis(clean_fault_env, water_basis):
    clean_fault_env.setenv("REPRO_POOL_FAULT", "worker=0,build=1,mode=kill")
    jobs = [RankJob(rank=5, pairs=[np.array([[0, 0, 0, 0]])], cost=1.0)]
    pool = ExchangeWorkerPool(water_basis, nworkers=1, max_retries=0)
    with pytest.raises(WorkerDeathError) as exc:
        pool.run(eval_screened_pairs, jobs, K_ONLY,
                 np.eye(water_basis.nbf))
    e = exc.value
    assert isinstance(e, RuntimeError)  # existing handlers keep working
    assert e.worker == 0
    assert e.signum == signal.SIGKILL
    assert e.ranks == (5,)
    assert not e.hung
    assert "signal" in str(e) and "rank jobs [5]" in str(e)
    assert pool.closed  # max_retries=0: first death breaks the pool


def test_dead_worker_at_reset_is_respawned(clean_fault_env, water_basis,
                                           water, density):
    """A worker that crashed between builds is diagnosed at reset time,
    respawned from the new basis, and the next build just works — the
    half-alive-pool bug of the original _broadcast."""
    from repro.basis import build_basis

    basis1 = build_basis(water.with_coords(water.coords + 0.05))
    jobs = [RankJob(rank=0, pairs=[np.array([[0, 1, 1, 2]])], cost=1.0)]
    with ExchangeWorkerPool(water_basis, nworkers=2) as pool:
        victim = pool._sup.slots[1].proc
        victim.kill()
        victim.join(timeout=10.0)
        pool.reset(basis1)
        assert pool.worker_deaths == 1
        assert pool.respawns == 1
        assert all(s.alive and s.proc.is_alive() for s in pool._sup.slots)
        results, nq = pool.run(eval_screened_pairs, jobs, K_ONLY,
                               np.eye(basis1.nbf))
        assert nq == 1 and 0 in results


def test_close_warns_about_crashed_worker(clean_fault_env, water_basis):
    pool = ExchangeWorkerPool(water_basis, nworkers=1)
    pool._sup.slots[0].proc.kill()
    pool._sup.slots[0].proc.join(timeout=10.0)
    with pytest.warns(RuntimeWarning, match="crashed"):
        pool.close()
    pool.close()  # still idempotent


# --- knob validation ---------------------------------------------------------


def test_pool_rejects_bool_nworkers(water_basis):
    with pytest.raises(ValueError, match="positive integer"):
        ExchangeWorkerPool(water_basis, nworkers=True)


# --- injection spec ----------------------------------------------------------


def test_parse_fault_spec():
    assert _parse_fault(None) is None
    assert _parse_fault("") is None
    assert _parse_fault("worker=1,build=2,mode=kill") == (1, 2, "kill")
    assert _parse_fault("worker=*") == ("*", 1, "kill")
    assert _parse_fault("worker=0,mode=hang") == (0, 1, "hang")


@pytest.mark.parametrize("bad", ["mode=kill", "worker=0,mode=explode",
                                 "worker=0,when=now"])
def test_parse_fault_spec_rejects(bad):
    with pytest.raises(ValueError, match="REPRO_POOL_FAULT"):
        _parse_fault(bad)


def test_fault_env_ignored_without_exec(clean_fault_env, water_basis):
    """The hook only arms on exec messages: reset/ping/spawn paths are
    untouched, so an armed env var cannot break pool bring-up."""
    clean_fault_env.setenv("REPRO_POOL_FAULT", "worker=*,build=1,mode=kill")
    with ExchangeWorkerPool(water_basis, nworkers=2) as pool:
        pool.reset(water_basis)
        assert pool.worker_deaths == 0
