"""Executor parity: the process-pool backend against the serial reference.

These are the correctness contracts of the first backend that runs the
paper's rank loop on more than one OS thread:

* ``distributed_exchange(config=ExecutionConfig(executor="process"))``
  is bit-identical (within
  reduction roundoff) to the serial path for 1, 2, and 4 workers;
* the quartet counter of the engine equals the task list's
  surviving-quartet count under both executors;
* the incremental builder and the full SCF agree across executors.
"""

import numpy as np
import pytest

from repro.basis import build_basis
from repro.chem import builders
from repro.hfx import IncrementalExchange, distributed_exchange
from repro.integrals.eri import ERIEngine
from repro.runtime import ExecutionConfig, Tracer
from repro.runtime.pool import ExchangeWorkerPool
from repro.scf import RHF, DirectJKBuilder, run_rhf

pytestmark = pytest.mark.pool


@pytest.fixture(scope="module")
def dimer_state():
    """Converged water-dimer density (the property-test fixture)."""
    res = run_rhf(builders.water_dimer())
    return res.basis, res.D


@pytest.mark.parametrize("nworkers", [1, 2, 4])
def test_process_executor_bit_identical(dimer_state, nworkers):
    """Property: for any worker count, the pool build reproduces the
    serial K to reduction noise — same screened quartets, same per-rank
    partials, only the evaluation site differs."""
    basis, D = dimer_state
    K_s, _, _, _ = distributed_exchange(basis, D, nranks=4, eps=1e-11)
    K_p, log, tasks, part = distributed_exchange(
        basis, D, nranks=4, eps=1e-11,
        config=ExecutionConfig(executor="process", nworkers=nworkers))
    assert np.abs(K_p - K_s).max() < 1e-12
    assert log.allreduce_calls == 1
    assert part.nranks == 4


@pytest.mark.parametrize("partitioner", ["serpentine", "lpt"])
@pytest.mark.parametrize("nranks", [1, 3, 7])
def test_process_ranks_are_the_serial_bits(dimer_state, nranks,
                                          partitioner):
    """Both executors evaluate every rank through the one rank loop and
    sum the partials in rank order, so K is the same bits; the one
    allreduce moves one nbf x nbf double matrix per rank."""
    basis, D = dimer_state
    K_s, _, _, _ = distributed_exchange(basis, D, nranks,
                                        partitioner=partitioner)
    K_p, log, _, _ = distributed_exchange(
        basis, D, nranks, partitioner=partitioner,
        config=ExecutionConfig(executor="process", nworkers=2))
    assert np.array_equal(K_p, K_s)
    assert log.allreduce_calls == 1
    assert log.allreduce_bytes == basis.nbf ** 2 * 8


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_quartet_counter_matches_tasklist(dimer_state, executor):
    """The engine's build counter equals the surviving-quartet count of
    the task list under both executors (Schwarz-bound evaluations are
    tallied separately)."""
    basis, D = dimer_state
    tr = Tracer("counter")
    nworkers = 2 if executor == "process" else None
    cfg = ExecutionConfig(executor=executor, nworkers=nworkers, tracer=tr)
    _, _, tasks, _ = distributed_exchange(basis, D, nranks=3, eps=1e-9,
                                          config=cfg)
    assert tr.metrics.get("eri.quartets_computed") == tasks.total_quartets
    # Schwarz bounds are cached per basis object: exactly one engine per
    # basis pays for the diagonal quartets, every later engine reads the
    # cache and tallies nothing
    fresh = ERIEngine(basis)
    fresh.schwarz_bounds()
    assert fresh.quartets_screening == 0


def test_shared_pool_reused_across_builds(dimer_state):
    basis, D = dimer_state
    with ExchangeWorkerPool(basis, nworkers=2) as pool:
        cfg = ExecutionConfig(executor="process")
        K1, _, _, _ = distributed_exchange(basis, D, nranks=2, eps=1e-10,
                                           config=cfg, pool=pool)
        K2, _, _, _ = distributed_exchange(basis, D, nranks=5, eps=1e-10,
                                           config=cfg, pool=pool)
        assert pool.nbuilds == 2
    assert np.abs(K1 - K2).max() < 1e-12


def test_direct_builder_executor_parity(dimer_state):
    basis, D = dimer_state
    serial = DirectJKBuilder(basis, eps=1e-11)
    J_s, K_s = serial.build(D)
    pooled = DirectJKBuilder(
        basis, eps=1e-11,
        config=ExecutionConfig(executor="process", nworkers=2))
    try:
        J_p, K_p = pooled.build(D)
    finally:
        pooled.close()
    assert np.abs(J_p - J_s).max() < 1e-12
    assert np.abs(K_p - K_s).max() < 1e-12
    assert pooled.quartets_computed == serial.quartets_computed
    assert pooled.quartets_total == serial.quartets_total


def test_rhf_process_executor_energy():
    mol = builders.water()
    ref = run_rhf(mol)
    res = run_rhf(mol, mode="direct",
                  config=ExecutionConfig(executor="process", nworkers=2))
    assert res.converged
    assert abs(res.energy - ref.energy) < 1e-8


def test_incremental_process_executor_parity():
    basis = build_basis(builders.water())
    rng = np.random.default_rng(7)
    A = rng.standard_normal((basis.nbf, basis.nbf))
    densities = [A + A.T, (A + A.T) * 1.01, (A + A.T) * 1.0101]
    inc_s = IncrementalExchange(basis, eps=1e-10)
    inc_p = IncrementalExchange(
        basis, eps=1e-10,
        config=ExecutionConfig(executor="process", nworkers=2))
    try:
        for D in densities:
            K_s = inc_s.update(D)
            K_p = inc_p.update(D)
            assert np.abs(K_p - K_s).max() < 1e-12
            assert inc_p.last_quartets == inc_s.last_quartets
    finally:
        inc_p.close()
    assert (inc_p.engine.quartets_computed
            == inc_s.engine.quartets_computed)


def test_bomd_process_executor_matches_serial():
    """Two MD steps with the persistent pool reproduce the serial
    trajectory — the pool survives geometry changes via reset."""
    from repro.md.bomd import BOMD

    serial = BOMD(builders.h2(), dt_fs=0.2).run(2)
    md = BOMD(builders.h2(), dt_fs=0.2,
              config=ExecutionConfig(executor="process", nworkers=2))
    try:
        pooled = md.run(2)
    finally:
        md.engine.close()
    for s_ref, s in zip(serial, pooled):
        assert abs(s.energy_pot - s_ref.energy_pot) < 1e-8
        assert np.abs(s.coords - s_ref.coords).max() < 1e-8


def test_invalid_executor_rejected(dimer_state):
    basis, D = dimer_state
    # executor validation lives in ExecutionConfig since the legacy
    # kwargs were removed
    with pytest.raises(ValueError, match="executor"):
        ExecutionConfig(executor="threads")
    with pytest.raises(TypeError, match="ExecutionConfig"):
        distributed_exchange(basis, D, 2, config="process")
    with pytest.raises(TypeError, match="ExecutionConfig"):
        DirectJKBuilder(basis, config="gpu")
    with pytest.raises(ValueError, match="direct"):
        RHF(builders.water(), mode="incore",
            config=ExecutionConfig(executor="process"))
