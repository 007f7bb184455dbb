"""Tests for the process-pool execution backend (forked workers)."""

import numpy as np
import pytest

from repro.hfx.partition import lpt_bins
from repro.integrals.eri import ERIEngine
from repro.runtime.pool import (ExchangeWorkerPool, RankJob, default_nworkers,
                                run_rank_jobs)
from repro.runtime.telemetry import NULL_TRACER
from repro.scf.fock import eval_screened_pairs

pytestmark = pytest.mark.pool


#: ``pool.run`` arguments of a K-only build with the reference kernel
K_ONLY = (False, True, "quartet")


@pytest.fixture(scope="module")
def water_pool(water_basis):
    with ExchangeWorkerPool(water_basis, nworkers=2) as pool:
        yield pool


def _in_process(basis, D, jobs):
    """``{rank: (J, K)}`` of the same K-only jobs run in-process."""
    done = run_rank_jobs(eval_screened_pairs, ERIEngine(basis), basis, D,
                         [(j.rank, j.pairs) for j in jobs], NULL_TRACER,
                         K_ONLY)
    return {rank: (A, B) for rank, A, B, *_ in done}


def _assert_same_partials(results, want):
    assert set(results) == set(want)
    for rank, (J, K) in want.items():
        assert J is None and results[rank][0] is None  # J not requested
        assert np.array_equal(results[rank][1], K)


def test_lpt_assign_covers_all_jobs():
    assign = lpt_bins([5.0, 1.0, 3.0, 2.0, 4.0], 2)
    placed = sorted(t for lst in assign for t in lst)
    assert placed == [0, 1, 2, 3, 4]
    loads = [sum([5.0, 1.0, 3.0, 2.0, 4.0][t] for t in lst)
             for lst in assign]
    assert max(loads) <= 9.0  # LPT on this instance is near-balanced


def test_default_nworkers_positive():
    assert default_nworkers() >= 1


def test_pool_exchange_matches_serial(water_pool, water_basis, rng):
    A = rng.standard_normal((water_basis.nbf, water_basis.nbf))
    D = A + A.T
    # one L-class array per (s s | s s), (s s | p s) block of quartets
    jobs = [RankJob(rank=0, pairs=[np.array([[0, 0, 0, 0], [0, 0, 0, 1],
                                             [0, 0, 1, 1]])], cost=3.0),
            RankJob(rank=1, pairs=[np.array([[0, 1, 0, 1]]),
                                   np.array([[0, 1, 2, 3]])], cost=2.0)]
    results, nq = water_pool.run(eval_screened_pairs, jobs, K_ONLY, D)
    assert nq == 5
    _assert_same_partials(results, _in_process(water_basis, D, jobs))


def test_pool_refuses_what_its_pipes_cannot_carry(water_pool, water_basis):
    """A unit crosses by ``module:qualname`` and its arguments by the
    boundary codec: a lambda, or an argument the codec refuses, is
    refused before any worker holds a message, so the next build's
    replies are its own."""
    from repro.runtime.codec import CodecError

    D = np.eye(water_basis.nbf)
    jobs = [RankJob(rank=r, pairs=[np.array([[0, 0, 0, r]])], cost=1.0)
            for r in range(2)]
    with pytest.raises(ValueError, match="module-level"):
        water_pool.run(lambda *a: (None, None, 0), jobs, (), D)
    with pytest.raises(CodecError):
        water_pool.run(eval_screened_pairs, jobs,
                       (False, True, object()), D)
    results, _ = water_pool.run(eval_screened_pairs, jobs, K_ONLY, D)
    _assert_same_partials(results, _in_process(water_basis, D, jobs))


def test_pool_counts_quartets_across_builds(water_basis):
    D = np.eye(water_basis.nbf)
    jobs = [RankJob(rank=0, pairs=[np.array([[0, 0, 0, 0]])], cost=1.0)]
    with ExchangeWorkerPool(water_basis, nworkers=1) as pool:
        _, nq1 = pool.run(eval_screened_pairs, jobs, K_ONLY, D)
        _, nq2 = pool.run(eval_screened_pairs, jobs, K_ONLY, D)
        assert (nq1, nq2) == (1, 1)
        assert pool.nbuilds == 2


def test_pool_reset_retargets_workers(water, rng):
    """Moving the nuclei and resetting must match a fresh serial build —
    the MD-step path."""
    from repro.basis import build_basis

    basis0 = build_basis(water)
    shifted = water.with_coords(water.coords + 0.1)
    basis1 = build_basis(shifted)
    D = np.eye(basis0.nbf)
    pairs = [np.array([[0, 1, 1, 2]]), np.array([[0, 1, 2, 2]])]
    jobs = [RankJob(rank=0, pairs=pairs, cost=1.0)]
    with ExchangeWorkerPool(basis0, nworkers=1) as pool:
        pool.reset(basis1)
        results, _ = pool.run(eval_screened_pairs, jobs, K_ONLY, D)
    _assert_same_partials(results, _in_process(basis1, D, jobs))


def test_pool_reset_rejects_size_change(water_basis, h2_basis):
    with ExchangeWorkerPool(water_basis, nworkers=1) as pool:
        with pytest.raises(ValueError, match="equally sized"):
            pool.reset(h2_basis)


def test_pool_worker_error_propagates(water_basis):
    bad = [RankJob(rank=0, pairs=[np.array([[99, 99, 0, 0]])], cost=1.0)]
    pool = ExchangeWorkerPool(water_basis, nworkers=1)
    with pytest.raises(RuntimeError, match="worker 0 failed"):
        pool.run(eval_screened_pairs, bad, K_ONLY, np.eye(water_basis.nbf))
    # a failed pool tears itself down
    with pytest.raises(RuntimeError, match="closed"):
        pool.run(eval_screened_pairs, bad, K_ONLY, np.eye(water_basis.nbf))


def test_pool_close_idempotent(water_basis):
    pool = ExchangeWorkerPool(water_basis, nworkers=1)
    pool.close()
    pool.close()
    with pytest.raises(RuntimeError, match="closed"):
        pool.run(eval_screened_pairs, [], K_ONLY, np.eye(water_basis.nbf))


def test_pool_rejects_wrong_density_shape(water_pool):
    with pytest.raises(ValueError, match="density shape"):
        water_pool.run(eval_screened_pairs, [], K_ONLY, np.eye(3))
