"""The class store of the batched direct walk (``ERIEngine.store``, its
blocks compiled by :mod:`repro.scf.fock`): each SCF evaluates a
surviving quartet once, and nothing it returns depends on the store.

A block is the same bits whatever class batch evaluated it, and the
scatter order is unchanged, so every comparison against a store-free
run (``CLASS_STORE_BYTES = 0``) or a fresh engine is ``float.hex()`` /
``np.array_equal``, within one process.  The counter contract: the
builder counts quartets *walked*, the engine blocks *evaluated*, and on
the batched kernel ``jk.store.hits + jk.store.misses`` is the walked
count on either executor.
"""

import numpy as np
import pytest

import repro.integrals.eri as eri_module
from repro.basis import build_basis
from repro.chem import builders
from repro.hfx import IncrementalExchange
from repro.runtime import ExecutionConfig, Tracer
from repro.scf import run_rhf

#: pooled-vs-serial agreement of one direct build (tests/hfx/test_pool_exec.py)
POOL_TOL = 1e-12
SMALL_BUDGET = 64 * 1024


def _direct_hf(mol, **cfg):
    tr = Tracer("store")
    res = run_rhf(mol, mode="direct",
                  config=ExecutionConfig(kernel="batched", tracer=tr, **cfg))
    return res, tr.metrics


def _density(basis, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((basis.nbf, basis.nbf))
    return (A + A.T) / basis.nbf


def _displaced(mol, step):
    coords = mol.coords.copy()
    coords[0, 1] += step
    return build_basis(mol.with_coords(coords))


@pytest.mark.reference
@pytest.mark.parametrize("name", ["water_dimer", "li2o2"])
def test_store_leaves_every_bit(name, monkeypatch):
    """Direct HF with no store, a 64 kB store and the default store:
    the same energy bits, iterations and Fock builds; only what is
    evaluated changes, and a store never outgrows its budget."""
    mol = getattr(builders, name)()
    runs = {}
    for budget in (0, SMALL_BUDGET, eri_module.CLASS_STORE_BYTES):
        monkeypatch.setattr(eri_module, "CLASS_STORE_BYTES", budget)
        runs[budget] = _direct_hf(mol)
    cold, m0 = runs.pop(0)
    walked = m0.get("jk.quartets")
    assert m0.get("jk.store.hits") == m0.get("jk.store.bytes") == 0
    assert m0.get("jk.store.misses") == walked
    for budget, (res, m) in runs.items():
        assert res.converged
        assert res.energy.hex() == cold.energy.hex()
        assert (res.niter, res.fock_builds) == (cold.niter, cold.fock_builds)
        assert m.get("jk.quartets") == walked
        hits, misses = m.get("jk.store.hits"), m.get("jk.store.misses")
        assert hits > 0 and hits + misses == walked
        # the engine counts evaluations: the misses, nothing else
        assert m.get("eri.quartets_computed") == misses
        assert 0 < m.get("jk.store.bytes") <= budget
    if name == "li2o2":
        # its store outgrows 64 kB: what does not fit is re-evaluated
        assert (runs[SMALL_BUDGET][1].get("jk.store.misses")
                > runs[eri_module.CLASS_STORE_BYTES][1].get(
                    "jk.store.misses"))


@pytest.mark.reference
def test_newton_response_builds_read_the_store(monkeypatch):
    """``scf_solver="auto"``: the Newton phase's response builds (which
    bypass the increment history) gather from the store the SCF's
    earlier walks filled, and the energy keeps its bits."""
    response_hits = []
    plain = IncrementalExchange.build_response

    def spy(self, d, want_j=True, want_k=True):
        before = self.engine.store_hits
        out = plain(self, d, want_j, want_k)
        response_hits.append(self.engine.store_hits - before)
        return out

    monkeypatch.setattr(IncrementalExchange, "build_response", spy)
    mol = builders.water_dimer()
    monkeypatch.setattr(eri_module, "CLASS_STORE_BYTES", 0)
    cold, _ = _direct_hf(mol, scf_solver="auto")
    assert response_hits and not any(response_hits)
    response_hits.clear()
    monkeypatch.undo()
    monkeypatch.setattr(IncrementalExchange, "build_response", spy)
    warm, _ = _direct_hf(mol, scf_solver="auto")
    assert warm.converged
    assert warm.energy.hex() == cold.energy.hex()
    assert response_hits and all(h > 0 for h in response_hits)


@pytest.mark.reference
@pytest.mark.parametrize("executor", [
    "serial", pytest.param("process", marks=pytest.mark.pool)])
def test_reset_drops_the_store(executor):
    """``reset(displaced_basis)`` after a filled store gives the J and K
    of a fresh engine on the displaced basis, bit for bit: no block of
    the old geometry survives the reset, in the parent or a worker."""
    mol = builders.water_dimer()
    basis = build_basis(mol)
    moved = _displaced(mol, 1e-3)
    cfg = ExecutionConfig(kernel="batched", executor=executor,
                          nworkers=2 if executor == "process" else None)
    engine = IncrementalExchange(basis, config=cfg)
    fresh = IncrementalExchange(moved, config=cfg)
    try:
        for seed in (1, 2, 3):
            engine.build(_density(basis, seed))
        assert engine.engine.store_hits > 0
        engine.reset(moved)
        assert engine.engine.store_bytes == engine.engine.store_hits == 0
        for seed in (4, 5):
            D = _density(moved, seed)
            J, K = engine.build(D)
            J_ref, K_ref = fresh.build(D)
            assert np.array_equal(J, J_ref)
            assert np.array_equal(K, K_ref)
        assert engine.engine.tally() == fresh.engine.tally()
    finally:
        engine.close()
        fresh.close()


@pytest.mark.pool
@pytest.mark.parametrize("nworkers", [1, 2, 4])
def test_pooled_stores_match_serial(nworkers):
    """Every worker keeps the store of the rank jobs it ran: pooled J/K
    stay within the pooled-vs-serial tolerance, the workers' hits show
    up on the parent's engine from the second build on, and hits +
    misses is the walked count on both executors."""
    basis = build_basis(builders.water_dimer())
    serial = IncrementalExchange(basis, config=ExecutionConfig(
        kernel="batched"))
    tr = Tracer("pooled")
    pooled = IncrementalExchange(basis, config=ExecutionConfig(
        kernel="batched", executor="process", nworkers=nworkers,
        tracer=tr))
    try:
        walked = 0
        for n, seed in enumerate((1, 2, 3)):
            D = _density(basis, seed)
            J_s, K_s = serial.build(D)
            J_p, K_p = pooled.build(D)
            assert np.abs(J_p - J_s).max() < POOL_TOL
            assert np.abs(K_p - K_s).max() < POOL_TOL
            assert pooled.quartets_computed == serial.quartets_computed
            walked += pooled.quartets_computed
            hits = pooled.engine.store_hits
            assert (hits > 0) == (n > 0)
        for b in (serial, pooled):
            eng = b.engine
            assert eng.store_hits + eng.store_misses == walked
            assert eng.quartets_computed == eng.store_misses
        assert pooled.engine.store_bytes == 0      # the parent evaluated none
        assert 0 < pooled.engine.store_peak <= serial.engine.store_peak
        assert tr.metrics.get("jk.store.hits") == pooled.engine.store_hits
        assert tr.metrics.get("jk.store.bytes") == pooled.engine.store_peak
        span = [s for s in tr.spans if s.name == "jk.build"][-1]
        assert span.args["store_hits"] > 0
    finally:
        pooled.close()


@pytest.mark.pool
@pytest.mark.parametrize("nworkers", [1, 2, 4])
def test_pooled_build_is_the_in_process_rank_jobs(nworkers):
    """A pooled build is its rank jobs run in-process, summed in rank
    order, bit for bit — at the first build, which fixes the bra
    ownership, and at a later one, which keeps it."""
    from repro.integrals import ERIEngine
    from repro.runtime import NULL_TRACER
    from repro.runtime.pool import balance_pairs, run_rank_jobs
    from repro.scf.fock import DirectJKBuilder, eval_screened_pairs

    basis = build_basis(builders.water_dimer())
    pooled = DirectJKBuilder(basis, config=ExecutionConfig(
        kernel="batched", executor="process", nworkers=nworkers))
    try:
        for seed in (1, 2):
            D = _density(basis, seed)
            J_p, K_p = pooled.build(D)
            owner = pooled._owner
            jobs, kept = balance_pairs(
                pooled._screened_classes(float(np.abs(D).max())),
                nworkers, basis.nshell, owner)
            assert kept is owner
            done = run_rank_jobs(eval_screened_pairs, ERIEngine(basis),
                                 basis, D, [(j.rank, j.pairs) for j in jobs],
                                 NULL_TRACER, (True, True, "batched"))
            assert [d[0] for d in done] == list(range(nworkers))
            assert np.array_equal(J_p, sum(d[1] for d in done))
            assert np.array_equal(K_p, sum(d[2] for d in done))
    finally:
        pooled.close()


@pytest.mark.pool
@pytest.mark.parametrize("nworkers", [2, 4])
def test_pooled_walk_evaluates_what_the_serial_walk_does(nworkers):
    """The first build at a geometry fixes which rank owns each bra, and
    every later build keeps it, so a worker's store keeps seeing the
    bras it evaluated: a pooled direct SCF on (H2O)4 evaluates within
    10 % of the serial SCF's blocks (a per-build LPT evaluated ~2x),
    at the serial energy within 1e-12 Ha."""
    mol = builders.water_cluster(4)
    serial, m_serial = _direct_hf(mol)
    pooled, m_pooled = _direct_hf(mol, executor="process",
                                  nworkers=nworkers)
    assert abs(pooled.energy - serial.energy) < 1e-12
    assert m_pooled.get("jk.quartets") == m_serial.get("jk.quartets")
    evaluated = m_serial.get("eri.quartets_computed")
    assert evaluated > 0
    assert m_pooled.get("eri.quartets_computed") <= 1.1 * evaluated


@pytest.mark.pool
@pytest.mark.fault
def test_killed_worker_restarts_with_an_empty_store(monkeypatch):
    """Worker 0 is killed at its third build (and, counting from 1
    again, at every respawn's third): each respawn starts with an empty
    store and re-evaluates the rank jobs it lost.  The SCF energy is the
    unfaulted pooled energy bit for bit; only the miss count moves."""
    mol = builders.water_dimer()
    monkeypatch.delenv("REPRO_POOL_FAULT", raising=False)
    clean, m_clean = _direct_hf(mol, executor="process", nworkers=2)
    monkeypatch.setenv("REPRO_POOL_FAULT", "worker=0,build=3,mode=kill")
    faulted, m_fault = _direct_hf(mol, executor="process", nworkers=2)
    assert faulted.energy.hex() == clean.energy.hex()
    assert m_fault.get("pool.respawns") >= 1
    assert m_fault.get("pool.degraded_builds") == 0
    walked = m_clean.get("jk.quartets")
    assert m_fault.get("jk.quartets") == walked
    for m in (m_clean, m_fault):
        assert m.get("jk.store.hits") + m.get("jk.store.misses") == walked
    assert m_fault.get("jk.store.misses") > m_clean.get("jk.store.misses")
