"""The class store of the batched direct walk (``ERIEngine.store``, its
blocks compiled by :mod:`repro.scf.fock`): each SCF evaluates a
surviving quartet once, and nothing it returns depends on the store.

A block is the same bits whatever class batch evaluated it, and the
scatter order is unchanged, so every comparison against a store-free
run (``CLASS_STORE_BYTES = 0``) or a fresh engine is ``float.hex()`` /
``np.array_equal``, within one process.  The counter contract: the
builder counts quartets *walked*, the engine quartets *evaluated* (at
the default budget, the rows its store holds: each once per geometry),
and on the batched kernel ``jk.store.hits + jk.store.misses`` is the
walked count on either executor.
"""

import numpy as np
import pytest

import repro.integrals.eri as eri_module
import repro.integrals.pairclass as pairclass
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


def _held_rows(engine):
    """Rows of every block ``engine``'s class store holds."""
    return sum(len(b) for b in engine.store.values())


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
    engines = []
    init = IncrementalExchange.__init__
    batch = eri_module.ERIEngine.quartet_batch
    listed = []     # rows evaluated for a list, not for a cut

    def spy(self, *args, **kw):
        init(self, *args, **kw)
        engines.append(self.engine)

    def count(self, idx, located=None):
        listed[-1] += len(idx) if located is None else 0
        return batch(self, idx, located)

    monkeypatch.setattr(IncrementalExchange, "__init__", spy)
    monkeypatch.setattr(eri_module.ERIEngine, "quartet_batch", count)
    runs = {}
    for budget in (0, SMALL_BUDGET, eri_module.CLASS_STORE_BYTES):
        monkeypatch.setattr(eri_module, "CLASS_STORE_BYTES", budget)
        listed.append(0)
        runs[budget] = _direct_hf(mol) + (engines[-1], listed[-1])
    cold, m0, _, _ = runs.pop(0)
    walked = m0.get("jk.quartets")
    assert m0.get("jk.store.hits") == m0.get("jk.store.bytes") == 0
    assert m0.get("jk.store.misses") == walked
    # no store: the engine evaluates the misses, nothing else
    assert m0.get("eri.quartets_computed") == walked
    for budget, (res, m, engine, lists) in runs.items():
        assert res.converged
        assert res.energy.hex() == cold.energy.hex()
        assert (res.niter, res.fock_builds) == (cold.niter, cold.fock_builds)
        assert m.get("jk.quartets") == walked
        hits, misses = m.get("jk.store.hits"), m.get("jk.store.misses")
        assert hits > 0 and hits + misses == walked
        # every evaluation is a listed miss or a row the store holds
        # from then on, evaluated once
        assert lists <= misses
        assert m.get("eri.quartets_computed") == lists + _held_rows(engine)
        assert 0 < m.get("jk.store.bytes") <= budget
    # a store with room for every block lists nothing: what it
    # evaluated is what it holds
    _, m, engine, lists = runs[eri_module.CLASS_STORE_BYTES]
    assert lists == 0
    assert m.get("eri.quartets_computed") == _held_rows(engine)
    if name == "li2o2":
        # its store outgrows 64 kB: what does not fit is re-evaluated
        assert (runs[SMALL_BUDGET][1].get("jk.store.misses")
                > runs[eri_module.CLASS_STORE_BYTES][1].get(
                    "jk.store.misses"))


@pytest.mark.reference
@pytest.mark.parametrize("increment", [False, True])
def test_a_cut_starts_at_each_rows_smallest_survivor(increment):
    """One build on a fresh engine leaves, in every bra row of every
    block, the quartets from the row's smallest surviving ``Q_ij Q_kl``
    up: the row's ``tau`` is that product (``inf`` with no survivor),
    under a full build's global bound and an increment's six-block
    bound, so a cut holds no band the build did not need."""
    import repro.scf.fock as fock
    from repro.scf.fock import DirectJKBuilder

    basis = build_basis(builders.water_cluster(3))
    inc = IncrementalExchange(basis, config=ExecutionConfig(
        kernel="batched"))
    D = _density(basis, 1)
    if increment:
        D = D * 1e-3
        dmax, eps = inc._block_max(D), inc.increment_eps
        DirectJKBuilder.build(inc, D, blocks=dmax, eps=eps)
    else:
        dmax, eps = float(np.abs(D).max()), inc.eps
        DirectJKBuilder.build(inc, D)
    sides = {side.cid: side for side in pairclass._pair_walk(inc.engine)}
    assert inc.engine.store
    for (b, k), blk in inc.engine.store.items():
        bra, ket = sides[b], sides[k]
        row = {pair: n for n, pair in enumerate(map(tuple, bra.ij.tolist()))}
        col = {pair: n for n, pair in enumerate(map(tuple, ket.ij.tolist()))}
        want = np.full(len(bra.pos), np.inf)
        for i, j, k_, l_ in fock._screen_block(bra, ket, dmax, eps).tolist():
            r, c = row[(i, j)], col[(k_, l_)]
            want[r] = min(want[r], bra.q[r] * ket.q[c])
        assert np.array_equal(blk.tau, want)
    inc.close()


@pytest.mark.reference
def test_grid_scans_stay_under_the_screen_scratch(monkeypatch):
    """The scans of a block's ``Q_ij Q_kl`` grid — the list screen and a
    cut's cells (an extension's band reads the same chunks) — take the
    grid in chunks of bra rows under ``_SCREEN_SCRATCH`` elements: on
    (H2O)6's largest block, a 90 000-cell grid, their ``tracemalloc``
    peak with a 4 k-element ceiling stays within what they return plus
    a few chunks, below a single whole-grid array."""
    import tracemalloc

    import repro.scf.fock as fock

    basis = build_basis(builders.water_cluster(6))
    inc = IncrementalExchange(basis, config=ExecutionConfig(
        kernel="batched"))
    walk = pairclass._pair_walk(inc.engine)
    side = max(walk, key=lambda w: len(w.pos))
    ncell = len(side.pos) ** 2
    assert ncell >= 90_000
    every = np.ones(len(side.pos), dtype=bool)
    # a few per cent of the cells survive or are held
    cut = np.quantile(side.q, 0.9) ** 2
    scratch = 1 << 12
    monkeypatch.setattr(pairclass, "_SCREEN_SCRATCH", scratch)
    for scan in (lambda: fock._screen_block(side, side, 1.0, cut),
                 lambda: fock._cells(side, side, every,
                                     np.full(len(side.pos), cut))):
        scan()
        tracemalloc.start()
        try:
            out = scan()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in (out if isinstance(out, tuple)
                                      else (out,)) if hasattr(a, "nbytes"))
        assert peak <= 2 * held + 8 * 8 * scratch < 8 * ncell
    inc.close()


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
        # each quartet evaluated once and held; a cut's tau is read off
        # its whole grid, so the ranks' cuts split the serial one
        assert serial.engine.quartets_computed == _held_rows(serial.engine)
        assert pooled.engine.quartets_computed == \
            serial.engine.quartets_computed
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
    from repro.runtime.pool import run_rank_jobs
    from repro.scf.fock import DirectJKBuilder, eval_screened_pairs

    basis = build_basis(builders.water_dimer())
    pooled = DirectJKBuilder(basis, config=ExecutionConfig(
        kernel="batched", executor="process", nworkers=nworkers))
    try:
        owners = []
        for seed in (1, 2):
            D = _density(basis, seed)
            J_p, K_p = pooled.build(D)
            owners.append(pooled._owner)
            rank_of_bra, _ = pooled._owner
            screen = (float(np.abs(D).max()), pooled.eps)
            done = run_rank_jobs(eval_screened_pairs, ERIEngine(basis),
                                 basis, D, [(w, rank_of_bra == w)
                                            for w in range(nworkers)],
                                 NULL_TRACER, (True, True, "batched", screen))
            assert [d[0] for d in done] == list(range(nworkers))
            assert np.array_equal(J_p, sum(d[1] for d in done))
            assert np.array_equal(K_p, sum(d[2] for d in done))
        assert owners[1] is owners[0]
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


@pytest.mark.reference
def test_one_engine_running_two_ranks_gives_each_rank_its_partials():
    """An engine that ran rank 0's job at the first build and then, at
    an increment walk, runs rank 0's job and rank 1's (the re-run a pool
    recovery hands a surviving worker), so its cuts serve the union of
    their bras: each rank's J and K are those of an engine that only
    ever ran that rank, bit for bit, and it has evaluated the quartets
    the two of them did."""
    from repro.integrals import ERIEngine
    from repro.runtime import NULL_TRACER
    from repro.runtime.pool import own_bras, run_rank_jobs
    from repro.scf.fock import DirectJKBuilder, eval_screened_pairs

    basis = build_basis(builders.water_dimer())
    builder = DirectJKBuilder(basis, config=ExecutionConfig(
        kernel="batched"))
    nsh = basis.nshell
    D = _density(basis, 1)
    counts = np.zeros(nsh * nsh)
    for cls in builder._screened_classes(float(np.abs(D).max())):
        counts += np.bincount(cls[:, 0] * nsh + cls[:, 1],
                              minlength=nsh * nsh)
    rank_of_bra, _ = own_bras(counts, 2)
    shared = ERIEngine(basis)
    own = [ERIEngine(basis) for _ in range(2)]
    dD = _density(basis, 2) * 1e-2
    inc = IncrementalExchange(basis)
    for M, screen, ranks in (
            (D, (float(np.abs(D).max()), builder.eps), (0,)),
            (dD, (inc._block_max(dD), inc.increment_eps), (0, 1))):
        for w in (0, 1):
            args = (M, [(w, rank_of_bra == w)], NULL_TRACER,
                    (True, True, "batched", screen))
            (_, J_w, K_w, *_), = run_rank_jobs(eval_screened_pairs, own[w],
                                               basis, *args)
            if w in ranks:
                (_, J, K, *_), = run_rank_jobs(eval_screened_pairs, shared,
                                               basis, *args)
                assert np.array_equal(J, J_w) and np.array_equal(K, K_w)
    assert shared.quartets_computed == sum(e.quartets_computed for e in own)
    assert any(b.served.all() and not own[0].store[k].served.all()
               for k, b in shared.store.items())


@pytest.mark.pool
@pytest.mark.fault
def test_a_worker_killed_at_its_second_build_leaves_the_energy(monkeypatch):
    """Worker 0 dies at its second build, the first warm one: the
    respawn re-runs rank 0's job on an empty store, and the pooled
    direct SCF's energy keeps its unfaulted bits."""
    mol = builders.water_dimer()
    monkeypatch.delenv("REPRO_POOL_FAULT", raising=False)
    clean, _ = _direct_hf(mol, executor="process", nworkers=2)
    monkeypatch.setenv("REPRO_POOL_FAULT", "worker=0,build=2,mode=kill")
    faulted, m_fault = _direct_hf(mol, executor="process", nworkers=2)
    assert faulted.energy.hex() == clean.energy.hex()
    assert m_fault.get("pool.respawns") >= 1
    assert m_fault.get("pool.degraded_builds") == 0


@pytest.mark.reference
@pytest.mark.parametrize("executor", [
    "serial", pytest.param("process", marks=pytest.mark.pool)])
def test_no_build_list_screens_a_held_block(executor, monkeypatch):
    """A batched direct SCF list-screens no block it holds: in-process
    every build masks its held cuts (extending them by a band where
    they must grow), a pool worker never runs the list screen, and the
    parent runs it at the first pooled build alone, to fix which rank
    owns each bra."""
    import os

    import repro.scf.fock as fock

    parent = os.getpid()
    builds, calls = [0], []
    screen, build = fock._screen_block, fock.DirectJKBuilder.build

    def spy(*args, **kw):
        if os.getpid() != parent:
            raise AssertionError("a pool worker list-screened a block")
        calls.append(builds[0])
        return screen(*args, **kw)

    def counting(self, *args, **kw):
        builds[0] += 1
        return build(self, *args, **kw)

    monkeypatch.setattr(fock, "_screen_block", spy)
    monkeypatch.setattr(fock.DirectJKBuilder, "build", counting)
    res, _ = _direct_hf(builders.water_dimer(), executor=executor,
                        nworkers=2 if executor == "process" else None)
    assert res.converged and builds[0] > 2
    assert set(calls) == (set() if executor == "serial" else {1})
