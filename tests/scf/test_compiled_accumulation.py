"""The compiled class store against the accumulation it replaced.

Every direct J/K route — full, increment (``blocks=``), J-only, K-only
and the Newton solver's response builds; serial and the pool's rank
jobs run in-process; both kernels; no store, a 64 kB store and the
default one — is ``np.array_equal`` to the oracle walk of
``tests/scf/accumulation_oracle.py``: the same screen's lists, each
evaluated afresh and added by the per-build ``add_class``.  The store
counts the compiled bytes it holds and stays within its budget, and a
warm build allocates less than the walk it replaced.
"""

import tracemalloc

import numpy as np
import pytest

import repro.integrals.eri as eri_module
from repro.basis import build_basis
from repro.chem import builders
from repro.hfx import IncrementalExchange
from repro.runtime import NULL_TRACER, ExecutionConfig, Tracer
from repro.scf.fock import DirectJKBuilder, eval_screened_pairs

from . import accumulation_oracle as oracle

SMALL_BUDGET = 64 * 1024
BUDGETS = (0, SMALL_BUDGET, eri_module.CLASS_STORE_BYTES)
SYSTEMS = {"water_dimer": (builders.water_dimer, "sto-3g"),
           "li2o2": (builders.li2o2, "sto-3g"),
           # contraction degrees split one L signature into two blocks
           "water_321g": (builders.water, "3-21g")}


def _basis(system):
    make, name = SYSTEMS[system]
    return build_basis(make(), name)


def _symmetric(basis, seed, scale=1.0):
    A = np.random.default_rng(seed).standard_normal((basis.nbf,) * 2)
    return scale * (A + A.T) / basis.nbf


def _same(got, want):
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is not None:
            assert np.array_equal(g, w)


def test_a_split_valence_basis_has_two_blocks_per_l_signature():
    basis = _basis("water_321g")
    builder = DirectJKBuilder(basis)
    blocks = builder._screened_classes(1.0)
    sigs = [tuple(basis.shells[s].l for s in cls[0]) for cls in blocks]
    assert len(sigs) > len(set(sigs))


@pytest.mark.reference
@pytest.mark.parametrize("kernel,budget", [
    ("batched", b) for b in BUDGETS] + [
    # the reference kernel keeps no store: one budget says it all
    ("quartet", eri_module.CLASS_STORE_BYTES)])
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_every_build_is_the_oracle_walk(system, kernel, budget,
                                        monkeypatch):
    """A full build, two increment walks, a warm full build, J-only,
    K-only and a response build, in the order an SCF mixes them: each
    is the oracle walk of the same screen, bit for bit, whether a block
    was compiled cold, held and masked, extended or compiled for the
    one build; the store never outgrows its budget and counts what it
    holds."""
    monkeypatch.setattr(eri_module, "CLASS_STORE_BYTES", budget)
    basis = _basis(system)
    inc = IncrementalExchange(basis, config=ExecutionConfig(kernel=kernel),
                              rebuild_every=100)
    ev = oracle.evaluator(basis, kernel)

    def walk(*args, **kw):
        return oracle.walk(inc, *args, blocks_of=ev, **kw)

    D = _symmetric(basis, 1) + np.eye(basis.nbf)
    J, K = inc.build(D)
    _same((J, K), walk(D))
    for seed, scale in ((2, 1e-1), (3, 1e-5)):
        D_new = D + _symmetric(basis, seed, scale)
        J0, K0 = inc.J.copy(), inc.K.copy()
        J, K = inc.build(D_new)
        dD = D_new - D                  # the increment the engine walks
        dJ, dK = walk(dD, inc._block_max(dD), inc.increment_eps)
        _same((J, K), (J0 + dJ, K0 + dK))
        D = D_new
    # the increment walk as the builder's own call (blocks=)
    dD = _symmetric(basis, 4, 1e-3)
    blocks = inc._block_max(dD)
    got = DirectJKBuilder.build(inc, dD, blocks=blocks,
                                eps=inc.increment_eps)
    _same(got, walk(dD, blocks, inc.increment_eps))
    D2 = _symmetric(basis, 5) + np.eye(basis.nbf)
    _same(DirectJKBuilder.build(inc, D2), walk(D2))
    _same(inc.build(D2, want_j=True, want_k=False),
          walk(D2, want_k=False))
    _same(inc.build(D2, want_j=False, want_k=True),
          walk(D2, want_j=False))
    d = _symmetric(basis, 6, 1e-2)
    _same(inc.build_response(d), walk(d))
    eng = inc.engine
    assert eng.store_bytes == sum(b.nbytes for b in eng.store.values())
    assert eng.store_bytes <= budget
    if kernel == "quartet" or budget == 0:
        assert not eng.store and eng.store_hits == 0
    else:
        assert eng.store_hits > 0


@pytest.mark.reference
@pytest.mark.parametrize("kernel", ["batched", "quartet"])
def test_rank_jobs_are_the_oracle_walk_of_their_lists(kernel):
    """The pool's rank jobs (the bras LPT gives each of three ranks) run
    in-process on one engine, twice — cold, then warm from the store
    the first pass filled: every rank's J and K are the oracle walk of
    the screen's lists cut to its own bras."""
    from repro.runtime.pool import own_bras, run_rank_jobs

    basis = _basis("water_dimer")
    nsh = basis.nshell
    builder = DirectJKBuilder(basis, config=ExecutionConfig(kernel=kernel))
    engine = eri_module.ERIEngine(basis)
    for seed in (1, 2):
        D = _symmetric(basis, seed) + np.eye(basis.nbf)
        dmax = float(np.abs(D).max())
        classes = builder._screened_classes(dmax)
        bras = [c[:, 0] * nsh + c[:, 1] for c in classes]
        rank_of_bra, _ = own_bras(sum(np.bincount(b, minlength=nsh * nsh)
                                      for b in bras), 3)
        done = run_rank_jobs(eval_screened_pairs, engine, basis, D,
                             [(w, rank_of_bra == w) for w in range(3)],
                             NULL_TRACER,
                             (True, True, kernel, (dmax, builder.eps)))
        for w, (_, J, K, nq, *_) in enumerate(done):
            mine = [c[rank_of_bra[b] == w] for c, b in zip(classes, bras)]
            mine = [c for c in mine if len(c)]
            _same((J, K), oracle.accumulate(
                basis, D, mine, oracle.evaluator(basis, kernel)))
            assert nq == sum(len(c) for c in mine)
    assert (engine.store_hits > 0) == (kernel == "batched")


@pytest.mark.reference
def test_a_list_in_another_order_is_walked_in_that_order():
    """A list that is not bra-major (the distributed scheme's task
    order) is contracted in its own order, evaluated afresh each time:
    lists never enter the store."""
    basis = _basis("water_dimer")
    builder = DirectJKBuilder(basis, config=ExecutionConfig(
        kernel="batched"))
    D = _symmetric(basis, 7) + np.eye(basis.nbf)
    classes = builder._screened_classes(float(np.abs(D).max()))
    rng = np.random.default_rng(0)
    shuffled = [cls[rng.permutation(len(cls))] for cls in classes]
    want = oracle.accumulate(basis, D, shuffled,
                             oracle.evaluator(basis, "batched"))
    for _ in range(2):
        J, K, _ = eval_screened_pairs(builder.engine, basis, D, shuffled,
                                      NULL_TRACER, True, True, "batched")
        _same((J, K), want)
    assert not builder.engine.store and builder.engine.store_hits == 0
    assert builder.engine.store_misses == 2 * sum(len(c) for c in classes)
    _same(builder.build(D), oracle.walk(builder, D))


@pytest.mark.reference
def test_a_ket_before_its_bra_never_enters_the_store():
    """Quartets whose ket pair precedes their bra pair (the orientation
    of the distributed scheme's task lists) are contracted as given but
    kept out of the store, so a later build's keep masks see only the
    quartets its own screen keeps."""
    basis = _basis("water_dimer")
    builder = DirectJKBuilder(basis, config=ExecutionConfig(
        kernel="batched"))
    D = _symmetric(basis, 8) + np.eye(basis.nbf)
    flipped = [cls[:, [2, 3, 0, 1]]
               for cls in builder._screened_classes(float(np.abs(D).max()))
               if np.any(cls[:, :2] != cls[:, 2:])]
    J, K, _ = eval_screened_pairs(builder.engine, basis, D, flipped,
                                  NULL_TRACER, True, True, "batched")
    _same((J, K), oracle.accumulate(basis, D, flipped,
                                    oracle.evaluator(basis, "batched")))
    assert not builder.engine.store and builder.engine.store_hits == 0
    for _ in range(2):
        _same(builder.build(D), oracle.walk(builder, D))


@pytest.mark.reference
def test_a_block_that_cannot_grow_is_compiled_for_the_build(monkeypatch):
    """A store whose budget is the bare integrals of what a full build
    filled it with: an increment walk whose survivors some held block
    lacks cannot extend it even with every block bare, so that block is
    compiled for the one build from its held rows and the fresh ones,
    in walk order — the oracle walk's bits — and the store keeps what it
    held."""
    basis = _basis("li2o2")
    inc = IncrementalExchange(basis, config=ExecutionConfig(
        kernel="batched"), rebuild_every=100)
    D = _symmetric(basis, 1) + np.eye(basis.nbf)
    inc.build(D)
    held = dict(inc.engine.store)
    monkeypatch.setattr(eri_module, "CLASS_STORE_BYTES", sum(
        b.bare().nbytes for b in held.values()))
    D_new = D + _symmetric(basis, 2, 30.0)       # wakes dropped quartets
    J0, K0 = inc.J.copy(), inc.K.copy()
    misses = inc.engine.store_misses
    J, K = inc.build(D_new)
    assert inc.engine.store_misses > misses
    assert inc.engine.store == held
    dD = D_new - D
    dJ, dK = oracle.walk(inc, dD, inc._block_max(dD), inc.increment_eps)
    _same((J, K), (J0 + dJ, K0 + dK))


@pytest.mark.reference
def test_a_store_too_small_to_compile_still_holds_every_block(monkeypatch):
    """A budget above the bare integrals of every block a full build
    keeps but below their compiled bytes: the store holds every block,
    the latest ones bare, so warm builds evaluate nothing, and every
    build is the oracle walk's bits."""
    basis = _basis("water_dimer")
    probe = DirectJKBuilder(basis, config=ExecutionConfig(kernel="batched"))
    D = _symmetric(basis, 1) + np.eye(basis.nbf)
    probe.build(D)
    blocks = probe.engine.store.values()
    bare = sum(b.bare().nbytes for b in blocks)
    compiled = sum(b.nbytes for b in blocks)
    budget = (bare + compiled) // 2
    monkeypatch.setattr(eri_module, "CLASS_STORE_BYTES", budget)
    inc = IncrementalExchange(basis, config=ExecutionConfig(
        kernel="batched"), rebuild_every=100)
    ev = oracle.evaluator(basis, "batched")
    _same(inc.build(D), oracle.walk(inc, D, blocks_of=ev))
    eng = inc.engine
    evaluated = eng.quartets_computed
    assert eng.store.keys() == probe.engine.store.keys()
    assert not all(b.compiled for b in eng.store.values())
    assert eng.store_bytes == sum(b.nbytes for b in eng.store.values()) \
        <= budget
    D2 = D + _symmetric(basis, 2, 1e-6)
    _same(DirectJKBuilder.build(inc, D2),
          oracle.walk(inc, D2, blocks_of=ev))
    d = _symmetric(basis, 3, 1e-2)
    _same(inc.build_response(d), oracle.walk(inc, d, blocks_of=ev))
    assert eng.quartets_computed == evaluated


@pytest.mark.reference
@pytest.mark.parametrize("budget", BUDGETS)
def test_store_accounting_counts_compiled_bytes(budget, monkeypatch):
    """``ERIEngine.store_bytes``, the ``jk.store.bytes`` gauge and the
    ``jk.build`` span's ``store_bytes`` count the compiled blocks — the
    integrals in their layouts, flat indices, weights and screen data —
    and stay within the budget."""
    monkeypatch.setattr(eri_module, "CLASS_STORE_BYTES", budget)
    basis = _basis("li2o2")
    tr = Tracer("bytes")
    inc = IncrementalExchange(basis, config=ExecutionConfig(
        kernel="batched", tracer=tr))
    D = _symmetric(basis, 1) + np.eye(basis.nbf)
    for n in range(3):
        inc.build(D + _symmetric(basis, 10 + n, 1e-4))
    eng = inc.engine
    held = sum(b.nbytes for b in eng.store.values())
    assert eng.store_bytes == held <= budget
    assert tr.metrics.get("jk.store.bytes") == eng.store_peak == held
    span = [s for s in tr.spans if s.name == "jk.build"][-1]
    assert span.args["store_bytes"] == held
    if budget:
        # more than the bare integrals: the K layouts, indices, weights
        bare = sum(b.B.nbytes for b in eng.store.values())
        assert held > bare > 0


@pytest.mark.reference
def test_a_warm_build_allocates_less_than_the_walk_it_replaced():
    """(H2O)4 with a filled store: the ``tracemalloc`` peak of a warm
    full build, and of a warm increment build, stays below that of the
    oracle walk of the same input — its list screen, then each list's
    stored integrals gathered, its indices, weights and K layouts
    rebuilt and added."""
    basis = build_basis(builders.water_cluster(4))
    inc = IncrementalExchange(basis, config=ExecutionConfig(
        kernel="batched"))
    D = _symmetric(basis, 1) + np.eye(basis.nbf)
    inc.build(D)
    inc.build(D + _symmetric(basis, 2, 1e-2))
    store = inc.engine.store

    def stored(cls):
        """The stored integrals of a list, gathered (the old hit path)."""
        import repro.integrals.pairclass as pairclass
        import repro.scf.fock as fock

        pc = pairclass.pair_classes(basis)
        i, j, k, l = cls.T
        key = (int(pc.cid[i[0], j[0]]), int(pc.cid[k[0], l[0]]))
        blk = store[key]
        sides = {side.cid: side
                 for side in pairclass._pair_walk(inc.engine)}
        rb, rk, _, _ = fock._cells(sides[key[0]], sides[key[1]],
                                   blk.served, blk.tau)
        nket = len(pc.pair_class(key[1]))
        codes = pc.row[i, j] * nket + pc.row[k, l]
        return blk.B[np.searchsorted(rb * nket + rk, codes)]

    def peak(fn):
        tracemalloc.start()
        try:
            out = fn()
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    dD = _symmetric(basis, 3, 1e-4)
    for args in ((D, float(np.abs(D).max()), inc.eps),
                 (dD, inc._block_max(dD), inc.increment_eps)):
        walk_peak, want = peak(lambda: oracle.accumulate(
            basis, args[0], inc._screened_classes(args[1], args[2]),
            stored))
        kw = {} if np.ndim(args[1]) == 0 else {"blocks": args[1],
                                                "eps": args[2]}
        build_peak, got = peak(lambda: DirectJKBuilder.build(
            inc, args[0], **kw))
        _same(got, want)
        assert build_peak < walk_peak, (build_peak, walk_peak)


@pytest.mark.reference
@pytest.mark.parametrize("gather_below", [0.0, 2.0])
def test_a_masked_block_is_its_kept_rows(gather_below, monkeypatch):
    """A held block under a keep mask, whether every row is contracted
    with the masked ones weighted by zero or the survivors are gathered
    first (``_GATHER_BELOW`` sends every mask one way or the other):
    the oracle's bits for the kept rows alone."""
    import repro.scf.fock as fock
    from repro.integrals.pairclass import pair_classes

    monkeypatch.setattr(fock, "_GATHER_BELOW", gather_below)
    basis = _basis("water_dimer")
    builder = DirectJKBuilder(basis, config=ExecutionConfig(
        kernel="batched"))
    D = _symmetric(basis, 9) + np.eye(basis.nbf)
    builder.build(D)
    cls = max(builder._screened_classes(float(np.abs(D).max())), key=len)
    pc = pair_classes(basis)
    blk = builder.engine.store[(pc.locate(cls[:, 0], cls[:, 1])[0],
                                pc.locate(cls[:, 2], cls[:, 3])[0])]
    assert len(blk) == len(cls)
    keep = np.random.default_rng(1).random(len(cls)) < 0.5
    nn = basis.nbf * basis.nbf
    Jh, Kh = np.zeros(nn), np.zeros(nn)
    fock._add_images(Jh, Kh, blk, D.reshape(-1), keep)
    _same([M.reshape(basis.nbf, -1) + M.reshape(basis.nbf, -1).T
           for M in (Jh, Kh)],
          oracle.accumulate(basis, D, [cls[keep]],
                            oracle.evaluator(basis, "batched")))
