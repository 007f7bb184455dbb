"""Tests for the batched L-class ERI kernel.

Two contracts, one kernel: with the Boys table recursed down from
``3L`` (``boys_order=3 * L``, the in-core tensor walk) every block is
``np.array_equal`` to the per-quartet reference, whatever the chunking;
with the default ``boys_order=None`` (recursed from ``L``, the
``kernel="batched"`` direct builds) it agrees to tight tolerance and is
*not* required to be bitwise.  The block walk of the pair table
partitions the unique quartets without loss, one signature per block.
"""

import numpy as np
import pytest

from repro.basis import build_basis
from repro.chem import builders
from repro.integrals import (ERIEngine, eri_quartet, eri_quartet_batch,
                             flatten_pairs, hermite_r_tri)
from repro.integrals.batch import _eri_class_batch
from repro.integrals.pairclass import _blocks, _grid, _pair_walk, pair_classes

from .hermite_oracle import hermite_r

TOL = 1e-12


@pytest.fixture(scope="module")
def dimer_basis():
    return build_basis(builders.water_dimer(), "sto-3g")


def _all_quartets(engine):
    keys = sorted(engine.basis.shell_pairs())
    return [(i, j, k, l) for a, (i, j) in enumerate(keys)
            for (k, l) in keys[a:]]


def _walk(engine):
    """Every unique quartet of the engine's basis, one same-class list
    per block of the pair table's walk: ``[(quartets (nq, 4), (bra
    class, bra rows, ket class, ket rows))]``."""
    out = []
    for bra, ket in _blocks(_pair_walk(engine)):
        rows = [(r[a], b) for r, U, _ in _grid(bra, ket)
                for a, b in [np.nonzero(U)]]
        rb, rk = (np.concatenate(x) for x in zip(*rows))
        if len(rb):
            out.append((np.hstack([bra.ij[rb], ket.ij[rk]]),
                        (bra.cid, rb, ket.cid, rk)))
    return out


def test_hermite_r_tri_matches_reference(rng):
    for L in range(0, 5):
        p = rng.uniform(0.1, 5.0, size=17)
        PQ = rng.standard_normal((17, 3))
        full = hermite_r(L, L, L, p, PQ)
        tri = hermite_r_tri(L, p, PQ)
        assert tri.shape == full.shape
        # only the t+u+v <= L triangle is specified
        for t in range(L + 1):
            for u in range(L + 1 - t):
                for v in range(L + 1 - t - u):
                    np.testing.assert_allclose(
                        tri[t, u, v], full[t, u, v], rtol=1e-13, atol=1e-15)


def test_batch_matches_per_quartet_all_classes(dimer_basis):
    engine = ERIEngine(dimer_basis)
    idx = np.asarray(_all_quartets(engine), dtype=np.int64)
    groups = [grp for grp, _ in _walk(engine)]
    # the block walk is a partition of the unique quartets
    assert sum(len(g) for g in groups) == len(idx)
    covered = np.concatenate(groups)
    assert {tuple(q) for q in covered} == {tuple(q) for q in idx}
    for grp in groups:
        blocks = eri_quartet_batch(
            [engine.pair(int(i), int(j)) for i, j, _, _ in grp],
            [engine.pair(int(k), int(l)) for _, _, k, l in grp])
        assert blocks.shape[0] == len(grp)
        for n, (i, j, k, l) in enumerate(grp):
            ref = eri_quartet(engine.pair(int(i), int(j)),
                              engine.pair(int(k), int(l)))
            assert np.abs(blocks[n] - ref).max() < TOL


@pytest.fixture(scope="module", params=["li2o2", "water_dimer", "lih",
                                        "sulfoxide_model"])
def class_groups(request):
    """Every unique quartet of a molecule, by L-class, as rows of the
    basis's pair classes, with its per-quartet reference blocks (from
    the reference's ``ShellPair`` objects): ``[(L, bra, bra_rows, ket,
    ket_rows, ref_blocks)]``."""
    engine = ERIEngine(build_basis(getattr(builders, request.param)()))
    table = pair_classes(engine.basis)
    idx = np.asarray(_all_quartets(engine), dtype=np.int64)
    out = []
    for grp, (cb, bra_rows, ck, ket_rows) in _walk(engine):
        bra, ket = table.pair_class(cb), table.pair_class(ck)
        ref = np.stack([eri_quartet(engine.pair(int(i), int(j)),
                                    engine.pair(int(k), int(l)))
                        for i, j, k, l in grp])
        out.append((bra.la + bra.lb + ket.la + ket.lb, bra, bra_rows,
                    ket, ket_rows, ref))
    assert sum(len(g[-1]) for g in out) == len(idx)
    return out


@pytest.mark.reference
@pytest.mark.parametrize("max_elements", [1, 1024, 1 << 24])
def test_boys_from_3L_is_the_per_quartet_kernel_bit_for_bit(class_groups,
                                                            max_elements):
    """``max_elements=1`` is one quartet per chunk, 1024 puts chunk
    boundaries inside every class, ``1 << 24`` holds every class whole."""
    for L, bra, bra_rows, ket, ket_rows, ref in class_groups:
        blocks = _eri_class_batch(bra, bra_rows, ket, ket_rows,
                                  max_elements, boys_order=3 * L)
        assert np.array_equal(blocks, ref)


@pytest.mark.reference
def test_default_boys_order_is_L_and_close_not_bitwise(class_groups):
    """``boys_order=None`` must stay what ``kernel="batched"`` direct
    builds have always run (Boys from ``L``): bit-identical to an
    explicit ``L``, within 1e-12 of the reference — and, somewhere in
    the molecule, *not* the reference's bits, or the two contracts have
    silently become one."""
    differs = False
    for L, bra, bra_rows, ket, ket_rows, ref in class_groups:
        blocks = _eri_class_batch(bra, bra_rows, ket, ket_rows)
        assert np.array_equal(blocks, _eri_class_batch(
            bra, bra_rows, ket, ket_rows, boys_order=L))
        # one quartet per chunk
        assert np.array_equal(blocks, _eri_class_batch(
            bra, bra_rows, ket, ket_rows, max_elements=1))
        assert np.abs(blocks - ref).max() < TOL
        differs = differs or not np.array_equal(blocks, ref)
    assert differs


def test_chunked_evaluation_identical(dimer_basis):
    engine = ERIEngine(dimer_basis)
    grp = max((grp for grp, _ in _walk(engine)), key=len)
    bras = [engine.pair(int(i), int(j)) for i, j, _, _ in grp]
    kets = [engine.pair(int(k), int(l)) for _, _, k, l in grp]
    whole = eri_quartet_batch(bras, kets)
    # force many tiny chunks; the result must be bitwise identical
    chunked = eri_quartet_batch(bras, kets, max_elements=1)
    assert np.array_equal(whole, chunked)


@pytest.mark.parametrize("ij", [(0, 1), (0, 2), (2, 2)])
def test_repeated_pair_reuses_its_cached_class(ij):
    """A side repeating one pair (the bench probe's batch) builds its
    one-row class once; every call gives the fresh-pair result."""
    from repro.basis.shellpair import build_shell_pairs

    shells = build_basis(builders.water()).shells
    pr = build_shell_pairs(shells)[ij]
    fresh = build_shell_pairs(shells)[ij]
    first = eri_quartet_batch([pr] * 8, [pr] * 8)
    cls = pr._class_cache
    assert np.array_equal(eri_quartet_batch([pr] * 8, [pr] * 8), first)
    assert pr._class_cache is cls
    assert np.array_equal(eri_quartet_batch([fresh] * 8, [fresh] * 8),
                          first)
    # a side of two distinct pair objects caches nothing on either
    other = build_shell_pairs(shells)[ij]
    assert np.array_equal(eri_quartet_batch([pr, other], [pr, other]),
                          first[:2])
    assert not hasattr(other, "_class_cache")


def test_engine_quartet_batch_counts_and_matches(dimer_basis):
    engine = ERIEngine(dimer_basis)
    grp = _walk(engine)[0][0]
    before = engine.quartets_computed
    blocks = engine.quartet_batch(grp)
    assert engine.quartets_computed - before == len(grp)
    for n, (i, j, k, l) in enumerate(grp):
        ref = eri_quartet(engine.pair(int(i), int(j)),
                          engine.pair(int(k), int(l)))
        assert np.abs(blocks[n] - ref).max() < TOL


def test_block_walk_is_one_class_per_block_in_quartet_order(dimer_basis):
    """Every block of the walk is one L-class, no L-class spans two
    blocks, and a block lists its quartets bra-major in the unique
    quartet order, as a class of the whole quartet list would."""
    engine = ERIEngine(dimer_basis)
    idx = np.asarray(_all_quartets(engine), dtype=np.int64)
    ls = np.array([sh.l for sh in dimer_basis.shells])
    nps = np.array([sh.nprim for sh in dimer_basis.shells])

    def sig(q):
        return tuple(ls[list(q)]) + tuple(nps[list(q)])

    seen = []
    for grp, _ in _walk(engine):
        sigs = {sig(q) for q in grp}
        assert len(sigs) == 1
        seen.append(next(iter(sigs)))
        pos = [np.flatnonzero((idx == q).all(axis=1))[0] for q in grp[:50]]
        assert pos == sorted(pos)
    assert len(set(seen)) == len(seen)
    assert set(seen) == {sig(q) for q in idx}


def test_flatten_pairs_roundtrip():
    pairs = [(0, 1, np.array([[0, 1], [2, 3]])),
             (2, 2, np.array([[2, 2]]))]
    flat = flatten_pairs(pairs)
    assert flat.tolist() == [[0, 1, 0, 1], [0, 1, 2, 3], [2, 2, 2, 2]]
    assert flatten_pairs([]).shape == (0, 4)


def test_batch_input_validation(dimer_basis):
    engine = ERIEngine(dimer_basis)
    pr = engine.pair(0, 0)
    with pytest.raises(ValueError, match="align"):
        eri_quartet_batch([pr], [pr, pr])
    with pytest.raises(ValueError, match="empty"):
        eri_quartet_batch([], [])


@pytest.mark.reference
def test_class_batch_scratch_stays_under_its_ceiling():
    """``max_elements`` bounds the whole R stage, not the Hermite box
    alone: at L = 0 the box is one double per primitive quartet while
    the stage makes two dozen vectors of that length (sized by the box
    only, this call peaked at ~15 MB against the 1 MB it was given)."""
    import tracemalloc

    engine = ERIEngine(build_basis(builders.water_cluster(4), "sto-3g"))
    grp = next(g for g, _ in _walk(engine)
               if not any(engine.basis.shells[s].l for s in g[0]))
    assert len(grp) >= 9000
    max_elements = 1 << 17
    # first call: pair lambdas and the Boys table, cached, not scratch
    engine._class_batch(grp, max_elements=max_elements)
    tracemalloc.start()
    try:
        blocks = engine._class_batch(grp, max_elements=max_elements)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert blocks.shape == (len(grp), 1, 1, 1, 1)
    assert peak <= 8 * max_elements * 1.25
