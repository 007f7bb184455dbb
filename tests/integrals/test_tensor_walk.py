"""The class-batched ``eri_tensor`` against the per-quartet loop it
replaced, which lives on here as the oracle: same surviving quartets,
same blocks, same eight symmetric writes — ``np.array_equal``, not a
tolerance.
"""

import tracemalloc

import numpy as np
import pytest

from repro.basis import build_basis
from repro.chem import builders
from repro.integrals import ERIEngine, eri_quartet, eri_tensor
from repro.integrals.batch import WALK_SCRATCH
from repro.integrals.pairclass import pair_classes
from repro.scf import TensorJKEngine

pytestmark = pytest.mark.reference

MOLS = {"water": builders.water, "lih": builders.lih, "li2o2": builders.li2o2}


def per_quartet_tensor(basis, screen=0.0):
    """``eri_tensor`` as it was before the class batches: one
    ``eri_quartet`` call and eight slice writes per surviving quartet.
    Returns ``(eri, quartets_computed)``."""
    nsh = basis.nshell
    engine = ERIEngine(basis)
    slices = basis.shell_slices()
    keys = [(i, j) for i in range(nsh) for j in range(i, nsh)]
    if screen > 0:
        Q = engine.schwarz_bounds()
        qvals = np.array([Q[key] for key in keys])
    eri = np.zeros((basis.nbf,) * 4)
    for a, (i, j) in enumerate(keys):
        if screen > 0:
            kept = np.nonzero(qvals[a] * qvals[a:] >= screen)[0] + a
        else:
            kept = range(a, len(keys))
        si, sj = slices[i], slices[j]
        for b in kept:
            k, l = keys[b]
            block = engine.quartet(i, j, k, l)
            sk, sl = slices[k], slices[l]
            eri[si, sj, sk, sl] = block
            eri[sj, si, sk, sl] = block.transpose(1, 0, 2, 3)
            eri[si, sj, sl, sk] = block.transpose(0, 1, 3, 2)
            eri[sj, si, sl, sk] = block.transpose(1, 0, 3, 2)
            eri[sk, sl, si, sj] = block.transpose(2, 3, 0, 1)
            eri[sl, sk, si, sj] = block.transpose(3, 2, 0, 1)
            eri[sk, sl, sj, si] = block.transpose(2, 3, 1, 0)
            eri[sl, sk, sj, si] = block.transpose(3, 2, 1, 0)
    return eri, engine.quartets_computed


@pytest.fixture(scope="module", params=sorted(MOLS))
def case(request):
    mol = MOLS[request.param]()
    basis = build_basis(mol)
    return mol, basis, per_quartet_tensor(basis)


def test_full_walk(case):
    _mol, basis, (ref, nq) = case
    engine = ERIEngine(basis)
    assert np.array_equal(eri_tensor(basis, engine=engine), ref)
    assert engine.quartets_computed == nq
    if basis.molecule.natom == 4:
        assert nq == 3081


@pytest.mark.parametrize("screen", [1e-8, 1e-2])
def test_screened_walk(case, screen):
    _mol, basis, (full, nfull) = case
    ref, nq = per_quartet_tensor(basis, screen)
    engine = ERIEngine(basis)
    assert np.array_equal(eri_tensor(basis, screen, engine=engine), ref)
    assert engine.quartets_computed == nq
    if screen == 1e-2:
        assert nq < nfull and not np.array_equal(ref, full)


def test_one_quartet_chunks_leave_the_tensor_unchanged(case, monkeypatch):
    """The walk's scratch ceilings only move chunk boundaries, and the R
    stage is elementwise: a ceiling of one double (every Hermite chunk a
    single quartet, every screen chunk a single bra row) fills the same
    bits from the same blocks."""
    _mol, basis, (ref, nq) = case
    blocks = ERIEngine(basis)
    eri_tensor(basis, engine=blocks)
    monkeypatch.setattr("repro.integrals.eri.WALK_SCRATCH", 1)
    monkeypatch.setattr("repro.integrals.pairclass._SCREEN_SCRATCH", 1)
    engine = ERIEngine(basis)
    assert np.array_equal(eri_tensor(basis, engine=engine), ref)
    assert engine.quartets_computed == nq
    assert engine.class_batches == blocks.class_batches


def test_overlapping_images_of_diagonal_quartets_keep_the_last_write():
    """``(ij|ij)`` writes image 5 onto image 1 (and so on); the block is
    symmetric under that swap only up to rounding, so *which* image
    stays is visible in the bits.  The oracle keeps the last; so must
    one fancy write per image over a whole class."""
    basis = build_basis(builders.li2o2())
    slices = basis.shell_slices()
    eri = eri_tensor(basis)
    visible = 0
    for (i, j), pair in basis.shell_pairs().items():
        block = eri_quartet(pair, pair)
        last = block.transpose(3, 2, 1, 0)
        si, sj = slices[i], slices[j]
        assert np.array_equal(eri[sj, si, sj, si], last)
        visible += not np.array_equal(block, block.transpose(2, 3, 0, 1))
    assert visible          # else this test could not tell the orders apart


def _displaced(mol, atom):
    coords = mol.coords.copy()
    coords[atom, 0] += 1e-3
    basis = build_basis(mol.with_coords(coords))
    pair_classes(basis)                   # not the walk's allocation
    return basis


def test_reset_sequence_never_holds_more_than_one_tensor():
    """Memory contract of the in-core engine: ``reset`` lets go of the
    old tensor before it fills the new one, so a reset peaks where a bare
    ``eri_tensor`` does (the tensor plus scratch that does not scale with
    the quartet count: the walk budget's Hermite slab, its gathers and
    one class's blocks on Li2O2) — a second live tensor would show as
    one more ``nbf^4``."""
    mol = builders.li2o2()
    slack = 1 << 18
    tracemalloc.start()
    try:
        basis = _displaced(mol, 1)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        nbytes = eri_tensor(basis).nbytes
        bare = tracemalloc.get_traced_memory()[1] - before
        assert nbytes <= bare <= nbytes + 3 * 8 * WALK_SCRATCH // 2
        engine = TensorJKEngine(build_basis(mol))
        for atom in (2, 0):
            basis = _displaced(mol, atom)
            held = tracemalloc.get_traced_memory()[0]   # counts the old one
            tracemalloc.reset_peak()
            engine.reset(basis)
            assert tracemalloc.get_traced_memory()[1] - held \
                <= bare - nbytes + slack
        engine.close()
        assert tracemalloc.get_traced_memory()[0] <= held - nbytes + slack
    finally:
        tracemalloc.stop()
