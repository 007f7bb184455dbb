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

pytestmark = pytest.mark.reference

MOLS = {"water": builders.water, "lih": builders.lih, "li2o2": builders.li2o2}


def per_quartet_tensor(basis, screen=0.0, reuse=None):
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
    if reuse is None:
        eri = np.zeros((basis.nbf,) * 4)
    else:
        anchor, moved = reuse
        moved = set(moved)
        eri = anchor.copy()
        touched = np.array([i in moved or j in moved for i, j in keys])
    for a, (i, j) in enumerate(keys):
        if screen > 0:
            kept = np.nonzero(qvals[a] * qvals[a:] >= screen)[0] + a
        elif reuse is None or touched[a]:
            kept = range(a, len(keys))
        else:
            kept = np.nonzero(touched[a:])[0] + a
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


def test_patched_walk(case):
    """Every one- and two-atom displacement, patched onto the anchor."""
    mol, basis, (anchor, nfull) = case
    anchor.flags.writeable = False
    for atoms in [(a,) for a in range(mol.natom)] + [(0, mol.natom - 1)]:
        coords = mol.coords.copy()
        coords[list(atoms), 1] += 1e-3
        displaced = build_basis(mol.with_coords(coords))
        moved = displaced.moved_shells(basis)
        assert 0 < len(moved) <= basis.nshell
        ref, nq = per_quartet_tensor(displaced, reuse=(anchor, moved))
        engine = ERIEngine(displaced)
        got = eri_tensor(displaced, reuse=(anchor, moved), engine=engine)
        assert np.array_equal(got, ref)
        assert np.array_equal(got, per_quartet_tensor(displaced)[0])
        assert engine.quartets_computed == nq <= nfull
        if mol.natom == 4 and len(atoms) == 1:
            assert nq == 2046


def test_overlapping_images_of_diagonal_quartets_keep_the_last_write():
    """``(ij|ij)`` writes image 5 onto image 1 (and so on); the block is
    symmetric under that swap only up to rounding, so *which* image
    stays is visible in the bits.  The oracle keeps the last; so must
    one fancy write per image over a whole class."""
    basis = build_basis(builders.li2o2())
    engine = ERIEngine(basis)
    slices = basis.shell_slices()
    eri = eri_tensor(basis)
    visible = 0
    for (i, j), pair in engine.pairs.items():
        block = eri_quartet(pair, pair)
        last = block.transpose(3, 2, 1, 0)
        si, sj = slices[i], slices[j]
        assert np.array_equal(eri[sj, si, sj, si], last)
        visible += not np.array_equal(block, block.transpose(2, 3, 0, 1))
    assert visible          # else this test could not tell the orders apart


def test_patched_rebuild_allocates_the_copy_plus_bounded_scratch():
    """Memory contract of the walk: the returned tensor plus scratch
    that does not scale with the quartet count (4 MB covers the capped
    Hermite slab, its gathers and one class's blocks on Li2O2)."""
    mol = builders.li2o2()
    basis = build_basis(mol)
    anchor = eri_tensor(basis)
    coords = mol.coords.copy()
    coords[2, 0] += 1e-3
    displaced = build_basis(mol.with_coords(coords))
    moved = displaced.moved_shells(basis)
    displaced.shell_pairs()               # not the walk's allocation
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        eri = eri_tensor(displaced, reuse=(anchor, moved))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert eri.nbytes <= peak <= eri.nbytes + (4 << 20)
