"""Tests for basis-set construction and bookkeeping."""

import pickle

import numpy as np
import pytest

from repro.basis import (available_basis_sets, build_basis, BasisSet)
from repro.chem import builders


def test_water_sto3g_dimensions(water_basis):
    # O: 1s, 2s, 2p -> 3 shells / 5 bf; H: 1 shell / 1 bf each
    assert water_basis.nshell == 5
    assert water_basis.nbf == 7


def test_offsets_monotone_cover_nbf(water_basis):
    offs = water_basis.offsets
    assert offs[0] == 0
    assert np.all(np.diff(offs) > 0)
    last = water_basis.shells[-1]
    assert offs[-1] + last.nfunc == water_basis.nbf


def test_shell_slices_partition_ao_space(water_basis):
    seen = np.zeros(water_basis.nbf, dtype=int)
    for i in range(water_basis.nshell):
        sl = water_basis.shell_slice(i)
        seen[sl] += 1
    assert np.all(seen == 1)


def test_sp_shells_expanded():
    b = build_basis(builders.lih())
    # Li: 1s, 2s, 2p (3 shells); H: 1
    ls = [sh.l for sh in b.shells]
    assert ls.count(1) == 1
    assert ls.count(0) == 3


def test_sulfur_has_three_sp_layers():
    b = build_basis(builders.sulfoxide_model())
    s_shells = [sh for sh in b.shells if sh.atom == 0]
    # S sto-3g: 1s,2s,2p,3s,3p = 5 shells, 9 bf
    assert len(s_shells) == 5
    assert sum(sh.nfunc for sh in s_shells) == 9


def test_ao_labels_length_and_content(water_basis):
    labels = water_basis.ao_labels()
    assert len(labels) == water_basis.nbf
    assert any("px" in lb for lb in labels)
    assert labels[0].split()[1] == "O"


def test_unknown_basis_raises(water):
    with pytest.raises(ValueError):
        build_basis(water, "nope-31g")


def test_unknown_element_in_basis_raises():
    from repro.chem.molecule import Molecule

    m = Molecule.from_symbols(["Fe", "H"], [[0, 0, 0], [0, 0, 1.5]])
    with pytest.raises(ValueError):
        build_basis(m)  # Fe has no STO-3G entry in the library


def test_available_basis_sets_lists_sto3g():
    names = available_basis_sets()
    assert "sto-3g" in names
    assert "sv" in names


def test_split_valence_bigger_than_minimal(water):
    minimal = build_basis(water, "sto-3g")
    sv = build_basis(water, "sv")
    assert sv.nbf > minimal.nbf


def test_shell_centers_shape(water_basis):
    c = water_basis.shell_centers()
    assert c.shape == (water_basis.nshell, 3)


def test_max_l(water_basis):
    assert water_basis.max_l() == 1


def test_basisset_is_reusable_across_molecules():
    m = builders.h2()
    b1 = build_basis(m)
    b2 = build_basis(m)
    assert isinstance(b1, BasisSet) and isinstance(b2, BasisSet)
    assert b1.nbf == b2.nbf == 2


# --- derived caches: shared in-process, never pickled -------------------------

def test_one_pair_table_for_every_integral_builder(water):
    from repro.integrals import (DerivativePairs, ERIEngine, eri_tensor,
                                 kinetic_matrix, nuclear_matrix,
                                 overlap_matrix, pair_classes,
                                 schwarz_bounds)

    basis = build_basis(water)
    classes = pair_classes(basis)
    # every unique pair (i <= j) sits in exactly one class
    assert sorted(tuple(ij) for cls in classes for ij in cls.ij.tolist()) \
        == [(i, j) for i in range(basis.nshell)
            for j in range(i, basis.nshell)]
    for build in (overlap_matrix, kinetic_matrix, nuclear_matrix,
                  schwarz_bounds, eri_tensor):
        build(basis)
        assert pair_classes(basis) is classes
    assert DerivativePairs(basis.shells, classes).classes is classes
    # the per-quartet reference's own table, shared the same way
    table = basis.shell_pairs()
    assert basis.shell_pairs() is table
    assert all(ERIEngine(basis).pair(1, 0) is table[0, 1] for _ in range(2))


@pytest.mark.reference
def test_used_basis_pickles_like_a_fresh_one(water):
    from repro.integrals import eri_tensor
    from repro.scf import RHF

    basis = build_basis(water)
    assert RHF(water, basis, mode="direct").run().converged
    basis.shell_slices()    # the RI and gradient walks' table
    assert {"_pairs_cache", "_slices_cache", "_schwarz_cache",
            "_pairclass_cache"} \
        <= set(basis.__dict__)
    blob = pickle.dumps(basis)
    assert len(blob) == len(pickle.dumps(build_basis(water)))
    clone = pickle.loads(blob)
    assert not any(k.endswith("_cache") for k in clone.__dict__)
    assert np.array_equal(eri_tensor(clone), eri_tensor(basis))
    assert "_pairs_cache" in basis.__dict__      # the original keeps its own
