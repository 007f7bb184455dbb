"""Tests for attack-complex geometry construction."""

import numpy as np
import pytest

from repro.constants import BOHR_PER_ANGSTROM
from repro.liair.complexes import (NUCLEOPHILES, approach_scan_geometries,
                                   attack_complex)
from repro.liair.solvents import get_solvent


@pytest.mark.parametrize("name", ["PC", "DMSO", "ACN"])
def test_leading_oxygen_at_requested_distance(name):
    sv = get_solvent(name)
    for d in (4.0, 2.5, 1.8):
        cplx = attack_complex(sv, d)
        frag_n = sv.build_model().natom
        site = cplx.coords[sv.attack_atom]
        nuc_coords = cplx.coords[frag_n:]
        nuc_z = cplx.numbers[frag_n:]
        o_dists = [np.linalg.norm(x - site)
                   for x, z in zip(nuc_coords, nuc_z) if z == 8]
        assert np.isclose(min(o_dists), d * BOHR_PER_ANGSTROM, atol=1e-8)


def test_complex_charge_and_electrons():
    sv = get_solvent("PC")
    cplx = attack_complex(sv, 3.0)
    assert cplx.charge == -2          # peroxide dianion
    assert cplx.nelectron % 2 == 0


def test_li2o2_nucleophile_option():
    sv = get_solvent("PC")
    cplx = attack_complex(sv, 3.0, nucleophile="li2o2")
    assert cplx.charge == 0
    assert "Li" in cplx.symbols


@pytest.mark.parametrize("nucleophile", sorted(NUCLEOPHILES))
def test_complex_keeps_nucleophile_multiplicity(nucleophile):
    """``Molecule.__add__`` resets multiplicity to 1; the complex keeps
    the nucleophile's (the model fragments are closed-shell)."""
    cplx = attack_complex(get_solvent("ACN"), 3.0, nucleophile)
    want = 2 if nucleophile == "superoxide" else 1
    assert cplx.multiplicity == want
    assert cplx.nelectron % 2 == want - 1


def test_unknown_nucleophile():
    with pytest.raises(ValueError):
        attack_complex(get_solvent("PC"), 3.0, nucleophile="hydroxide")


def test_no_atom_collisions_at_contact():
    for name in ("PC", "DMSO", "ACN"):
        cplx = attack_complex(get_solvent(name), 1.8)
        d = cplx.distance_matrix()
        np.fill_diagonal(d, np.inf)
        assert d.min() > 1.5   # Bohr — no fused atoms


def test_scan_monotone_distances():
    sv = get_solvent("DMSO")
    distances, geoms = approach_scan_geometries(sv, [3.0, 4.0, 2.0])
    assert list(distances) == [4.0, 3.0, 2.0]
    frag_n = sv.build_model().natom
    site_idx = sv.attack_atom
    dists = []
    for g in geoms:
        site = g.coords[site_idx]
        o = g.coords[frag_n]
        dists.append(np.linalg.norm(o - site))
    assert dists[0] > dists[1] > dists[2]


def test_oo_axis_preserved():
    """The nucleophile is rigid: O-O bond length unchanged by placement."""
    sv = get_solvent("PC")
    cplx = attack_complex(sv, 2.2)
    frag_n = sv.build_model().natom
    o1, o2 = cplx.coords[frag_n], cplx.coords[frag_n + 1]
    assert np.isclose(np.linalg.norm(o1 - o2),
                      1.49 * BOHR_PER_ANGSTROM, atol=1e-8)
