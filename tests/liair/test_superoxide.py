"""The superoxide (O2^-) nucleophile: the open-shell cases of the one
attack path (``attack_complex`` / ``attack_profile``)."""

import numpy as np

from repro.constants import BOHR_PER_ANGSTROM
from repro.liair.complexes import attack_complex
from repro.liair.degradation import AttackProfile, attack_profile
from repro.liair.solvents import get_solvent


def test_complex_is_doublet():
    cplx = attack_complex(get_solvent("PC"), 3.0, nucleophile="superoxide")
    assert cplx.charge == -1
    assert cplx.multiplicity == 2
    assert cplx.nelectron % 2 == 1


def test_complex_leading_oxygen_distance():
    sv = get_solvent("DMSO")
    d = 2.8
    cplx = attack_complex(sv, d, nucleophile="superoxide")
    frag_n = sv.build_model().natom
    site = cplx.coords[sv.attack_atom]
    o_dists = np.linalg.norm(cplx.coords[frag_n:frag_n + 2] - site, axis=1)
    assert np.isclose(o_dists.min(), d * BOHR_PER_ANGSTROM, atol=1e-8)


def test_profile_dataclass_descriptors():
    p = AttackProfile("X", "uhf", np.array([4.0, 3.0, 2.2]),
                      np.array([0.0, -0.001, 0.004]), e_far_absolute=-100.0)
    assert p.well_depth_kcal < 0
    assert p.attack_energy_kcal > 0


def test_nitrile_profile_runs_uhf():
    """The smallest fragment end-to-end: a real UHF approach profile."""
    p = attack_profile("ACN", method="uhf", nucleophile="superoxide",
                       distances_angstrom=[4.0, 3.0])
    assert p.method == "uhf"
    assert p.energies[0] == 0.0
    assert len(p.energies) == 2
    assert np.isfinite(p.energies).all()
