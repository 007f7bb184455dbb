"""Tests for degradation energetics (kept light: one HF profile on the
smallest fragments; the full multi-method screening runs in the F7
benchmark)."""

import numpy as np
import pytest

from repro.liair import degradation
from repro.liair.degradation import AttackProfile, attack_profile


@pytest.fixture(scope="module")
def acn_profile():
    # HCN model: the smallest fragment -> fastest real profile
    return attack_profile("ACN", method="hf",
                          distances_angstrom=[4.0, 3.0, 2.4])


def test_profile_structure(acn_profile):
    p = acn_profile
    assert p.solvent == "ACN"
    assert p.energies[0] == 0.0                 # far reference
    assert p.distances[0] == 4.0
    assert len(p.energies) == 3


def test_descriptors_consistent(acn_profile):
    p = acn_profile
    assert p.well_depth_kcal <= 0.0
    assert p.well_distance in p.distances
    assert p.wall_kcal >= 0.0


def test_stability_score_tracks_well_depth(acn_profile):
    p = acn_profile
    expected = p.well_depth_kcal + 0.05 * p.attack_energy_kcal
    assert np.isclose(p.stability_score(), expected)


def test_profile_distances_sorted_descending():
    p = attack_profile("ACN", method="hf",
                       distances_angstrom=[2.4, 4.0, 3.0])
    assert np.all(np.diff(p.distances) < 0)


def test_attack_profile_synthetic_descriptors():
    """Descriptor arithmetic on a hand-built profile."""
    p = AttackProfile(
        solvent="X", method="hf",
        distances=np.array([4.0, 3.0, 2.5, 2.0]),
        energies=np.array([0.0, -0.002, -0.01, 0.02]),
        e_far_absolute=-100.0,
    )
    assert np.isclose(p.well_depth_kcal, -0.01 * 627.5094740631)
    assert p.well_distance == 2.5
    assert np.isclose(p.attack_energy_kcal, 0.02 * 627.5094740631)
    assert np.isclose(p.wall_kcal, 0.03 * 627.5094740631)
    # well depth -6.3 kcal/mol crosses the -5 threshold
    assert p.is_degrading(threshold_kcal=-5.0)
    assert not p.is_degrading(threshold_kcal=-10.0)


@pytest.mark.parametrize("method", ["pbe0", "lda"])
def test_open_shell_dft_refused_before_scf(method, monkeypatch):
    """No unrestricted Kohn-Sham: the doublet complex with a DFT method
    is refused before any SCF (fragment guess included) runs."""
    def no_scf(*args, **kw):
        raise AssertionError("an SCF ran")

    monkeypatch.setattr(degradation, "RKS", no_scf)
    monkeypatch.setattr(degradation, "UHF", no_scf)
    with pytest.raises(ValueError, match="unrestricted Kohn-Sham"):
        attack_profile("ACN", method=method, nucleophile="superoxide",
                       distances_angstrom=[4.0, 3.0])
