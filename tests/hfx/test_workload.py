"""Tests for the synthetic condensed-phase workload generator —
including its calibration against the exact integral engine."""

import numpy as np
import pytest

from repro.basis import build_basis
from repro.basis.shellpair import build_shell_pairs
from repro.chem import builders
from repro.hfx.tasklist import build_tasklist
from repro.hfx.workload import (calibrate_schwarz_model, synthetic_tasklist,
                                water_box_workload)
from repro.integrals.schwarz import schwarz_bounds


pytestmark = pytest.mark.model


@pytest.fixture(scope="module")
def model():
    shells = build_basis(builders.water()).shells
    return calibrate_schwarz_model(shells)


def test_model_matches_exact_bounds_on_dimer(model):
    """Modeled Q within 2 orders of magnitude of exact Q for every pair
    of a real water dimer — enough for screening statistics, whose
    knob spans 8+ decades."""
    b = build_basis(builders.water_dimer())
    exact = schwarz_bounds(b)
    shells = b.shells
    from repro.hfx.workload import _class_of

    checked = 0
    for (i, j), q_exact in exact.items():
        if q_exact < 1e-12:
            continue
        r2 = float(((shells[i].center - shells[j].center) ** 2).sum())
        q_model = model.estimate(_class_of(shells[i]).key,
                                 _class_of(shells[j]).key,
                                 np.array([r2]))[0]
        assert 0.01 < q_model / q_exact < 100.0, (i, j)
        checked += 1
    assert checked > 10


def test_synthetic_quartet_count_tracks_exact():
    """On a system small enough to do both, the synthetic count must be
    within ~3x of the exact screened count."""
    mol = builders.water_cluster(3, seed=2)
    b = build_basis(mol)
    eps = 1e-6
    exact = build_tasklist(b, eps=eps)
    synth = synthetic_tasklist(mol, eps=eps)
    ratio = synth.total_quartets / max(exact.total_quartets, 1)
    assert 1 / 3 < ratio < 3, ratio


def test_water_box_workload_scales_with_system():
    wl_small = water_box_workload(8, eps=1e-7, seed=0)
    wl_big = water_box_workload(27, eps=1e-7, seed=0)
    assert wl_big.ntasks > wl_small.ntasks
    assert wl_big.total_quartets > wl_small.total_quartets
    assert wl_big.nbf == 27 * 7


def test_eps_controls_work():
    loose = water_box_workload(16, eps=1e-5, seed=1)
    tight = water_box_workload(16, eps=1e-9, seed=1)
    assert loose.total_quartets < tight.total_quartets


def test_workload_metadata():
    wl = water_box_workload(8, eps=1e-7)
    assert wl.nocc == 8 * 5
    assert wl.eps == 1e-7
    assert "(H2O)8" in wl.label


def test_quartet_survival_linear_system_size_regime():
    """With screening, quartets grow far slower than N^4 (near N^2 for
    these box sizes)."""
    n1, n2 = 8, 27
    q1 = water_box_workload(n1, eps=1e-7, seed=0).total_quartets
    q2 = water_box_workload(n2, eps=1e-7, seed=0).total_quartets
    growth = np.log(q2 / q1) / np.log(n2 / n1)
    # << 4 (unscreened); still above 2 at these pre-asymptotic sizes
    assert growth < 3.2


def test_model_cache_reused():
    from repro.hfx import workload as wl_mod

    wl_mod._MODEL_CACHE.clear()
    water_box_workload(8, eps=1e-6)
    assert len(wl_mod._MODEL_CACHE) == 1
    water_box_workload(8, eps=1e-8)
    assert len(wl_mod._MODEL_CACHE) == 1   # same basis classes -> reuse
