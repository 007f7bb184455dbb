"""Tests for incremental (density-difference) exchange builds."""

import numpy as np
import pytest

from repro.basis import build_basis
from repro.chem import builders
from repro.hfx.incremental import IncrementalExchange, incremental_survival
from repro.scf import DirectJKBuilder, RHF


@pytest.fixture(scope="module")
def water_scf_sequence():
    """A converging density sequence: the core-guess density approaches
    the converged one geometrically (what a DIIS-accelerated SCF
    produces, made deterministic for the test)."""
    mol = builders.water()
    res = RHF(mol, conv_tol=1e-10).run()
    from repro.scf.guess import core_guess

    D0, _, _ = core_guess(res.hcore, res.S, 5)
    dD = D0 - res.D
    densities = [res.D + dD * (0.1 ** k) for k in range(9)]
    return res.basis, densities


def test_incremental_matches_direct(water_scf_sequence):
    basis, densities = water_scf_sequence
    inc = IncrementalExchange(basis, eps=1e-12)
    direct = DirectJKBuilder(basis, eps=1e-14)
    for D in densities:
        K_inc = inc.update(D)
        _, K_ref = direct.build(D, want_j=False)
        assert np.abs(K_inc - K_ref).max() < 1e-8


def test_incremental_skips_work_late_in_scf(water_scf_sequence):
    basis, densities = water_scf_sequence
    inc = IncrementalExchange(basis, eps=1e-7, rebuild_every=100)
    counts = []
    for D in densities:
        inc.update(D)
        counts.append(inc.last_quartets)
    # late iterations (tiny dD) must compute far fewer quartets
    assert counts[-1] < counts[0] / 2
    assert inc.savings > 0.05


def test_rebuild_resets_reference(water_scf_sequence):
    basis, densities = water_scf_sequence
    inc = IncrementalExchange(basis, eps=1e-9, rebuild_every=2)
    for D in densities[:4]:
        inc.update(D)
    # build 0 and 2 are full rebuilds
    assert inc.builds == 4


def test_incremental_bounded_error_loose_eps(water_scf_sequence):
    basis, densities = water_scf_sequence
    inc = IncrementalExchange(basis, eps=1e-5, rebuild_every=3)
    direct = DirectJKBuilder(basis, eps=1e-14)
    for D in densities:
        K_inc = inc.update(D)
    _, K_ref = direct.build(densities[-1], want_j=False)
    assert np.abs(K_inc - K_ref).max() < 1e-3


def test_screen_is_per_shell_pair_not_global(water_scf_sequence):
    """Audit of the difference-density screen (satellite of PR 1).

    The screen must bound each quartet by ``Q_ij Q_kl`` times the
    per-shell-pair ``max|dD|`` over the four density blocks the exchange
    contraction touches — not the global ``max|dD|``.  A correct
    per-pair screen skips at least as much as a global-max screen would
    (the local bound is never larger), while staying within the error
    budget; cross-check both properties against a direct build at
    threshold 1e-10.
    """
    basis, densities = water_scf_sequence
    inc = IncrementalExchange(basis, eps=1e-10, rebuild_every=100)
    direct = DirectJKBuilder(basis, eps=1e-14)
    engine = inc.engine
    keys = sorted(engine.pairs)
    # repeat the converged density once at the end: dD == 0 exactly, so
    # a correct increment screen must skip every quartet
    for D in densities + [densities[-1]]:
        dD = D - inc.D_ref if inc.builds else D
        dmax_global = float(np.abs(dD).max())
        # quartets a global-max screen would keep
        survive_global = sum(
            1
            for a, (i, j) in enumerate(keys)
            for (k, l) in keys[a:]
            if inc.Q[(i, j)] * inc.Q[(k, l)] * dmax_global >= inc.eps)
        K_inc = inc.update(D)
        assert inc.last_quartets <= survive_global
        _, K_ref = direct.build(D, want_j=False)
        assert np.abs(K_inc - K_ref).max() < 1e-7
    assert inc.last_quartets == 0
    assert inc.savings > 0.0


def _screen_oracle(inc, dmax):
    """The per-quartet increment screen the engine ran before it shared
    the direct builder's vectorized one: surviving ket lists plus the
    computed and skipped counts."""
    keys = inc.full._keys
    surviving, computed, skipped = [], 0, 0
    for a, (i, j) in enumerate(keys):
        qa = inc.Q[(i, j)]
        kept = []
        for (k, l) in keys[a:]:
            bound = qa * inc.Q[(k, l)]
            dloc = max(dmax[j, l], dmax[j, k], dmax[i, l], dmax[i, k])
            if bound * dloc < inc.eps:
                skipped += 1
                continue
            kept.append((k, l))
        if kept:
            surviving.append((i, j, np.asarray(kept, dtype=np.int64)))
            computed += len(kept)
    return surviving, computed, skipped


@pytest.mark.parametrize("builder", ["water", "li2o2",
                                     "propylene_carbonate"])
def test_increment_screen_equals_the_per_quartet_loop(builder):
    """The increment screen is the direct builder's, fed per-block
    ``max|dD|``: the same survivors, in the same order, with the same
    computed/skipped counts as the per-quartet loop, at three |dD|
    scales spanning keep-all to skip-most."""
    basis = build_basis(getattr(builders, builder)())
    inc = IncrementalExchange(basis, eps=1e-10, rebuild_every=100)
    rng = np.random.default_rng(7)
    shape = (basis.nbf, basis.nbf)
    # block maxima spread over six decades, so the four-block bound and
    # the global one disagree on many quartets
    base = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 0, size=shape)
    base = base + base.T
    kept = []
    for scale in (1.0, 1e-4, 1e-8):
        dmax = inc._block_max(scale * base)
        ref, computed, skipped = _screen_oracle(inc, dmax)
        got = inc.full._screened_pairs(dmax)
        assert [(i, j) for i, j, _ in got] == [(i, j) for i, j, _ in ref]
        assert all(np.array_equal(a[2], b[2]) for a, b in zip(got, ref))
        assert sum(len(kets) for _, _, kets in got) == computed
        assert inc.full.quartets_total - computed == skipped
        kept.append(computed)
    assert kept[0] > kept[1] > kept[2]
    # update() books the same counts (the smallest increment keeps the
    # quartet evaluation cheap)
    inc.builds = 1                          # an increment, not a rebuild
    inc.update(inc.D_ref + scale * base)
    assert inc.last_quartets == computed
    assert inc.total_quartets_full == computed + skipped


def test_survival_model_monotone_in_delta():
    q = np.geomspace(1e-6, 1.0, 200)
    s_big, tot = incremental_survival(q, eps=1e-8, delta=1.0)
    s_small, _ = incremental_survival(q, eps=1e-8, delta=1e-4)
    assert s_small < s_big <= tot


def test_survival_model_limits():
    q = np.array([1.0, 0.5])
    s, tot = incremental_survival(q, eps=1e-12, delta=1.0)
    assert s == tot == 3
    s, _ = incremental_survival(q, eps=10.0, delta=1e-9)
    assert s == 0
    s, tot = incremental_survival(q, eps=1e-8, delta=0.0)
    assert s == 0
