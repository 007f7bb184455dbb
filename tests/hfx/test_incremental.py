"""Tests for incremental (density-difference) exchange builds."""

import numpy as np
import pytest

from repro.basis import build_basis
from repro.chem import builders
from repro.hfx.incremental import IncrementalExchange, incremental_survival
from repro.runtime import ExecutionConfig
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


def test_incremental_skips_work_late_in_scf():
    """Late iterations (tiny dD) compute far fewer quartets.  (H2O)2 at
    the default threshold and cadence: water alone is too compact for
    the increment screen to drop anything at ``eps / REBUILD_EVERY``,
    and 13 densities stay short of the first rebuild."""
    mol = builders.water_cluster(2)
    res = RHF(mol, conv_tol=1e-10).run()
    from repro.scf.guess import core_guess

    D0, _, _ = core_guess(res.hcore, res.S, mol.nelectron // 2)
    inc = IncrementalExchange(res.basis)
    counts = []
    for k in range(13):
        inc.update(res.D + (D0 - res.D) * (0.1 ** k))
        counts.append(inc.last_quartets)
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
    per-shell-pair ``max|dD|`` over the six density blocks the J and K
    contractions touch — not the global ``max|dD|``.  A correct
    per-pair screen skips at least as much as a global-max screen at
    the same threshold would (the local bound is never larger), while
    staying within the error budget; cross-check both properties
    against a direct build at threshold 1e-10.
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
            if inc.Q[(i, j)] * inc.Q[(k, l)] * dmax_global
            >= (inc.increment_eps if inc.builds else inc.eps))
        K_inc = inc.update(D)
        assert inc.last_quartets <= survive_global
        _, K_ref = direct.build(D, want_j=False)
        assert np.abs(K_inc - K_ref).max() < 1e-7
    assert inc.last_quartets == 0
    assert inc.savings > 0.0


def _screen_oracle(inc, dmax, eps):
    """The per-quartet increment screen: surviving ket lists plus the
    computed and skipped counts.  A quartet is bounded by the six
    density blocks its J (``(k,l)``, ``(i,j)``) and K (``(j,l)``,
    ``(j,k)``, ``(i,l)``, ``(i,k)``) contractions touch."""
    keys = inc._keys
    surviving, computed, skipped = [], 0, 0
    for a, (i, j) in enumerate(keys):
        qa = inc.Q[(i, j)]
        kept = []
        for (k, l) in keys[a:]:
            bound = qa * inc.Q[(k, l)]
            dloc = max(dmax[j, l], dmax[j, k], dmax[i, l], dmax[i, k],
                       dmax[k, l], dmax[i, j])
            if bound * dloc < eps:
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
    ``max|dD|`` and the increment threshold: the same survivors, in the
    same order, with the same computed/skipped counts as the
    per-quartet loop, at three |dD| scales spanning keep-all to
    skip-most."""
    basis = build_basis(getattr(builders, builder)())
    inc = IncrementalExchange(basis, eps=1e-10, rebuild_every=100)
    eps = inc.increment_eps
    rng = np.random.default_rng(7)
    shape = (basis.nbf, basis.nbf)
    # block maxima spread over six decades, so the six-block bound and
    # the global one disagree on many quartets
    base = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 0, size=shape)
    base = base + base.T
    kept = []
    # eps / 100: two decades below the direct builder's threshold
    for scale in (1.0, 1e-6, 1e-10):
        dmax = inc._block_max(scale * base)
        ref, computed, skipped = _screen_oracle(inc, dmax, eps)
        got = inc._screened_pairs(dmax, eps)
        assert [(i, j) for i, j, _ in got] == [(i, j) for i, j, _ in ref]
        assert all(np.array_equal(a[2], b[2]) for a, b in zip(got, ref))
        assert sum(len(kets) for _, _, kets in got) == computed
        assert inc.quartets_total - computed == skipped
        kept.append(computed)
    assert kept[0] > kept[1] > kept[2]
    # update() books the same counts (the smallest increment keeps the
    # quartet evaluation cheap)
    inc.builds = 1                          # an increment, not a rebuild
    inc.update(inc.D_ref + scale * base)
    assert inc.last_quartets == computed
    assert inc.total_quartets_full == computed + skipped


@pytest.mark.parametrize("builder", ["water", "propylene_carbonate"])
def test_block_max_equals_the_loop(builder):
    basis = build_basis(getattr(builders, builder)())
    inc = IncrementalExchange(basis)
    M = np.random.default_rng(3).normal(size=(basis.nbf, basis.nbf))
    slices = basis.shell_slices()
    loop = np.array([[np.abs(M[si, sj]).max() for sj in slices]
                     for si in slices])
    assert np.array_equal(inc._block_max(M), loop)


def _hexes(*mats):
    return [[float(x).hex() for x in m.ravel()] for m in mats]


@pytest.mark.parametrize("kernel", ["quartet", "batched"])
def test_full_builds_are_the_plain_build_bit_for_bit(kernel,
                                                     water_scf_sequence):
    """The first build, every ``rebuild_every``-th build, and J-only /
    K-only builds are ``DirectJKBuilder.build`` to the last bit."""
    basis, densities = water_scf_sequence
    cfg = ExecutionConfig(kernel=kernel)
    inc = IncrementalExchange(basis, rebuild_every=3, config=cfg)
    plain = DirectJKBuilder(basis, config=cfg)
    for n, D in enumerate(densities):
        got = inc.build(D)
        if n % 3 == 0:
            assert _hexes(*got) == _hexes(*plain.build(D))
        assert _hexes(inc.build(D, want_k=False)[0]) == \
            _hexes(plain.build(D, want_k=False)[0])
        assert _hexes(inc.build(D, want_j=False)[1]) == \
            _hexes(plain.build(D, want_j=False)[1])
    assert inc.builds == len(densities)


def test_response_builds_leave_the_history_alone(water_scf_sequence):
    basis, densities = water_scf_sequence
    inc = IncrementalExchange(basis)
    plain = DirectJKBuilder(basis)
    inc.build(densities[0])
    state = (inc.builds, inc.D_ref.copy(), inc.J.copy(), inc.K.copy())
    d = densities[1] - densities[0]
    assert _hexes(*inc.build_response(d)) == _hexes(*plain.build(d))
    assert inc.builds == state[0]
    for got, want in zip((inc.D_ref, inc.J, inc.K), state[1:]):
        assert np.array_equal(got, want)


def test_reset_keeps_savings_totals():
    """``reset`` drops the history; the cumulative quartet totals
    survive so ``savings`` spans the whole logical run."""
    basis = build_basis(builders.h2(0.74), "sto-3g")
    D = np.eye(basis.nbf)
    kinc = IncrementalExchange(basis)
    kinc.update(D)
    kinc.update(D + 1e-9)          # incremental build: quartets screened out
    total_before = kinc.total_quartets_full
    kinc.reset()
    assert kinc.builds == 0
    assert not kinc.D_ref.any()
    assert not kinc.J.any() and not kinc.K.any()
    assert kinc.total_quartets_full == total_before
    assert np.array_equal(kinc.update(D), kinc.K)


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
