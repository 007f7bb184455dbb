"""Tests for incremental (density-difference) exchange builds."""

import numpy as np
import pytest

import repro.integrals.pairclass as pairclass
from repro.basis import build_basis
from repro.chem import builders
from repro.hfx.incremental import IncrementalExchange, incremental_survival
from repro.runtime import NULL_TRACER, ExecutionConfig
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
    keys = sorted(basis.shell_pairs())
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
    """The per-quartet screen: surviving ``(i, j, k, l)`` quartets plus
    the computed and skipped counts.  A float ``dmax`` is the full
    build's bound ``max(dmax, 1)``; a table is the increment screen's,
    where a quartet is bounded by the six density blocks its J
    (``(k,l)``, ``(i,j)``) and K (``(j,l)``, ``(j,k)``, ``(i,l)``,
    ``(i,k)``) contractions touch."""
    keys = sorted(inc.basis.shell_pairs())
    surviving, computed, skipped = [], 0, 0
    for a, (i, j) in enumerate(keys):
        qa = inc.Q[(i, j)]
        for (k, l) in keys[a:]:
            bound = qa * inc.Q[(k, l)]
            dloc = max(dmax, 1.0) if np.ndim(dmax) == 0 else max(
                dmax[j, l], dmax[j, k], dmax[i, l], dmax[i, k],
                dmax[k, l], dmax[i, j])
            if bound * dloc < eps:
                skipped += 1
                continue
            surviving.append((i, j, k, l))
            computed += 1
    return surviving, computed, skipped


def _expand(builder, item):
    """The ``(nq, 4)`` quartets of one item of the rank walk: a list, or
    the rows of a held cut that its keep mask marks."""
    import repro.scf.fock as fock

    blk, keep, cls = item
    if blk is None:
        return cls
    key = next(k for k, b in builder.engine.store.items() if b is blk)
    sides = {side.cid: side
             for side in pairclass._pair_walk(builder.engine)}
    bra, ket = sides[key[0]], sides[key[1]]
    r, c, _, _ = fock._cells(bra, ket, blk.served, blk.tau)
    rows = np.hstack([bra.ij[r], ket.ij[c]])
    return rows if keep is None else rows[keep]


@pytest.mark.reference
@pytest.mark.parametrize("builder", ["water", "li2o2",
                                     "propylene_carbonate"])
def test_increment_screen_equals_the_per_quartet_loop(builder,
                                                     monkeypatch):
    """The class-first screen keeps exactly the per-quartet loop's
    quartets, with the same computed/skipped counts: fed per-block
    ``max|dD|`` and the increment threshold at three |dD| scales
    spanning keep-all to skip-most, and fed the global ``max|D|`` at the
    full build's threshold.  Each class array is one L-class, its rows
    in bra-major order, and a scratch cap that splits every block into
    one-row chunks returns the same arrays.  The mask form — a warm
    class store's cuts, extended where they must grow and screened as
    keep masks — keeps the same arrays, block by block and row by
    row."""
    import repro.scf.fock as fock
    basis = build_basis(getattr(builders, builder)())
    inc = IncrementalExchange(basis, eps=1e-10, rebuild_every=100)
    warm = IncrementalExchange(basis, eps=1e-10, rebuild_every=100,
                               config=ExecutionConfig(kernel="batched"))
    eps = inc.increment_eps
    rng = np.random.default_rng(7)
    shape = (basis.nbf, basis.nbf)
    # block maxima spread over six decades, so the six-block bound and
    # the global one disagree on many quartets
    base = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 0, size=shape)
    base = base + base.T
    warm.build(base)                    # fills the class store
    kind = [(sh.l, sh.nprim) for sh in basis.shells]
    nsh = basis.nshell
    kept = []
    # eps / 100: two decades below the direct builder's threshold
    for dmax, thresh in [(inc._block_max(scale * base), eps)
                         for scale in (1.0, 1e-6, 1e-10)] \
            + [(float(np.abs(base).max()), inc.eps)]:
        ref, computed, skipped = _screen_oracle(inc, dmax, thresh)
        got = inc._screened_classes(dmax, thresh)
        with monkeypatch.context() as m:
            m.setattr(pairclass, "_SCREEN_SCRATCH", 1)
            chunked = inc._screened_classes(dmax, thresh)
        assert len(chunked) == len(got)
        assert all(np.array_equal(a, b) for a, b in zip(chunked, got))
        masked = [_expand(warm, item) for item in fock._rank_walk(
            warm.engine, basis, np.ones(nsh * nsh, dtype=bool), dmax,
            thresh, "batched", NULL_TRACER)]
        assert len(masked) == len(got)
        assert all(np.array_equal(a, b) for a, b in zip(masked, got))
        rows = [tuple(q) for cls in got for q in cls.tolist()]
        assert sorted(rows) == sorted(ref)
        assert len(rows) == computed
        assert inc.quartets_total - computed == skipped
        for cls in got:
            assert len({tuple(kind[s] for s in q) for q in cls.tolist()}) == 1
            bra = cls[:, 0] * nsh + cls[:, 1]
            ket = cls[:, 2] * nsh + cls[:, 3]
            assert np.all(np.lexsort((ket, bra)) == np.arange(len(cls)))
        kept.append(computed)
    assert kept[0] > kept[1] > kept[2]
    # update() books the same counts (the smallest increment keeps the
    # quartet evaluation cheap)
    inc.builds = 1                          # an increment, not a rebuild
    inc.update(inc.D_ref + 1e-10 * base)
    ref, computed, skipped = _screen_oracle(
        inc, inc._block_max(1e-10 * base), eps)
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
