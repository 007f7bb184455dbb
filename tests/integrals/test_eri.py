"""Tests for the two-electron integral engine.

The H2/STO-3G values are the canonical Szabo-Ostlund references; the
8-fold symmetry and positivity checks are structural invariants every
quartet must satisfy.
"""

import numpy as np

from repro.basis import build_basis
from repro.chem import builders
from repro.integrals import ERIEngine, eri_quartet, eri_tensor
from repro.basis.shellpair import build_shell_pairs


def test_h2_sto3g_reference_values(h2_basis):
    eri = eri_tensor(h2_basis)
    assert np.isclose(eri[0, 0, 0, 0], 0.7746, atol=1e-4)
    assert np.isclose(eri[0, 0, 1, 1], 0.5697, atol=1e-3)
    assert np.isclose(eri[1, 0, 0, 0], 0.4441, atol=1e-3)
    assert np.isclose(eri[1, 0, 1, 0], 0.2970, atol=1e-3)


def test_eightfold_symmetry(water_eri):
    eri = water_eri
    rng = np.random.default_rng(0)
    n = eri.shape[0]
    for _ in range(60):
        p, q, r, s = rng.integers(0, n, size=4)
        v = eri[p, q, r, s]
        assert np.isclose(eri[q, p, r, s], v, atol=1e-12)
        assert np.isclose(eri[p, q, s, r], v, atol=1e-12)
        assert np.isclose(eri[r, s, p, q], v, atol=1e-12)
        assert np.isclose(eri[s, r, q, p], v, atol=1e-12)


def test_diagonal_positivity(water_eri):
    # (pq|pq) >= 0 — required for Cauchy-Schwarz to make sense
    n = water_eri.shape[0]
    for p in range(n):
        for q in range(n):
            assert water_eri[p, q, p, q] >= -1e-12


def test_cauchy_schwarz_bound_holds(water_eri):
    n = water_eri.shape[0]
    Q = np.sqrt(np.maximum(np.einsum("pqpq->pq", water_eri), 0.0))
    rng = np.random.default_rng(1)
    for _ in range(100):
        p, q, r, s = rng.integers(0, n, size=4)
        assert abs(water_eri[p, q, r, s]) <= Q[p, q] * Q[r, s] + 1e-10


def test_two_s_gaussians_closed_form():
    """(ss|ss) for two unit-exponent s Gaussians on the same center:
    (ss|ss) = sqrt(2/pi)*... known closed form 2*sqrt(2/pi)*sqrt(a/2)
    — validate against the Boys-based result via a direct formula."""
    from repro.basis.shell import Shell
    from repro.basis.shellpair import ShellPair

    a = 1.0
    sh = Shell(0, np.array([a]), np.array([1.0]), np.zeros(3))
    pair = ShellPair(sh, sh, 0, 0)
    val = eri_quartet(pair, pair)[0, 0, 0, 0]
    # (ss|ss) = sqrt(2) * (2a/pi)^... for normalized 1s Gaussian:
    # <1/r12> = 2 sqrt(p_bra p_ket / (p_bra + p_ket) / pi) * ...
    # closed form: sqrt(4a / pi) * sqrt(2)/2 * 2/sqrt(2) -> use direct:
    p = 2 * a
    expected = 2.0 * np.sqrt(p * p / (p + p) / np.pi)
    assert np.isclose(val, expected, rtol=1e-10)


def test_screened_tensor_matches_unscreened(water_basis):
    full = eri_tensor(water_basis, screen=0.0)
    scr = eri_tensor(water_basis, screen=1e-12)
    assert np.allclose(full, scr, atol=1e-10)


def test_screening_drops_work():
    mol = builders.water_cluster(2, seed=1)
    b = build_basis(mol)
    # a loose screen must compute strictly fewer quartets
    n_all = _count_quartets(b, 0.0)
    n_scr = _count_quartets(b, 1e-4)
    assert n_scr < n_all


def _count_quartets(basis, screen):
    eng = ERIEngine(basis)
    Q = eng.schwarz_bounds()
    keys = sorted(basis.shell_pairs())
    count = 0
    for a, ka in enumerate(keys):
        for kb in keys[a:]:
            if screen > 0 and Q[ka] * Q[kb] < screen:
                continue
            count += 1
    return count


def test_quartet_block_shapes(water_basis):
    eng = ERIEngine(water_basis)
    # (s s | s p) block
    blk = eng.quartet(0, 0, 0, 2)
    assert blk.shape == (1, 1, 1, 3)
    blk = eng.quartet(2, 2, 2, 2)
    assert blk.shape == (3, 3, 3, 3)


def test_engine_counts_quartets(water_basis):
    eng = ERIEngine(water_basis)
    assert eng.quartets_computed == 0
    eng.quartet(0, 0, 0, 0)
    eng.quartet(0, 1, 0, 1)
    assert eng.quartets_computed == 2


def test_engine_counts_screening_separately():
    """Schwarz-bound quartets are tallied on their own counter so build
    statistics stay comparable to the task list's surviving count — and
    only by the one engine that actually evaluated them: the bound table
    is cached on the basis object, so every later engine (SCF rebuilds,
    forked pool workers) reads it for free."""
    basis = build_basis(builders.water(), "sto-3g")
    eng = ERIEngine(basis)
    eng.schwarz_bounds()
    assert eng.quartets_screening == len(basis.shell_pairs())
    assert eng.quartets_computed == 0
    eng.schwarz_bounds()   # cached on the engine: no re-evaluation
    assert eng.quartets_screening == len(basis.shell_pairs())
    second = ERIEngine(basis)
    bounds = second.schwarz_bounds()   # cached on the basis
    assert second.quartets_screening == 0
    assert bounds == eng.schwarz_bounds()


def test_pair_lookup_orders_indices(water_basis):
    eng = ERIEngine(water_basis)
    assert eng.pair(3, 1) is eng.pair(1, 3)
