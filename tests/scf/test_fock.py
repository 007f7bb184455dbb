"""Tests for J/K Fock builds: in-core vs direct vs reference."""

import numpy as np
import pytest

from repro.chem import builders
from repro.basis import build_basis
from repro.scf.fock import (DirectJKBuilder, coulomb_from_tensor,
                            eval_screened_pairs, exchange_from_tensor,
                            jk_from_tensor)
from repro.scf.guess import density_from_orbitals


def _random_density(nbf, seed=0):
    rng = np.random.default_rng(seed)
    C = rng.normal(size=(nbf, nbf))
    return density_from_orbitals(np.linalg.qr(C)[0], nbf // 2)


def test_direct_matches_incore_j_and_k(water_basis, water_eri):
    D = _random_density(water_basis.nbf, 3)
    Jt, Kt = jk_from_tensor(water_eri, D)
    Jd, Kd = DirectJKBuilder(water_basis, eps=1e-14).build(D)
    assert np.abs(Jd - Jt).max() < 1e-10
    assert np.abs(Kd - Kt).max() < 1e-10


@pytest.mark.reference
@pytest.mark.parametrize("kernel", ["quartet", "batched"])
@pytest.mark.parametrize("system", ["water", "li2o2"])
def test_both_evaluators_match_the_tensor_oracle(system, kernel):
    """Unscreened, every unique quartet — so every degeneracy pattern
    (``i == j``, ``k == l``, ``(i, j) == (k, l)``) and so every
    degeneracy weight — reaches the four-image accumulation, from
    either block evaluator."""
    from repro.integrals import eri_tensor
    from repro.runtime import ExecutionConfig

    b = build_basis(getattr(builders, system)())
    D = _random_density(b.nbf, 4)
    builder = DirectJKBuilder(b, eps=0.0,
                              config=ExecutionConfig(kernel=kernel))
    idx = np.concatenate(builder._screened_classes(1.0))
    i, j, k, l = idx.T
    patterns = {(bool(a), bool(c), bool(e)) for a, c, e in
                zip(i == j, k == l, (i == k) & (j == l))}
    assert len(patterns) == 6           # all that can occur
    Jt, Kt = jk_from_tensor(eri_tensor(b), D)
    Jd, Kd = builder.build(D)
    assert builder.quartets_computed == len(idx) == builder.quartets_total
    assert np.abs(Jd - Jt).max() < 1e-12
    assert np.abs(Kd - Kt).max() < 1e-12


@pytest.mark.reference
def test_a_class_split_over_two_rank_jobs_is_one_job():
    """The bras split over two rank jobs (as the pool splits them) sum
    to the J and K of one job owning every bra, within 1e-14: the
    accumulation is linear in the quartet list."""
    from repro.runtime.pool import RankJob, own_bras

    b = build_basis(builders.water_cluster(2))
    nsh = b.nshell
    D = _random_density(b.nbf, 6)
    builder = DirectJKBuilder(b)
    dmax = float(np.abs(D).max())
    classes = builder._screened_classes(dmax)
    bras = [c[:, 0] * nsh + c[:, 1] for c in classes]
    rank_of_bra, _ = own_bras(sum(np.bincount(x, minlength=nsh * nsh)
                                  for x in bras), 2)
    # some class has rows in both jobs
    assert any(len(set(rank_of_bra[x])) == 2 for x in bras)
    args = (True, True, builder.kernel, (dmax, builder.eps))
    whole, nq = builder.lease.map(
        eval_screened_pairs,
        lambda pool: [RankJob(0, np.ones(nsh * nsh, dtype=bool))],
        builder.engine, D, args)
    parts, nq_parts = builder.lease.map(
        eval_screened_pairs,
        lambda pool: [RankJob(w, rank_of_bra == w) for w in (0, 1)],
        builder.engine, D, args)
    # no row is lost or repeated
    assert nq == nq_parts == sum(len(c) for c in classes)
    for m in (0, 1):
        assert np.abs(parts[0][m] + parts[1][m] - whole[0][m]).max() < 1e-14


def test_direct_jk_symmetric(water_basis):
    D = _random_density(water_basis.nbf, 5)
    J, K = DirectJKBuilder(water_basis, eps=1e-12).build(D)
    assert np.allclose(J, J.T, atol=1e-10)
    assert np.allclose(K, K.T, atol=1e-10)


def test_screening_reduces_quartets():
    # a spread-out cluster has genuinely negligible quartets to drop
    b = build_basis(builders.water_cluster(2, seed=1))
    D = _random_density(b.nbf, 2)
    tight = DirectJKBuilder(b, eps=1e-14)
    loose = DirectJKBuilder(b, eps=1e-4)
    tight.build(D)
    loose.build(D)
    assert loose.quartets_computed < tight.quartets_computed
    assert loose.quartets_total == tight.quartets_total


def test_loose_screening_error_bounded(water_basis, water_eri):
    D = _random_density(water_basis.nbf, 7)
    _, Kt = jk_from_tensor(water_eri, D)
    eps = 1e-5
    _, Kd = DirectJKBuilder(water_basis, eps=eps).build(D)
    # error per element bounded by eps times a modest workload factor
    assert np.abs(Kd - Kt).max() < eps * 50


def test_exchange_energy_sign(water_rhf, water_basis):
    b = DirectJKBuilder(water_basis, eps=1e-12)
    ex = b.exchange_energy(water_rhf.D)
    assert ex < 0  # exchange is stabilizing
    # water STO-3G exchange energy ~ -8.9 Ha
    assert -12 < ex < -5


def test_j_k_contraction_definitions(water_eri):
    """J and K agree with explicit loops on a tiny random density."""
    n = water_eri.shape[0]
    rng = np.random.default_rng(11)
    D = rng.normal(size=(n, n))
    D = D + D.T
    J = coulomb_from_tensor(water_eri, D)
    K = exchange_from_tensor(water_eri, D)
    p, q = 2, 4
    jref = sum(water_eri[p, q, r, s] * D[r, s]
               for r in range(n) for s in range(n))
    kref = sum(water_eri[p, r, q, s] * D[r, s]
               for r in range(n) for s in range(n))
    assert np.isclose(J[p, q], jref)
    assert np.isclose(K[p, q], kref)


def test_an_incore_k_build_does_not_copy_the_tensor():
    """K contracts the tensor's strided ``(pr|qs)`` view as it lies: one
    build on (H2O)4's 4.9 MB tensor allocates under 1 % of it (an
    optimized ``einsum`` path first copied the whole tensor)."""
    import tracemalloc

    from repro.integrals import eri_tensor

    b = build_basis(builders.water_cluster(4))
    eri = eri_tensor(b)
    D = _random_density(b.nbf, 5)
    K = exchange_from_tensor(eri, D)
    tracemalloc.start()
    try:
        again = exchange_from_tensor(eri, D)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(again, K)
    assert peak < 0.01 * eri.nbytes
    # the same contraction as the explicit sum, to rounding
    assert np.abs(K - np.einsum("prqs,rs->pq", eri, D, optimize=True)).max() \
        < 1e-12


def test_hetero_molecule_direct_consistency():
    """LiH exercises s+p shells on different centers."""
    from repro.integrals import eri_tensor

    b = build_basis(builders.lih())
    eri = eri_tensor(b)
    D = _random_density(b.nbf, 9)
    Jt, Kt = jk_from_tensor(eri, D)
    Jd, Kd = DirectJKBuilder(b, eps=1e-14).build(D)
    assert np.abs(Jd - Jt).max() < 1e-10
    assert np.abs(Kd - Kt).max() < 1e-10
