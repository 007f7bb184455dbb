"""The pair-class one-electron route and the whole-class derivative walk
against the per-pair code they replaced (``oneelectron_oracle``) and
against their own memory budget.

* Stacked E tables, weights, product centres and Hermite lambdas are
  ``np.array_equal`` to the per-pair :class:`ShellPair` ones, and the
  auxiliary (ghost) classes' to the per-shell ``AuxShellPair`` oracle.
* S, T, V, the dipole operators and the one-electron gradient are within
  1e-13 of the per-pair oracle on water, Li2O2, PC and the PC . Li2O2
  contact complex.
* The derivative walk's chunking only moves chunk boundaries: one
  quartet per chunk gives the whole-class walk's gradient to 1e-14.
* The tensor walk and the derivative walk stay within the one walk
  budget ``WALK_SCRATCH``, and the derivative walk's peak does not grow
  with its quartet count: one screen chunk rides on top of the budget.
"""

import tracemalloc

import numpy as np
import pytest

from repro.basis import build_aux_basis, build_basis
from repro.chem import builders
from repro.integrals import (DerivativePairs, PairClasses, dipole_matrices,
                             eri_tensor, kinetic_matrix, nuclear_matrix,
                             overlap_matrix, pair_classes)
from repro.integrals.batch import WALK_SCRATCH
from repro.integrals.mcmurchie import hermite_e
from repro.integrals.pairclass import _SCREEN_SCRATCH
from repro.liair import get_solvent
from repro.liair.complexes import attack_complex
from repro.scf import run_rhf
from repro.scf.gradient import (_SCREEN_EPS, _one_electron_gradient,
                                _two_electron_gradient)
from repro.scf.guess import core_guess

from . import oneelectron_oracle as oracle
from .auxpair_oracle import aux_pairs

pytestmark = pytest.mark.reference

MOLS = {"water": builders.water, "li2o2": builders.li2o2,
        "pc": builders.propylene_carbonate,
        "contact": lambda: attack_complex(get_solvent("PC"), 2.2, "li2o2")}


@pytest.fixture(scope="module", params=sorted(MOLS))
def basis(request):
    return build_basis(MOLS[request.param]())


def test_stacked_tables_are_the_per_pair_bits(basis):
    """Both pair tables of a geometry: the orbital classes against the
    :class:`ShellPair` objects of the per-quartet reference, and the
    auxiliary (ghost) classes of its fitting basis against the
    per-shell :class:`AuxShellPair` oracle — exponents, product centres
    and Hermite lambdas, ``np.array_equal``."""
    table = pair_classes(basis)
    pairs = basis.shell_pairs()
    for cls in table:
        lam = cls.lam()
        for row, (i, j) in enumerate(cls.ij.tolist()):
            pair = pairs[i, j]
            A, B = pair.sha.center, pair.shb.center
            for d in range(3):
                E = hermite_e(pair.sha.l, pair.shb.l, pair.a, pair.b,
                              float(A[d] - B[d]))
                assert np.array_equal(
                    cls.E[d][row, :cls.la + 1, :cls.lb + 1, :E.shape[2]], E)
            assert np.array_equal(cls.W[row], pair.W)
            assert np.array_equal(cls.P[row], pair.P)
            assert np.array_equal(cls.p[row], pair.p)
            assert np.array_equal(lam[row], pair.hermite_lambda()[1])
    aux = build_aux_basis(basis)
    apairs = aux_pairs(aux)
    rows = 0
    for cls in pair_classes(aux, ghost=True):
        lam = cls.lam()
        for row, i in enumerate(cls.ij[:, 0].tolist()):
            pair = apairs[i]
            assert np.array_equal(cls.p[row], pair.p)
            assert np.array_equal(cls.P[row], pair.P)
            assert np.array_equal(lam[row], pair.hermite_lambda()[1])
            rows += 1
    assert rows == aux.nshell


def _core_state(basis):
    """A physical closed-shell density and energy-weighted density: the
    core-Hamiltonian guess."""
    S = oracle.overlap_matrix(basis)
    h = oracle.kinetic_matrix(basis) + oracle.nuclear_matrix(basis)
    nocc = int(basis.molecule.numbers.sum()) // 2
    D, C, eps = core_guess(h, S, nocc)
    W = 2.0 * (C[:, :nocc] * eps[:nocc]) @ C[:, :nocc].T
    return D, W


def test_one_electron_integrals_match_the_per_pair_oracle(basis):
    for got, want in ((overlap_matrix, oracle.overlap_matrix),
                      (kinetic_matrix, oracle.kinetic_matrix),
                      (nuclear_matrix, oracle.nuclear_matrix)):
        assert np.abs(got(basis) - want(basis)).max() < 1e-13, got.__name__
    origin = np.array([0.3, -0.2, 0.5])
    assert np.abs(dipole_matrices(basis, origin)
                  - oracle.dipole_matrices(basis, origin)).max() < 1e-13
    D, W = _core_state(basis)
    g = _one_electron_gradient(basis, D, W, DerivativePairs(
        basis.shells, pair_classes(basis)))
    assert np.abs(g - oracle.one_electron_gradient(basis, D, W)).max() \
        < 1e-13


def test_derivative_lambdas_match_the_raised_and_lowered_pairs():
    basis = build_basis(builders.li2o2())
    table = DerivativePairs(basis.shells)
    for (i, j) in basis.shell_pairs():
        for side in (0, 1):
            want = oracle.derivative_lambda(basis.shells[i], basis.shells[j],
                                            side)
            assert np.abs(table.lam(i, j, side) - want).max() \
                < 1e-13 * np.abs(want).max()


def test_pair_classes_hold_every_pair_once_and_follow_the_shells():
    shells = build_basis(builders.water()).shells
    table = PairClasses(shells)
    seen = np.zeros((len(shells),) * 2, dtype=int)
    for c, cls in enumerate(table):
        i, j = cls.ij.T
        seen[i, j] += 1
        assert (table.cid[i, j] == c).all()
        assert (table.row[i, j] == np.arange(len(cls))).all()
        kinds = {(shells[a].l, shells[a].nprim, shells[b].l, shells[b].nprim)
                 for a, b in cls.ij.tolist()}
        assert len(kinds) == 1
    assert np.array_equal(seen, np.triu(np.ones_like(seen)))


@pytest.fixture(scope="module")
def li2o2_state():
    res = run_rhf(builders.li2o2(), conv_tol=1e-9)
    return res.basis, res.D


def test_one_quartet_chunks_give_the_whole_class_gradient(li2o2_state,
                                                         monkeypatch):
    """The budgets only move chunk boundaries: the Hermite stage is
    elementwise and each quartet's contraction its own GEMM, and a
    screen chunk of one bra row keeps the quartets a whole block does."""
    basis, D = li2o2_state
    whole, stats = _two_electron_gradient(
        basis, D, 0.25, _SCREEN_EPS, DerivativePairs(basis.shells))
    monkeypatch.setattr("repro.integrals.pairclass._SCREEN_SCRATCH", 1)
    rowwise, rows = _two_electron_gradient(
        basis, D, 0.25, _SCREEN_EPS, DerivativePairs(basis.shells))
    assert np.abs(rowwise - whole).max() <= 1e-14
    assert rows["quartets"] == stats["quartets"]
    assert rows["skipped_by_symmetry"] == stats["skipped_by_symmetry"]
    monkeypatch.setattr("repro.scf.gradient.WALK_SCRATCH", 1)
    single, one = _two_electron_gradient(
        basis, D, 0.25, _SCREEN_EPS, DerivativePairs(basis.shells))
    assert np.abs(single - whole).max() <= 1e-14
    assert one["class_batches"] == one["quartets"] == stats["quartets"]
    assert stats["class_batches"] < stats["quartets"] // 10


#: What a walk may hold beyond its output at peak, in bytes: the R stage
#: is counted against ``WALK_SCRATCH`` doubles as ``MAX_BATCH_ELEMENTS``
#: counts it, and the lambda stage's Hermite gathers ride on top of it.
WALK_PEAK = 3 * 8 * WALK_SCRATCH // 2


def _peak(fn):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_the_walks_stay_within_the_walk_budget(li2o2_state):
    basis, D = li2o2_state
    table = DerivativePairs(basis.shells, pair_classes(basis))
    # the tables a walk reads (shell pairs, Schwarz bounds, pair-class
    # lambdas) are built first: they are per-geometry state, not scratch
    _two_electron_gradient(basis, D, 0.25, _SCREEN_EPS, table)
    (grad, stats), peak = _peak(lambda: _two_electron_gradient(
        basis, D, 0.25, _SCREEN_EPS, table))
    assert stats["class_batches"] > 1
    assert peak <= WALK_PEAK
    eri, peak = _peak(lambda: eri_tensor(basis))
    assert eri.nbytes < peak <= eri.nbytes + WALK_PEAK


#: What one screen chunk of the block walk holds between chunks, in
#: bytes: its ``Q_ij Q_kl`` grid and two masks (10 bytes a cell) and the
#: bra and ket rows it keeps (16 bytes a survivor, at most one a cell).
CHUNK_PEAK = 26 * _SCREEN_SCRATCH


def test_the_derivative_walk_does_not_grow_with_its_quartets():
    """On (H2O)5 at a dense random density (~44 000 quartets survive)
    the derivative walk holds one Hermite chunk and one screen chunk, not
    a list of its quartets: lists of every unique and every surviving
    quartet, sorted into classes, peaked at ~10 MB here."""
    basis = build_basis(builders.water_cluster(5))
    A = np.random.default_rng(0).standard_normal((basis.nbf,) * 2)
    D = A + A.T
    table = DerivativePairs(basis.shells, pair_classes(basis))
    # per-geometry tables first, as the Li2O2 walk test builds them
    _two_electron_gradient(basis, D, 0.25, _SCREEN_EPS, table)
    (grad, stats), peak = _peak(lambda: _two_electron_gradient(
        basis, D, 0.25, _SCREEN_EPS, table))
    assert stats["quartets"] > 40_000
    assert peak <= WALK_PEAK + CHUNK_PEAK


def _no_shell_pair_table(run):
    """Build a fresh water basis, hand it to ``run`` and check that no
    ``ShellPair`` table was built on it: the pair classes feed every
    walk but the per-quartet reference (``kernel="quartet"``)."""
    basis = build_basis(builders.water())
    run(basis)
    assert "_pairclass_cache" in basis.__dict__
    assert "_pairs_cache" not in basis.__dict__


def test_no_walk_but_the_reference_builds_the_shell_pair_table():
    from repro.md.bomd import SCFForceEngine
    from repro.runtime.execconfig import ExecutionConfig
    from repro.scf import RHF

    mol = builders.water()
    # in-core HF: the tensor walk and its Schwarz bounds
    _no_shell_pair_table(lambda b: RHF(mol, b, mode="incore").run())
    # the batched direct walk, in-process and on a two-worker pool
    for cfg in (ExecutionConfig(kernel="batched"),
                ExecutionConfig(kernel="batched", executor="process",
                                nworkers=2)):
        _no_shell_pair_table(lambda b: RHF(mol, b, mode="direct",
                                           config=cfg).run())
    # density fitting: orbital and auxiliary Schwarz, metric, 3-index slab
    _no_shell_pair_table(
        lambda b: RHF(mol, b, config=ExecutionConfig(jk="ri")).run())
    # an analytic PBE0 force call: SCF, one- and two-electron gradient
    engine = SCFForceEngine(mol, method="pbe0")
    assert engine.analytic
    engine.energy_forces(mol.coords)
    assert "_pairs_cache" not in engine.last_result.basis.__dict__
    # the per-quartet reference kernel is what builds it
    basis = build_basis(mol)
    RHF(mol, basis, mode="direct").run()
    assert "_pairs_cache" in basis.__dict__
