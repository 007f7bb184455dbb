"""The per-geometry set-up tables against the loops and the
factorisation they replaced, which live on here as oracles.

* Schwarz diagonals: one class batch per pair class
  (``schwarz_diagonals``) == one ``eri_quartet(pair, pair)`` per pair,
  for orbital pairs (the reference's ``ShellPair``) and auxiliary shells
  (the ``AuxShellPair`` oracle) — ``np.array_equal``.
* Metric: one fancy write per class triangle == the per-quartet scatter.
* Fit: ``B = L^-1 P^T T`` (pivoted Cholesky) gives the J, K and
  ``B^T B`` of ``B = V^{-1/2} T`` (eigenvalue-trimmed), also when the
  metric is exactly singular.
* Scratch: each of the three stays under its ``tracemalloc`` ceiling.
"""

import tracemalloc

import numpy as np
import pytest

from repro.basis import BasisSet, build_aux_basis, build_basis
from repro.chem import builders
from repro.integrals import ERIEngine, eri_quartet
from repro.integrals.batch import SETUP_SCRATCH, _eri_class_batch
from repro.integrals.pairclass import pair_classes
from repro.integrals.ri import (aux_schwarz_bounds, cholesky_fit,
                                inv_sqrt_metric, metric_2c,
                                three_center_slab)
from repro.integrals.schwarz import schwarz_bounds, schwarz_diagonals
from repro.scf.ri_jk import RIJKBuilder

from .auxpair_oracle import aux_pairs

pytestmark = [pytest.mark.ri, pytest.mark.reference]

MOLS = ("water", "lih", "li2o2", "propylene_carbonate")


def per_pair_schwarz(pairs) -> np.ndarray:
    """The three per-pair loops ``schwarz_diagonals`` replaced."""
    out = []
    for pr in pairs:
        block = eri_quartet(pr, pr)
        n = block.shape[0] * block.shape[1]
        out.append(float(np.sqrt(np.abs(block.reshape(n, n).diagonal())
                                 .max())))
    return np.array(out)


def per_quartet_metric(aux) -> np.ndarray:
    """``metric_2c`` as it was: the same class batches, scattered one
    quartet at a time."""
    slices = aux.shell_slices()
    V = np.zeros((aux.nbf, aux.nbf))
    classes = pair_classes(aux, ghost=True).by_signature()
    for a, ca in enumerate(classes):
        ia = ca.ij[:, 0].tolist()
        for cb in classes[a:]:
            ib = cb.ij[:, 0].tolist()
            sel = [(x, y) for x in range(len(ia)) for y in range(len(ib))
                   if ca is not cb or ia[x] <= ib[y]]
            bra_ids = np.array([x for x, _ in sel], dtype=np.int64)
            ket_ids = np.array([y for _, y in sel], dtype=np.int64)
            blocks = _eri_class_batch(ca, bra_ids, cb, ket_ids)
            for q in range(len(sel)):
                i, j = ia[bra_ids[q]], ib[ket_ids[q]]
                blk = blocks[q, :, 0, :, 0]
                V[slices[i], slices[j]] = blk
                V[slices[j], slices[i]] = blk.T
    return V


@pytest.fixture(scope="module", params=MOLS)
def system(request):
    basis = build_basis(getattr(builders, request.param)())
    return request.param, basis, build_aux_basis(basis)


def test_orbital_schwarz_is_the_per_pair_loop(system):
    _, basis, _ = system
    pairs = basis.shell_pairs()
    oracle = per_pair_schwarz(pairs.values())
    for cls in pair_classes(basis):
        assert np.array_equal(schwarz_diagonals(cls), per_pair_schwarz(
            pairs[i, j] for i, j in cls.ij.tolist()))
    assert list(schwarz_bounds(basis)) == list(pairs)
    assert np.array_equal(list(schwarz_bounds(basis).values()), oracle)
    engine = ERIEngine(build_basis(basis.molecule))
    assert np.array_equal(list(engine.schwarz_bounds().values()), oracle)
    assert engine.quartets_screening == len(pairs)


def test_aux_schwarz_is_the_per_pair_loop(system):
    _, _, aux = system
    assert np.array_equal(aux_schwarz_bounds(aux),
                          per_pair_schwarz(aux_pairs(aux)))


def test_metric_is_the_per_quartet_scatter(system):
    _, _, aux = system
    assert np.array_equal(metric_2c(aux), per_quartet_metric(aux))


def _jk(B, D):
    Bf = B.reshape(len(B), -1)
    J = (Bf.T @ (Bf @ D.ravel())).reshape(D.shape)
    K = np.einsum("Puv,vw,Pwx->ux", B, D, B, optimize=True)
    return J, K


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _density(basis, seed=7):
    """A symmetric positive semidefinite stand-in for an SCF density."""
    C = np.random.default_rng(seed).standard_normal((basis.nbf, 5))
    return C @ C.T / basis.nbf


def _oracle_b(basis, aux, eps):
    T, _ = three_center_slab(basis, aux, range(aux.nshell), eps,
                             engine=ERIEngine(basis))
    return (inv_sqrt_metric(metric_2c(aux)) @ T.reshape(aux.nbf, -1)) \
        .reshape(T.shape)


@pytest.mark.parametrize("name", ["water", "li2o2", "propylene_carbonate"])
def test_cholesky_fit_matches_the_eigen_oracle(name):
    basis = build_basis(getattr(builders, name)())
    builder = RIJKBuilder(basis)
    B = builder.fitted_tensor()
    oracle = _oracle_b(basis, builder.aux, builder.eps)
    assert B.shape == oracle.shape            # full rank: one row per aux
    D = _density(basis)
    for got, want in zip(_jk(B, D), _jk(oracle, D)):
        assert _rel(got, want) < 1e-10
    J, K = builder.build(D)
    assert _rel(J, _jk(oracle, D)[0]) < 1e-10
    assert _rel(K, _jk(oracle, D)[1]) < 1e-10
    Bf, Of = B.reshape(len(B), -1), oracle.reshape(len(oracle), -1)
    assert _rel(Bf.T @ Bf, Of.T @ Of) < 1e-10


def duplicated_aux(basis):
    """The auto-generated auxiliary basis with one shell listed twice:
    an exactly singular metric."""
    aux = build_aux_basis(basis)
    return BasisSet(aux.molecule, aux.name,
                    list(aux.shells) + [aux.shells[1]])


def test_singular_metric_drops_the_duplicate():
    basis = build_basis(builders.water())
    aux = duplicated_aux(basis)
    dup = aux.shells[-1].nfunc
    V = metric_2c(aux)
    assert np.linalg.matrix_rank(V) == aux.nbf - dup
    builder = RIJKBuilder(basis, aux=aux)
    B = builder.fitted_tensor()
    print(f"naux {aux.nbf}, detected rank {len(B)}")
    assert len(B) == aux.nbf - dup, f"rank {len(B)} of {aux.nbf}"
    oracle = _oracle_b(basis, aux, builder.eps)
    D = _density(basis)
    for got, want in zip(_jk(B, D), _jk(oracle, D)):
        assert _rel(got, want) < 1e-10
    Bf, Of = B.reshape(len(B), -1), oracle.reshape(len(oracle), -1)
    assert _rel(Bf.T @ Bf, Of.T @ Of) < 1e-10


# --- scratch ---------------------------------------------------------------


@pytest.fixture(scope="module")
def pc():
    basis = build_basis(builders.propylene_carbonate())
    aux = build_aux_basis(basis)
    classes = list(pair_classes(basis))
    aclasses = list(pair_classes(aux, ghost=True))
    # cached pair expansions and Boys tables are not scratch
    for cls in classes + aclasses:
        schwarz_diagonals(cls)
    metric_2c(aux)
    return basis, aux, classes, aclasses


def _peak(fn):
    """``(result, bytes allocated at peak beyond what was live)``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_schwarz_scratch_stays_under_its_ceiling(pc):
    """At the kernel's default ceiling the (pp|pp) diagonals of
    propylene carbonate alone take ~12 MB of R stage; the class batch's
    own stacks come on top of ``SETUP_SCRATCH``."""
    _, _, classes, aclasses = pc
    for side in (classes, aclasses):
        _, peak = _peak(lambda: [schwarz_diagonals(cls) for cls in side])
        assert peak <= 8 * SETUP_SCRATCH * 5


def test_metric_scratch_stays_under_its_ceiling(pc):
    """Beyond ``V`` itself: one class's blocks and their scatter
    indices, plus an R stage of ``SETUP_SCRATCH`` (unchunked, the (f|f)
    class alone is ~12 MB)."""
    _, aux, _, _ = pc
    V, peak = _peak(lambda: metric_2c(aux))
    assert peak - V.nbytes <= 8 * SETUP_SCRATCH * 8


def test_fit_runs_in_place_under_its_ceiling(pc):
    """The factor overwrites the metric and ``B`` overwrites the 3-index
    tensor; the solve gathers one column block at a time (a whole-tensor
    gather is another 13 MB here)."""
    basis, aux, _, _ = pc
    V = metric_2c(aux)
    T, _ = three_center_slab(basis, aux, range(aux.nshell))
    B, peak = _peak(lambda: cholesky_fit(V, T))
    assert np.shares_memory(B, T)
    assert peak <= 8 * SETUP_SCRATCH * 3


# --- one of each under src/ --------------------------------------------------


def _src_trees():
    import ast
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        yield path.relative_to(src).as_posix(), ast.parse(path.read_text())


def _calls(tree, name):
    """``(enclosing function, call)`` for every call of ``name`` (a bare
    name or an attribute) in ``tree``."""
    import ast

    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "id", None) == name or \
                    getattr(f, "attr", None) == name:
                out.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_one_schwarz_routine_one_fit_one_becke_polynomial():
    """The per-pair ``eri_quartet`` loops, the ``eigh`` fit and the
    ``f ** 3`` polynomial stay gone: the reference kernel is called by
    ``ERIEngine.quartet`` only, ``eigh`` runs in ``integrals/ri.py`` only
    inside the ``inv_sqrt_metric`` oracle, and the grid has no cube."""
    import ast

    callers = {(path, func) for path, tree in _src_trees()
               for func in _calls(tree, "eri_quartet")}
    assert callers == {("integrals/eri.py", "quartet")}
    trees = dict(_src_trees())
    assert _calls(trees["integrals/ri.py"], "eigh") == ["inv_sqrt_metric"]
    cubes = [node for node in ast.walk(trees["scf/grid.py"])
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
             and getattr(node.right, "value", None) == 3]
    assert cubes == []
