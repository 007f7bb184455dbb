"""The fitted SCF iteration's contractions against the formulas they
replaced (``contraction_oracle.py``).

* RI-K: one symmetric rank-k product per eigenvalue sign == the
  ``einsum`` half-transform to 1e-13 relative, on an SCF density, a
  signed response density, a density with trimmed eigenvalues and
  ``D = 0``; ``K`` exactly symmetric.
* RI-J: ``np.array_equal`` to the two-GEMV formula.
* Memory: one K build holds one ``(rank, nocc, nbf)`` array, not the
  three the ``einsum`` route held.
* XC: the one-GEMM potential == the three-GEMM one to 1e-13 relative and
  exactly symmetric, with the same ``E_xc``, for LDA, PBE and PBE0.
"""

import tracemalloc

import numpy as np
import pytest

from repro.basis import build_basis
from repro.chem import builders
from repro.runtime import ExecutionConfig
from repro.scf import RHF, RIJKBuilder
from repro.scf.dft import XCIntegrator
from repro.scf.functionals import get_functional
from repro.scf.grid import MolecularGrid
from repro.scf.ri_jk import DENSITY_EIG_CUT

from . import contraction_oracle as oracle

pytestmark = pytest.mark.reference

MOLS = ("water", "li2o2", "propylene_carbonate")


@pytest.fixture(scope="module", params=MOLS)
def fitted(request):
    """``(mol, builder, D)``: a converged RI-RHF density and the builder
    holding its ``B``."""
    mol = getattr(builders, request.param)()
    basis = build_basis(mol)
    builder = RIJKBuilder(basis)
    res = RHF(mol, basis=basis, mode="direct", config=ExecutionConfig(jk="ri"),
              jk_engine=builder, conv_tol=1e-6).run()
    return mol, builder, res.D


def _densities(D, nocc, seed=3):
    """The SCF density, a signed response density and the SCF density
    with some directions scaled below ``DENSITY_EIG_CUT``."""
    X = np.random.default_rng(seed).standard_normal(D.shape)
    w, V = np.linalg.eigh(D)
    w[-nocc:-nocc + 2] *= 0.1 * DENSITY_EIG_CUT
    w[0] = -0.5 * DENSITY_EIG_CUT * w.max()
    return {"scf": D, "response": 0.1 * (X + X.T),
            "trimmed": (V * w) @ V.T}


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.ri
def test_exchange_matches_the_einsum_route(fitted):
    mol, builder, D = fitted
    B = builder.fitted_tensor()
    for name, Dx in _densities(D, mol.nelectron // 2).items():
        J, K = builder.build(Dx)
        assert _rel(K, oracle.exchange(B, Dx)) <= 1e-13, name
        assert np.array_equal(K, K.T), name
        assert np.array_equal(J, oracle.coulomb(B, Dx)), name


@pytest.mark.ri
def test_zero_density_gives_zero_exchange(fitted):
    _, builder, D = fitted
    J, K = builder.build(np.zeros_like(D))
    assert not K.any() and not J.any()


def _peak(fn):
    """Bytes allocated at peak beyond what was live when ``fn`` ran."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.ri
def test_one_exchange_build_holds_one_half_transform(fitted):
    """Peak <= 1.25 x one ``(rank, nocc, nbf)`` float64 array plus
    ``O(nbf^2)``; the ``einsum`` route's ``Y``, ``Yw`` and its copies
    held ~3x that."""
    mol, builder, D = fitted
    rank, nbf = len(builder.fitted_tensor()), builder.basis.nbf
    nocc = mol.nelectron // 2
    bound = 1.25 * 8 * rank * nocc * nbf + 8 * 32 * nbf * nbf
    peak = _peak(lambda: builder.build(D, want_j=False))
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("functional", ["lda", "pbe", "pbe0"])
def test_xc_potential_matches_the_three_gemm_route(fitted, functional):
    mol, builder, D = fitted
    grid = MolecularGrid.build(mol, 20, 14)
    xc = XCIntegrator(builder.basis, grid, get_functional(functional))
    e, V = xc.exc_and_potential(D)
    e_ref, V_ref = oracle.xc_potential(xc, D)
    assert e == e_ref
    assert _rel(V, V_ref) <= 1e-13
    assert np.array_equal(V, V.T)
