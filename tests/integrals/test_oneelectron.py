"""Tests for overlap, kinetic, and nuclear-attraction integrals.

Reference values for H2/STO-3G at R = 1.4011 Bohr follow Szabo &
Ostlund, Modern Quantum Chemistry, Table 3.5-class data.
"""

import numpy as np

from repro.basis import build_basis
from repro.chem import builders
from repro.integrals import (kinetic_matrix, nuclear_matrix, overlap_matrix)


def test_overlap_diagonal_is_one(water_basis):
    S = overlap_matrix(water_basis)
    assert np.allclose(np.diag(S), 1.0, atol=1e-10)


def test_overlap_symmetric_and_positive_definite(water_basis):
    S = overlap_matrix(water_basis)
    assert np.allclose(S, S.T, atol=1e-12)
    assert np.linalg.eigvalsh(S).min() > 0


def test_h2_sto3g_reference_values(h2_basis):
    S = overlap_matrix(h2_basis)
    T = kinetic_matrix(h2_basis)
    V = nuclear_matrix(h2_basis)
    assert np.isclose(S[0, 1], 0.6593, atol=2e-3)
    assert np.isclose(T[0, 0], 0.7600, atol=1e-3)
    assert np.isclose(T[0, 1], 0.2365, atol=1e-3)
    # total core Hamiltonian off-diagonal ~ -0.9584
    H = T + V
    assert np.isclose(H[0, 1], -0.9584, atol=3e-3)


def test_kinetic_positive_definite(water_basis):
    T = kinetic_matrix(water_basis)
    assert np.allclose(T, T.T, atol=1e-12)
    assert np.linalg.eigvalsh(T).min() > 0


def test_nuclear_attraction_negative_diagonal(water_basis):
    V = nuclear_matrix(water_basis)
    assert np.all(np.diag(V) < 0)
    assert np.allclose(V, V.T, atol=1e-12)


def test_kinetic_vs_finite_difference_exponent_scaling():
    """Kinetic energy of a normalized s Gaussian: T = 3a/2."""
    from repro.basis.shell import Shell
    from repro.basis.shellpair import ShellPair
    from .oneelectron_oracle import kinetic_block

    for a in (0.3, 1.0, 4.2):
        sh = Shell(0, np.array([a]), np.array([1.0]), np.zeros(3))
        blk = kinetic_block(ShellPair(sh, sh, 0, 0))
        assert np.isclose(blk[0, 0], 1.5 * a, rtol=1e-10)


def test_nuclear_single_charge_closed_form():
    """V for a normalized s Gaussian with a charge at its center:
    V = -Z * 2 sqrt(a / pi) * ... = -Z*2*sqrt(2a/pi) for <1/r>."""
    from repro.basis.shell import Shell
    from repro.basis.shellpair import ShellPair
    from .oneelectron_oracle import nuclear_block

    a = 1.3
    sh = Shell(0, np.array([a]), np.array([1.0]), np.zeros(3))
    blk = nuclear_block(ShellPair(sh, sh, 0, 0), np.array([1.0]),
                        np.zeros((1, 3)))
    # <1/r> over |g|^2 (total exponent 2a): 2*sqrt(2a/pi)
    assert np.isclose(blk[0, 0], -2.0 * np.sqrt(2 * a / np.pi), rtol=1e-10)


def test_translation_invariance(water):
    b1 = build_basis(water)
    shifted = water.translated(np.array([3.0, -1.0, 2.0]))
    b2 = build_basis(shifted)
    assert np.allclose(overlap_matrix(b1), overlap_matrix(b2), atol=1e-12)
    assert np.allclose(kinetic_matrix(b1), kinetic_matrix(b2), atol=1e-12)
    # nuclear matrix moves with the molecule (charges shifted too)
    assert np.allclose(nuclear_matrix(b1, water),
                       nuclear_matrix(b2, shifted), atol=1e-10)


def test_p_block_overlap_orthogonality():
    """px and py on the same center are orthogonal."""
    b = build_basis(builders.lih())
    S = overlap_matrix(b)
    # Li p shell occupies the last 3 AOs of Li (offset 2..4)
    p_slice = None
    for i, sh in enumerate(b.shells):
        if sh.l == 1:
            p_slice = b.shell_slice(i)
    sub = S[p_slice, p_slice]
    assert np.allclose(sub, np.eye(3), atol=1e-10)
