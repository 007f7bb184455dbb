"""Property-based tests on the integral engine: symmetries and bounds
that must hold for arbitrary shell configurations."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.basis.shell import Shell
from repro.basis.shellpair import ShellPair
from repro.integrals.eri import eri_quartet
from repro.integrals.pairclass import PairClasses

from ..integrals.oneelectron_oracle import (kinetic_block, nuclear_block,
                                            overlap_block)

settings.register_profile("integrals", max_examples=15, deadline=None)
settings.load_profile("integrals")


exps_strategy = st.lists(st.floats(min_value=0.05, max_value=20.0),
                         min_size=1, max_size=3)
center_strategy = st.lists(st.floats(min_value=-3.0, max_value=3.0),
                           min_size=3, max_size=3).map(np.asarray)


def _shell(l, exps, center):
    return Shell(l, np.asarray(exps), np.ones(len(exps)), center)


@given(l=st.integers(0, 1), exps=exps_strategy, center=center_strategy)
def test_self_overlap_identity(l, exps, center):
    """A normalized shell overlapped with itself: unit diagonal."""
    sh = _shell(l, exps, center)
    pair = ShellPair(sh, sh, 0, 0)
    S = overlap_block(pair)
    assert np.allclose(np.diag(S), 1.0, atol=1e-9)
    assert np.allclose(S, S.T, atol=1e-12)


@given(la=st.integers(0, 1), lb=st.integers(0, 1),
       ea=exps_strategy, eb=exps_strategy,
       ca=center_strategy, cb=center_strategy)
def test_overlap_bounded_by_one(la, lb, ea, eb, ca, cb):
    """Cauchy-Schwarz on the overlap of normalized functions."""
    sa, sb = _shell(la, ea, ca), _shell(lb, eb, cb)
    S = overlap_block(ShellPair(sa, sb, 0, 1))
    assert np.all(np.abs(S) <= 1.0 + 1e-9)


@given(la=st.integers(0, 1), lb=st.integers(0, 1),
       ea=exps_strategy, eb=exps_strategy,
       ca=center_strategy, cb=center_strategy)
def test_overlap_transpose_symmetry(la, lb, ea, eb, ca, cb):
    """S(a,b) = S(b,a)^T for any two shells."""
    sa, sb = _shell(la, ea, ca), _shell(lb, eb, cb)
    S_ab = overlap_block(ShellPair(sa, sb, 0, 1))
    S_ba = overlap_block(ShellPair(sb, sa, 1, 0))
    assert np.allclose(S_ab, S_ba.T, atol=1e-10)


@given(la=st.integers(0, 2), lb=st.integers(0, 2),
       ea=exps_strategy, eb=exps_strategy,
       ca=center_strategy, cb=center_strategy)
def test_pair_class_blocks_are_the_per_pair_blocks(la, lb, ea, eb, ca, cb):
    """The class route's S, T and V of any two shells (d included) are
    the per-pair oracle's blocks."""
    sa, sb = _shell(la, ea, ca), _shell(lb, eb, cb)
    table = PairClasses([sa, sb])
    cls, row = table.classes[table.cid[0, 1]], table.row[0, 1]
    pair = ShellPair(sa, sb, 0, 1)
    charges = np.array([1.0, 8.0])
    centers = np.array([ca + 0.3, cb - 0.7])
    for got, want in ((cls.overlap(), overlap_block(pair)),
                      (cls.kinetic(), kinetic_block(pair)),
                      (cls.nuclear(charges, centers),
                       nuclear_block(pair, charges, centers))):
        assert np.allclose(got[row], want, rtol=1e-12, atol=1e-13)


@given(l=st.integers(0, 1), exps=exps_strategy, center=center_strategy)
def test_kinetic_diagonal_positive(l, exps, center):
    sh = _shell(l, exps, center)
    T = kinetic_block(ShellPair(sh, sh, 0, 0))
    assert np.all(np.diag(T) > 0)


@given(la=st.integers(0, 1), lb=st.integers(0, 1),
       ea=exps_strategy, eb=exps_strategy, cb=center_strategy)
def test_eri_schwarz_inequality(la, lb, ea, eb, cb):
    """|(ab|ab)| diagonal dominates in magnitude:
    (ab|cd)^2 <= (ab|ab)(cd|cd) with cd = the same pair — trivially,
    plus positivity of the diagonal."""
    sa = _shell(la, ea, np.zeros(3))
    sb = _shell(lb, eb, cb)
    pair = ShellPair(sa, sb, 0, 1)
    block = eri_quartet(pair, pair)
    n1, n2 = block.shape[0], block.shape[1]
    mat = block.reshape(n1 * n2, n1 * n2)
    diag = mat.diagonal()
    assert np.all(diag >= -1e-10)
    q = np.sqrt(np.maximum(diag, 0.0))
    assert np.all(np.abs(mat) <= np.outer(q, q) + 1e-8)


@given(la=st.integers(0, 1), ea=exps_strategy, eb=exps_strategy,
       cb=center_strategy)
def test_eri_bra_ket_symmetry(la, ea, eb, cb):
    """(ab|cd) = (cd|ab)."""
    sa = _shell(la, ea, np.zeros(3))
    sb = _shell(0, eb, cb)
    p1 = ShellPair(sa, sa, 0, 0)
    p2 = ShellPair(sa, sb, 0, 1)
    b12 = eri_quartet(p1, p2)
    b21 = eri_quartet(p2, p1)
    assert np.allclose(b12, b21.transpose(2, 3, 0, 1), atol=1e-10)


@given(exps=exps_strategy, shift=st.floats(min_value=-4.0, max_value=4.0))
def test_eri_translation_invariance(exps, shift):
    """Translating everything leaves the ERI unchanged."""
    s0 = _shell(0, exps, np.zeros(3))
    s1 = _shell(0, exps, np.array([0.0, 0.0, 1.3]))
    v = np.array([shift, -shift, 0.5 * shift])
    s0t = _shell(0, exps, v)
    s1t = _shell(0, exps, np.array([0.0, 0.0, 1.3]) + v)
    a = eri_quartet(ShellPair(s0, s1, 0, 1), ShellPair(s0, s1, 0, 1))
    b = eri_quartet(ShellPair(s0t, s1t, 0, 1), ShellPair(s0t, s1t, 0, 1))
    assert np.allclose(a, b, atol=1e-10)
