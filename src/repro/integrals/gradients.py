"""Analytic derivative integrals (nuclear gradients), one pair class at a
time.

Built on the Cartesian raise/lower identity for a primitive Gaussian
``G_i(a, A)`` in one dimension:

    d/dA_x G_i = 2a G_{i+1} - i G_{i-1}

valid for *any* operator that does not itself depend on A.  Applied to
the 1-D Hermite E tables of a :class:`~repro.integrals.pairclass.
PairClass` (whose bra and ket ladders run one step past the pair's own
angular momenta), it gives the derivative Hermite lambdas of every pair
of a class at once (:meth:`~repro.integrals.pairclass.PairClass.dlam`)
and the derivative overlap, kinetic and nuclear-attraction blocks
(:meth:`~repro.integrals.pairclass.PairClass.
overlap_kinetic_derivatives`, :meth:`~repro.integrals.pairclass.
PairClass.nuclear_derivatives`) — no new recursions.  The two-electron
walk of :mod:`repro.scf.gradient` contracts the derivative lambdas
against the plain quartet's Hermite Coulomb table, so one contraction
yields d(ab|cd)/dA directly.

Restriction: shells up to l = 1 (s, p) — all the bases this
reproduction ships.  For l <= 1 a shell's primitive normalization is
uniform across its components, so the raised and lowered terms carry
the plain pair's contraction weights (checked at entry).
"""

from __future__ import annotations

import numpy as np

from ..basis.shell import Shell
from .pairclass import PairClasses

__all__ = ["DerivativePairs"]


def _check_supported(sh: Shell) -> None:
    if sh.l > 1:
        raise NotImplementedError(
            "analytic gradients are implemented for s/p shells only")


class DerivativePairs:
    """The derivative Hermite lambdas of one shell list's pair classes,
    built once per ``(class, side)`` for every pair of the class.

    ``side`` names the differentiated shell of a pair ``(i, j)``: 0 is
    ``d/dA`` (shell ``i``), 1 is ``d/dB``.  Either way the derivative
    keeps the primitive order, exponents and product centres of the
    plain pair, so its Hermite expansion indexes the same Hermite
    Coulomb table.  ``classes`` is the shell list's :class:`~repro.
    integrals.pairclass.PairClasses` if the caller holds it (a basis's
    :func:`~repro.integrals.pairclass.pair_classes`); else it is built
    here.
    """

    def __init__(self, shells: list[Shell],
                 classes: PairClasses | None = None):
        for sh in shells:
            _check_supported(sh)
        self.shells = shells
        self.classes = classes if classes is not None else PairClasses(
            shells)
        self._dlam: dict[tuple[int, int], np.ndarray] = {}

    def dlam(self, c: int, side: int) -> np.ndarray:
        """:meth:`~repro.integrals.pairclass.PairClass.dlam` of class
        ``c``, ``(M, 3, ncA, ncB, nherm, nprim)``, built once."""
        out = self._dlam.get((c, side))
        if out is None:
            out = self._dlam[c, side] = self.classes.pair_class(c).dlam(side)
        return out

    def lam(self, i: int, j: int, side: int) -> np.ndarray:
        """Hermite lambda of ``d(ij)/d(side)`` for one pair ``i <= j``,
        shape ``(3, na, nb, nherm, nprim)`` over the Hermite orders of
        ``la + lb + 1`` (:func:`~repro.basis.shellpair.hermite_indices`)."""
        return self.dlam(int(self.classes.cid[i, j]), side)[
            self.classes.row[i, j]]
