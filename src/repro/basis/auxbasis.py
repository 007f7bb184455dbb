"""Even-tempered auxiliary basis generation for density fitting.

The RI factorization (see :mod:`repro.integrals.ri`) expands orbital
products ``|uv)`` in an auxiliary basis ``{|P)}``.  Rather than ship a
second basis library, the auxiliary set is *derived* from the orbital
basis per element, the way PySCF's ``aug_etb`` does: a product of two
primitives with exponents ``a_i``/``a_j`` is a Gaussian with exponent
``a_i + a_j`` and angular momentum up to ``l_i + l_j``, so for every
auxiliary angular momentum the generator spans the min..max exponent
sums of the contributing orbital-shell pairs with an even-tempered
geometric progression ``e_min * ratio**k``.

The progression is not uniform: each angular layer is only as dense as
its measured share of the fitted energy error needs (DESIGN.md §11):

* s and p layers at ratio 3 — the HF fitting errors move by < 10 %
  against ratio 2;
* d and higher layers at ratio 2 — ratio 3 there multiplies the error
  by ~3;
* the top layer ``2*lmax + 1`` (one beyond the product limit; f on the
  first-row elements, p on hydrogen) spans only the diffuse 30 % of its
  exponent range — dropping the layer costs 10x in accuracy, its tight
  end a few per cent (a third on Li2O2, still inside 5e-5 Ha/atom).

Every auxiliary shell is a single normalized primitive — contraction
buys nothing for fitting functions and single primitives keep the
2-/3-index integral classes small and uniform.
"""

from __future__ import annotations

import copy

import numpy as np

from .basisset import BasisSet
from .shell import Shell

__all__ = ["build_aux_basis", "even_tempered_exponents"]

#: Progression ratio of the s and p layers.
SP_RATIO = 3.0
#: Progression ratio of the d and higher layers.
HIGH_RATIO = 2.0
#: Share of its exponent range the top layer spans, from the diffuse end.
TOP_SPAN = 0.3


def even_tempered_exponents(emin: float, emax: float,
                            beta: float) -> np.ndarray:
    """Geometric exponent ladder covering ``[emin, emax]``.

    Returns ``emin * beta**k`` for ``k = 0..n`` with ``n`` chosen so the
    ladder reaches at least ``emax``.
    """
    if not (emin > 0.0 and emax >= emin):
        raise ValueError(f"need 0 < emin <= emax, got {emin!r}, {emax!r}")
    if beta <= 1.0:
        raise ValueError(f"beta must exceed 1, got {beta!r}")
    n = int(np.ceil(np.log(emax / emin) / np.log(beta))) + 1
    return emin * beta ** np.arange(n, dtype=np.float64)


def _element_plan(shells_by_l: dict[int, list[np.ndarray]]
                  ) -> list[tuple[int, float]]:
    """Auxiliary ``(l, exponent)`` list for one element.

    ``shells_by_l`` maps orbital angular momentum to the primitive
    exponent arrays present on the element.
    """
    lmax = max(shells_by_l)
    top = 2 * lmax + 1
    plan: list[tuple[int, float]] = []
    # one angular layer beyond the product limit 2*lmax: the l = 2*lmax
    # products leave an angular fitting residual that the next-l shells
    # absorb — measured on the test systems this is the difference
    # between ~2e-4 and ~1.5e-5 Ha/atom fitted energy error
    for laux in range(top + 1):
        # min/max over all primitive exponent sums of contributing
        # shell pairs (those whose product can reach laux; the extra
        # top layer reuses the highest-l product ranges)
        sums = []
        for l1, arrs1 in shells_by_l.items():
            for l2, arrs2 in shells_by_l.items():
                if l1 + l2 < min(laux, 2 * lmax):
                    continue
                e1 = np.concatenate(arrs1)
                e2 = np.concatenate(arrs2)
                s = e1[:, None] + e2[None, :]
                sums.append((float(s.min()), float(s.max())))
        if not sums:
            continue
        emin = min(lo for lo, _ in sums)
        emax = max(hi for _, hi in sums)
        if laux == top:
            emax = max(emin, TOP_SPAN * emax)
        ratio = SP_RATIO if laux <= 1 else HIGH_RATIO
        for e in even_tempered_exponents(emin, emax, ratio):
            plan.append((laux, float(e)))
    return plan


#: Normalized auxiliary shells per element, keyed by the element's
#: orbital exponents: one plan and one normalization per process.  A
#: plan is a function of its key alone and its arrays are read-only, so
#: sharing it between callers cannot leak state from one to the next.
_PLANS: dict[tuple, list[Shell]] = {}


def _element_shells(shells_by_l: dict[int, list[np.ndarray]]) -> list[Shell]:
    """The element's auxiliary shells, centred at the origin (cached)."""
    key = tuple((l, tuple(tuple(a.tolist()) for a in arrs))
                for l, arrs in sorted(shells_by_l.items()))
    shells = _PLANS.get(key)
    if shells is None:
        shells = [Shell(laux, np.array([e]), np.array([1.0]), np.zeros(3))
                  for laux, e in _element_plan(shells_by_l)]
        for sh in shells:      # shared by every copy: never written
            for arr in (sh.exps, sh.coefs, sh.norm_coefs):
                arr.flags.writeable = False
        _PLANS[key] = shells
    return shells


def build_aux_basis(basis: BasisSet) -> BasisSet:
    """Even-tempered auxiliary :class:`BasisSet` derived from ``basis``.

    One plan is computed per element (from that element's orbital
    primitive exponents) and instantiated on every atom of the element,
    so two atoms of the same species always carry identical fitting
    sets regardless of geometry.  The plan and its normalized shells are
    built once per process; an atom's shells are copies that share the
    plan's exponent and coefficient arrays and own their centre.
    """
    mol = basis.molecule
    # orbital exponents per element, keyed by angular momentum
    per_element: dict[str, dict[int, list[np.ndarray]]] = {}
    for sh in basis.shells:
        sym = mol.symbols[sh.atom] if sh.atom >= 0 else "X"
        per_element.setdefault(sym, {}).setdefault(sh.l, []).append(sh.exps)
    plans = {sym: _element_shells(by_l) for sym, by_l in per_element.items()}
    shells: list[Shell] = []
    for iatom, sym in enumerate(mol.symbols):
        for template in plans[sym]:
            sh = copy.copy(template)
            sh.center = np.array(mol.coords[iatom], dtype=np.float64)
            sh.atom = iatom
            shells.append(sh)
    return BasisSet(mol, f"{basis.name}-autoaux", shells)
