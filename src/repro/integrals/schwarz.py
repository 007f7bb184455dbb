"""Cauchy-Schwarz screening bounds.

The rigorous bound |(ij|kl)| <= Q_ij Q_kl with Q_ij = sqrt((ij|ij)) is
the paper's accuracy knob: a single threshold epsilon decides which
quartets are evaluated, and the total neglected contribution is bounded
in a controllable way.  :func:`schwarz_diagonals` is the one routine
under every bound table — orbital pairs, auxiliary shells, the synthetic
workload's calibration scans.  This module also provides the cheap
distance-decay *estimate* used by the synthetic condensed-phase workload
generator (where real integrals are never computed).
"""

from __future__ import annotations

import numpy as np

from ..basis.basisset import BasisSet
from .batch import SETUP_SCRATCH, _eri_class_batch, pair_class_groups

__all__ = ["schwarz_diagonals", "schwarz_bounds", "schwarz_matrix",
           "pair_extent_estimate", "count_surviving_quartets"]


def schwarz_diagonals(pairs) -> np.ndarray:
    """``Q = sqrt(max |(ab|ab)|)`` over the diagonal of each pair's
    ``(ab|ab)`` block, one entry per item of ``pairs``
    (:class:`~repro.basis.shellpair.ShellPair` or
    :class:`~repro.integrals.ri.AuxShellPair` objects).

    The pairs of one kernel class go through one class batch of their
    diagonal quartets with the Boys table recursed from ``3L``, so every
    block has the bits :func:`~repro.integrals.eri.eri_quartet` gives it.
    """
    pairs = list(pairs)
    out = np.empty(len(pairs))
    for members in pair_class_groups(enumerate(pairs)).values():
        sub = [pairs[i] for i in members]
        ids = np.arange(len(sub))
        blocks = _eri_class_batch(sub, ids, sub, ids,
                                  max_elements=SETUP_SCRATCH,
                                  boys_order=3 * (2 * sub[0].lab))
        n = blocks.shape[1] * blocks.shape[2]
        diag = np.abs(blocks.reshape(len(sub), n, n).diagonal(0, 1, 2))
        out[members] = np.sqrt(diag.max(axis=1))
    return out


def schwarz_bounds(basis: BasisSet,
                   pairs=None) -> dict[tuple[int, int], float]:
    """Exact Cauchy-Schwarz bounds per shell pair (dict keyed ``(i, j)``,
    ``i <= j``)."""
    if pairs is None:
        pairs = basis.shell_pairs()
    return dict(zip(pairs, schwarz_diagonals(pairs.values()).tolist()))


def schwarz_matrix(basis: BasisSet, pairs=None) -> np.ndarray:
    """Dense ``(nshell, nshell)`` matrix of Schwarz bounds (symmetric,
    zero where the pair was dropped by the overlap prescreen)."""
    bounds = schwarz_bounds(basis, pairs)
    n = basis.nshell
    Q = np.zeros((n, n))
    for (i, j), q in bounds.items():
        Q[i, j] = Q[j, i] = q
    return Q


def pair_extent_estimate(min_exp_i: float, min_exp_j: float,
                         dist: float) -> float:
    """Cheap upper-bound *estimate* of a pair's Schwarz factor from the
    Gaussian-product prefactor exp(-mu R^2).

    Used by the synthetic workload generator: it has the same
    exponential distance decay as the exact bound, which is all the
    task-count statistics depend on.
    """
    mu = min_exp_i * min_exp_j / (min_exp_i + min_exp_j)
    return float(np.exp(-mu * dist * dist))


def count_surviving_quartets(Q: np.ndarray, eps: float) -> int:
    """Number of unique shell quartets (8-fold symmetry) passing the
    screen ``Q_ij * Q_kl >= eps``.

    Vectorized: builds the list of significant pairs and counts ordered
    pair-of-pairs combinations.
    """
    n = Q.shape[0]
    iu = np.triu_indices(n)
    qpairs = Q[iu]
    sig = qpairs[qpairs > 0.0]
    sig = np.sort(sig)[::-1]
    if sig.size == 0:
        return 0
    # For each pair a, count pairs b (b after a in the sorted order,
    # inclusive of itself) with q_a * q_b >= eps.  Sorting lets us use
    # searchsorted instead of an O(n^2) outer product.
    asc = sig[::-1]
    count = 0
    for ia, qa in enumerate(sig):
        if qa * qa < eps:
            break
        thresh = eps / qa
        nge = sig.size - np.searchsorted(asc, thresh, side="left")
        nafter = nge - ia  # partners ranked at or after a (unique pairs)
        if nafter > 0:
            count += int(nafter)
    return count
