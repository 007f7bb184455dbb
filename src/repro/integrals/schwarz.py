"""Cauchy-Schwarz screening bounds.

The rigorous bound |(ij|kl)| <= Q_ij Q_kl with Q_ij = sqrt((ij|ij)) is
the paper's accuracy knob: a single threshold epsilon decides which
quartets are evaluated, and the total neglected contribution is bounded
in a controllable way.  :func:`schwarz_diagonals` is the one routine
under every bound table — the orbital pair classes, the auxiliary
(ghost) pair classes, the synthetic workload's calibration scans — and
walks one :class:`~repro.integrals.pairclass.PairClass` per call;
:func:`surviving_partners` is the one count of the quartets that pass
the screen, under the real and the synthetic task lists and the
incremental survival model.
"""

from __future__ import annotations

import numpy as np

from ..basis.basisset import BasisSet
from .batch import SETUP_SCRATCH, _eri_class_batch
from .pairclass import PairClass, pair_classes

__all__ = ["schwarz_diagonals", "schwarz_bounds", "surviving_partners"]


def schwarz_diagonals(cls: PairClass) -> np.ndarray:
    """``Q = sqrt(max |(ab|ab)|)`` over the diagonal of each pair's
    ``(ab|ab)`` block, one entry per pair (row) of the class ``cls``.

    The class goes through one class batch of its diagonal quartets with
    the Boys table recursed from ``3L``, so every block has the bits
    :func:`~repro.integrals.eri.eri_quartet` gives it.
    """
    rows = np.arange(len(cls))
    blocks = _eri_class_batch(cls, rows, cls, rows,
                              max_elements=SETUP_SCRATCH,
                              boys_order=3 * (2 * (cls.la + cls.lb)))
    n = blocks.shape[1] * blocks.shape[2]
    diag = np.abs(blocks.reshape(len(cls), n, n).diagonal(0, 1, 2))
    return np.sqrt(diag.max(axis=1))


def schwarz_bounds(basis: BasisSet) -> dict[tuple[int, int], float]:
    """Exact Cauchy-Schwarz bounds per shell pair (dict keyed ``(i, j)``,
    ``i <= j``, in ``(i, j)`` order), one :func:`schwarz_diagonals` per
    class of the basis's pair table."""
    classes = pair_classes(basis)
    q = np.empty(classes.cid.shape)
    for cls in classes:
        q[cls.ij[:, 0], cls.ij[:, 1]] = schwarz_diagonals(cls)
    i, j = np.triu_indices(basis.nshell)
    return dict(zip(zip(i.tolist(), j.tolist()), q[i, j].tolist()))


def surviving_partners(q: np.ndarray, eps: float,
                       scale: float = 1.0) -> np.ndarray:
    """The end of every bra's surviving ket range: for pair bounds ``q``
    sorted in descending order, ket ``b >= a`` survives with bra ``a``
    (one unique quartet) exactly when ``(q[a] * q[b]) * scale >= eps`` —
    the float test of the real screens, ``scale`` being the density
    factor (``|dD|`` of the incremental model).  Returns ``end`` with the
    survivors of bra ``a`` at ``[a, end[a])``; ``end[a] - a`` is its
    surviving-partner count.

    The test is monotone along the sorted kets, so one bisection runs
    over all bras at once (``log2 n`` vectorised steps).
    """
    q = np.asarray(q, dtype=np.float64)
    n = len(q)
    lo = np.arange(n)
    hi = np.full(n, n)
    for _ in range(n.bit_length()):
        mid = (lo + hi) // 2
        live = lo < hi
        ok = live & ((q * q[np.minimum(mid, n - 1)]) * scale >= eps)
        lo = np.where(ok, mid + 1, lo)
        hi = np.where(live & ~ok, mid, hi)
    return lo
