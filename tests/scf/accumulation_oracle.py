"""The J/K accumulation as it stood before the class store compiled its
blocks: one screened list per block, its integrals evaluated (or
gathered) per build, its flat AO indices, degeneracy weights and the two
transposed layouts of K rebuilt per build, then four-image
``np.bincount`` scatters into half of J and K.

``add_class`` is kept verbatim as the oracle for
:func:`repro.scf.fock._add_images` over compiled blocks, and ``walk``
runs it over a builder's list screen
(:meth:`repro.scf.fock.DirectJKBuilder._screened_classes`) the way
:func:`repro.scf.fock.eval_screened_pairs` did.
``tests/scf/test_compiled_accumulation.py`` asserts that every compiled
route reproduces it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.integrals import ERIEngine


def add_class(Jh: np.ndarray | None, Kh: np.ndarray | None,
              V: np.ndarray, idx: np.ndarray, offsets: np.ndarray,
              D: np.ndarray) -> None:
    """Add one L-class of unique-quartet blocks to the flat half
    matrices ``Jh`` and ``Kh`` (either may be ``None``).

    ``V`` is ``(nq, nA, nB, nC, nD)``, ``idx`` the matching ``(nq, 4)``
    shell indices ``(i, j, k, l)`` and ``D`` the symmetric density.  The
    eight ordered images of ``(ij|kl)``, each weighted by
    ``f = 1 / ((1 + d_ij)(1 + d_kl)(1 + d_(ij),(kl)))`` so that
    coinciding images count once, add ``2f V.D_kl`` to ``J_ij`` and
    ``2f D_ij.V`` to ``J_kl``, and ``f`` times the contraction to
    ``K_ik``, ``K_jk``, ``K_il`` and ``K_jl``; the other half of every
    sum is the transpose of one of these.  A D block is gathered through
    the flat indices its partner image scatters through.
    """
    nq, nA, nB, nC, nD = V.shape
    nbf = len(D)
    Df = np.ascontiguousarray(D).reshape(-1)
    i, j, k, l = idx.T
    f = 1.0 / ((1.0 + (i == j)) * (1.0 + (k == l))
               * (1.0 + ((i == k) & (j == l))))
    ao = [offsets[s][:, None] + np.arange(n)
          for s, n in zip((i, j, k, l), (nA, nB, nC, nD))]

    def flat(p: int, q: int) -> np.ndarray:
        """Flat AO indices of the (p, q) block of every quartet."""
        return (ao[p][:, :, None] * nbf + ao[q][:, None, :]).reshape(nq, -1)

    def scatter(M: np.ndarray, at: np.ndarray, vals: np.ndarray) -> None:
        M += np.bincount(at.ravel(), vals.ravel(), nbf * nbf)

    def images(M: np.ndarray, V2: np.ndarray, rows: np.ndarray,
               cols: np.ndarray, w: np.ndarray) -> None:
        """The two images of one ``(nq, rows, cols)`` layout of V: the
        row block contracted against D's column block, and back.  (A
        batched matrix-vector product is ~2x faster in ``einsum`` than
        in ``matmul`` at these sizes.)"""
        scatter(M, rows, np.einsum("qmn,qn->qm", V2, Df[cols]) * w)
        scatter(M, cols, np.einsum("qmn,qm->qn", V2, Df[rows]) * w)

    if Jh is not None:
        images(Jh, V.reshape(nq, nA * nB, nC * nD), flat(0, 1), flat(2, 3),
               (2.0 * f)[:, None])
    if Kh is not None:
        # (ik, jl) and (il, jk): each image pair shares one layout of V
        for (a, c), (b, d) in (((0, 2), (1, 3)), ((0, 3), (1, 2))):
            Vk = V.transpose(0, a + 1, c + 1, b + 1, d + 1).reshape(
                nq, ao[a].shape[1] * ao[c].shape[1], -1)
            images(Kh, Vk, flat(a, c), flat(b, d), f[:, None])


def evaluator(basis, kernel: str):
    """``cls -> blocks`` on a fresh engine: the class kernel or the
    per-quartet reference (each quartet evaluated once per evaluator),
    so no store is read."""
    engine = ERIEngine(basis)
    if kernel == "batched":
        return engine.quartet_batch
    memo = {}

    def quartets(cls):
        for q in map(tuple, cls.tolist()):
            if q not in memo:
                memo[q] = engine.quartet(*q)
        return np.stack([memo[q] for q in map(tuple, cls.tolist())])

    return quartets


def accumulate(basis, D, classes, blocks_of, want_j=True, want_k=True):
    """``(J, K)`` of the ``(nq, 4)`` lists ``classes``, each list's
    integrals from ``blocks_of(cls)``, added by :func:`add_class` and
    completed by transposition (``None`` for an unrequested matrix)."""
    nbf = basis.nbf
    Jh = np.zeros(nbf * nbf) if want_j else None
    Kh = np.zeros(nbf * nbf) if want_k else None
    for cls in classes:
        add_class(Jh, Kh, blocks_of(cls), cls, basis.offsets, D)
    return tuple(None if M is None else M.reshape(nbf, nbf)
                 + M.reshape(nbf, nbf).T for M in (Jh, Kh))


def walk(builder, D, dmax=None, eps=None, want_j=True, want_k=True,
         blocks_of=None):
    """The oracle walk of one build of ``builder``: its list screen of
    ``D`` (``dmax``: the global ``max|D|`` by default, or a per-shell-
    block table) at ``eps`` (the builder's by default), every list
    evaluated by ``blocks_of`` (default: afresh with the builder's
    kernel)."""
    if dmax is None:
        dmax = float(np.abs(D).max())
    classes = builder._screened_classes(dmax, eps)
    return accumulate(builder.basis, D, classes, blocks_of or evaluator(
        builder.basis, builder.kernel), want_j, want_k)
