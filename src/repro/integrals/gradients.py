"""Analytic derivative integrals (nuclear gradients).

Built on the Cartesian raise/lower identity for a primitive Gaussian
``G_i(a, A)`` in one dimension:

    d/dA_x G_i = 2a G_{i+1} - i G_{i-1}

valid for *any* operator that does not itself depend on A.  Every
derivative block is therefore assembled from ordinary integral blocks
over auxiliary shells with raised/lowered angular momentum and
2a-weighted contractions — no new recursions.  The nuclear-attraction
operator additionally depends on the nuclear position C; that
(Hellmann-Feynman) term comes from the Hermite Coulomb derivative
``dR_tuv/dC_x = -R_{t+1,u,v}``.

Restriction: shells up to l = 1 (s, p) — all the bases this
reproduction ships.  For l <= 1, primitive normalization constants are
uniform across a shell's components, which is what lets one auxiliary
shell serve every component/direction (asserted at entry).

:class:`DerivativePairs` is the one table the derivative integrals of a
geometry read: every raised/lowered :class:`ShellPair` is expanded once
per (pair, differentiated side), whether the overlap, kinetic and
nuclear-attraction derivatives ask for it or the two-electron walk of
:mod:`repro.scf.gradient` does.  The latter never evaluates a raised
and a lowered block separately: the raise/lower combination is applied
to the pair's *Hermite lambda* (:meth:`DerivativePairs.lam`), so one
contraction against the Hermite Coulomb table yields d/dA directly.
"""

from __future__ import annotations

import numpy as np

from ..basis.shell import Shell, cartesian_components
from ..basis.shellpair import ShellPair, hermite_indices
from .kinetic import kinetic_block
from .mcmurchie import hermite_r_tri
from .overlap import overlap_block

__all__ = ["shell_up", "shell_down", "DerivativePairs",
           "overlap_gradient", "kinetic_gradient", "nuclear_gradient"]


def _check_supported(sh: Shell) -> None:
    if sh.l > 1:
        raise NotImplementedError(
            "analytic gradients are implemented for s/p shells only")


def shell_up(sh: Shell) -> Shell:
    """The l+1 auxiliary shell with 2a-weighted contraction."""
    _check_supported(sh)
    w = sh.norm_coefs[0]   # uniform across components for l <= 1
    return Shell.with_weights(sh.l + 1, sh.exps, 2.0 * sh.exps * w, sh.center)


def shell_down(sh: Shell) -> Shell | None:
    """The l-1 auxiliary shell (None for s shells)."""
    _check_supported(sh)
    if sh.l == 0:
        return None
    return Shell.with_weights(sh.l - 1, sh.exps, sh.norm_coefs[0],
                              sh.center)


def _comp_index(l: int):
    comps = cartesian_components(l)
    return {c: k for k, c in enumerate(comps)}


def _assemble(sh: Shell, blk_up: np.ndarray, blk_dn: np.ndarray | None
              ) -> np.ndarray:
    """Combine raised/lowered blocks into d/dA per direction.

    ``blk_up``/``blk_dn`` carry the auxiliary shell on the bra (first)
    axis; returns shape ``(3, ncomp, *rest)``.
    """
    comps = sh.components
    up_idx = _comp_index(sh.l + 1)
    dn_idx = _comp_index(sh.l - 1) if sh.l >= 1 else {}
    rest = blk_up.shape[1:]
    out = np.zeros((3, len(comps)) + rest)
    for ci, c in enumerate(comps):
        for d in range(3):
            cu = list(c)
            cu[d] += 1
            out[d, ci] = blk_up[up_idx[tuple(cu)]]
            if c[d] > 0:
                cl = list(c)
                cl[d] -= 1
                out[d, ci] -= c[d] * blk_dn[dn_idx[tuple(cl)]]
    return out


class DerivativePairs:
    """Raised/lowered shell pairs of one shell list, built on demand and
    once per ``(i, j, side)`` (one-electron blocks first, then the
    Hermite lambda, which releases the auxiliary pairs it was combined
    from).

    ``side`` names the differentiated shell of the pair ``(i, j)``: 0 is
    ``d/dA`` (shell ``i`` raised and lowered against ``j``), 1 is
    ``d/dB``.  Either way the auxiliary pair keeps the primitive order,
    exponents and product centres of the plain pair, so its Hermite
    expansion indexes the same Hermite Coulomb table.

    ``pairs`` is the plain pair table to read ``(i, j)`` from (a basis's
    :meth:`~repro.basis.basisset.BasisSet.shell_pairs`); pairs it does
    not hold are expanded here.
    """

    def __init__(self, shells: list[Shell],
                 pairs: dict[tuple[int, int], ShellPair] | None = None):
        for sh in shells:
            _check_supported(sh)
        self.shells = shells
        self._plain = dict(pairs or {})
        self._aux: dict[tuple[int, int, int], tuple] = {}
        self._lam: dict[tuple[int, int, int], np.ndarray] = {}

    def plain(self, i: int, j: int) -> ShellPair:
        """The undifferentiated pair ``(i, j)``."""
        pair = self._plain.get((i, j))
        if pair is None:
            pair = self._plain[i, j] = ShellPair(self.shells[i],
                                                 self.shells[j], i, j)
        return pair

    def aux(self, i: int, j: int, side: int = 0
            ) -> tuple[ShellPair, ShellPair | None]:
        """``(raised, lowered)`` pairs of ``(i, j)`` with shell ``side``
        differentiated (``lowered`` is ``None`` for an s shell)."""
        key = (i, j, side)
        out = self._aux.get(key)
        if out is None:
            out = self._aux[key] = self._expand(i, j, side)
        return out

    def _expand(self, i: int, j: int, side: int) -> tuple:
        sa, sb = self.shells[i], self.shells[j]
        sh = (sa, sb)[side]
        return tuple(
            None if aux is None
            else (ShellPair(aux, sb, i, j) if side == 0
                  else ShellPair(sa, aux, i, j))
            for aux in (shell_up(sh), shell_down(sh)))

    def block(self, block_fn, i: int, j: int) -> np.ndarray:
        """``d(block)/dA`` of a one-electron block builder
        ``block_fn(pair) -> (na, nb)`` that does not depend on ``A``
        beyond the bra shell; shape ``(3, na, nb)``."""
        up, dn = self.aux(i, j)
        return _assemble(self.shells[i], block_fn(up),
                         None if dn is None else block_fn(dn))

    def lam(self, i: int, j: int, side: int) -> np.ndarray:
        """Hermite lambda of ``d(ij)/d(side)``, shape
        ``(3, na, nb, nherm, nprim)`` over the Hermite index list of
        order ``la + lb + 1`` (:func:`~repro.basis.shellpair.
        hermite_indices`): the raised
        pair's expansion minus the lowered one's, combined per
        direction as the blocks themselves would be."""
        key = (i, j, side)
        out = self._lam.get(key)
        if out is None:
            # the combined lambda supersedes the two expansions: they
            # are taken out of the table, or never enter it
            up, dn = self._aux.pop(key, None) or self._expand(i, j, side)
            idx, lam_up = up.hermite_lambda()
            lam_dn = None
            if dn is not None:
                idx_dn, low = dn.hermite_lambda()
                where = {tuple(t): h for h, t in enumerate(idx.tolist())}
                lam_dn = np.zeros(low.shape[:2] + lam_up.shape[2:])
                lam_dn[:, :, [where[tuple(t)] for t in idx_dn.tolist()]] = low
            if side == 0:
                out = _assemble(self.shells[i], lam_up, lam_dn)
            else:
                # the combiner works on the leading axis
                out = _assemble(
                    self.shells[j], lam_up.swapaxes(0, 1),
                    None if lam_dn is None else lam_dn.swapaxes(0, 1)
                ).swapaxes(1, 2)
            self._lam[key] = out
        return out

    def nuclear(self, i: int, j: int, charges: np.ndarray,
                centers: np.ndarray, bra: bool = True
                ) -> tuple[np.ndarray | None, np.ndarray]:
        """Nuclear-attraction derivatives of the pair ``(i, j)``:
        ``(dA, dC)`` as :func:`nuclear_gradient` documents them, from
        one Hermite Coulomb table of order ``la + lb + 1`` over all
        nuclei.  ``bra=False`` skips ``dA`` (returns ``None`` for it)."""
        pair = self.plain(i, j)
        idx, lam = pair.hermite_lambda()
        nc, n = len(charges), pair.nprim
        PC = (pair.P[None, :, :] - centers[:, None, :]).reshape(-1, 3)
        R = hermite_r_tri(pair.lab + 1, np.tile(pair.p, nc), PC)
        # V = -Z pref sum lam R, with dR_tuv/dC_x = -R_{t+1,u,v}
        zpref = (charges[:, None] * (2.0 * np.pi / pair.p)[None, :])
        dC = np.empty((nc, 3) + lam.shape[:2])
        for d, shift in enumerate(np.eye(3, dtype=np.int64)):
            sh = idx + shift
            Rh = R[sh[:, 0], sh[:, 1], sh[:, 2]].reshape(len(idx), nc, n)
            dC[:, d] = np.einsum("xyhn,hcn,cn->cxy", lam, Rh, zpref)
        dA = None
        if bra:
            idx1 = hermite_indices(pair.lab + 1)
            Rh = R[idx1[:, 0], idx1[:, 1], idx1[:, 2]].reshape(
                len(idx1), nc, n)
            dA = -np.einsum("dxyhn,hcn,cn->dxy", self.lam(i, j, 0), Rh, zpref)
        return dA, dC


def overlap_gradient(sha: Shell, shb: Shell) -> np.ndarray:
    """dS/dA for one shell pair, shape ``(3, na, nb)`` (dS/dB is the
    negative, by translational invariance)."""
    return DerivativePairs([sha, shb]).block(overlap_block, 0, 1)


def kinetic_gradient(sha: Shell, shb: Shell) -> np.ndarray:
    """dT/dA for one shell pair, shape ``(3, na, nb)``."""
    return DerivativePairs([sha, shb]).block(kinetic_block, 0, 1)


def nuclear_gradient(sha: Shell, shb: Shell, charges: np.ndarray,
                     centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nuclear-attraction derivatives for one shell pair.

    Returns ``(dA, dC)``:

    * ``dA`` shape ``(3, na, nb)`` — derivative w.r.t. the bra center
      (the basis-function term; the ket's is ``-(dA + sum_C dC)`` by
      translational invariance — see
      :func:`repro.scf.gradient.scf_gradient` for the assembly);
    * ``dC`` shape ``(ncharges, 3, na, nb)`` — derivative w.r.t. each
      nuclear position (the Hellmann-Feynman term).
    """
    return DerivativePairs([sha, shb]).nuclear(
        0, 1, np.asarray(charges, dtype=np.float64),
        np.asarray(centers, dtype=np.float64))
