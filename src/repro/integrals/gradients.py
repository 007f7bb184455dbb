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
"""

from __future__ import annotations

import numpy as np

from ..basis.basisset import BasisSet
from ..basis.shell import Shell, cartesian_components
from ..basis.shellpair import ShellPair
from ..chem.molecule import Molecule
from .eri import eri_quartet
from .kinetic import kinetic_block
from .mcmurchie import hermite_r_tri
from .nuclear import nuclear_block
from .overlap import overlap_block

__all__ = ["shell_up", "shell_down", "gradient_block_1e",
           "overlap_gradient", "kinetic_gradient", "nuclear_gradient",
           "eri_gradient_quartet"]


def _raw_shell(l: int, exps, weights, center) -> Shell:
    """A Shell whose contraction is taken literally (all components use
    ``weights``), bypassing normalization — the auxiliary shells of the
    raise/lower identity."""
    sh = Shell(l, np.asarray(exps), np.ones(len(exps)),
               np.asarray(center))
    ncomp = sh.nfunc
    sh.norm_coefs = np.tile(np.asarray(weights, dtype=np.float64),
                            (ncomp, 1))
    return sh


def _check_supported(sh: Shell) -> None:
    if sh.l > 1:
        raise NotImplementedError(
            "analytic gradients are implemented for s/p shells only")


def shell_up(sh: Shell) -> Shell:
    """The l+1 auxiliary shell with 2a-weighted contraction."""
    _check_supported(sh)
    w = sh.norm_coefs[0]   # uniform across components for l <= 1
    return _raw_shell(sh.l + 1, sh.exps, 2.0 * sh.exps * w, sh.center)


def shell_down(sh: Shell) -> Shell | None:
    """The l-1 auxiliary shell (None for s shells)."""
    _check_supported(sh)
    if sh.l == 0:
        return None
    return _raw_shell(sh.l - 1, sh.exps, sh.norm_coefs[0], sh.center)


def _comp_index(l: int):
    comps = cartesian_components(l)
    return {c: k for k, c in enumerate(comps)}


def _assemble(sh: Shell, blk_up: np.ndarray, blk_dn: np.ndarray | None,
              axis_of_bra: bool = True) -> np.ndarray:
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


def gradient_block_1e(block_fn, sha: Shell, shb: Shell) -> np.ndarray:
    """d(block)/dA for a generic one-electron block builder
    ``block_fn(pair) -> (na, nb)``; returns ``(3, na, nb)``."""
    up = shell_up(sha)
    blk_up = block_fn(ShellPair(up, shb, 0, 1))
    blk_dn = None
    dn = shell_down(sha)
    if dn is not None:
        blk_dn = block_fn(ShellPair(dn, shb, 0, 1))
    return _assemble(sha, blk_up, blk_dn)


def overlap_gradient(sha: Shell, shb: Shell) -> np.ndarray:
    """dS/dA for one shell pair, shape ``(3, na, nb)`` (dS/dB is the
    negative, by translational invariance)."""
    return gradient_block_1e(overlap_block, sha, shb)


def kinetic_gradient(sha: Shell, shb: Shell) -> np.ndarray:
    """dT/dA for one shell pair, shape ``(3, na, nb)``."""
    return gradient_block_1e(kinetic_block, sha, shb)


def nuclear_gradient(sha: Shell, shb: Shell, charges: np.ndarray,
                     centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nuclear-attraction derivatives for one shell pair.

    Returns ``(dA, dC)``:

    * ``dA`` shape ``(3, na, nb)`` — derivative w.r.t. the bra center
      (the basis-function term; dB follows from translational
      invariance dB = -(dA + dB_ket_term...) — see
      :func:`repro.scf.gradient.rhf_gradient` for the assembly);
    * ``dC`` shape ``(ncharges, 3, na, nb)`` — derivative w.r.t. each
      nuclear position (the Hellmann-Feynman term).
    """
    def vfn(pair):
        return nuclear_block(pair, charges, centers)

    dA = gradient_block_1e(vfn, sha, shb)

    # operator-center term: -Z * 2pi/p * sum_tuv Lambda_tuv *
    # dR_tuv/dC with dR_tuv/dC_x = -R_{t+1,u,v}
    pair = ShellPair(sha, shb, 0, 1)
    idx, lam = pair.hermite_lambda()
    L = pair.lab
    pref = 2.0 * np.pi / pair.p
    nc = len(charges)
    dC = np.zeros((nc, 3) + lam.shape[:2])
    shifts = np.eye(3, dtype=np.int64)
    for k, (zc, C) in enumerate(zip(charges, centers)):
        PC = pair.P - C[None, :]
        R = hermite_r_tri(L + 1, pair.p, PC, boys_order=3 * (L + 1))
        for d in range(3):
            sh = idx + shifts[d][None, :]
            Rh = R[sh[:, 0], sh[:, 1], sh[:, 2]]
            # V = -Z pref sum lam R; dV/dC = -Z pref sum lam (-R_{+1})
            dC[k, d] = zc * np.einsum("xyhn,hn,n->xy", lam, Rh, pref)
    return dA, dC


def eri_gradient_quartet(sha: Shell, shb: Shell, shc: Shell, shd: Shell
                         ) -> np.ndarray:
    """d(ab|cd)/d(center) for the first three centers, shape
    ``(3 centers, 3 xyz, na, nb, nc, nd)``.

    The fourth center's derivative is minus the sum of the other three
    (translational invariance) — assembled by the caller.
    """
    for sh in (sha, shb, shc, shd):
        _check_supported(sh)
    na, nb = sha.nfunc, shb.nfunc
    nc, nd = shc.nfunc, shd.nfunc
    out = np.zeros((3, 3, na, nb, nc, nd))

    # center A
    up = eri_quartet(ShellPair(shell_up(sha), shb, 0, 1),
                     ShellPair(shc, shd, 2, 3))
    dn_sh = shell_down(sha)
    dn = eri_quartet(ShellPair(dn_sh, shb, 0, 1),
                     ShellPair(shc, shd, 2, 3)) if dn_sh else None
    out[0] = _assemble(sha, up, dn)

    # center B (swap bra order, then transpose back)
    up = eri_quartet(ShellPair(shell_up(shb), sha, 0, 1),
                     ShellPair(shc, shd, 2, 3))
    dn_sh = shell_down(shb)
    dn = eri_quartet(ShellPair(dn_sh, sha, 0, 1),
                     ShellPair(shc, shd, 2, 3)) if dn_sh else None
    out[1] = _assemble(shb, up, dn).transpose(0, 2, 1, 3, 4)

    # center C (swap bra/ket)
    up = eri_quartet(ShellPair(shell_up(shc), shd, 0, 1),
                     ShellPair(sha, shb, 2, 3))
    dn_sh = shell_down(shc)
    dn = eri_quartet(ShellPair(dn_sh, shd, 0, 1),
                     ShellPair(sha, shb, 2, 3)) if dn_sh else None
    out[2] = _assemble(shc, up, dn).transpose(0, 3, 4, 1, 2)
    return out
