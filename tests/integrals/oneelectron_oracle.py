"""The per-pair one-electron integrals the pair-class route replaced, kept
as the oracle: overlap, kinetic, nuclear-attraction and dipole blocks of one
:class:`~repro.basis.shellpair.ShellPair`, their derivatives from
explicit raised/lowered auxiliary shells, and the matrices and the
one-electron gradient assembled pair by pair from them.
"""

from __future__ import annotations

import numpy as np

from repro.basis.shell import Shell, cartesian_components
from repro.basis.shellpair import ShellPair
from repro.integrals.mcmurchie import hermite_e, hermite_r_tri

_SQRT_PI = np.sqrt(np.pi)


# --- blocks of one shell pair -------------------------------------------------

def overlap_block(pair: ShellPair) -> np.ndarray:
    """Overlap sub-block for one shell pair, shape ``(ncompA, ncompB)``."""
    Ex, Ey, Ez = pair.E
    inv_sqrt_p = _SQRT_PI / np.sqrt(pair.p)
    compsA = pair.sha.components
    compsB = pair.shb.components
    out = np.empty((len(compsA), len(compsB)))
    for xa, (lxa, lya, lza) in enumerate(compsA):
        for xb, (lxb, lyb, lzb) in enumerate(compsB):
            s1d = (Ex[lxa, lxb, 0] * Ey[lya, lyb, 0] * Ez[lza, lzb, 0]
                   * inv_sqrt_p ** 3)
            out[xa, xb] = float(pair.W[xa, xb] @ s1d)
    return out


def kinetic_block(pair: ShellPair) -> np.ndarray:
    """Kinetic sub-block for one shell pair, shape ``(ncompA, ncompB)``:
    T_ij = b(2j+1) S_ij - 2 b^2 S_{i,j+2} - j(j-1)/2 S_{i,j-2} per
    dimension."""
    la, lb = pair.sha.l, pair.shb.l
    A, B = pair.sha.center, pair.shb.center
    Eext = [hermite_e(la, lb + 2, pair.a, pair.b, float(A[d] - B[d]))
            for d in range(3)]
    inv = _SQRT_PI / np.sqrt(pair.p)
    b = pair.b

    def s1d(E, i, j):
        if j < 0:
            return np.zeros_like(pair.p)
        return E[i, j, 0] * inv

    def t1d(E, i, j):
        val = b * (2 * j + 1) * s1d(E, i, j) - 2.0 * b * b * s1d(E, i, j + 2)
        if j >= 2:
            val = val - 0.5 * j * (j - 1) * s1d(E, i, j - 2)
        return val

    out = np.empty((pair.sha.nfunc, pair.shb.nfunc))
    Ex, Ey, Ez = Eext
    for xa, (lxa, lya, lza) in enumerate(pair.sha.components):
        for xb, (lxb, lyb, lzb) in enumerate(pair.shb.components):
            sx, sy, sz = s1d(Ex, lxa, lxb), s1d(Ey, lya, lyb), s1d(Ez, lza, lzb)
            tx, ty, tz = t1d(Ex, lxa, lxb), t1d(Ey, lya, lyb), t1d(Ez, lza, lzb)
            integ = tx * sy * sz + sx * ty * sz + sx * sy * tz
            out[xa, xb] = float(pair.W[xa, xb] @ integ)
    return out


def nuclear_block(pair: ShellPair, charges: np.ndarray,
                  centers: np.ndarray) -> np.ndarray:
    """Nuclear-attraction sub-block of point charges ``charges`` at
    ``centers`` for one shell pair (with the electron-nucleus sign)."""
    idx, lam = pair.hermite_lambda()
    L = pair.lab
    pref = 2.0 * np.pi / pair.p
    out = np.zeros(lam.shape[:2])
    nc = len(charges)
    PC = (pair.P[None, :, :] - centers[:, None, :]).reshape(-1, 3)
    R = hermite_r_tri(L, np.tile(pair.p, nc), PC, boys_order=3 * L)
    Rh = np.ascontiguousarray(
        R[idx[:, 0], idx[:, 1], idx[:, 2]].reshape(len(idx), nc, pair.nprim)
        .swapaxes(0, 1))
    for c in range(nc):
        out -= charges[c] * np.einsum("xyhn,hn,n->xy", lam, Rh[c], pref)
    return out


def dipole_block(pair: ShellPair, origin: np.ndarray) -> np.ndarray:
    """Dipole sub-blocks for one shell pair, shape ``(3, ncompA,
    ncompB)``: the x, y, z operator blocks about ``origin``."""
    E = pair.E
    inv = _SQRT_PI / np.sqrt(pair.p)
    out = np.empty((3, pair.sha.nfunc, pair.shb.nfunc))
    for xa, ca in enumerate(pair.sha.components):
        for xb, cb in enumerate(pair.shb.components):
            # 1-D overlaps and first moments per dimension
            s1 = [E[d][ca[d], cb[d], 0] * inv for d in range(3)]
            m1 = []
            for d in range(3):
                la, lb = ca[d], cb[d]
                e1 = E[d][la, lb, 1] if la + lb >= 1 else 0.0
                m1.append((e1 + (pair.P[:, d] - origin[d])
                           * E[d][la, lb, 0]) * inv)
            w = pair.W[xa, xb]
            out[0, xa, xb] = float(w @ (m1[0] * s1[1] * s1[2]))
            out[1, xa, xb] = float(w @ (s1[0] * m1[1] * s1[2]))
            out[2, xa, xb] = float(w @ (s1[0] * s1[1] * m1[2]))
    return out


# --- derivatives from raised/lowered auxiliary shells ---------------------------

def shell_up(sh: Shell) -> Shell:
    """The l+1 auxiliary shell with 2a-weighted contraction."""
    if sh.l > 1:
        raise NotImplementedError("s/p shells only")
    w = sh.norm_coefs[0]   # uniform across components for l <= 1
    return Shell.with_weights(sh.l + 1, sh.exps, 2.0 * sh.exps * w, sh.center)


def shell_down(sh: Shell) -> Shell | None:
    """The l-1 auxiliary shell (None for s shells)."""
    if sh.l > 1:
        raise NotImplementedError("s/p shells only")
    if sh.l == 0:
        return None
    return Shell.with_weights(sh.l - 1, sh.exps, sh.norm_coefs[0],
                              sh.center)


def assemble(sh: Shell, blk_up: np.ndarray, blk_dn: np.ndarray | None
             ) -> np.ndarray:
    """Combine raised/lowered blocks (auxiliary shell on the first axis)
    into d/dA per direction, shape ``(3, ncomp, *rest)``."""
    up_idx = {c: k for k, c in enumerate(cartesian_components(sh.l + 1))}
    dn_idx = {c: k for k, c in enumerate(cartesian_components(sh.l - 1))} \
        if sh.l >= 1 else {}
    out = np.zeros((3, sh.nfunc) + blk_up.shape[1:])
    for ci, c in enumerate(sh.components):
        for d in range(3):
            cu = list(c)
            cu[d] += 1
            out[d, ci] = blk_up[up_idx[tuple(cu)]]
            if c[d] > 0:
                cl = list(c)
                cl[d] -= 1
                out[d, ci] -= c[d] * blk_dn[dn_idx[tuple(cl)]]
    return out


def _aux_pairs(sa: Shell, sb: Shell):
    return [None if aux is None else ShellPair(aux, sb, 0, 1)
            for aux in (shell_up(sa), shell_down(sa))]


def overlap_gradient(sa: Shell, sb: Shell) -> np.ndarray:
    """dS/dA for one shell pair, shape ``(3, na, nb)``."""
    up, dn = _aux_pairs(sa, sb)
    return assemble(sa, overlap_block(up),
                    None if dn is None else overlap_block(dn))


def kinetic_gradient(sa: Shell, sb: Shell) -> np.ndarray:
    """dT/dA for one shell pair, shape ``(3, na, nb)``."""
    up, dn = _aux_pairs(sa, sb)
    return assemble(sa, kinetic_block(up),
                    None if dn is None else kinetic_block(dn))


def nuclear_gradient(sa: Shell, sb: Shell, charges: np.ndarray,
                     centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(dA (3, na, nb), dC (nc, 3, na, nb))`` of one shell pair: the
    bra-centre derivative from the raised/lowered pairs, and the
    Hellmann-Feynman term from ``dR_tuv/dC_x = -R_{t+1,u,v}``."""
    charges = np.asarray(charges, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    up, dn = _aux_pairs(sa, sb)
    dA = assemble(sa, nuclear_block(up, charges, centers),
                  None if dn is None else nuclear_block(dn, charges, centers))
    pair = ShellPair(sa, sb, 0, 1)
    idx, lam = pair.hermite_lambda()
    nc, n = len(charges), pair.nprim
    PC = (pair.P[None, :, :] - centers[:, None, :]).reshape(-1, 3)
    R = hermite_r_tri(pair.lab + 1, np.tile(pair.p, nc), PC)
    zpref = charges[:, None] * (2.0 * np.pi / pair.p)[None, :]
    dC = np.empty((nc, 3) + lam.shape[:2])
    for d, shift in enumerate(np.eye(3, dtype=np.int64)):
        sh = idx + shift
        Rh = R[sh[:, 0], sh[:, 1], sh[:, 2]].reshape(len(idx), nc, n)
        dC[:, d] = np.einsum("xyhn,hcn,cn->cxy", lam, Rh, zpref)
    return dA, dC


def derivative_lambda(sa: Shell, sb: Shell, side: int) -> np.ndarray:
    """Hermite lambda of ``d(ab)/dA`` (side 0) or ``d/dB`` (side 1) over
    the Hermite orders of ``la + lb + 1``, ``(3, na, nb, nherm, nprim)``:
    the raised pair's expansion minus the lowered one's."""
    sh = (sa, sb)[side]
    up, dn = [None if aux is None
              else ShellPair(aux, sb, 0, 1) if side == 0
              else ShellPair(sa, aux, 0, 1)
              for aux in (shell_up(sh), shell_down(sh))]
    idx, lam_up = up.hermite_lambda()
    lam_dn = None
    if dn is not None:
        idx_dn, low = dn.hermite_lambda()
        where = {tuple(t): h for h, t in enumerate(idx.tolist())}
        lam_dn = np.zeros(low.shape[:2] + lam_up.shape[2:])
        lam_dn[:, :, [where[tuple(t)] for t in idx_dn.tolist()]] = low
    if side == 0:
        return assemble(sa, lam_up, lam_dn)
    # the combiner works on the leading axis
    return assemble(sb, lam_up.swapaxes(0, 1),
                    None if lam_dn is None else lam_dn.swapaxes(0, 1)
                    ).swapaxes(1, 2)


# --- matrices and the one-electron gradient, pair by pair -----------------------

def _matrix(basis, block):
    out = np.zeros((basis.nbf, basis.nbf))
    for (i, j), pair in basis.shell_pairs().items():
        blk = block(pair)
        si, sj = basis.shell_slice(i), basis.shell_slice(j)
        out[si, sj] = blk
        if i != j:
            out[sj, si] = blk.T
    return out


def overlap_matrix(basis) -> np.ndarray:
    return _matrix(basis, overlap_block)


def kinetic_matrix(basis) -> np.ndarray:
    return _matrix(basis, kinetic_block)


def nuclear_matrix(basis, mol=None) -> np.ndarray:
    mol = basis.molecule if mol is None else mol
    charges = mol.numbers.astype(np.float64)
    return _matrix(basis, lambda pair: nuclear_block(pair, charges,
                                                     mol.coords))


def dipole_matrices(basis, origin) -> np.ndarray:
    return np.stack([_matrix(basis, lambda pair: dipole_block(pair, origin)[d])
                     for d in range(3)])


def one_electron_gradient(basis, D: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``sum D dT + D dV - W dS`` over the unique shell pairs, one pair
    at a time (the bra derivative evaluated, the ket's by translational
    invariance)."""
    mol = basis.molecule
    charges = mol.numbers.astype(np.float64)
    grad = np.zeros((mol.natom, 3))
    slc = basis.shell_slices()
    for (i, j) in basis.shell_pairs():
        sa, sb = basis.shells[i], basis.shells[j]
        a, b = sa.atom, sb.atom
        Dblk = (1.0 if i == j else 2.0) * D[slc[i], slc[j]]
        dVA, dVC = nuclear_gradient(sa, sb, charges, mol.coords)
        gC = np.einsum("kdxy,xy->kd", dVC, Dblk)
        grad += gC
        grad[b] -= gC.sum(axis=0)
        if a != b:
            dh = kinetic_gradient(sa, sb) + dVA
            gA = np.einsum("dxy,xy->d", dh, Dblk) - 2.0 * np.einsum(
                "dxy,xy->d", overlap_gradient(sa, sb), W[slc[i], slc[j]])
            grad[a] += gA
            grad[b] -= gA
    return grad


__all__ = ["overlap_block", "kinetic_block", "nuclear_block",
           "dipole_block", "dipole_matrices", "shell_up",
           "shell_down", "assemble", "overlap_gradient", "kinetic_gradient",
           "nuclear_gradient", "derivative_lambda", "overlap_matrix",
           "kinetic_matrix", "nuclear_matrix", "one_electron_gradient"]
