"""Analytic nuclear gradients of the closed-shell SCF energy (HF, LDA,
PBE, PBE0 with exact four-index J/K).

For a converged density ``D`` the gradient of the energy the SCF
minimised is its explicit derivative at fixed ``D`` minus the
energy-weighted density ``W = 2 C_occ eps_occ C_occ^T`` against the
overlap derivative:

    dE/dX = sum_pq D_pq dh_pq/dX  -  sum_pq W_pq dS_pq/dX  +  dV_nn/dX
          + sum_abcd Gamma_abcd d(ab|cd)/dX
          + dE_xc/dX |_D

    Gamma_abcd = 1/2 D_ab D_cd - a_x/4 D_ac D_bd

with ``a_x`` the exact-exchange fraction (1 for HF, 0.25 for PBE0, 0 for
a pure functional — the exchange half is then skipped).  The terms:

* **one-electron** — Pulay (basis-function) derivatives of T, V and S
  plus the Hellmann-Feynman operator term of V, over *unique* shell
  pairs, one pair class at a time from the stacked Hermite E tables the
  SCF's S, T and V were built from (:mod:`repro.integrals.pairclass`);
  the ket derivative follows from translational invariance.
* **two-electron** — the surviving 8-fold-unique shell quartets, walked
  class by class: one Hermite Coulomb table of order ``L + 1`` per chunk
  (:func:`repro.integrals.batch._hermite_stage`) serves the raised and
  lowered shells of all three differentiated centres, because they share
  exponents and product centres with the plain quartet; the raise/lower
  combination is folded into the pair's Hermite lambda, built for every
  pair of a pair class at once (:meth:`repro.integrals.gradients.
  DerivativePairs.dlam`), so one :func:`~repro.integrals.batch.
  _lambda_contract` per centre yields ``d(ab|cd)/dA`` for the whole
  chunk, which is contracted with ``Gamma`` on the spot; the two bra
  centres read one gather of the table (:func:`~repro.integrals.batch.
  _hermite_gather`).  The fourth centre follows from translational
  invariance; a quartet with all four shells on one atom cancels
  identically and is never evaluated, and a differentiated centre that
  sits on the fourth shell's atom is never added.  Memory:
  the chunk's Hermite table, under the one per-geometry walk budget
  :data:`~repro.integrals.batch.WALK_SCRATCH` (at 2^19 doubles most
  classes are one chunk, and the walk is ~40 % faster than under the
  former 2^17 cap), its derivative blocks and ``Gamma`` blocks — never
  anything of size ``nbf^4``.
* **semilocal XC** — on the SCF's own :class:`~repro.scf.dft.
  XCIntegrator` grid: ``v_rho``/``v_sigma`` against AO first and (GGA)
  second derivatives, *and* the derivative of the Becke partition
  weights, *and* the motion of each atom's grid points with their
  nucleus (by translational invariance of that atom's block).  The
  quadrature is part of the energy that was minimised: the weight term
  and the point motion are each of order 1 Ha/bohr on water and cancel
  to the physical force, so neither can be left out.

Derivative integrals are restricted to s/p shells (every basis this
reproduction ships; :mod:`repro.integrals.gradients`).
"""

from __future__ import annotations

import numpy as np

from ..basis.basisset import BasisSet
from ..basis.shellpair import hermite_indices
from ..chem.molecule import Molecule
from ..integrals.batch import (WALK_SCRATCH, _bra_layout, _hermite_gather,
                               _hermite_stage, _ket_layout, _lambda_contract,
                               _stage_chunk)
from ..integrals.eri import ERIEngine
from ..integrals.gradients import DerivativePairs
from ..integrals.pairclass import (_blocks, _grid, _pair_walk, _Side,
                                   pair_classes)
from ..runtime.telemetry import NULL_TRACER
from .grid import eval_aos
from .rhf import SCFResult

__all__ = ["scf_gradient", "nuclear_repulsion_gradient"]

#: Schwarz threshold of the derivative walk: a quartet is skipped when
#: ``Q_ij Q_kl max|D|^2`` falls below it.
_SCREEN_EPS = 1e-11

#: Ceiling, in doubles, on the largest per-chunk intermediate of the XC
#: term (AO Hessians ``9 nbf`` per point, Becke cell derivatives
#: ``3 natom^2`` per point).
_XC_SCRATCH = 1 << 16


def nuclear_repulsion_gradient(mol: Molecule) -> np.ndarray:
    """dV_nn/dX, shape ``(natom, 3)``: ``-sum_j Z_i Z_j (R_i - R_j) /
    |R_i - R_j|^3`` over every pair at once."""
    z = mol.numbers.astype(np.float64)
    d = mol.coords[:, None, :] - mol.coords[None, :, :]
    r = np.sqrt((d * d).sum(axis=2))
    np.fill_diagonal(r, np.inf)
    return -((z[:, None] * z[None, :] / r ** 3)[:, :, None] * d).sum(axis=1)


def _energy_weighted_density(res: SCFResult) -> np.ndarray:
    nocc = res.nocc
    C = res.C[:, :nocc]
    return 2.0 * (C * res.eps[:nocc][None, :]) @ C.T


def scf_gradient(res: SCFResult, xc=None, trace=None) -> np.ndarray:
    """Analytic dE/dX of a converged closed-shell SCF state, shape
    ``(natom, 3)``.

    ``xc`` is the run's :class:`~repro.scf.dft.XCIntegrator`
    (:attr:`repro.scf.dft.RKS.xc`) — its functional sets the exchange
    fraction and its grid carries the semilocal term; ``None`` is
    Hartree-Fock.  The state must come from exact (four-index) J/K: a
    density-fitted energy has another derivative.  ``trace`` receives
    the ``md.gradient.*`` spans and counters.
    """
    tr = trace if trace is not None else NULL_TRACER
    basis = res.basis
    table = DerivativePairs(basis.shells, pair_classes(basis))
    a_x = 1.0 if xc is None else xc.functional.hfx_fraction
    grad = nuclear_repulsion_gradient(basis.molecule)
    with tr.span("md.gradient.one_electron", cat="gradient"):
        grad += _one_electron_gradient(
            basis, res.D, _energy_weighted_density(res), table)
    with tr.span("md.gradient.two_electron", cat="gradient"):
        g2, stats = _two_electron_gradient(basis, res.D, a_x, _SCREEN_EPS,
                                           table)
        grad += g2
    del table
    if xc is not None:
        with tr.span("md.gradient.xc", cat="gradient"):
            grad += _xc_gradient(basis, res.D, xc)
    if tr.enabled:
        for name, n in stats.items():
            tr.metrics.count(f"md.gradient.{name}", n)
    return grad


# --- one-electron -------------------------------------------------------------

def _one_electron_gradient(basis: BasisSet, D: np.ndarray, W: np.ndarray,
                           table: DerivativePairs) -> np.ndarray:
    """``sum D dT + D dV - W dS`` over the unique shell pairs ``i <= j``
    (an off-diagonal pair stands for both orders), one pair class at a
    time.

    The bra derivative is evaluated; the ket's is its negative for T and
    S, and ``-(bra + sum of operator terms)`` for V.  On a pair whose
    shells share an atom the bra and ket terms cancel, leaving only the
    Hellmann-Feynman term.
    """
    mol = basis.molecule
    charges = mol.numbers.astype(np.float64)
    atom = np.array([sh.atom for sh in basis.shells])
    grad = np.zeros((mol.natom, 3))
    for c, cls in enumerate(table.classes):
        a, b = atom[cls.ij[:, 0]], atom[cls.ij[:, 1]]
        r, s = table.classes.ao(cls)
        blk = (r[:, :, None], s[:, None, :])
        Dm = np.where(cls.ij[:, 0] == cls.ij[:, 1], 1.0, 2.0)[:, None, None] \
            * D[blk]
        dS, dT = cls.overlap_kinetic_derivatives()
        dVA, dVC = cls.nuclear_derivatives(charges, mol.coords,
                                           table.dlam(c, 0))
        gC = np.einsum("mkdxy,mxy->mkd", dVC, Dm)
        grad += gC.sum(axis=0)
        np.add.at(grad, b, -gC.sum(axis=1))
        gA = np.einsum("mdxy,mxy->md", dT + dVA, Dm) \
            - 2.0 * np.einsum("mdxy,mxy->md", dS, W[blk])
        gA[a == b] = 0.0
        np.add.at(grad, a, gA)
        np.add.at(grad, b, -gA)
    return grad


# --- two-electron -------------------------------------------------------------

def _two_electron_gradient(basis: BasisSet, D: np.ndarray, a_x: float,
                           screen_eps: float, table: DerivativePairs
                           ) -> tuple[np.ndarray, dict]:
    """``sum_abcd [1/2 D_ab D_cd - a_x/4 D_ac D_bd] d(ab|cd)/dX`` over
    the 8-fold-unique shell quartets (``i <= j``, ``k <= l``,
    ``ij <= kl``) that pass ``Q_ij Q_kl max|D|^2 >= screen_eps``.

    The walk reads the pair table's blocks in screen chunks
    (:func:`_survivors`), so no index list outgrows one chunk.  The
    images of a unique quartet share its derivative integrals, so they
    enter through their count and the density factor averaged over
    them, ``1/2 D_ij D_kl - a_x/8 (D_ik D_jl + D_il D_jk)``.  Returns the
    gradient and the walk's counts: ``quartets`` differentiated,
    ``class_batches`` (Hermite tables built) and ``skipped_by_symmetry``
    (quartets plus single centres dropped because they cancel).
    """
    atom = np.array([sh.atom for sh in basis.shells])
    grad = np.zeros((basis.molecule.natom, 3))
    dmax = float(np.abs(D).max())
    stats = {"quartets": 0, "class_batches": 0, "skipped_by_symmetry": 0}
    for bra, ket in _blocks(_pair_walk(ERIEngine(basis))):
        _differentiate_class(basis, D, a_x, table, bra.cid, ket.cid,
                             _survivors(bra, ket, dmax, screen_eps, atom,
                                        stats), atom, grad, stats)
    return grad, stats


def _survivors(bra: _Side, ket: _Side, dmax: float, screen_eps: float,
               atom: np.ndarray, stats: dict):
    """``(bra rows, ket rows)`` per chunk of the block's
    :func:`~repro.integrals.pairclass._grid`: the quartets with ``Q_ij
    Q_kl max|D|^2 >= screen_eps`` whose shells do not all sit on one atom
    (those cancel), both counted on ``stats``.  Between chunks it holds
    the grid, two masks and the rows it yields: under 26 bytes a cell."""
    # a pair's atom if its two shells share one, else a code no other pair has
    bsite, ksite = (np.where(at[:, 0] == at[:, 1], at[:, 0], -1 - side)
                    for side, at in enumerate((atom[bra.ij], atom[ket.ij])))
    for r, U, G in _grid(bra, ket):
        U &= G * dmax * dmax >= screen_eps
        one = U & (bsite[r, None] == ksite)
        U ^= one
        a, b = np.nonzero(U)
        a = r[a]
        stats["skipped_by_symmetry"] += int(np.count_nonzero(one))
        stats["quartets"] += len(a)
        yield a, b


def _differentiate_class(basis: BasisSet, D: np.ndarray, a_x: float,
                         table: DerivativePairs, cb: int, ck: int, rows,
                         atom: np.ndarray, grad: np.ndarray,
                         stats: dict) -> None:
    """Add the quartets ``rows`` yields (:func:`_survivors`) of the block
    of pair classes ``cb`` and ``ck`` to ``grad``/``stats``.  Every
    kernel input is a row gather from the two classes' stacks, set up
    once for the block, and each chunk is cut into Hermite tables under
    :data:`~repro.integrals.batch.WALK_SCRATCH` doubles."""
    bra, ket = table.classes.pair_class(cb), table.classes.pair_class(ck)
    L1, L2 = bra.la + bra.lb, ket.la + ket.lb
    nab, ncd = bra.p.shape[1], ket.p.shape[1]
    l1_u, l2t_u = _bra_layout(bra.lam()), _ket_layout(ket.lam())
    idx1, idx2 = hermite_indices(L1), hermite_indices(L2)
    up1, up2 = hermite_indices(L1 + 1), hermite_indices(L2 + 1)
    # derivative lambdas of the bra's two centres and of the ket's first
    bra_d = [_bra_layout(table.dlam(cb, side)) for side in (0, 1)]
    ket_d = _ket_layout(table.dlam(ck, 0))
    nfn = bra.shape + ket.shape
    nab_f, ncd_f = nfn[0] * nfn[1], nfn[2] * nfn[3]
    chunk = _stage_chunk(L1 + L2 + 1, nab * ncd, WALK_SCRATCH)
    for rb, rk in rows:
        for lo in range(0, len(rb), chunk):
            bq, kq = rb[lo:lo + chunk], rk[lo:lo + chunk]
            q = np.hstack([bra.ij[bq], ket.ij[kq]])
            ao = [basis.offsets[q[:, s], None] + np.arange(nfn[s])
                  for s in range(4)]
            images = ((1 + (q[:, 0] != q[:, 1])) * (1 + (q[:, 2] != q[:, 3]))
                      * (1 + ((q[:, 0] != q[:, 2]) | (q[:, 1] != q[:, 3])))
                      ).astype(np.float64)
            # a differentiated centre on the fourth shell's atom cancels:
            # its derivative is evaluated with the chunk and never added
            moved = atom[q[:, :3]] != atom[q[:, 3:]]
            stats["skipped_by_symmetry"] += int((~moved).sum())
            R, pref = _hermite_stage(L1 + L2 + 1, bra.p[bq], ket.p[kq],
                                     bra.P[bq], ket.P[kq], None)
            stats["class_batches"] += 1
            gamma = (_gamma_blocks(D, ao, a_x)
                     * images[:, None, None, None, None]).reshape(
                         len(q), nab_f, ncd_f)
            g = np.empty((len(q), 3, 3))      # (quartet, centre, direction)
            # i and j read the bra's raised orders against the plain ket
            rg = _hermite_gather(R, pref, up1, idx2)
            for c in (0, 1):
                blocks = _lambda_contract(rg, bra_d[c][bq], l2t_u[kq],
                                          len(idx2))
                g[:, c] = np.einsum("mxpq,mpq->mx", blocks.reshape(
                    len(q), 3, nab_f, ncd_f), gamma)
            del rg
            # k: the plain bra against the ket's raised orders
            blocks = _lambda_contract(_hermite_gather(R, pref, idx1, up2),
                                      l1_u[bq], ket_d[kq], len(up2))
            g[:, 2] = np.einsum("mpxq,mpq->mx", blocks.reshape(
                len(q), nab_f, 3, ncd_f), gamma)
            g *= moved[:, :, None]
            np.add.at(grad, atom[q[:, :3]], g)
            # fourth centre from translational invariance
            np.add.at(grad, atom[q[:, 3]], -g.sum(axis=1))
            # the next chunk's table is built with this one released
            del R, pref


def _gamma_blocks(D: np.ndarray, ao: list[np.ndarray], a_x: float
                  ) -> np.ndarray:
    """``1/2 D_ij D_kl - a_x/8 (D_ik D_jl + D_il D_jk)`` for a stack of
    quartets, shape ``(m, ni, nj, nk, nl)``; ``ao[s]`` holds the AO
    indices of shell ``s`` of every quartet, ``(m, n_s)``."""
    def blk(s, t):
        return D[ao[s][:, :, None], ao[t][:, None, :]]

    gamma = 0.5 * blk(0, 1)[:, :, :, None, None] \
        * blk(2, 3)[:, None, None, :, :]
    if a_x:
        gamma -= 0.125 * a_x * (
            blk(0, 2)[:, :, None, :, None] * blk(1, 3)[:, None, :, None, :]
            + blk(0, 3)[:, :, None, None, :] * blk(1, 2)[:, None, :, :, None])
    return gamma


# --- semilocal exchange-correlation ---------------------------------------------

def _xc_gradient(basis: BasisSet, D: np.ndarray, xc,
                 weight_derivatives: bool = True) -> np.ndarray:
    """``dE_xc/dX`` at fixed ``D`` on the integrator's own grid.

    Each point moves rigidly with the nucleus it was generated around,
    so its contribution to its *own* atom — AO motion relative to the
    point — is minus the sum of its contributions to the others.
    ``weight_derivatives=False`` leaves out the Becke-partition term (a
    test shows what that costs; nothing in the package turns it off).
    Points are walked in chunks whose largest intermediate (the AO
    Hessian, or the pairwise cell derivatives) stays under
    ``_XC_SCRATCH`` doubles.
    """
    mol, grid, func = basis.molecule, xc.grid, xc.functional
    gga = func.needs_gradient
    rho, aux = xc.density_on_grid(D)
    sigma, grad_rho = aux if gga else (aux, None)
    exc, vrho, vsigma = func.evaluate(rho, sigma)
    ao_atom = np.zeros((basis.nbf, mol.natom))
    ao_atom[np.arange(basis.nbf),
            np.repeat([sh.atom for sh in basis.shells],
                      [sh.nfunc for sh in basis.shells])] = 1.0
    grad = np.zeros((mol.natom, 3))
    chunk = max(1, _XC_SCRATCH // max(9 * basis.nbf, 3 * mol.natom ** 2))
    for lo in range(0, grid.npts, chunk):
        sel = slice(lo, min(lo + chunk, grid.npts))
        w = grid.weights[sel]
        ao, dao, *hess = eval_aos(basis, grid.points[sel],
                                  deriv=2 if gga else 1)
        tmp = ao @ D
        X = (w * vrho[sel])[None, :, None] * dao * tmp[None]
        if gga:
            # 2 w v_sigma grad(rho) . d(grad rho)/dX
            gv = 2.0 * w * vsigma[sel] * grad_rho[:, sel]
            X += np.einsum("ig,jigp->jgp", gv, hess[0]) * tmp[None]
            X += dao * (np.einsum("ig,igp->gp", gv, dao) @ D)[None]
        per_atom = -2.0 * (X @ ao_atom).transpose(1, 2, 0)    # (g, atom, 3)
        g = np.arange(len(w))
        per_atom[g, grid.owner[sel]] = 0.0
        per_atom[g, grid.owner[sel]] = -per_atom.sum(axis=1)
        grad += per_atom.sum(axis=0)
        if weight_derivatives:
            grad += np.einsum("g,gkd->kd", exc[sel],
                              grid.weight_gradient(mol, sel))
    return grad
