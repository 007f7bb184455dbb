"""Analytic RHF nuclear gradients.

The closed-shell gradient of the SCF energy:

    dE/dX = sum_pq D_pq dh_pq/dX
          + sum_abcd [1/2 D_ab D_cd - 1/4 D_ac D_bd] d(ab|cd)/dX
          - sum_pq W_pq dS_pq/dX
          + dV_nn/dX

with the energy-weighted density W = 2 C_occ eps_occ C_occ^T.  All
derivative integrals come from :mod:`repro.integrals.gradients`
(Cartesian raise/lower; s/p shells).  Intended for the small systems
the quantum MD runs on — the quartet-derivative loop walks the
8-fold-unique shell quartets with Schwarz screening.
"""

from __future__ import annotations

import numpy as np

from ..basis.basisset import BasisSet
from ..chem.molecule import Molecule
from ..integrals.eri import ERIEngine
from ..integrals.gradients import (eri_gradient_quartet, kinetic_gradient,
                                   nuclear_gradient, overlap_gradient)
from .rhf import SCFResult

__all__ = ["rhf_gradient", "nuclear_repulsion_gradient",
           "AnalyticSCFForceEngine"]


def nuclear_repulsion_gradient(mol: Molecule) -> np.ndarray:
    """dV_nn/dX, shape ``(natom, 3)``."""
    g = np.zeros((mol.natom, 3))
    z = mol.numbers.astype(np.float64)
    for i in range(mol.natom):
        for j in range(mol.natom):
            if i == j:
                continue
            d = mol.coords[i] - mol.coords[j]
            r = np.linalg.norm(d)
            g[i] -= z[i] * z[j] * d / r ** 3
    return g


def _energy_weighted_density(res: SCFResult) -> np.ndarray:
    nocc = res.nocc
    C = res.C[:, :nocc]
    return 2.0 * (C * res.eps[:nocc][None, :]) @ C.T


def rhf_gradient(res: SCFResult, screen_eps: float = 1e-11) -> np.ndarray:
    """Analytic dE/dX of a converged RHF state, shape ``(natom, 3)``."""
    basis = res.basis
    mol = basis.molecule
    D = res.D
    W = _energy_weighted_density(res)
    natom = mol.natom
    grad = nuclear_repulsion_gradient(mol)
    charges = mol.numbers.astype(np.float64)
    centers = mol.coords
    shells = basis.shells

    # --- one-electron terms (loop over ordered shell pairs; each block's
    # bra derivative is computed directly and its ket derivative is
    # completed by translational invariance) ---------------------------------
    for i, sa in enumerate(shells):
        si = basis.shell_slice(i)
        for j, sb in enumerate(shells):
            sj = basis.shell_slice(j)
            Dblk = D[si, sj]
            Wblk = W[si, sj]
            # kinetic + overlap: dT/dB = -dT/dA (no operator center)
            dT = kinetic_gradient(sa, sb)
            dS = overlap_gradient(sa, sb)
            gA = np.einsum("dxy,xy->d", dT, Dblk) \
                - np.einsum("dxy,xy->d", dS, Wblk)
            grad[sa.atom] += gA
            grad[sb.atom] -= gA
            # nuclear attraction: bra + per-nucleus operator
            # (Hellmann-Feynman) terms; ket = -(bra + sum of operator)
            dVA, dVC = nuclear_gradient(sa, sb, charges, centers)
            gA_v = np.einsum("dxy,xy->d", dVA, Dblk)
            gC_v = np.einsum("kdxy,xy->kd", dVC, Dblk)
            grad[sa.atom] += gA_v
            grad += gC_v
            grad[sb.atom] -= gA_v + gC_v.sum(axis=0)

    return grad + _two_electron_gradient(basis, D, screen_eps)


def _two_electron_gradient(basis: BasisSet, D: np.ndarray,
                           screen_eps: float) -> np.ndarray:
    """``sum_abcd [1/2 D_ab D_cd - 1/4 D_ac D_bd] d(ab|cd)/dX`` over the
    8-fold-unique shell quartets (``i <= j``, ``k <= l``, ``ij <= kl``).

    The images of a unique quartet share its derivative integrals, so
    they enter through their count and the density factor averaged over
    them, ``1/2 D_ij D_kl - 1/8 (D_ik D_jl + D_il D_jk)``.
    """
    shells = basis.shells
    grad = np.zeros((basis.molecule.natom, 3))
    Q = ERIEngine(basis).schwarz_bounds()
    dmax = float(np.abs(D).max())
    slc = basis.shell_slices()
    keys = list(Q)                      # (i, j), i <= j, in pair order
    for a, (i, j) in enumerate(keys):
        for (k, l) in keys[a:]:
            if Q[i, j] * Q[k, l] * dmax * dmax < screen_eps:
                continue
            dE = eri_gradient_quartet(shells[i], shells[j],
                                      shells[k], shells[l])
            si, sj, sk, sl = slc[i], slc[j], slc[k], slc[l]
            gam = (0.5 * np.einsum("xy,zw->xyzw", D[si, sj], D[sk, sl])
                   - 0.125 * (np.einsum("xz,yw->xyzw", D[si, sk], D[sj, sl])
                              + np.einsum("xw,yz->xyzw", D[si, sl],
                                          D[sj, sk])))
            images = ((1 if i == j else 2) * (1 if k == l else 2)
                      * (1 if (i, j) == (k, l) else 2))
            gctr = images * np.einsum("cdxyzw,xyzw->cd", dE, gam)
            for c, s in enumerate((i, j, k)):
                grad[shells[s].atom] += gctr[c]
            # fourth center from translational invariance
            grad[shells[l].atom] -= gctr.sum(axis=0)
    return grad


class AnalyticSCFForceEngine:
    """Force engine on analytic RHF gradients (drop-in replacement for
    the finite-difference :class:`~repro.md.bomd.SCFForceEngine` on
    closed-shell s/p systems — one SCF per force call instead of 6N+1).
    """

    def __init__(self, mol: Molecule, basis: str = "sto-3g",
                 conv_tol: float = 1e-9, reuse_density: bool = True):
        self.mol = mol
        self.basis_name = basis
        self.conv_tol = conv_tol
        self.reuse_density = reuse_density
        self.last_result: SCFResult | None = None
        self.scf_iterations: list[int] = []

    def energy_forces(self, coords: np.ndarray) -> tuple[float, np.ndarray]:
        """SCF energy and analytic forces (-gradient)."""
        from .rhf import RHF

        mol = self.mol.with_coords(np.asarray(coords, dtype=np.float64))
        D0 = self.last_result.D if (self.reuse_density and
                                    self.last_result is not None) else None
        res = RHF(mol, self.basis_name, conv_tol=self.conv_tol).run(D0=D0)
        if not res.converged:
            raise RuntimeError("SCF failed to converge for forces")
        self.last_result = res
        self.scf_iterations.append(res.niter)
        return res.energy, -rhf_gradient(res)
