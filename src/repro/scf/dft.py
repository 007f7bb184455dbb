"""Restricted Kohn-Sham DFT with hybrid functionals (PBE, PBE0).

The PBE0 driver is the paper's production method: the exact-exchange
quarter is what the parallel HFX scheme evaluates, while the semilocal
3/4 of exchange plus correlation is integrated on the Becke grid.
"""

from __future__ import annotations

import numpy as np

from ..chem.molecule import Molecule
from .functionals import Functional, get_functional
from .grid import MolecularGrid, eval_aos
from .rhf import RHF, SCFResult

__all__ = ["RKS", "run_rks", "XCIntegrator"]


class XCIntegrator:
    """Grid integration of the semilocal exchange-correlation term.

    Caches AO values/gradients on the grid; each SCF iteration costs a
    pair of matrix products plus the pointwise functional evaluation.
    """

    def __init__(self, basis, grid: MolecularGrid, functional: Functional):
        self.grid = grid
        self.functional = functional
        if functional.needs_gradient:
            self.ao, self.ao_grad = eval_aos(basis, grid.points, deriv=1)
        else:
            self.ao = eval_aos(basis, grid.points, deriv=0)
            self.ao_grad = None

    def density_on_grid(self, D: np.ndarray):
        """Electron density (and gradient invariant) on the grid."""
        ao = self.ao
        tmp = ao @ D                   # (npts, nbf)
        rho = np.einsum("gp,gp->g", tmp, ao)
        rho = np.maximum(rho, 0.0)
        if self.ao_grad is None:
            return rho, np.zeros_like(rho)
        grad_rho = 2.0 * np.einsum("dgp,gp->dg", self.ao_grad, tmp)
        sigma = np.einsum("dg,dg->g", grad_rho, grad_rho)
        return rho, (sigma, grad_rho)

    def exc_and_potential(self, D: np.ndarray) -> tuple[float, np.ndarray]:
        """XC energy and the AO-basis XC potential matrix."""
        w = self.grid.weights
        ao = self.ao
        if self.ao_grad is None:
            rho, _ = self.density_on_grid(D)
            exc, vrho, _ = self.functional.evaluate(rho, np.zeros_like(rho))
            e = float(w @ exc)
            wv = w * vrho
            V = (ao * wv[:, None]).T @ ao
            return e, 0.5 * (V + V.T)
        rho, (sigma, grad_rho) = self.density_on_grid(D)
        exc, vrho, vsigma = self.functional.evaluate(rho, sigma)
        e = float(w @ exc)
        wv = w * vrho
        V = (ao * wv[:, None]).T @ ao
        # GGA term: 2 vsigma grad_rho . grad(phi_p phi_q)
        wg = 2.0 * w * vsigma          # (npts,)
        gvec = grad_rho * wg[None, :]  # (3, npts)
        half = np.einsum("dg,dgp->gp", gvec, self.ao_grad)
        V += half.T @ ao + ao.T @ half
        return e, 0.5 * (V + V.T)

    def nelec_on_grid(self, D: np.ndarray) -> float:
        """Integrated density — a grid-quality diagnostic."""
        rho, _ = self.density_on_grid(D)
        rho = rho if isinstance(rho, np.ndarray) else rho[0]
        return float(self.grid.weights @ rho)


class RKS(RHF):
    """Restricted Kohn-Sham SCF on top of the RHF machinery.

    Parameters beyond :class:`RHF`:

    functional:
        ``"lda"``, ``"pbe"``, ``"pbe0"`` (or ``"hf"``, which reduces to
        RHF exactly).
    grid_level:
        ``(n_radial, n_angular)`` for the Becke grid.
    """

    def __init__(self, mol: Molecule, basis="sto-3g",
                 functional: str = "pbe0",
                 grid_level: tuple[int, int] = (30, 26), **kw):
        super().__init__(mol, basis, **kw)
        self.functional = get_functional(functional)
        self.grid_level = grid_level
        self._xc: XCIntegrator | None = None

    @property
    def xc(self) -> XCIntegrator | None:
        """The run's grid integrator (``None`` before :meth:`run`, and
        for ``functional="hf"``)."""
        return self._xc

    def _prepare_xc(self) -> None:
        """Build the Becke grid integrator (no-op for pure HF)."""
        if self.functional.name.lower() != "hf" and self._xc is None:
            grid = MolecularGrid.build(self.mol, *self.grid_level)
            self._xc = XCIntegrator(self.basis, grid, self.functional)

    def run(self, D0: np.ndarray | None = None) -> SCFResult:
        """Iterate the Kohn-Sham equations to self-consistency.

        The loop is :class:`RHF`'s — its DIIS and rough phases and the
        Newton solver all iterate this class's :meth:`_fock_energy` /
        :meth:`_soscf_response` hooks.
        """
        return self._run(D0)

    # --- Fock hooks (see RHF._run) -------------------------------------------

    def _fock_energy(self, hcore: np.ndarray, enuc: float, build=None):
        """Kohn-Sham ``fock_energy(D)``: Coulomb + scaled exact
        exchange + grid-integrated semilocal XC.  A pure functional
        (``hfx_fraction == 0``) never asks the engine for K.  ``build``
        as in :meth:`RHF._fock_energy`."""
        a_hfx = self.functional.hfx_fraction
        pure_hf = self.functional.name.lower() == "hf"
        tr = self.config.trace
        build = build or self._jk.build

        def fock_energy(D):
            need_k = a_hfx > 0.0
            J, K = build(D, want_k=need_k)
            F = hcore + J
            e2 = 0.5 * float(np.einsum("pq,pq->", D, J))
            exc = 0.0
            ex_energy = 0.0
            if need_k:
                F = F - 0.5 * a_hfx * K
                ex_energy = -0.25 * float(np.einsum("pq,pq->", K, D))
                exc += a_hfx * ex_energy
            if not pure_hf:
                with tr.span("xc.integrate", cat="xc"):
                    e_xc_sl, Vxc = self._xc.exc_and_potential(D)
                F = F + Vxc
                exc += e_xc_sl
            e_core = float(np.einsum("pq,pq->", D, hcore))
            return F, e_core + e2 + exc + enuc, ex_energy
        return fock_energy

    def _soscf_response(self):
        """Kohn-Sham response ``J(d) - 0.5 a_hfx K(d) + f_xc[D]·d``.

        The semilocal XC-kernel term is evaluated *seminumerically*: a
        central finite difference of the cached-grid potential,
        ``(Vxc(D + h u) - Vxc(D - h u)) / 2h`` with ``u = d/|d|_max``.
        Two grid integrations per micro-iteration — a pair of
        ``(npts, nbf)`` matrix products against the cached AO table,
        far cheaper than the ERI response build — buy back the
        quadratic convergence that the bare "HF response"
        approximation forfeits for PBE/PBE0.
        """
        a_hfx = self.functional.hfx_fraction
        pure_hf = self.functional.name.lower() == "hf"

        def response(d, D=None):
            J, K = self._jk.build_response(d, want_k=a_hfx > 0.0)
            G = J - 0.5 * a_hfx * K if a_hfx > 0.0 else J
            if pure_hf or D is None:
                return G
            nrm = float(np.abs(d).max())
            if nrm <= 0.0:
                return G
            h = 1e-4                       # absolute step along u
            u = d / nrm
            _, Vp = self._xc.exc_and_potential(D + h * u)
            _, Vm = self._xc.exc_and_potential(D - h * u)
            return G + (nrm / (2.0 * h)) * (Vp - Vm)
        return response


def run_rks(mol: Molecule, basis: str = "sto-3g", functional: str = "pbe0",
            **kw) -> SCFResult:
    """One-call restricted Kohn-Sham SCF."""
    return RKS(mol, basis, functional=functional, **kw).run()
