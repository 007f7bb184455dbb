"""Unrestricted Hartree-Fock for open-shell species.

The lithium/air problem is full of radicals — superoxide O2^-, LiO2,
atomic Li — and the paper's MD treats them spin-unrestricted.  This
driver runs :class:`~repro.scf.rhf.RHF`'s SCF loop for arbitrary spin
multiplicities: separate alpha/beta Fock operators, commutator-DIIS on
the stacked spin blocks, level shifting, and the spin-contamination
diagnostic <S^2>.

Execution rides the same :class:`repro.runtime.ExecutionConfig` as the
restricted driver, through the same
:func:`~repro.scf.fock.make_jk_engine` factory: the direct route
builds J/K by the screened quartet walk (optionally on the worker
pool) or, with ``jk="ri"``, through a fitted tensor shared by the J
build and *both* spin exchange builds of every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..basis.basisset import BasisSet
from ..chem.molecule import Molecule
from .fock import JKEngine
from .rhf import RHF, _canonical

__all__ = ["UHFResult", "UHF", "run_uhf"]


@dataclass
class UHFResult:
    """Converged (or best-effort) unrestricted SCF state."""

    energy: float
    energy_nuc: float
    converged: bool
    niter: int
    C_a: np.ndarray
    C_b: np.ndarray
    eps_a: np.ndarray
    eps_b: np.ndarray
    D_a: np.ndarray
    D_b: np.ndarray
    S: np.ndarray
    basis: BasisSet
    nalpha: int
    nbeta: int
    history: list[float] = field(default_factory=list)
    solver: str = "diis"
    fock_builds: int = 0
    wall_s: float = 0.0

    @property
    def D_total(self) -> np.ndarray:
        """Total (spin-summed) density matrix."""
        return self.D_a + self.D_b

    @property
    def spin_density(self) -> np.ndarray:
        """Spin density matrix D_a - D_b."""
        return self.D_a - self.D_b

    def s_squared(self) -> float:
        """<S^2> including the contamination term.

        Exact value for a pure state: S(S+1) with S = (na - nb)/2.
        """
        na, nb = self.nalpha, self.nbeta
        s = 0.5 * (na - nb)
        exact = s * (s + 1.0)
        # overlap of alpha and beta occupied orbitals
        Sab = self.C_a[:, :na].T @ self.S @ self.C_b[:, :nb]
        contamination = nb - float((Sab * Sab).sum())
        return exact + contamination

    def summary(self) -> dict:
        """Compact scalar surface, same envelope as the RHF result
        (schema-versioned; see :mod:`repro.runtime.schema`)."""
        from ..runtime.schema import result_envelope

        return result_envelope(
            "scf", wall_s=self.wall_s,
            counters={
                "scf.fock_builds": int(self.fock_builds),
                "scf.niter": int(self.niter),
            },
            energy=float(self.energy),
            energy_nuc=float(self.energy_nuc),
            converged=bool(self.converged),
            niter=int(self.niter),
            nbf=int(self.basis.nbf),
            nalpha=int(self.nalpha),
            nbeta=int(self.nbeta),
            s_squared=float(self.s_squared()),
            solver=str(self.solver),
            fock_builds=int(self.fock_builds),
        )


class UHF(RHF):
    """Unrestricted Hartree-Fock driver.

    Parameters mirror :class:`~repro.scf.rhf.RHF` (``mode``/``config``/
    ``jk_engine`` select in-core vs direct vs fitted integral plumbing;
    ``mode=None`` lets the factory derive the route from ``config``);
    ``break_symmetry`` mixes the alpha HOMO/LUMO of the initial guess,
    which lets singlet-biradical states escape the restricted solution.

    The iterations are :class:`RHF`'s loop over two spin channels with
    one electron per occupied orbital; this class supplies only the
    spin counts, the guess, the ``(Fa, Fb)`` Fock build and its result.
    """

    occupation = 1.0

    def __init__(self, mol: Molecule, basis: str | BasisSet = "sto-3g",
                 mode: str | None = None,
                 conv_tol: float = 1e-8, max_iter: int = 150,
                 diis_size: int = 8, level_shift: float = 0.0,
                 break_symmetry: bool = False, screen_eps: float = 1e-10,
                 jk_engine: JKEngine | None = None, config=None):
        super().__init__(mol, basis, mode=mode, screen_eps=screen_eps,
                         conv_tol=conv_tol, max_iter=max_iter,
                         diis_size=diis_size, level_shift=level_shift,
                         jk_engine=jk_engine, config=config)
        if self.scf_solver != "diis":
            raise ValueError("UHF runs the DIIS loop only; the Newton "
                             "solver's rotation parametrization is "
                             "closed-shell")
        self.nalpha, self.nbeta = self._nocc
        self.break_symmetry = break_symmetry

    def run(self, D0: tuple[np.ndarray, np.ndarray] | None = None
            ) -> UHFResult:
        """Iterate the unrestricted SCF equations to self-consistency
        (``D0`` is an optional ``(Da, Db)`` starting pair)."""
        return self._run(D0)

    # --- spin-channel hooks of the RHF loop ----------------------------------

    def _spin_channels(self, mol: Molecule) -> tuple[int, int]:
        """``(nalpha, nbeta)`` for the molecule's multiplicity."""
        nel = mol.nelectron
        nunpaired = mol.multiplicity - 1
        if (nel - nunpaired) % 2 != 0 or nunpaired > nel:
            raise ValueError(
                f"multiplicity {mol.multiplicity} is impossible for "
                f"{nel} electrons")
        return (nel + nunpaired) // 2, (nel - nunpaired) // 2

    def _guess(self, hcore, X, D0):
        """Core-Hamiltonian orbitals for both spins (the alpha HOMO/LUMO
        rotated by pi/8 under ``break_symmetry``), or a supplied
        ``(Da, Db)``."""
        if D0 is not None:
            return [D0[0].copy(), D0[1].copy()], [None, None]
        na, nb = self._nocc
        Ca, _ = _canonical(hcore, X)
        Cb = Ca.copy()
        if self.break_symmetry and na < Ca.shape[1]:
            theta = 0.25 * np.pi / 2
            h, l = Ca[:, na - 1].copy(), Ca[:, na].copy()
            Ca[:, na - 1] = np.cos(theta) * h + np.sin(theta) * l
            Ca[:, na] = -np.sin(theta) * h + np.cos(theta) * l
        return [self._density(Ca, na), self._density(Cb, nb)], [Ca, Cb]

    def _density(self, C, nocc):
        """One electron per occupied spin orbital."""
        return C[:, :nocc] @ C[:, :nocc].T

    def _fock_energy(self, hcore, enuc):
        """``fock_energy((Da, Db)) -> ((Fa, Fb), E_total, 0.0)``: one J
        of the total density and one K per spin."""
        def fock_energy(Ds):
            Da, Db = Ds
            Dt = Da + Db
            J, _ = self._jk.build(Dt, want_k=False)
            _, Ka = self._jk.build(Da, want_j=False)
            _, Kb = self._jk.build(Db, want_j=False)
            Fa = hcore + J - Ka
            Fb = hcore + J - Kb
            e_el = 0.5 * float(np.einsum("pq,pq->", Dt, hcore)
                               + np.einsum("pq,pq->", Da, Fa)
                               + np.einsum("pq,pq->", Db, Fb))
            return (Fa, Fb), e_el + enuc, 0.0
        return fock_energy

    def _channel_fock_energy(self, fock_energy):
        """:meth:`_fock_energy`'s closure is per channel already."""
        return fock_energy

    def _result(self, Ds, Fs, orbitals, *, energy, energy_nuc, converged,
                niter, S, history, fock_builds, wall_s, **_) -> UHFResult:
        (Ca, eps_a), (Cb, eps_b) = orbitals
        return UHFResult(
            energy=energy, energy_nuc=energy_nuc, converged=converged,
            niter=niter, C_a=Ca, C_b=Cb, eps_a=eps_a, eps_b=eps_b,
            D_a=Ds[0], D_b=Ds[1], S=S, basis=self.basis, nalpha=self.nalpha,
            nbeta=self.nbeta, history=history, solver=self.scf_solver,
            fock_builds=fock_builds, wall_s=wall_s)


def run_uhf(mol: Molecule, basis: str = "sto-3g", **kw) -> UHFResult:
    """One-call UHF."""
    return UHF(mol, basis, **kw).run()
