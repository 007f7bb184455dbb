"""Unrestricted Hartree-Fock for open-shell species.

The lithium/air problem is full of radicals — superoxide O2^-, LiO2,
atomic Li — and the paper's MD treats them spin-unrestricted.  This
driver provides the same machinery as :class:`~repro.scf.rhf.RHF` for
arbitrary spin multiplicities: separate alpha/beta Fock operators,
commutator-DIIS on the stacked spin blocks, level shifting, and the
spin-contamination diagnostic <S^2>.

Execution rides the same :class:`repro.runtime.ExecutionConfig` as the
restricted driver, through the same
:func:`~repro.scf.fock.make_jk_engine` factory: ``mode="direct"``
builds J/K by the screened quartet walk (optionally on the worker
pool) or, with ``jk="ri"``, through a fitted tensor shared by the J
build and *both* spin exchange builds of every iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..basis.basisset import BasisSet, build_basis
from ..chem.molecule import Molecule, nuclear_repulsion
from ..integrals import kinetic_matrix, nuclear_matrix, overlap_matrix
from .diis import DIIS
from .fock import JKEngine, check_jk_mode, make_jk_engine
from .guess import orthogonalizer

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


class UHF:
    """Unrestricted Hartree-Fock driver.

    Parameters mirror :class:`~repro.scf.rhf.RHF` (``mode``/``config``/
    ``jk_engine`` select in-core vs direct vs fitted integral plumbing);
    ``break_symmetry`` mixes the alpha HOMO/LUMO of the initial guess,
    which lets singlet-biradical states escape the restricted solution.
    """

    def __init__(self, mol: Molecule, basis: str | BasisSet = "sto-3g",
                 mode: str = "incore",
                 conv_tol: float = 1e-8, max_iter: int = 150,
                 diis_size: int = 8, level_shift: float = 0.0,
                 break_symmetry: bool = False, screen_eps: float = 1e-10,
                 jk_engine: JKEngine | None = None, config=None):
        from ..runtime.execconfig import resolve_execution

        nel = mol.nelectron
        nunpaired = mol.multiplicity - 1
        if (nel - nunpaired) % 2 != 0 or nunpaired > nel:
            raise ValueError(
                f"multiplicity {mol.multiplicity} is impossible for "
                f"{nel} electrons")
        self.config = resolve_execution(config, owner="UHF")
        check_jk_mode(mode, self.config, engine=jk_engine)
        if self.config.scf_solver != "diis":
            raise ValueError("UHF implements the DIIS reference loop only; "
                             "the Newton solver's rotation parametrization "
                             "is closed-shell")
        self.mol = mol
        self.basis = basis if isinstance(basis, BasisSet) \
            else build_basis(mol, basis)
        self.mode = mode
        self.screen_eps = screen_eps
        self.nalpha = (nel + nunpaired) // 2
        self.nbeta = (nel - nunpaired) // 2
        self.conv_tol = conv_tol
        self.max_iter = max_iter
        self.diis_size = diis_size
        self.level_shift = level_shift
        self.break_symmetry = break_symmetry
        self.jk_engine = jk_engine
        self._jk: JKEngine | None = None

    # --- integral plumbing ---------------------------------------------------

    def _build_jk(self, Da: np.ndarray, Db: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(J[Da+Db], K[Da], K[Db])`` for the current spin densities."""
        J, _ = self._jk.build(Da + Db, want_k=False)
        _, Ka = self._jk.build(Da, want_j=False)
        _, Kb = self._jk.build(Db, want_j=False)
        return J, Ka, Kb

    # --- SCF loop ------------------------------------------------------------

    def run(self, D0: tuple[np.ndarray, np.ndarray] | None = None
            ) -> UHFResult:
        """Iterate the unrestricted SCF equations to self-consistency."""
        t0 = time.perf_counter()
        tr = self.config.trace
        with tr.span("scf.setup", cat="scf", mode=self.mode,
                     nbf=self.basis.nbf):
            S = overlap_matrix(self.basis)
            hcore = kinetic_matrix(self.basis) + nuclear_matrix(self.basis)
            # a caller-owned engine is re-targeted if needed, never closed
            self._jk = self.jk_engine or make_jk_engine(
                self.basis, self.config, self.screen_eps, mode=self.mode)
            if self._jk.basis is not self.basis:
                self._jk.reset(self.basis)
        X = orthogonalizer(S)
        enuc = nuclear_repulsion(self.mol)
        na, nb = self.nalpha, self.nbeta

        def make_density(C, nocc):
            return C[:, :nocc] @ C[:, :nocc].T

        if D0 is not None:
            Da, Db = D0[0].copy(), D0[1].copy()
            Ca = Cb = None
            eps_a = eps_b = None
        else:
            f = X.T @ hcore @ X
            eps_a, Cp = np.linalg.eigh(f)
            Ca = X @ Cp
            Cb = Ca.copy()
            eps_b = eps_a.copy()
            if self.break_symmetry and na < Ca.shape[1]:
                theta = 0.25 * np.pi / 2
                h, l = Ca[:, na - 1].copy(), Ca[:, na].copy()
                Ca[:, na - 1] = np.cos(theta) * h + np.sin(theta) * l
                Ca[:, na] = -np.sin(theta) * h + np.cos(theta) * l
            Da = make_density(Ca, na)
            Db = make_density(Cb, nb)

        diis = DIIS(self.diis_size)
        nbf = self.basis.nbf
        energy = 0.0
        history: list[float] = []
        converged = False
        fock_builds = 0
        it = 0
        try:
            for it in range(1, self.max_iter + 1):
                with tr.span("scf.iteration", cat="scf", it=it):
                    Dt = Da + Db
                    J, Ka, Kb = self._build_jk(Da, Db)
                    fock_builds += 1
                    Fa = hcore + J - Ka
                    Fb = hcore + J - Kb
                    e_el = 0.5 * float(np.einsum("pq,pq->", Dt, hcore)
                                       + np.einsum("pq,pq->", Da, Fa)
                                       + np.einsum("pq,pq->", Db, Fb))
                    energy = e_el + enuc
                    history.append(energy)
                    err_a = X.T @ (Fa @ Da @ S - S @ Da @ Fa) @ X
                    err_b = X.T @ (Fb @ Db @ S - S @ Db @ Fb) @ X
                    err = np.vstack([err_a, err_b])
                    stacked = np.vstack([Fa, Fb])
                    with tr.span("scf.diis", cat="diis"):
                        diis.push(stacked, err)
                    may_exit = D0 is None or it > 1
                    if may_exit and diis.error_norm() < self.conv_tol:
                        converged = True
                        break
                    with tr.span("scf.update", cat="scf"):
                        Fd = diis.extrapolate()
                        Fa_d, Fb_d = Fd[:nbf], Fd[nbf:]

                        def advance(F, D_old, nocc):
                            f = X.T @ F @ X
                            if self.level_shift > 0.0:
                                proj = X.T @ S @ D_old @ S @ X
                                f = f + self.level_shift * (
                                    np.eye(f.shape[0]) - proj)
                            eps, Cp = np.linalg.eigh(f)
                            C = X @ Cp
                            return make_density(C, nocc), C, eps

                        Da, Ca, eps_a = advance(Fa_d, Da, na)
                        Db, Cb, eps_b = advance(Fb_d, Db, nb)
        finally:
            # an engine (and pool) this run made dies with the run
            if self._jk is not self.jk_engine:
                self._jk.close()
        if tr.enabled:
            tr.metrics.set("scf.niter", it)
            tr.metrics.set("scf.converged", int(converged))
            tr.metrics.count("scf.fock_builds", fock_builds)
        # canonicalize against the final Fock matrices (the loop's
        # orbitals lag one iteration behind; see RHF.run)
        _, Ca, eps_a = self._final_orbitals(Fa, X)
        _, Cb, eps_b = self._final_orbitals(Fb, X)
        return UHFResult(
            energy=energy, energy_nuc=enuc, converged=converged, niter=it,
            C_a=Ca, C_b=Cb, eps_a=eps_a, eps_b=eps_b, D_a=Da, D_b=Db,
            S=S, basis=self.basis, nalpha=na, nbeta=nb, history=history,
            solver=self.config.scf_solver, fock_builds=fock_builds,
            wall_s=time.perf_counter() - t0,
        )

    @staticmethod
    def _final_orbitals(F, X):
        f = X.T @ F @ X
        eps, Cp = np.linalg.eigh(f)
        return None, X @ Cp, eps


def run_uhf(mol: Molecule, basis: str = "sto-3g", **kw) -> UHFResult:
    """One-call UHF."""
    return UHF(mol, basis, **kw).run()
