"""Restricted Hartree-Fock with DIIS.

The RHF driver is both a validation target (literature STO-3G energies)
and the host of the HFX build the paper parallelizes: every SCF
iteration calls one :class:`~repro.scf.fock.JKEngine`, and
:mod:`repro.hfx` partitions exactly the quartets the direct engine
walks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..basis.basisset import BasisSet, build_basis
from ..chem.molecule import Molecule, nuclear_repulsion
# eri_tensor is not called here any more (TensorJKEngine owns it), but
# bench/tests/test_tracing.py uses this module's copied binding to prove
# the span patcher reaches every namespace — the name stays importable
from ..integrals import (eri_tensor, kinetic_matrix,  # noqa: F401
                         nuclear_matrix, overlap_matrix)
from .diis import DIIS
from .fock import JKEngine, check_jk_mode, make_jk_engine
from .guess import core_guess, density_from_orbitals, orthogonalizer

__all__ = ["SCFResult", "RHF", "run_rhf"]


@dataclass
class SCFResult:
    """Converged (or best-effort) SCF state."""

    energy: float
    energy_nuc: float
    energy_electronic: float
    converged: bool
    niter: int
    C: np.ndarray
    eps: np.ndarray
    D: np.ndarray
    F: np.ndarray
    S: np.ndarray
    hcore: np.ndarray
    basis: BasisSet
    exchange_energy: float = 0.0
    history: list[float] = field(default_factory=list)
    solver: str = "diis"
    fock_builds: int = 0
    micro_iters: int = 0
    soscf_state: dict | None = None
    wall_s: float = 0.0

    @property
    def nocc(self) -> int:
        """Number of doubly occupied orbitals."""
        return self.basis.molecule.nelectron // 2

    def homo_lumo_gap(self) -> float:
        """HOMO-LUMO gap in Hartree.

        ``inf`` when the frontier pair does not exist: no occupied
        orbitals (``nocc == 0`` — there is no HOMO to wrap to) or no
        virtuals.  Canonical orthogonalization can project
        near-linearly-dependent combinations out of the spectrum, so
        ``eps`` may be shorter than ``nbf``; a density that needs more
        orbitals than the projected spectrum holds is an error, not a
        silent out-of-range read.
        """
        n = self.nocc
        nmo = len(self.eps)
        if n > nmo:
            raise ValueError(
                f"homo_lumo_gap: {n} occupied orbitals but only {nmo} "
                f"orbital energies — the orthogonalizer's linear-"
                f"dependence projection left too few orbitals for the "
                f"electron count")
        if n == 0 or n == nmo:
            return np.inf
        return float(self.eps[n] - self.eps[n - 1])

    def mulliken_charges(self) -> np.ndarray:
        """Mulliken atomic partial charges."""
        pop = np.einsum("pq,qp->p", self.D, self.S)
        charges = self.basis.molecule.numbers.astype(float).copy()
        for ish, sh in enumerate(self.basis.shells):
            sl = self.basis.shell_slice(ish)
            charges[sh.atom] -= pop[sl].sum()
        return charges

    def summary(self) -> dict:
        """Compact scalar surface (tables, CLI JSON) — no matrices.

        A schema-versioned record (see :mod:`repro.runtime.schema`):
        the envelope keys (``schema_version``/``kind``/``wall_s``/
        ``counters``) plus the SCF payload.
        """
        from ..runtime.schema import result_envelope

        return result_envelope(
            "scf", wall_s=self.wall_s,
            counters={
                "scf.fock_builds": int(self.fock_builds),
                "scf.micro_iters": int(self.micro_iters),
                "scf.niter": int(self.niter),
            },
            energy=float(self.energy),
            energy_nuc=float(self.energy_nuc),
            energy_electronic=float(self.energy_electronic),
            exchange_energy=float(self.exchange_energy),
            homo_lumo_gap=float(self.homo_lumo_gap()),
            converged=bool(self.converged),
            niter=int(self.niter),
            nbf=int(self.basis.nbf),
            nocc=int(self.nocc),
            solver=str(self.solver),
            fock_builds=int(self.fock_builds),
            micro_iters=int(self.micro_iters),
        )

    def to_dict(self) -> dict:
        """Full JSON-serializable dump (adds per-iteration history and
        orbital energies; matrices stay on the dataclass)."""
        d = self.summary()
        d["history"] = [float(e) for e in self.history]
        d["orbital_energies"] = [float(e) for e in self.eps]
        d["mulliken_charges"] = [float(q) for q in self.mulliken_charges()]
        return d


class RHF:
    """Restricted Hartree-Fock driver.

    Parameters
    ----------
    mol:
        Closed-shell molecule (even electron count).
    basis:
        Basis-set name (see :func:`repro.basis.available_basis_sets`)
        or a prebuilt :class:`BasisSet`.
    mode:
        ``"incore"`` materializes the ERI tensor (small systems);
        ``"direct"`` uses screened shell-quartet builds — the execution
        style of the paper.
    screen_eps:
        Cauchy-Schwarz threshold for direct mode (the paper's
        controllable-accuracy knob).
    config:
        :class:`repro.runtime.ExecutionConfig` selecting the J/K
        engine (:func:`repro.scf.fock.make_jk_engine`:
        ``executor="process"`` and ``jk="ri"`` require
        ``mode="direct"``; a pool outlives single builds — it is
        spawned once and reused by every SCF iteration) and carrying
        the telemetry sinks.
    jk_engine:
        Caller-owned :class:`repro.scf.fock.JKEngine` to build through
        instead of making one (e.g. the one engine of an MD trajectory,
        which carries its worker pool, fitted-tensor cache or increment
        history across SCFs).  The driver re-targets it if it serves
        another basis and never closes it.
    soscf_rough:
        Rough-phase interpolation for ``scf_solver="soscf"``:
        ``"adiis"`` (default) or ``"ediis"`` — see
        :mod:`repro.scf.soscf`.  Ignored by the other solvers
        (``"auto"`` roughs with plain DIIS so its pre-handoff iterates
        match the reference loop).
    soscf_state:
        Warm-start state for the Newton solver (a dict previously
        returned on :attr:`SCFResult.soscf_state`): restores the
        adaptive trust radius and cumulative counters so SOSCF warm
        starts survive checkpoint/restore across an MD trajectory.
    """

    #: Semilocal XC integrator of the run — Hartree-Fock has none
    #: (:class:`repro.scf.dft.RKS` overrides this).
    xc = None

    def __init__(self, mol: Molecule, basis: str | BasisSet = "sto-3g",
                 mode: str = "incore", screen_eps: float = 1e-10,
                 conv_tol: float = 1e-8, max_iter: int = 100,
                 diis_size: int = 8, level_shift: float = 0.0,
                 damping: float = 0.0, smearing: float = 0.0,
                 jk_engine: JKEngine | None = None, config=None,
                 soscf_rough: str = "adiis",
                 soscf_state: dict | None = None):
        from ..runtime.execconfig import resolve_execution

        if mol.nelectron % 2 != 0:
            raise ValueError("RHF requires an even electron count; "
                             f"{mol.name or 'molecule'} has {mol.nelectron}")
        self.config = resolve_execution(config, owner=type(self).__name__)
        check_jk_mode(mode, self.config, engine=jk_engine)
        self.mol = mol
        self.basis = basis if isinstance(basis, BasisSet) else build_basis(mol, basis)
        self.mode = mode
        self.screen_eps = screen_eps
        self.conv_tol = conv_tol
        self.max_iter = max_iter
        self.diis_size = diis_size
        self.level_shift = level_shift
        self.damping = damping
        self.smearing = smearing
        self.executor = self.config.executor
        self.nworkers = self.config.nworkers
        self.scf_solver = self.config.scf_solver
        self.soscf_rough = soscf_rough
        self.soscf_state = soscf_state
        if soscf_rough not in ("adiis", "ediis"):
            raise ValueError(f"soscf_rough must be 'adiis' or 'ediis', "
                             f"got {soscf_rough!r}")
        if self.scf_solver != "diis" and smearing > 0.0:
            raise ValueError(
                "fractional (smeared) occupations break the "
                "occupied-virtual rotation parametrization of the "
                "Newton solver; use scf_solver='diis' with smearing")
        self.jk_engine = jk_engine
        if not 0.0 <= damping < 1.0:
            raise ValueError("damping must be in [0, 1)")
        if smearing < 0.0:
            raise ValueError("smearing must be non-negative")
        self._jk: JKEngine | None = None

    def _next_density(self, Fd, X, S, D_old, nocc):
        """Diagonalize the (possibly level-shifted) Fock matrix and form
        the next (possibly damped) density.

        Level shifting raises the virtual orbitals by ``level_shift``
        Hartree (projector built from the current density), damping
        mixes ``damping`` of the old density into the new one — both
        standard stabilizers for hard (e.g. anionic-complex) SCFs.
        """
        f = X.T @ Fd @ X
        if self.level_shift > 0.0:
            # occupied projector in the orthonormal basis
            half = X.T @ S @ (0.5 * D_old) @ S @ X
            f = f + self.level_shift * (np.eye(f.shape[0]) - half)
        eps, Cp = np.linalg.eigh(f)
        C = X @ Cp
        if self.smearing > 0.0:
            from .guess import density_from_occupations, fermi_occupations

            occ = fermi_occupations(eps, 2.0 * nocc, self.smearing)
            D = density_from_occupations(C, occ)
        else:
            D = density_from_orbitals(C, nocc)
        if self.damping > 0.0:
            D = (1.0 - self.damping) * D + self.damping * D_old
        return D, C, eps

    # --- integral plumbing ---------------------------------------------------

    def _setup(self):
        with self.config.trace.span("scf.setup", cat="scf",
                                    mode=self.mode, nbf=self.basis.nbf):
            S = overlap_matrix(self.basis)
            T = kinetic_matrix(self.basis)
            V = nuclear_matrix(self.basis)
            hcore = T + V
            self._jk = self.jk_engine or make_jk_engine(
                self.basis, self.config, self.screen_eps, mode=self.mode)
            if self._jk.basis is not self.basis:
                self._jk.reset(self.basis)
        return S, hcore

    def _close_jk(self) -> None:
        """End-of-run: an engine this run made (and any pool it
        spawned) dies with the run; a caller-owned ``jk_engine`` — its
        pool, B cache or increment history — is left for the caller."""
        if self._jk is not self.jk_engine:
            self._jk.close()

    # --- SCF loop -------------------------------------------------------------

    def run(self, D0: np.ndarray | None = None) -> SCFResult:
        """Iterate to self-consistency and return the result.

        ``scf_solver="diis"`` (the default) runs the bit-exact DIIS
        reference loop (:meth:`_run_diis`); ``"soscf"``/``"auto"``
        dispatch to the accelerated Newton path (:meth:`_run_soscf`),
        which agrees with the reference energies to the convergence
        tolerance while spending fewer Fock builds.
        """
        return self._run(D0)

    def _run(self, D0):
        if self.scf_solver != "diis":
            return self._run_soscf(D0)
        return self._run_diis(D0)

    def _run_diis(self, D0: np.ndarray | None = None) -> SCFResult:
        """The DIIS reference loop, shared by every closed-shell driver
        through the :meth:`_fock_energy` hook."""
        t0 = time.perf_counter()
        S, hcore = self._setup()
        self._prepare_xc()
        nocc = self.mol.nelectron // 2
        if nocc == 0:
            raise ValueError("no electrons to correlate — check charge")
        if D0 is None:
            D, C, eps = core_guess(hcore, S, nocc)
        else:
            D, C, eps = D0.copy(), None, None
        X = orthogonalizer(S)
        enuc = nuclear_repulsion(self.mol)
        fock_energy = self._fock_energy(hcore, enuc)
        diis = DIIS(self.diis_size)
        F = hcore
        energy = 0.0
        ex_energy = 0.0
        history: list[float] = []
        converged = False
        it = 0
        tr = self.config.trace
        try:
            for it in range(1, self.max_iter + 1):
                with tr.span("scf.iteration", cat="scf", it=it):
                    F, energy, ex_energy = fock_energy(D)
                    tr.count("scf.fock_builds", 1)
                    history.append(energy)
                    with tr.span("scf.diis", cat="diis"):
                        err = X.T @ (F @ D @ S - S @ D @ F) @ X
                        diis.push(F, err)
                        err_norm = diis.error_norm()
                    # a supplied D0 can have a vanishing commutator while
                    # being mis-normalized for this geometry; require at
                    # least one orbital update before trusting the
                    # convergence test
                    may_exit = D0 is None or it > 1
                    if may_exit and err_norm < self.conv_tol:
                        converged = True
                        break
                    with tr.span("scf.update", cat="scf"):
                        Fd = diis.extrapolate()
                        D, C, eps = self._next_density(Fd, X, S, D, nocc)
        finally:
            self._close_jk()
        if tr.enabled:
            tr.metrics.set("scf.niter", it)
            tr.metrics.set("scf.converged", int(converged))
            tr.metrics.set("scf.diis_fallbacks", diis.fallbacks)
        # canonicalize against the final Fock matrix: the loop's C/eps
        # lag one iteration behind (and are the bare core-guess values
        # when convergence hits on iteration 1)
        f = X.T @ F @ X
        eps, Cp = np.linalg.eigh(f)
        C = X @ Cp
        return SCFResult(
            energy=energy, energy_nuc=enuc, energy_electronic=energy - enuc,
            converged=converged, niter=it, C=C, eps=eps, D=D, F=F, S=S,
            hcore=hcore, basis=self.basis, exchange_energy=ex_energy,
            history=history, solver="diis", fock_builds=it,
            wall_s=time.perf_counter() - t0,
        )

    # --- accelerated (SOSCF) path --------------------------------------------

    def _prepare_xc(self) -> None:
        """Hook: build grid/XC machinery before Fock evaluation.

        Hartree-Fock has no semilocal term; :class:`repro.scf.dft.RKS`
        overrides this to build its Becke grid integrator.
        """

    def _fock_energy(self, hcore: np.ndarray, enuc: float):
        """Hook: the ``fock_energy(D) -> (F, E_total, E_x)`` closure
        both the DIIS reference loop and the Newton path iterate, so
        they optimize exactly the same energy.
        """
        def fock_energy(D):
            J, K = self._jk.build(D)
            F = hcore + J - 0.5 * K
            e_el = 0.5 * float(np.einsum("pq,pq->", D, hcore + F))
            ex = -0.25 * float(np.einsum("pq,pq->", K, D))
            return F, e_el + enuc, ex
        return fock_energy

    def _soscf_response(self):
        """``response(d, D) -> J(d) - 0.5 K(d)`` closure for the Newton
        micro-iterations (``D``, the base density, is unused for pure
        Hartree-Fock — the Kohn-Sham override differentiates its grid
        potential around it).

        Perturbation densities go through
        :meth:`~repro.scf.fock.JKEngine.build_response`, which an
        engine with cross-build history (an
        :class:`~repro.hfx.IncrementalExchange` is anchored to the SCF
        density trajectory — a response density would poison it)
        serves without touching that history.
        """
        def response(d, D=None):
            J, K = self._jk.build_response(d)
            return J - 0.5 * K
        return response

    def _run_soscf(self, D0: np.ndarray | None = None) -> SCFResult:
        """The accelerated convergence stack (``scf_solver != "diis"``).

        Phase 1 (*rough*): ``"auto"`` runs plain DIIS iterations —
        identical stabilizers (level shift, damping) to the reference
        loop — until the commutator norm crosses the handoff threshold
        or visibly stalls; ``"soscf"`` instead interpolates with
        ADIIS/EDIIS, which tolerates far-from-converged starts.
        Phase 2: trust-radius Newton micro-iterations
        (:class:`repro.scf.soscf.NewtonSOSCF`) to the final tolerance.
        """
        from .soscf import ADIIS, DEFAULT_HANDOFF, EDIIS, NewtonSOSCF

        t0 = time.perf_counter()
        S, hcore = self._setup()
        self._prepare_xc()
        nocc = self.mol.nelectron // 2
        if nocc == 0:
            raise ValueError("no electrons to correlate — check charge")
        if D0 is None:
            D, C, _ = core_guess(hcore, S, nocc)
        else:
            D, C = D0.copy(), None
        X = orthogonalizer(S)
        enuc = nuclear_repulsion(self.mol)
        fock_energy = self._fock_energy(hcore, enuc)
        tr = self.config.trace
        auto = self.scf_solver == "auto"
        diis = DIIS(self.diis_size)
        rough = None if auto else \
            (EDIIS if self.soscf_rough == "ediis" else ADIIS)(self.diis_size)
        solver = NewtonSOSCF(fock_energy, self._soscf_response(), S, X,
                             nocc, conv_tol=self.conv_tol, trace=tr)
        if self.soscf_state is not None:
            solver.set_state(self.soscf_state)
        builds0, micro0 = solver.fock_builds, solver.micro_iters
        energy = 0.0
        ex_energy = 0.0
        history: list[float] = []
        err_hist: list[float] = []
        converged = False
        nrough = 0
        rough_builds = 0
        try:
            # --- phase 1: rough convergence ------------------------------
            max_rough = min(self.max_iter, 12)
            F = None
            fresh = False       # F/energy match the current D and C?
            while nrough < max_rough:
                nrough += 1
                with tr.span("scf.iteration", cat="scf", it=nrough,
                             phase="rough"):
                    F, energy, ex_energy = fock_energy(D)
                    fresh = True
                    rough_builds += 1
                    tr.count("scf.fock_builds", 1)
                    history.append(energy)
                    err = X.T @ (F @ D @ S - S @ D @ F) @ X
                    err_norm = float(np.abs(err).max())
                    err_hist.append(err_norm)
                    # see _run_diis(): a supplied D0 can have a vanishing
                    # commutator while being wrong for this geometry
                    may_exit = D0 is None or nrough > 1
                    if may_exit and err_norm < self.conv_tol:
                        converged = True
                        break
                    if may_exit and err_norm < DEFAULT_HANDOFF:
                        break                      # hand off to Newton
                    if auto and rough is None and len(err_hist) >= 6 \
                            and err_hist[-1] > 0.5 * err_hist[-4]:
                        # DIIS is stalling.  Close to convergence the
                        # Newton solver takes it from here; far out a
                        # premature handoff can drop Newton into the
                        # basin of a saddle (metastable SCF solution),
                        # so the rough phase switches to ADIIS instead
                        if err_norm < 10.0 * DEFAULT_HANDOFF:
                            break
                        rough = ADIIS(self.diis_size)
                    with tr.span("scf.update", cat="scf"):
                        if rough is None:
                            diis.push(F, err)
                            Fd = diis.extrapolate()
                        else:
                            rough.push(D, F, energy)
                            Fd = rough.fock() if rough.nvec >= 2 else F
                        D, C, _ = self._next_density(Fd, X, S, D, nocc)
                        fresh = False
            # --- phase 2: Newton macro/micro iterations ------------------
            niter = nrough
            if not converged:
                # the rough phase's (F, E) pair is reusable when it
                # still matches the orbitals: no update ran after the
                # build, and no damping mixed D away from 2 C_o C_o^T
                state = (F, energy, ex_energy) \
                    if (fresh and C is not None and self.damping == 0.0) \
                    else None
                if C is None:
                    # a supplied D0 carries no orbitals: canonicalize
                    f = X.T @ F @ X
                    _, Cp = np.linalg.eigh(f)
                    C = X @ Cp
                out = solver.solve(
                    C, max_macro=max(self.max_iter - nrough, 1),
                    history=history, state=state)
                converged = out["converged"]
                D, F = out["D"], out["F"]
                energy, ex_energy = out["energy"], out["exchange_energy"]
                niter = nrough + out["niter"]
        finally:
            self._close_jk()
        if tr.enabled:
            tr.metrics.set("scf.niter", niter)
            tr.metrics.set("scf.converged", int(converged))
            tr.metrics.set("scf.diis_fallbacks", diis.fallbacks)
        # canonicalize against the final Fock matrix (see _run_diis())
        f = X.T @ F @ X
        eps, Cp = np.linalg.eigh(f)
        C = X @ Cp
        return SCFResult(
            energy=energy, energy_nuc=enuc, energy_electronic=energy - enuc,
            converged=converged, niter=niter, C=C, eps=eps, D=D, F=F, S=S,
            hcore=hcore, basis=self.basis, exchange_energy=ex_energy,
            history=history, solver=self.scf_solver,
            fock_builds=rough_builds + solver.fock_builds - builds0,
            micro_iters=solver.micro_iters - micro0,
            soscf_state=solver.get_state(),
            wall_s=time.perf_counter() - t0,
        )


def run_rhf(mol: Molecule, basis: str = "sto-3g", **kw) -> SCFResult:
    """One-call RHF: build basis, iterate, return the result."""
    return RHF(mol, basis, **kw).run()
