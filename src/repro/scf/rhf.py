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
from ..runtime.boundary import check_jk_route
from .diis import DIIS
from .fock import JKEngine, make_jk_engine
from .guess import density_from_orbitals, orthogonalizer

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
        style of the paper; ``None`` (the default) lets
        :func:`repro.scf.fock.make_jk_engine` derive it from ``config``
        (direct for ``executor="process"`` or ``jk="ri"``, else
        in-core).
    screen_eps:
        Cauchy-Schwarz threshold for direct mode (the paper's
        controllable-accuracy knob).
    config:
        :class:`repro.runtime.ExecutionConfig` selecting the J/K
        engine (:func:`repro.scf.fock.make_jk_engine`:
        ``executor="process"`` and ``jk="ri"`` refuse an explicit
        ``mode="incore"``; a pool outlives single builds — it is
        spawned once and reused by every SCF iteration) and carrying
        the telemetry sinks.
    jk_engine:
        Caller-owned :class:`repro.scf.fock.JKEngine` to build through
        instead of making one (e.g. the one engine of an MD trajectory,
        which carries its worker pool across SCFs).  The driver resets
        it before the first build (:meth:`~repro.scf.fock.JKEngine.reset`:
        re-targeted if it serves another basis, cross-build history
        dropped either way) and never closes it.
    soscf_state:
        Warm-start state for the Newton solver (a dict previously
        returned on :attr:`SCFResult.soscf_state`): restores the
        adaptive trust radius and cumulative counters so SOSCF warm
        starts survive checkpoint/restore across an MD trajectory.
    """

    #: Semilocal XC integrator of the run — Hartree-Fock has none
    #: (:class:`repro.scf.dft.RKS` overrides this).
    xc = None

    #: Electrons per occupied orbital of one spin channel (UHF: 1).
    occupation = 2.0

    def __init__(self, mol: Molecule, basis: str | BasisSet = "sto-3g",
                 mode: str | None = None, screen_eps: float = 1e-10,
                 conv_tol: float = 1e-8, max_iter: int = 100,
                 diis_size: int = 8, level_shift: float = 0.0,
                 damping: float = 0.0, smearing: float = 0.0,
                 jk_engine: JKEngine | None = None, config=None,
                 soscf_state: dict | None = None):
        from ..runtime.execconfig import resolve_execution

        self._nocc = self._spin_channels(mol)
        self.config = resolve_execution(config, owner=type(self).__name__)
        check_jk_route(mode, self.config.executor, self.config.jk)
        if jk_engine is not None and jk_engine.jk != self.config.jk:
            # results and checkpoints are labelled with config.jk
            raise ValueError(f"jk_engine implements jk={jk_engine.jk!r} but "
                             f"the config says jk={self.config.jk!r}")
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
        self.scf_solver = self.config.scf_solver
        self.soscf_state = soscf_state
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

    # --- spin-channel hooks (UHF overrides these) ----------------------------

    def _spin_channels(self, mol: Molecule) -> tuple[int, ...]:
        """Occupied orbitals per spin channel: one closed-shell channel."""
        if mol.nelectron % 2 != 0:
            raise ValueError("RHF requires an even electron count; "
                             f"{mol.name or 'molecule'} has {mol.nelectron}")
        return (mol.nelectron // 2,)

    def _guess(self, hcore: np.ndarray, X: np.ndarray, D0):
        """Starting ``(densities, orbitals)`` per channel: the core
        Hamiltonian's orbitals, or a supplied ``D0`` (no orbitals)."""
        if self._nocc[0] == 0:
            raise ValueError("no electrons to correlate — check charge")
        if D0 is not None:
            return [D0.copy()], [None]
        C, _ = _canonical(hcore, X)
        return [self._density(C, self._nocc[0])], [C]

    def _density(self, C: np.ndarray, nocc: int) -> np.ndarray:
        """One channel's density from its orbitals."""
        return density_from_orbitals(C, nocc)

    def _channel_fock_energy(self, fock_energy):
        """The loop's per-channel view of :meth:`_fock_energy`'s
        closure: ``(D,) -> ((F,), E, E_x)``."""
        def per_channel(Ds):
            F, energy, ex_energy = fock_energy(Ds[0])
            return (F,), energy, ex_energy
        return per_channel

    def _result(self, Ds, Fs, orbitals, **kw) -> SCFResult:
        """The run's result from its final per-channel densities, Fock
        matrices and canonical ``(C, eps)`` pairs."""
        (C, eps), = orbitals
        return SCFResult(C=C, eps=eps, D=Ds[0], F=Fs[0], basis=self.basis,
                         energy_electronic=kw["energy"] - kw["energy_nuc"],
                         solver=self.scf_solver, **kw)

    def _next_density(self, Fd, X, S, D_old, nocc):
        """Diagonalize one channel's (possibly level-shifted) Fock
        matrix and form its next (possibly damped) density and orbitals.

        Level shifting raises the virtual orbitals by ``level_shift``
        Hartree (projector built from the current density), damping
        mixes ``damping`` of the old density into the new one — both
        standard stabilizers for hard (e.g. anionic-complex) SCFs.
        """
        f = X.T @ Fd @ X
        if self.level_shift > 0.0:
            # occupied projector in the orthonormal basis
            half = X.T @ S @ (D_old / self.occupation) @ S @ X
            f = f + self.level_shift * (np.eye(f.shape[0]) - half)
        eps, Cp = np.linalg.eigh(f)
        C = X @ Cp
        if self.smearing > 0.0:
            from .guess import density_from_occupations, fermi_occupations

            occ = fermi_occupations(eps, 2.0 * nocc, self.smearing)
            D = density_from_occupations(C, occ)
        else:
            D = self._density(C, nocc)
        if self.damping > 0.0:
            D = (1.0 - self.damping) * D + self.damping * D_old
        return D, C

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
            # every SCF starts from a full build, whatever ran before on
            # a caller-owned engine
            self._jk.reset(self.basis)
        return S, hcore

    def _close_jk(self) -> None:
        """End-of-run: an engine this run made (and any pool it
        spawned) dies with the run; a caller-owned ``jk_engine`` — its
        pool or B cache — is left for the caller."""
        if self._jk is not self.jk_engine:
            self._jk.close()

    def _prepare_xc(self) -> None:
        """Hook: build grid/XC machinery before Fock evaluation.

        Hartree-Fock has no semilocal term; :class:`repro.scf.dft.RKS`
        overrides this to build its Becke grid integrator.
        """

    def _fock_energy(self, hcore: np.ndarray, enuc: float, build=None):
        """Hook: the ``fock_energy(D) -> (F, E_total, E_x)`` closure
        both the SCF loop and the Newton solver iterate, so they
        optimize exactly the same energy.

        ``build`` is the engine call it builds J/K through: the SCF
        loop's ``self._jk.build`` by default; the Newton phase passes
        ``build_response``, the plain full build that leaves an
        increment history alone (its trial densities are not points the
        history should be anchored to).
        """
        build = build or self._jk.build

        def fock_energy(D):
            J, K = build(D)
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
        serves as a plain full build without touching that history.
        """
        def response(d, D=None):
            J, K = self._jk.build_response(d)
            return J - 0.5 * K
        return response

    # --- the SCF loop -------------------------------------------------------

    def run(self, D0: np.ndarray | None = None) -> SCFResult:
        """Iterate to self-consistency and return the result.

        ``scf_solver="diis"`` (the default) is the bit-exact DIIS
        reference; ``"soscf"``/``"auto"`` run the same loop as a rough
        phase and hand off to the Newton solver, which agrees with the
        reference energies to the convergence tolerance while spending
        fewer Fock builds (see :meth:`_run`).
        """
        return self._run(D0)

    def _run(self, D0):
        """The one SCF iteration loop, over spin channels.

        Closed shell is one channel (occupation 2), UHF two (occupation
        1); the per-channel algebra is 2-D and DIIS extrapolates the
        channels stacked.  ``scf_solver="diis"`` iterates to
        convergence.  The accelerated solvers run at most 12 iterations
        of it as the *rough* phase — ``"soscf"`` interpolating with
        ADIIS from the start, ``"auto"`` with DIIS until it visibly
        stalls far from the handoff — and leave it once the commutator
        norm crosses :data:`~repro.scf.soscf.DEFAULT_HANDOFF`, for
        trust-radius Newton micro-iterations
        (:class:`~repro.scf.soscf.NewtonSOSCF`) to the final tolerance.
        """
        from .soscf import ADIIS, DEFAULT_HANDOFF, NewtonSOSCF

        t0 = time.perf_counter()
        tr = self.config.trace
        newton = self.scf_solver != "diis"
        S, hcore = self._setup()
        try:
            self._prepare_xc()
            X = orthogonalizer(S)
            Ds, Cs = self._guess(hcore, X, D0)
            enuc = nuclear_repulsion(self.mol)
            fock_energy = self._fock_energy(hcore, enuc)
            channel_fock_energy = self._channel_fock_energy(fock_energy)
            diis = DIIS(self.diis_size)
            rough = ADIIS(self.diis_size) if self.scf_solver == "soscf" \
                else None
            if newton:
                solver = NewtonSOSCF(
                    self._fock_energy(hcore, enuc, self._jk.build_response),
                    self._soscf_response(), S, X, self._nocc[0],
                    conv_tol=self.conv_tol, trace=tr)
                if self.soscf_state is not None:
                    solver.set_state(self.soscf_state)
                builds0, micro0 = solver.fock_builds, solver.micro_iters
            Fs = [hcore] * len(Ds)
            energy = ex_energy = 0.0
            history: list[float] = []
            err_hist: list[float] = []
            converged = False
            fresh = False       # Fs/energy match the current Ds and Cs?
            phase = {"phase": "rough"} if newton else {}
            it = 0
            for it in range(1, (min(self.max_iter, 12) if newton
                                else self.max_iter) + 1):
                with tr.span("scf.iteration", cat="scf", it=it, **phase):
                    Fs, energy, ex_energy = channel_fock_energy(Ds)
                    fresh = True
                    tr.count("scf.fock_builds", 1)
                    history.append(energy)
                    with tr.span("scf.diis", cat="diis"):
                        F = np.vstack(Fs)
                        err = np.vstack([X.T @ (Fc @ Dc @ S - S @ Dc @ Fc) @ X
                                         for Fc, Dc in zip(Fs, Ds)])
                        if rough is None:
                            diis.push(F, err)
                        err_norm = float(np.abs(err).max())
                        err_hist.append(err_norm)
                    # a supplied D0 can have a vanishing commutator while
                    # being mis-normalized for this geometry; require at
                    # least one orbital update before trusting the
                    # convergence test
                    may_exit = D0 is None or it > 1
                    if may_exit and err_norm < self.conv_tol:
                        converged = True
                        break
                    if newton and may_exit and err_norm < DEFAULT_HANDOFF:
                        break
                    if self.scf_solver == "auto" and rough is None \
                            and len(err_hist) >= 6 \
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
                            Fd = diis.extrapolate()
                        else:
                            rough.push(np.vstack(Ds), F)
                            Fd = rough.fock() if rough.nvec >= 2 else F
                        Ds, Cs = zip(*(
                            self._next_density(Fc, X, S, Dc, n)
                            for Fc, Dc, n in zip(np.split(Fd, len(Ds)), Ds,
                                                 self._nocc)))
                        fresh = False
            niter = fock_builds = it
            micro_iters = 0
            if newton:
                if not converged:
                    # the rough phase's (F, E) pair is reusable when it
                    # still matches the orbitals: no update ran after the
                    # build, and no damping mixed D away from 2 C_o C_o^T
                    C = Cs[0]
                    state = (Fs[0], energy, ex_energy) \
                        if (fresh and C is not None and self.damping == 0.0) \
                        else None
                    if C is None:
                        # a supplied D0 carries no orbitals: canonicalize
                        C, _ = _canonical(Fs[0], X)
                    out = solver.solve(C, max_macro=max(self.max_iter - it, 1),
                                       history=history, state=state)
                    converged = out["converged"]
                    Ds, Fs = [out["D"]], [out["F"]]
                    energy, ex_energy = out["energy"], out["exchange_energy"]
                    niter += out["niter"]
                fock_builds += solver.fock_builds - builds0
                micro_iters = solver.micro_iters - micro0
        finally:
            self._close_jk()
        if tr.enabled:
            tr.metrics.set("scf.niter", niter)
            tr.metrics.set("scf.converged", int(converged))
            tr.metrics.set("scf.diis_fallbacks", diis.fallbacks)
        # canonicalize against the final Fock matrices: the loop's
        # orbitals lag one iteration behind (and are the bare core-guess
        # values when convergence hits on iteration 1)
        return self._result(
            Ds, Fs, [_canonical(F, X) for F in Fs], energy=energy,
            energy_nuc=enuc, exchange_energy=ex_energy, converged=converged,
            niter=niter, S=S, hcore=hcore, history=history,
            fock_builds=fock_builds, micro_iters=micro_iters,
            soscf_state=solver.get_state() if newton else None,
            wall_s=time.perf_counter() - t0)


def _canonical(F: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical orbitals and energies ``(C, eps)`` of ``F``."""
    eps, Cp = np.linalg.eigh(X.T @ F @ X)
    return X @ Cp, eps


def run_rhf(mol: Molecule, basis: str = "sto-3g", **kw) -> SCFResult:
    """One-call RHF: build basis, iterate, return the result."""
    return RHF(mol, basis, **kw).run()
