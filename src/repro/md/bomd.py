"""Born-Oppenheimer molecular dynamics on SCF forces.

The paper's production method: every MD step converges the electronic
structure (PBE0 in their case) and moves nuclei on the resulting
surface.  A force call is **one SCF plus the analytic gradient of that
SCF's energy** (:func:`repro.scf.gradient.scf_gradient`: Pulay and
Hellmann-Feynman one-electron terms, class-batched derivative quartets,
semilocal XC with Becke-weight derivatives) whenever the gradient is the
derivative of the energy actually minimised — closed-shell HF/LDA/PBE/
PBE0 with exact J/K, on either executor, kernel and solver.  With
``jk="ri"`` the minimised energy is the density-fitted one, whose
derivative a four-index gradient is not: there the engine differentiates
the SCF energy by central differences (``6N + 1`` SCFs, exact to
O(h^2)) — the same private method the tests call as the oracle for the
analytic route.  The route follows from the resolved config; there is no
option that selects it.

Two paper-specific behaviors are reproduced:

* the converged density of the previous step seeds the next step's SCF
  (halves the iteration count — the MD tailoring the title refers to);
* per-step SCF iteration and screened-quartet statistics are recorded,
  feeding the incremental-build experiment (F8).

:class:`BOMD` is the one trajectory runner: ``n_outer=1`` is plain
velocity Verlet, ``n_outer > 1`` multiple time steps (r-RESPA, Mandal
et al.) with the full SCF force every ``n_outer`` inner steps.

Checkpoint/restart (the job-level counterpart to the pool's
worker-level fault tolerance): :class:`BOMD` and
:class:`SCFForceEngine` implement the
:class:`repro.runtime.Restartable` protocol, and a trajectory run with
``ExecutionConfig(checkpoint_dir=...)`` auto-snapshots every
``checkpoint_every`` steps (plus once whenever the worker pool degrades
to serial).  :func:`restore_md` revives the newest uncorrupted
snapshot and continues **bit-identically** — warm-start density,
thermostat random stream, and step counter included — on a freshly
spawned pool (live pool state is never serialized).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ..chem.molecule import Molecule
from ..runtime.boundary import check
from ..runtime.checkpoint import CheckpointError, SnapshotInfo
from ..runtime.execconfig import ExecutionConfig
from ..basis.basisset import build_basis
from ..scf.fock import make_jk_engine
from ..scf.gradient import scf_gradient
from ..scf.guess import ASPCExtrapolator
from ..scf.rhf import SCFResult
from ..scf.route import scf_driver
from ..scf.uhf import UHF
from .integrator import MDState, VelocityVerlet
from .respa import RESPAIntegrator

__all__ = ["SCFForceEngine", "BOMD", "CheckpointedMD", "restore_md"]


@dataclass
class _WarmStart:
    """Restored stand-in for the previous step's converged SCF result.

    Only the density matters for warm-starting the next SCF; the full
    :class:`SCFResult` (Fock/MO matrices, basis handle) is rebuilt by
    the first post-restore force evaluation.
    """

    D: np.ndarray
    energy: float = 0.0
    niter: int = 0


@dataclass
class SCFForceEngine:
    """Energy and forces from any closed-shell SCF method: one SCF plus
    its analytic gradient (:attr:`analytic`), or a central-difference
    stencil of SCF energies where no analytic gradient applies.

    Parameters
    ----------
    mol:
        Template molecule (numbers/charge; coordinates replaced per call).
    method:
        ``"hf"`` or a DFT functional name (``"pbe"``, ``"pbe0"``...);
        :func:`repro.scf.scf_driver` picks the driver, and an open-shell
        molecule is refused.
    fd_step:
        Central-difference displacement in Bohr (finite-difference
        route only).
    reuse_density:
        Seed each SCF with the previous converged density.
    config:
        :class:`repro.runtime.ExecutionConfig`.  Every SCF of the
        trajectory — HF or Kohn-Sham — builds through *one*
        :class:`repro.scf.fock.JKEngine`
        (:func:`repro.scf.fock.make_jk_engine`), explicitly
        ``reset()`` at each geometry jump: with ``executor="process"``
        its worker pool is spawned at the first SCF and each new
        geometry re-targets the live workers instead of respawning
        them; with ``jk="ri"`` it carries the fitted-tensor cache; a
        direct-mode exact engine carries the increment history across
        the SCF iterations of one geometry, never to the next.
        ``executor="process"`` and ``jk="ri"`` imply direct-mode
        SCFs.  The tracer (if any) records the per-step
        force-evaluation spans.  If the pool becomes unrecoverable
        mid-trajectory (worker deaths past the retry budget), the
        engine finishes the run on the serial executor — one
        ``RuntimeWarning``, no aborted trajectory.
    """

    mol: Molecule
    method: str = "hf"
    basis: str = "sto-3g"
    fd_step: float = 1e-3
    reuse_density: bool = True
    conv_tol: float = 1e-8
    config: ExecutionConfig | None = None
    scf_kwargs: dict = field(default_factory=dict)
    last_result: SCFResult | None = None
    scf_iterations: list[int] = field(default_factory=list)
    _jk: object = field(default=None, repr=False)
    _soscf_state: dict | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        from ..runtime.execconfig import resolve_execution

        self.config = resolve_execution(self.config, owner="SCFForceEngine")

    @property
    def analytic(self) -> bool:
        """Whether forces are the analytic gradient of the SCF energy.

        True when that gradient is the derivative of the energy the SCF
        minimises: exact (four-index) J/K and integer occupations.  A
        fitted (``jk="ri"``) or smeared energy has another derivative
        and takes the finite-difference route.
        """
        return self.config.jk == "direct" \
            and not self.scf_kwargs.get("smearing")

    @property
    def degraded(self) -> bool:
        """Whether the trajectory's pool broke and the engine fell back
        to the serial executor (triggers one safety snapshot)."""
        return self._jk is not None and self._jk.degraded

    def close(self) -> None:
        """Release the trajectory's J/K engine (and the worker pool it
        spawned); the next SCF builds a fresh one."""
        if self._jk is not None:
            self._jk.close()
            self._jk = None

    def _solver(self, mol: Molecule):
        kwargs = dict(self.scf_kwargs)
        if self.config.scf_solver != "diis" and self._soscf_state is not None:
            # warm-start the Newton solver with the previous step's
            # adaptive state (trust radius, cumulative counters)
            kwargs.setdefault("soscf_state", self._soscf_state)
        kwargs.setdefault("config", self.config)
        basis = build_basis(mol, self.basis)
        if self._jk is None:
            self._jk = make_jk_engine(
                basis, self.config, kwargs.get("screen_eps", 1e-10),
                mode=kwargs.get("mode"))
        else:
            # geometry jump: shell pairs, Schwarz keys, the fitted
            # tensor and any increment history refer to the previous
            # Hamiltonian — drop them explicitly (a live pool is
            # re-targeted, not respawned)
            self._jk.reset(basis)
        kwargs.update(conv_tol=self.conv_tol, jk_engine=self._jk)
        solver = scf_driver(mol, self.method, basis, **kwargs)
        if isinstance(solver, UHF):
            raise ValueError(
                f"SCFForceEngine runs the closed-shell drivers; "
                f"{mol.name or 'the molecule'} is open-shell "
                f"(multiplicity {mol.multiplicity})")
        return solver

    def _scf(self, coords: np.ndarray, D0: np.ndarray | None):
        """One converged SCF at ``coords``: ``(driver, result)``."""
        solver = self._solver(self.mol.with_coords(coords))
        res = solver.run(D0=D0)
        if not res.converged:
            raise RuntimeError(
                f"SCF failed to converge at MD geometry (niter={res.niter})")
        return solver, res

    def _energy(self, coords: np.ndarray, D0: np.ndarray | None) -> SCFResult:
        return self._scf(coords, D0)[1]

    def seed_density(self, D: np.ndarray) -> None:
        """Inject a predicted density as the next SCF's warm start.

        The ASPC extrapolator (:class:`repro.scf.guess.ASPCExtrapolator`)
        calls this before each outer RESPA force evaluation so the SCF
        starts from the extrapolated density instead of the plain
        previous-step one.  Only takes effect with ``reuse_density``.
        """
        self.last_result = _WarmStart(
            D=np.asarray(D, dtype=np.float64).copy())

    def energy_forces(self, coords: np.ndarray) -> tuple[float, np.ndarray]:
        """SCF energy and forces: the analytic gradient of that SCF's
        energy (:attr:`analytic`), else central differences of it."""
        coords = np.asarray(coords, dtype=np.float64)
        D0 = self.last_result.D if (self.reuse_density and
                                    self.last_result is not None) else None
        tr = self.config.trace
        n = len(coords)
        with tr.span("md.force_eval", cat="md", natoms=n):
            with tr.span("md.scf", cat="md"):
                solver, base = self._scf(coords, D0)
            self.last_result = base
            self.scf_iterations.append(base.niter)
            if getattr(base, "soscf_state", None) is not None:
                self._soscf_state = base.soscf_state
            if self.analytic:
                with tr.span("md.gradient", cat="md"):
                    F = -scf_gradient(base, xc=solver.xc, trace=tr)
            else:
                F = self._fd_forces(coords, base)
        if tr.enabled:
            tr.metrics.count("md.force_evals", 1)
            tr.metrics.count("md.scf_iterations", base.niter)
            tr.metrics.set("md.scf_per_force", 1 if self.analytic
                           else 6 * n + 1)
        return base.energy, F

    def _fd_forces(self, coords: np.ndarray, base: SCFResult,
                   components=None) -> np.ndarray:
        """Central differences of the SCF energy around ``coords``, each
        displaced SCF warm-started from ``base.D``: the force route where
        no analytic gradient applies, and the oracle the tests hold the
        analytic one against.  ``components`` restricts the stencil to
        some ``(atom, direction)`` pairs (the rest of the returned array
        stays zero) — for oracles on systems whose full stencil is too
        long for a test.
        """
        n = len(coords)
        if components is None:
            components = [(a, d) for a in range(n) for d in range(3)]
        h = self.fd_step
        F = np.zeros((n, 3))
        with self.config.trace.span("md.fd", cat="md",
                                    ndisplacements=2 * len(components)):
            for a, d in components:
                cp = coords.copy()
                cp[a, d] += h
                ep = self._energy(cp, base.D).energy
                cp[a, d] -= 2 * h
                em = self._energy(cp, base.D).energy
                F[a, d] = -(ep - em) / (2 * h)
        return F

    # --- Restartable protocol -------------------------------------------------

    def get_state(self) -> dict:
        """Warm-start density, SOSCF solver state, and per-step SCF
        statistics.

        The J/K engine is *never* serialized: live pipes and process
        handles cannot be revived (a restored engine respawns a fresh
        pool at its first SCF), and its per-geometry state (fitted
        tensor, increment history) is reset at every geometry jump
        anyway.
        """
        return {
            "kind": "scf_engine",
            "method": self.method,
            "basis": self.basis,
            "jk": self.config.jk,
            "natom": self.mol.natom,
            "fd_step": float(self.fd_step),
            "last_D": (self.last_result.D.copy()
                       if (self.last_result is not None and
                           self.reuse_density) else None),
            "scf_iterations": list(self.scf_iterations),
            "soscf": (dict(self._soscf_state)
                      if self._soscf_state is not None else None),
        }

    def set_state(self, state: dict) -> None:
        """Continue a snapshotted engine bit-identically.

        The restored density is the exact array the checkpointed run
        would have used as its next warm start, so the first
        post-restore SCF walks the same iterates as an uninterrupted
        run.
        """
        if state.get("kind") != "scf_engine":
            raise CheckpointError(
                f"SCFForceEngine: snapshot holds {state.get('kind')!r} "
                f"state, not 'scf_engine'")
        mismatches = []
        for key, mine in (("method", self.method), ("basis", self.basis),
                          ("natom", self.mol.natom)):
            if state.get(key) != mine:
                mismatches.append(
                    f"{key}: snapshot {state.get(key)!r} != {mine!r}")
        if mismatches:
            raise CheckpointError(
                "SCFForceEngine: snapshot does not match this engine — "
                + "; ".join(mismatches))
        last_D = state.get("last_D")
        self.last_result = None if last_D is None else _WarmStart(
            D=np.array(last_D, dtype=np.float64, copy=True))
        self.scf_iterations = list(state.get("scf_iterations", ()))
        soscf = state.get("soscf")
        self._soscf_state = dict(soscf) if soscf is not None else None
        if state.get("jk", "direct") != self.config.jk:
            raise CheckpointError(
                f"SCFForceEngine: snapshot ran jk={state.get('jk')!r}, "
                f"this engine is configured jk={self.config.jk!r} — the "
                "trajectories are not interchangeable (the fitted and "
                "exact exchange differ at working precision)")
        # any in-memory engine state (increment history, fitted tensor)
        # predates the snapshot; the first post-restore solve builds a
        # fresh engine for its geometry
        self.close()


class CheckpointedMD:
    """Shared core of the checkpointed, resume-aware MD runners.

    :class:`BOMD` (plain or multiple-time-stepping) and
    :class:`repro.md.classical.ClassicalMD` are dataclasses on this one
    ``run``/``checkpoint``/``restore`` core; each supplies its force
    engine and integrator, its snapshot ``_KIND`` tag and the
    ``_IDENTITY`` parameters a snapshot must match.  A runner's snapshot
    parameters are its constructor arguments less the molecule, the
    thermostat and the config (the first two ride the snapshot on their
    own, the last never does), so one rule writes them, checks them and
    rebuilds the runner from them.  Every auto-snapshot — initial state,
    cadence, pool degradation, final step — goes through one
    :class:`repro.runtime.checkpoint.AutoCheckpoint`, which writes at
    most one snapshot per logical step.
    """

    _KIND = "md"
    _IDENTITY: tuple = ()

    def _integrator(self):
        raise NotImplementedError

    def _init_runtime_state(self) -> None:
        """Called from each subclass ``__post_init__`` after the config
        is resolved: trajectory bookkeeping + checkpoint store setup."""
        self.state: MDState | None = None
        self.trajectory: list[MDState] = []
        self._auto = None
        self._degrade_snapshotted = False
        if self.config.checkpoint_dir is not None:
            from ..runtime.checkpoint import AutoCheckpoint

            self._auto = AutoCheckpoint(self.config)

    def run(self, nsteps: int) -> list[MDState]:
        """Integrate until logical step ``nsteps``; returns the
        trajectory (including the initial state).

        On a fresh object this is the familiar "take ``nsteps`` steps";
        on a restored (or already-run) object it takes only the
        *remaining* steps, so a killed-and-restored run and an
        uninterrupted one execute the identical step sequence.
        """
        from .integrator import initialize_velocities

        vv = self._integrator()
        tr = self.config.trace
        if self.state is None:
            v0 = None
            if self.temperature:
                v0 = initialize_velocities(self.mol.masses,
                                           self.temperature, self.seed)
            self.state = vv.initial_state(self.mol.coords, v0)
            self.trajectory = [self.state]
            self._snapshot(force=True)
        while self.state.step < nsteps:
            self.state = vv.step(self.state)
            self.trajectory.append(self.state)
            if tr.enabled:
                tr.metrics.count("md.steps", 1)
            # cadence hit, or the pool just died for good: secure the
            # trajectory (at most once per step)
            degraded = bool(getattr(self.engine, "degraded", False))
            self._snapshot(force=degraded and not self._degrade_snapshotted)
            self._degrade_snapshotted |= degraded
        self._snapshot(force=True)
        return list(self.trajectory)

    # --- checkpoint/restart ---------------------------------------------------

    def _snapshot(self, force: bool = False) -> None:
        if self._auto is not None:
            self._auto.offer(int(self.state.step), self.get_state, force)

    def checkpoint(self) -> SnapshotInfo:
        """Write one snapshot of the current trajectory state now."""
        name = type(self).__name__
        if self._auto is None:
            raise CheckpointError(
                f"{name} has no checkpoint store — construct it with "
                f"ExecutionConfig(checkpoint_dir=...)")
        if self.state is None:
            raise CheckpointError(
                f"{name}.checkpoint: no trajectory state yet (run() first)")
        return self._auto.save(self.get_state(), int(self.state.step))

    def _params(self) -> dict:
        """Identity parameters stored in (and checked against)
        snapshots."""
        p = {f.name: getattr(self, f.name) for f in fields(self)
             if f.init and f.name not in ("mol", "thermostat", "config")}
        p["natom"] = self.mol.natom
        return p

    def get_state(self) -> dict:
        """Full Restartable state of the trajectory.

        Step counter, positions/velocities/forces, the accumulated
        trajectory observables, the force engine's warm-start state,
        the thermostat (RNG stream included), and the telemetry
        counters — but never the live worker pool.
        """
        if self.state is None:
            raise CheckpointError(
                f"{type(self).__name__}.get_state: no trajectory state "
                f"yet (run() first)")
        tr = self.config.trace
        thermo = None
        if self.thermostat is not None and \
                hasattr(self.thermostat, "get_state"):
            thermo = self.thermostat.get_state()
        engine_state = (self.engine.get_state()
                        if hasattr(self.engine, "get_state") else None)
        return {
            "kind": self._KIND,
            "mol": self.mol,
            "params": self._params(),
            "step": int(self.state.step),
            "trajectory": [s.to_dict() for s in self.trajectory],
            "engine": engine_state,
            "thermostat": thermo,
            "counters": tr.metrics.get_state() if tr.enabled else {},
        }

    def set_state(self, state: dict) -> None:
        """Load a snapshot into this (matching) runner."""
        name = type(self).__name__
        kind = state.get("kind")
        runner = _runner_for(kind)
        if runner is None or not isinstance(self, runner):
            raise CheckpointError(
                f"{name}: snapshot holds {kind!r} state, not "
                f"'{self._KIND}'")
        p = state.get("params", {})
        mine = self._params()
        # a parameter an older snapshot lacks ran at its default
        default = {f.name: f.default for f in fields(self)}
        mismatches = []
        for key in self._IDENTITY:
            theirs = p.get(key, default.get(key))
            if theirs != mine[key]:
                mismatches.append(
                    f"{key}: snapshot {theirs!r} != {mine[key]!r}")
        if p.get("incremental"):
            # the retired switch forced direct-mode SCFs, which no
            # runner parameter selects; a stored False is dropped
            mismatches.append(
                "incremental: snapshot ran the retired switch on "
                "(direct-mode SCFs), which no runner parameter selects")
        if mismatches:
            raise CheckpointError(
                f"{name}: snapshot does not match this run — "
                + "; ".join(mismatches))
        traj = [MDState.from_dict(d) for d in state.get("trajectory", ())]
        if not traj:
            raise CheckpointError(f"{name}: snapshot holds an empty "
                                  f"trajectory")
        self.trajectory = traj
        self.state = traj[-1]
        if state.get("engine") is not None and \
                hasattr(self.engine, "set_state"):
            self.engine.set_state(state["engine"])
        if state.get("thermostat") is not None:
            if self.thermostat is None:
                from .thermostat import restore_thermostat

                self.thermostat = restore_thermostat(state["thermostat"])
            else:
                self.thermostat.set_state(state["thermostat"])
        tr = self.config.trace
        if tr.enabled and state.get("counters"):
            # counters continue from their saved totals so --profile
            # spans the whole logical run, not just the resumed piece
            tr.metrics.set_state(state["counters"])

    @classmethod
    def _from_snapshot(cls, state: dict, cfg: ExecutionConfig
                       ) -> "CheckpointedMD":
        """A runner built from a snapshot's molecule and parameters:
        the ones that are constructor arguments (not ``natom``, nor an
        older snapshot's ``analytic_forces`` or ``incremental``);
        absent ones default."""
        names = {f.name for f in fields(cls) if f.init}
        kwargs = {k: v for k, v in state["params"].items() if k in names}
        return cls(mol=state["mol"], config=cfg, **kwargs)

    @classmethod
    def restore(cls, checkpoint_dir=None, config: ExecutionConfig | None = None
                ) -> "CheckpointedMD":
        """:func:`restore_md`, refusing a snapshot of another runner."""
        b = restore_md(checkpoint_dir, config)
        if not isinstance(b, cls):
            raise CheckpointError(
                f"{cls.__name__}.restore: snapshot holds a "
                f"'{b._KIND}' trajectory, not '{cls._KIND}'")
        return b


@dataclass
class BOMD(CheckpointedMD):
    """Born-Oppenheimer MD on one :class:`SCFForceEngine`: each full
    force is one SCF plus its analytic gradient (a ``6N + 1``
    finite-difference stencil under ``jk="ri"``, see the engine).

    ``n_outer`` picks the integrator.  At 1 it is velocity Verlet on the
    full surface.  Above 1 it is reversible RESPA
    (:class:`repro.md.respa.RESPAIntegrator`): the full force enters as
    an impulse every ``n_outer`` inner steps of ``dt_fs`` on the cheap
    ``inner`` surface, and each ``run`` step is one outer step.

    ``run(nsteps)`` is **resume-aware**: it integrates *until logical
    step* ``nsteps``, continuing from wherever the trajectory currently
    stands — step 0 on a fresh object, the restored step after
    :meth:`restore`, or the last step of a previous ``run`` call on the
    same object.  With ``ExecutionConfig(checkpoint_dir=...)`` the loop
    snapshots the full :class:`repro.runtime.Restartable` state every
    ``checkpoint_every`` steps (and once more when the worker pool
    degrades to serial), through an atomic, checksummed, ring-pruned
    :class:`repro.runtime.CheckpointStore`; under RESPA the ASPC
    history, the cached fast forces and the inner engine's warm start
    ride along.

    Parameters beyond the SCF ones:

    n_outer:
        Full-force stride (``1``: every step is a full-force step).
    inner:
        Fast surface when ``n_outer > 1``: ``"ff"`` (classical force
        field) or a pure DFT functional (``"lda"``/``"pbe"``, serial
        direct J/K — one SCF plus its analytic gradient per inner
        step).
    aspc_order:
        ASPC extrapolation order ``k`` (history ``k + 2``) for the outer
        SCF warm starts; ``None`` reuses the previous density.  ASPC
        rides the RESPA outer loop, so it needs ``n_outer > 1``.
    """

    mol: Molecule
    method: str = "hf"
    basis: str = "sto-3g"
    dt_fs: float = 0.5
    temperature: float | None = None
    seed: int = 0
    thermostat: object | None = None
    config: ExecutionConfig | None = None
    n_outer: int = 1
    inner: str = "ff"
    aspc_order: int | None = None
    engine: object = field(init=False)

    _KIND = "bomd"
    _IDENTITY = ("method", "basis", "dt_fs", "natom", "n_outer", "inner",
                 "aspc_order")

    def __post_init__(self) -> None:
        from ..constants import fs_to_aut
        from ..runtime.execconfig import resolve_execution

        self.config = resolve_execution(self.config, owner="BOMD")
        check("mts_outer", self.n_outer, owner="BOMD")
        check("mts_inner", self.inner, owner="BOMD")
        if self.aspc_order is not None and self.n_outer == 1:
            raise ValueError(
                f"BOMD: aspc_order={self.aspc_order!r} needs n_outer > 1 "
                f"(ASPC warm-starts the RESPA outer force only)")
        self.engine = SCFForceEngine(self.mol, self.method, self.basis,
                                     config=self.config)
        dt = fs_to_aut(self.dt_fs)
        self.fast_engine = self._aspc = None
        if self.n_outer == 1:
            self._stepper = VelocityVerlet(self.engine, self.mol.masses, dt)
        else:
            if self.inner == "ff":
                from .forcefield import ForceField, detect_bonds

                # a generous bond-detection scale: MD samples stretched
                # geometries, and an undetected bond would swap the
                # smooth harmonic fast surface for a violent bare-LJ
                # repulsion
                self.fast_engine = ForceField(
                    self.mol, bonds=detect_bonds(self.mol, scale=1.6))
            else:
                # serial, direct JK (no pool, no RI — the fast loop must
                # never compete for the full engine's resources)
                self.fast_engine = SCFForceEngine(
                    self.mol, method=self.inner, basis=self.basis,
                    config=self.config.replace(
                        executor="serial", jk="direct", checkpoint_dir=None,
                        checkpoint_every=None))
            if self.aspc_order is not None:
                self._aspc = ASPCExtrapolator(self.aspc_order)
            self._stepper = RESPAIntegrator(
                self.engine, self.fast_engine, self.mol.masses, dt,
                self.n_outer, aspc=self._aspc, tracer=self.config.trace)
        self._init_runtime_state()

    def _integrator(self):
        # set_state may have attached a thermostat after construction
        self._stepper.thermostat = self.thermostat
        return self._stepper

    def get_state(self) -> dict:
        state = super().get_state()
        if self.n_outer > 1:
            ff = self._stepper.fast_forces
            state["mts"] = {
                "aspc": (self._aspc.get_state()
                         if self._aspc is not None else None),
                "fast_forces": None if ff is None else ff.copy(),
                "fast_engine": (self.fast_engine.get_state()
                                if hasattr(self.fast_engine, "get_state")
                                else None),
            }
        return state

    def set_state(self, state: dict) -> None:
        super().set_state(state)
        if self.n_outer > 1:
            mts = state["mts"]
            if self._aspc is not None:
                self._aspc.set_state(mts["aspc"])
            ff = mts["fast_forces"]
            self._stepper.fast_forces = (
                None if ff is None
                else np.array(ff, dtype=np.float64, copy=True))
            if mts["fast_engine"] is not None:
                self.fast_engine.set_state(mts["fast_engine"])


def _runner_for(kind):
    """The runner class that continues a snapshot of ``kind`` — the one
    kind table (``None`` for an unknown kind).  ``mts_bomd`` is the tag
    multiple-time-stepping trajectories carried before :class:`BOMD`
    took the stride."""
    from .classical import ClassicalMD

    return {"bomd": BOMD, "mts_bomd": BOMD,
            "classical_md": ClassicalMD}.get(kind)


def restore_md(checkpoint_dir=None, config: ExecutionConfig | None = None
               ) -> CheckpointedMD:
    """Revive the MD trajectory a checkpoint directory holds.

    The one reviver: the snapshot's ``kind`` tag picks the runner, so
    callers that only know "this job has a checkpoint dir" — the
    service scheduler, ``repro md --restore`` — need not know what
    wrote it.  The snapshot is self-describing (molecule, parameters,
    thermostat, step counter all ride in it), so the only inputs are
    the store location and — because execution resources are never
    serialized — a fresh :class:`ExecutionConfig`: the restored run
    spawns a fresh worker pool on its first SCF.  Corrupted snapshots
    fall back through the ring with a warning; a missing directory, an
    unknown kind, or parameters no runner accepts any more (an
    ``mts_bomd`` snapshot at ``n_outer=1`` with an ASPC history) raise
    :class:`repro.runtime.CheckpointError`.
    """
    from ..runtime.checkpoint import AutoCheckpoint
    from ..runtime.execconfig import resolve_execution

    cfg = resolve_execution(config, owner="restore_md")
    directory = cfg.checkpoint_dir if checkpoint_dir is None \
        else checkpoint_dir
    if directory is None:
        raise CheckpointError(
            "restore_md: no checkpoint directory — pass checkpoint_dir= "
            "or set ExecutionConfig.checkpoint_dir")
    if cfg.checkpoint_dir is None:
        # keep checkpointing where we restored from
        cfg = cfg.replace(checkpoint_dir=str(directory))
    loader = AutoCheckpoint(cfg, directory)
    state, info = loader.load()
    kind = state.get("kind")
    runner = _runner_for(kind)
    if runner is None:
        raise CheckpointError(
            f"restore_md: snapshot holds unknown trajectory kind {kind!r}")
    try:
        b = runner._from_snapshot(state, cfg)
    except ValueError as e:
        raise CheckpointError(
            f"restore_md: cannot continue the {kind!r} snapshot — {e}"
        ) from e
    b.set_state(state)
    b._auto.last_step = info.step
    loader.count_restore(info)
    return b
