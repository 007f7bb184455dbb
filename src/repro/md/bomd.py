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

Checkpoint/restart (the job-level counterpart to the pool's
worker-level fault tolerance): :class:`BOMD` and
:class:`SCFForceEngine` implement the
:class:`repro.runtime.Restartable` protocol, and a trajectory run with
``ExecutionConfig(checkpoint_dir=...)`` auto-snapshots every
``checkpoint_every`` steps (plus once whenever the worker pool degrades
to serial).  :meth:`BOMD.restore` revives the newest uncorrupted
snapshot and continues **bit-identically** — warm-start density,
thermostat random stream, and step counter included — on a freshly
spawned pool (live pool state is never serialized).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..chem.molecule import Molecule
from ..runtime.checkpoint import CheckpointError, SnapshotInfo
from ..runtime.execconfig import ExecutionConfig
from ..basis.basisset import build_basis
from ..scf.dft import RKS
from ..scf.fock import check_jk_mode, jk_build_mode, make_jk_engine
from ..scf.gradient import scf_gradient
from ..scf.rhf import RHF, SCFResult
from .integrator import MDState

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
        ``"hf"`` or a DFT functional name (``"pbe"``, ``"pbe0"``...).
    fd_step:
        Central-difference displacement in Bohr (finite-difference
        route only).
    reuse_density:
        Seed each SCF with the previous converged density.
    incremental:
        Route the exchange builds of every SCF through an
        :class:`repro.hfx.IncrementalExchange`, so the
        density-difference screen spans the SCF iterations of one
        geometry but never a stale one (not with ``jk="ri"``).
    config:
        :class:`repro.runtime.ExecutionConfig`.  Every SCF of the
        trajectory — HF or Kohn-Sham — builds through *one*
        :class:`repro.scf.fock.JKEngine`
        (:func:`repro.scf.fock.make_jk_engine`), explicitly
        ``reset()`` at each geometry jump: with ``executor="process"``
        its worker pool is spawned at the first SCF and each new
        geometry re-targets the live workers instead of respawning
        them; with ``jk="ri"`` it carries the fitted-tensor cache.
        ``executor="process"``, ``jk="ri"`` and ``incremental`` imply
        direct-mode SCFs.  The tracer (if any) records the per-step
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
    incremental: bool = False
    config: ExecutionConfig | None = None
    scf_kwargs: dict = field(default_factory=dict)
    last_result: SCFResult | None = None
    scf_iterations: list[int] = field(default_factory=list)
    _jk: object = field(default=None, repr=False)
    _soscf_state: dict | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        from ..runtime.execconfig import resolve_execution

        self.config = resolve_execution(self.config, owner="SCFForceEngine")
        # an impossible engine (incremental x ri) fails here, not at
        # the first force call
        check_jk_mode("direct", self.config, self.incremental)

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
        kwargs.setdefault("mode", jk_build_mode(
            self.config, incremental=self.incremental))
        basis = build_basis(mol, self.basis)
        if self._jk is None:
            self._jk = make_jk_engine(
                basis, self.config, kwargs.get("screen_eps", 1e-10),
                incremental=self.incremental, mode=kwargs["mode"])
        else:
            # geometry jump: shell pairs, Schwarz keys, the fitted
            # tensor and any increment history refer to the previous
            # Hamiltonian — drop them explicitly (a live pool is
            # re-targeted, not respawned)
            self._jk.reset(basis)
        kwargs.update(conv_tol=self.conv_tol, jk_engine=self._jk)
        if self.method.lower() == "hf":
            return RHF(mol, basis, **kwargs)
        return RKS(mol, basis, functional=self.method, **kwargs)

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
    """Shared machinery for checkpointed, resume-aware MD runners.

    :class:`BOMD`, :class:`repro.md.respa.MTSBOMD` and
    :class:`repro.md.classical.ClassicalMD` all inherit the same
    ``run``/``checkpoint``/``restore`` core; each subclass supplies its
    force engine, integrator, snapshot ``_KIND`` tag and identity
    parameters.  Auto-snapshots (initial state, cadence, pool
    degradation, final step) are all funneled through
    :meth:`_snapshot_if_new`, which dedupes by logical step id — a
    trajectory never writes two snapshots of the same step, even when
    the final step also lands on the cadence.
    """

    _KIND = "md"

    # --- subclass hooks -------------------------------------------------------

    def _integrator(self):
        raise NotImplementedError

    def _params(self) -> dict:
        """Identity parameters stored in (and checked against) snapshots."""
        raise NotImplementedError

    def _param_checks(self) -> tuple:
        """(key, my_value) pairs that must match the snapshot params."""
        raise NotImplementedError

    def _extra_state(self) -> dict:
        """Subclass additions to the snapshot envelope."""
        return {}

    def _load_extra(self, state: dict) -> None:
        """Load subclass additions written by :meth:`_extra_state`."""

    @classmethod
    def _from_snapshot(cls, state: dict, cfg: ExecutionConfig
                       ) -> "CheckpointedMD":
        """Construct a matching runner from a snapshot envelope."""
        raise NotImplementedError

    # --- shared core ----------------------------------------------------------

    def _init_runtime_state(self) -> None:
        """Called from each subclass ``__post_init__`` after the config
        is resolved: trajectory bookkeeping + checkpoint store setup."""
        self.state: MDState | None = None
        self.trajectory: list[MDState] = []
        self._store = None
        self._checkpoint_every = None
        self._last_saved_step: int | None = None
        self._degrade_snapshotted = False
        if self.config.checkpoint_dir is not None:
            from ..runtime.checkpoint import (CheckpointStore,
                                              resolve_checkpoint_every)

            self._store = CheckpointStore(self.config.checkpoint_dir,
                                          keep=self.config.checkpoint_keep)
            self._checkpoint_every = resolve_checkpoint_every(
                self.config.checkpoint_every)

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
            self._snapshot_if_new()
        while self.state.step < nsteps:
            self.state = vv.step(self.state)
            self.trajectory.append(self.state)
            if tr.enabled:
                tr.metrics.count("md.steps", 1)
            if self._store is not None:
                degraded = bool(getattr(self.engine, "degraded", False))
                if self.state.step % self._checkpoint_every == 0 or \
                        (degraded and not self._degrade_snapshotted):
                    # cadence hit, or the pool just died for good:
                    # secure the trajectory (at most once per step)
                    self._snapshot_if_new()
                if degraded:
                    self._degrade_snapshotted = True
        self._snapshot_if_new()
        return list(self.trajectory)

    # --- checkpoint/restart ---------------------------------------------------

    def _snapshot_if_new(self) -> None:
        """Auto-snapshot the current step unless it was already saved.

        Every automatic write (initial state, cadence, degradation,
        final step) goes through this guard, so overlapping triggers —
        e.g. a final step that also satisfies the cadence — produce
        exactly one snapshot per logical step.
        """
        if self._store is not None and \
                self._last_saved_step != self.state.step:
            self.checkpoint()

    def checkpoint(self) -> SnapshotInfo:
        """Write one snapshot of the current trajectory state now."""
        name = type(self).__name__
        if self._store is None:
            raise CheckpointError(
                f"{name} has no checkpoint store — construct it with "
                f"ExecutionConfig(checkpoint_dir=...)")
        if self.state is None:
            raise CheckpointError(
                f"{name}.checkpoint: no trajectory state yet (run() first)")
        tr = self.config.trace
        step = int(self.state.step)
        with tr.span("checkpoint.write", cat="checkpoint", step=step):
            info = self._store.save(self.get_state(), step=step)
        self._last_saved_step = step
        if tr.enabled:
            tr.metrics.count("checkpoint.writes", 1)
            tr.metrics.set("checkpoint.last_step", step)
        return info

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
        state = {
            "kind": self._KIND,
            "mol": self.mol,
            "params": self._params(),
            "step": int(self.state.step),
            "trajectory": [s.to_dict() for s in self.trajectory],
            "engine": engine_state,
            "thermostat": thermo,
            "counters": tr.metrics.get_state() if tr.enabled else {},
        }
        state.update(self._extra_state())
        return state

    def set_state(self, state: dict) -> None:
        """Load a snapshot into this (matching) runner."""
        name = type(self).__name__
        if state.get("kind") != self._KIND:
            raise CheckpointError(
                f"{name}: snapshot holds {state.get('kind')!r} state, "
                f"not '{self._KIND}'")
        p = state.get("params", {})
        mismatches = []
        for key, mine in self._param_checks():
            if p.get(key) != mine:
                mismatches.append(
                    f"{key}: snapshot {p.get(key)!r} != {mine!r}")
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
        self._load_extra(state)
        tr = self.config.trace
        if tr.enabled and state.get("counters"):
            # counters continue from their saved totals so --profile
            # spans the whole logical run, not just the resumed piece
            tr.metrics.set_state(state["counters"])

    @classmethod
    def restore(cls, checkpoint_dir=None, config: ExecutionConfig | None = None
                ) -> "CheckpointedMD":
        """Revive a trajectory from the newest uncorrupted snapshot.

        The snapshot is self-describing (molecule, method, thermostat
        kind, step counter all ride in it), so the only inputs are the
        store location and — because execution resources are never
        serialized — a fresh :class:`ExecutionConfig`: the restored
        run spawns a fresh worker pool on its first SCF rather than
        attempting to revive pickled pool state.  Corrupted snapshots
        fall back through the ring with a warning; a missing directory
        raises :class:`repro.runtime.CheckpointError`.
        """
        from ..runtime.execconfig import resolve_execution

        cfg = resolve_execution(config, owner=f"{cls.__name__}.restore")
        return cls._revive(*cls._load_snapshot(checkpoint_dir, cfg))

    @classmethod
    def _revive(cls, state: dict, info: SnapshotInfo, cfg: ExecutionConfig
                ) -> "CheckpointedMD":
        """A runner of this class continuing the loaded snapshot."""
        if state.get("kind") != cls._KIND:
            raise CheckpointError(
                f"{cls.__name__}.restore: snapshot holds "
                f"{state.get('kind')!r} state, not '{cls._KIND}'")
        b = cls._from_snapshot(state, cfg)
        b.set_state(state)
        b._last_saved_step = info.step
        tr = cfg.trace
        if tr.enabled:
            tr.metrics.count("checkpoint.restores", 1)
            tr.metrics.set("checkpoint.restored_step", float(info.step))
            tr.metrics.set("checkpoint.snapshot_age_s", info.age_s)
        return b

    @classmethod
    def _load_snapshot(cls, checkpoint_dir, cfg: ExecutionConfig):
        """Locate the store, load the newest good snapshot, and pin the
        restored run's checkpoint directory to where it restored from."""
        from ..runtime.checkpoint import CheckpointStore

        directory = checkpoint_dir if checkpoint_dir is not None \
            else cfg.checkpoint_dir
        if directory is None:
            raise CheckpointError(
                f"{cls.__name__}.restore: no checkpoint directory — pass "
                f"checkpoint_dir= or set ExecutionConfig.checkpoint_dir")
        store = CheckpointStore(directory, keep=cfg.checkpoint_keep)
        with cfg.trace.span("checkpoint.restore", cat="checkpoint"):
            state, info = store.load_latest()
        if cfg.checkpoint_dir is None:
            # keep checkpointing where we restored from
            cfg = cfg.replace(checkpoint_dir=str(directory))
        return state, info, cfg


@dataclass
class BOMD(CheckpointedMD):
    """Convenience Born-Oppenheimer MD runner on one
    :class:`SCFForceEngine`: each step is one SCF plus its analytic
    gradient (a ``6N + 1`` finite-difference stencil under
    ``jk="ri"``, see the engine).

    ``run(nsteps)`` is **resume-aware**: it integrates *until logical
    step* ``nsteps``, continuing from wherever the trajectory currently
    stands — step 0 on a fresh object, the restored step after
    :meth:`restore`, or the last step of a previous ``run`` call on the
    same object.  With ``ExecutionConfig(checkpoint_dir=...)`` the loop
    snapshots the full :class:`repro.runtime.Restartable` state every
    ``checkpoint_every`` steps (and once more when the worker pool
    degrades to serial), through an atomic, checksummed, ring-pruned
    :class:`repro.runtime.CheckpointStore`.
    """

    mol: Molecule
    method: str = "hf"
    basis: str = "sto-3g"
    dt_fs: float = 0.5
    temperature: float | None = None
    seed: int = 0
    thermostat: object | None = None
    incremental: bool = False
    config: ExecutionConfig | None = None
    engine: object = field(init=False)

    _KIND = "bomd"

    def __post_init__(self) -> None:
        from ..runtime.execconfig import resolve_execution

        self.config = resolve_execution(self.config, owner="BOMD")
        self.engine = SCFForceEngine(self.mol, self.method, self.basis,
                                     incremental=self.incremental,
                                     config=self.config)
        self._init_runtime_state()

    def _integrator(self):
        from ..constants import fs_to_aut
        from .integrator import VelocityVerlet

        return VelocityVerlet(self.engine, self.mol.masses,
                              fs_to_aut(self.dt_fs),
                              thermostat=self.thermostat)

    def _params(self) -> dict:
        return {"method": self.method, "basis": self.basis,
                "dt_fs": float(self.dt_fs),
                "temperature": self.temperature,
                "seed": self.seed,
                "incremental": self.incremental,
                "natom": self.mol.natom}

    def _param_checks(self) -> tuple:
        return (("method", self.method), ("basis", self.basis),
                ("dt_fs", float(self.dt_fs)),
                ("natom", self.mol.natom))

    @classmethod
    def _from_snapshot(cls, state: dict, cfg: ExecutionConfig) -> "BOMD":
        # older snapshots also carry an "analytic_forces" param; the
        # route is no longer a choice, so it is read past
        p = state["params"]
        return cls(mol=state["mol"], method=p["method"], basis=p["basis"],
                   dt_fs=p["dt_fs"], temperature=p["temperature"],
                   seed=p["seed"], incremental=p.get("incremental", False),
                   config=cfg)


#: snapshot ``kind`` tag -> runner class, for :func:`restore_md`.
_MD_KINDS = {"bomd": BOMD}


def _register_md_kind(kind: str, cls) -> None:
    _MD_KINDS[kind] = cls


def restore_md(checkpoint_dir=None, config: ExecutionConfig | None = None
               ) -> CheckpointedMD:
    """Revive whatever MD runner a checkpoint directory holds.

    Snapshots are self-describing (their ``kind`` tag names the runner
    class), so callers that only know "this job has a checkpoint dir" —
    the service scheduler, ``repro md --restore`` — need not remember
    whether the trajectory was plain :class:`BOMD`, multiple-time-
    stepping :class:`repro.md.respa.MTSBOMD`, or classical
    :class:`repro.md.classical.ClassicalMD`.
    """
    # importing the siblings registers their kinds
    from . import classical as _classical   # noqa: F401
    from . import respa as _respa           # noqa: F401
    from ..runtime.execconfig import resolve_execution

    cfg = resolve_execution(config, owner="restore_md")
    state, info, cfg = CheckpointedMD._load_snapshot(checkpoint_dir, cfg)
    kind = state.get("kind")
    cls = _MD_KINDS.get(kind)
    if cls is None:
        raise CheckpointError(
            f"restore_md: snapshot holds unknown trajectory kind "
            f"{kind!r} (known: {sorted(_MD_KINDS)})")
    return cls._revive(state, info, cfg)
