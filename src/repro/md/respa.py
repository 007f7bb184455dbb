"""Reversible multiple-time-stepping (r-RESPA) BOMD.

The HFX force evaluation dominates every hybrid-DFT trajectory in this
repo — each BOMD step pays a full hybrid SCF plus the exact-exchange
derivative quartets.  Mandal et al. (PAPERS.md, arXiv 2110.07670) show
that a reversible RESPA splitting removes most of that cost without
touching the ERI hot path: the expensive *slow* force (full SCF) is
applied as an impulse every ``n_outer`` steps, while a cheap *fast*
force — here the classical :class:`repro.md.forcefield.ForceField` or a
pure (no-HFX) DFT surface — integrates the intervening motion.

One outer step of :class:`RESPAIntegrator` over ``Delta t = n * dt``::

    v += (n dt / 2) * F_slow(x_0) / m        # slow half-kick
    repeat n times:                          # fast velocity Verlet
        v += (dt/2) F_fast/m;  x += dt v;  F_fast = F_fast(x)
        v += (dt/2) F_fast/m
    F_full = F_full(x_n)                     # one SCF force build
    v += (n dt / 2) * (F_full - F_fast(x_n)) / m

with ``F_slow(x) = F_full(x) - F_fast(x)``.  The scheme is symplectic
and time-reversible; at ``n_outer=1`` the integrator short-circuits to
the *exact* velocity-Verlet operation sequence on the full surface, so
the reduction to plain BOMD is bit-identical (the naive split would
differ in the last floating-point bits).

Each full SCF force call is warm-started through the ASPC
predictor-corrector (:class:`repro.scf.guess.ASPCExtrapolator`): the
density history over outer steps is extrapolated and injected via
:meth:`SCFForceEngine.seed_density`, cutting the SCF iteration count on
top of the n-fold reduction in force builds.

:class:`MTSBOMD` wraps the integrator in the same checkpointed,
resume-aware runner as :class:`repro.md.bomd.BOMD`: the ASPC history,
the cached fast forces, and the inner engine's warm-start state all
ride in the snapshot, so a killed MTS trajectory restores and
continues **bit-identically**.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..chem.molecule import Molecule  # noqa: F401  (re-exported context)
from ..runtime.checkpoint import CheckpointError
from ..runtime.boundary import check, resolve_mts_outer
from ..runtime.execconfig import ExecutionConfig
from ..scf.guess import ASPCExtrapolator
from .bomd import BOMD, SCFForceEngine, _register_md_kind
from .integrator import MDState

__all__ = ["RESPAIntegrator", "MTSBOMD"]


class RESPAIntegrator:
    """Impulse (kick-drift-kick) r-RESPA integrator.

    Exposes the same ``initial_state``/``step`` interface as
    :class:`repro.md.integrator.VelocityVerlet`, so the resume-aware
    :meth:`CheckpointedMD.run` loop drives it unchanged.  One ``step``
    advances a full outer cycle: ``n_inner`` fast sub-steps of ``dt``
    bracketed by slow-force impulses, then (optionally) the thermostat
    once with the outer interval ``n_inner * dt``.

    The fast forces at the current outer state are cached on the
    integrator (``fast_forces``) so each outer step costs exactly one
    full force build and ``n_inner`` fast builds; the cache is part of
    the MTS checkpoint state.
    """

    def __init__(self, engine, fast_engine, masses, dt: float,
                 n_inner: int, aspc: ASPCExtrapolator | None = None,
                 thermostat=None, tracer=None):
        self.engine = engine
        self.fast_engine = fast_engine
        self.masses = np.asarray(masses, dtype=np.float64)
        self.dt = float(dt)
        self.n_inner = int(n_inner)
        self.aspc = aspc
        self.thermostat = thermostat
        self.tracer = tracer
        self.fast_forces: np.ndarray | None = None
        if self.n_inner < 1:
            raise ValueError(f"n_inner must be >= 1, got {n_inner}")

    def _full_eval(self, coords: np.ndarray) -> tuple[float, np.ndarray]:
        """One full-surface force build, ASPC-warm-started."""
        predicted = None
        if self.aspc is not None:
            predicted = self.aspc.predict()
            if predicted is not None and hasattr(self.engine, "seed_density"):
                self.engine.seed_density(predicted)
        e, f = self.engine.energy_forces(coords)
        if self.aspc is not None:
            res = getattr(self.engine, "last_result", None)
            if res is not None and getattr(res, "D", None) is not None:
                self.aspc.push(res.D, predicted=predicted)
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.metrics.count("mts.full_builds", 1)
            if predicted is not None:
                tr.metrics.count("mts.aspc_predictions", 1)
        return e, f

    def initial_state(self, coords, velocities=None) -> MDState:
        x = np.asarray(coords, dtype=np.float64).copy()
        e, f = self._full_eval(x)
        v = np.zeros_like(x) if velocities is None \
            else np.asarray(velocities, dtype=np.float64).copy()
        if self.n_inner > 1:
            _, self.fast_forces = self.fast_engine.energy_forces(x)
        return MDState(coords=x, velocities=v, forces=f, energy_pot=e,
                       step=0)

    def step(self, state: MDState) -> MDState:
        m = self.masses[:, None]
        dt, n = self.dt, self.n_inner
        if n == 1:
            # exact velocity-Verlet operation sequence on the full
            # surface: the reduction to plain BOMD is bit-identical
            half_v = state.velocities + 0.5 * dt * state.forces / m
            new_x = state.coords + dt * half_v
            e, f = self._full_eval(new_x)
            new_v = half_v + 0.5 * dt * f / m
            new_state = MDState(coords=new_x, velocities=new_v, forces=f,
                                energy_pot=e, step=state.step + 1)
            if self.thermostat is not None:
                self.thermostat(new_state, self.masses, dt)
            return new_state
        if self.fast_forces is None:
            # first outer step after construction or restore without a
            # cached value: rebuild deterministically at the current x
            _, self.fast_forces = self.fast_engine.energy_forces(state.coords)
        f_fast = self.fast_forces
        # slow half-kick over the outer interval
        v = state.velocities + 0.5 * n * dt * (state.forces - f_fast) / m
        x = state.coords
        for _ in range(n):
            half_v = v + 0.5 * dt * f_fast / m
            x = x + dt * half_v
            _, f_fast = self.fast_engine.energy_forces(x)
            v = half_v + 0.5 * dt * f_fast / m
        e, f = self._full_eval(x)
        # closing slow half-kick: F_slow(x_n) = F_full(x_n) - F_fast(x_n)
        v = v + 0.5 * n * dt * (f - f_fast) / m
        self.fast_forces = f_fast
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.metrics.count("mts.inner_steps", n)
        new_state = MDState(coords=x, velocities=v, forces=f,
                            energy_pot=e, step=state.step + 1)
        if self.thermostat is not None:
            # one thermostat application per outer step, over the full
            # outer interval — keeps the RNG stream one-draw-per-step
            # and therefore checkpoint-reproducible
            self.thermostat(new_state, self.masses, n * dt)
        return new_state


@dataclass
class MTSBOMD(BOMD):
    """Multiple-time-stepping BOMD runner.

    A drop-in sibling of :class:`BOMD`: ``run(nsteps)`` integrates
    ``nsteps`` *outer* steps (each covering ``n_outer`` inner steps of
    ``dt_fs``), the trajectory records the outer states with their full
    SCF energies, and ``ExecutionConfig(checkpoint_dir=...)`` snapshots
    the complete state — ASPC history included — for bit-identical
    resume.

    Parameters beyond :class:`BOMD`:

    n_outer:
        Full-force stride; 1 reduces bit-identically to plain BOMD.
    inner:
        Fast-force surface: ``"ff"`` (classical force field) or a pure
        DFT functional (``"lda"``/``"pbe"``, serial direct-JK — one SCF
        plus its analytic gradient per inner step, like the outer
        engine).
    aspc_order:
        ASPC extrapolation order ``k`` (history length ``k + 2``) for
        the outer SCF warm starts; ``None`` disables extrapolation and
        falls back to plain previous-density reuse.
    """

    n_outer: int = 2
    inner: str = "ff"
    aspc_order: int | None = 2

    _KIND = "mts_bomd"

    def __post_init__(self) -> None:
        super().__post_init__()
        self.n_outer = resolve_mts_outer(self.n_outer)
        check("mts_inner", self.inner, owner="MTSBOMD")
        if self.inner == "ff":
            from .forcefield import ForceField, detect_bonds

            # a generous bond-detection scale: MD samples stretched
            # geometries, and an undetected bond would swap the smooth
            # harmonic fast surface for a violent bare-LJ repulsion
            bonds = detect_bonds(self.mol, scale=1.6)
            self.fast_engine = ForceField(self.mol, bonds=bonds)
        else:
            # pure-DFT inner surface: serial, direct JK (no pool, no RI
            # — the fast loop must never compete for the full engine's
            # execution resources)
            inner_cfg = self.config.replace(
                executor="serial", jk="direct", checkpoint_dir=None,
                checkpoint_every=None)
            self.fast_engine = SCFForceEngine(
                self.mol, method=self.inner, basis=self.basis,
                config=inner_cfg)
        self._aspc = (ASPCExtrapolator(self.aspc_order)
                      if self.aspc_order is not None else None)
        self._respa: RESPAIntegrator | None = None
        self._fast_forces0: np.ndarray | None = None

    def _integrator(self) -> RESPAIntegrator:
        from ..constants import fs_to_aut

        if self._respa is None:
            self._respa = RESPAIntegrator(
                self.engine, self.fast_engine, self.mol.masses,
                fs_to_aut(self.dt_fs), self.n_outer, aspc=self._aspc,
                thermostat=self.thermostat, tracer=self.config.trace)
            self._respa.fast_forces = self._fast_forces0
        # the thermostat may have been (re)attached by set_state after
        # the integrator was built
        self._respa.thermostat = self.thermostat
        return self._respa

    def _params(self) -> dict:
        p = super()._params()
        p.update(n_outer=int(self.n_outer), inner=self.inner,
                 aspc_order=self.aspc_order)
        return p

    def _param_checks(self) -> tuple:
        return super()._param_checks() + (
            ("n_outer", int(self.n_outer)), ("inner", self.inner),
            ("aspc_order", self.aspc_order))

    def _extra_state(self) -> dict:
        respa = self._respa
        fast_forces = None
        if respa is not None and respa.fast_forces is not None:
            fast_forces = respa.fast_forces.copy()
        elif self._fast_forces0 is not None:
            fast_forces = self._fast_forces0.copy()
        return {"mts": {
            "aspc": (self._aspc.get_state()
                     if self._aspc is not None else None),
            "fast_forces": fast_forces,
            "fast_engine": (self.fast_engine.get_state()
                            if hasattr(self.fast_engine, "get_state")
                            else None),
        }}

    def _load_extra(self, state: dict) -> None:
        mts = state.get("mts", {})
        aspc = mts.get("aspc")
        if aspc is not None:
            if self._aspc is None:
                raise CheckpointError(
                    "MTSBOMD: snapshot carries an ASPC history but this "
                    "runner was built with aspc_order=None")
            self._aspc.set_state(aspc)
        ff = mts.get("fast_forces")
        self._fast_forces0 = (np.asarray(ff, dtype=np.float64).copy()
                              if ff is not None else None)
        if self._respa is not None:
            self._respa.fast_forces = self._fast_forces0
        fe = mts.get("fast_engine")
        if fe is not None and hasattr(self.fast_engine, "set_state"):
            self.fast_engine.set_state(fe)

    @classmethod
    def _from_snapshot(cls, state: dict, cfg: ExecutionConfig) -> "MTSBOMD":
        p = state["params"]
        return cls(mol=state["mol"], method=p["method"], basis=p["basis"],
                   dt_fs=p["dt_fs"], temperature=p["temperature"],
                   seed=p["seed"], incremental=p.get("incremental", False),
                   config=cfg, n_outer=p["n_outer"], inner=p["inner"],
                   aspc_order=p["aspc_order"])


_register_md_kind("mts_bomd", MTSBOMD)
