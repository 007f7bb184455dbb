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
and time-reversible.  It is what :class:`repro.md.bomd.BOMD` runs for
``n_outer > 1``; at ``n_outer=1`` BOMD runs plain velocity Verlet on the
full surface instead (the split with one inner step would differ from
it in the last floating-point bits).

Each full SCF force call can be warm-started through the ASPC
predictor-corrector (:class:`repro.scf.guess.ASPCExtrapolator`): the
density history over outer steps is extrapolated and injected via
:meth:`SCFForceEngine.seed_density`, cutting the SCF iteration count on
top of the n-fold reduction in force builds.
"""

from __future__ import annotations

import numpy as np

from ..scf.guess import ASPCExtrapolator
from .integrator import MDState

__all__ = ["RESPAIntegrator"]


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
        _, self.fast_forces = self.fast_engine.energy_forces(x)
        return MDState(coords=x, velocities=v, forces=f, energy_pot=e,
                       step=0)

    def step(self, state: MDState) -> MDState:
        m = self.masses[:, None]
        dt, n = self.dt, self.n_inner
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
