"""Geometry optimization on any force engine.

A damped BFGS in Cartesian coordinates — enough to relax the small
model complexes (paper workflow: optimize, then run PBE0 BOMD).  Works
with any :class:`~repro.md.integrator.ForceEngine` (classical force
field or SCF forces).

With ``config=ExecutionConfig(checkpoint_dir=...)`` the optimizer gets
the same auto-snapshot/restore path BOMD has: the full BFGS state
(geometry, inverse Hessian, gradient, energy history) is written every
``checkpoint_every`` iterations plus once at the end (deduplicated by
iteration id), and a rerun over a directory that already holds a
snapshot resumes from it and walks the identical iterate sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..runtime.checkpoint import CheckpointError
from .integrator import ForceEngine

__all__ = ["OptimizationResult", "optimize_geometry"]


@dataclass
class OptimizationResult:
    """Outcome of a geometry optimization."""

    coords: np.ndarray
    energy: float
    forces: np.ndarray
    converged: bool
    niter: int
    history: list[float] = field(default_factory=list)

    @property
    def fmax(self) -> float:
        """Largest force component at the final geometry."""
        return float(np.abs(self.forces).max())


def _opt_state(n, x, H, e, f, g, it, history) -> dict:
    return {"kind": "geom_opt", "n": int(n), "x": x.copy(), "H": H.copy(),
            "e": float(e), "f": np.asarray(f, dtype=np.float64).copy(),
            "g": g.copy(), "it": int(it), "history": list(history)}


def optimize_geometry(engine: ForceEngine, coords0: np.ndarray,
                      fmax: float = 1e-4, max_steps: int = 200,
                      max_step_length: float = 0.3,
                      config=None) -> OptimizationResult:
    """Minimize the energy with BFGS (trust-radius capped steps).

    Parameters
    ----------
    engine:
        Energy/force provider (forces = -gradient, Hartree/Bohr).
    coords0:
        Starting geometry, shape ``(natom, 3)`` Bohr.
    fmax:
        Convergence: largest |force component| below this.
    max_step_length:
        Per-step displacement cap in Bohr (keeps SCF guesses valid).
    config:
        Optional :class:`repro.runtime.ExecutionConfig`; with a
        ``checkpoint_dir`` the BFGS state auto-snapshots every
        ``checkpoint_every`` iterations, and an existing snapshot in
        that directory is resumed instead of restarting from
        ``coords0``.
    """
    auto = None
    if config is not None:
        from ..runtime.checkpoint import AutoCheckpoint
        from ..runtime.execconfig import resolve_execution

        cfg = resolve_execution(config, owner="optimize_geometry")
        if cfg.checkpoint_dir is not None:
            auto = AutoCheckpoint(cfg)
    x = np.asarray(coords0, dtype=np.float64).reshape(-1).copy()
    n = x.size
    if auto is not None and auto.store.snapshots():
        state, info = auto.load()
        if state.get("kind") != "geom_opt":
            raise CheckpointError(
                f"optimize_geometry: snapshot holds {state.get('kind')!r} "
                f"state, not 'geom_opt'")
        if int(state["n"]) != n:
            raise CheckpointError(
                f"optimize_geometry: snapshot has {state['n']} degrees of "
                f"freedom, this geometry has {n}")
        x = np.asarray(state["x"], dtype=np.float64).copy()
        H = np.asarray(state["H"], dtype=np.float64).copy()
        e = float(state["e"])
        f = np.asarray(state["f"], dtype=np.float64).copy()
        g = np.asarray(state["g"], dtype=np.float64).copy()
        it = int(state["it"])
        history = list(state["history"])
        auto.count_restore(info)
    else:
        H = np.eye(n)   # inverse-Hessian approximation
        e, f = engine.energy_forces(x.reshape(-1, 3))
        g = -f.reshape(-1)
        history = [e]
        it = 0

    def snapshot(force=False):
        if auto is not None:
            auto.offer(it, lambda: _opt_state(n, x, H, e, f, g, it, history),
                       force)

    snapshot(force=True)
    converged = bool(np.abs(g).max() < fmax)
    while not converged and it < max_steps:
        it += 1
        step = -H @ g
        norm = np.linalg.norm(step)
        if norm > max_step_length:
            step *= max_step_length / norm
        # backtracking line search on the energy
        alpha = 1.0
        for _ in range(6):
            e_new, f_new = engine.energy_forces(
                (x + alpha * step).reshape(-1, 3))
            if e_new < e + 1e-12:
                break
            alpha *= 0.5
        x_new = x + alpha * step
        g_new = -f_new.reshape(-1)
        # BFGS update of the inverse Hessian
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12:
            rho = 1.0 / sy
            I = np.eye(n)
            V = I - rho * np.outer(s, y)
            H = V @ H @ V.T + rho * np.outer(s, s)
        x, g, e, f = x_new, g_new, e_new, f_new
        history.append(e)
        converged = bool(np.abs(g).max() < fmax)
        snapshot()
    snapshot(force=True)
    return OptimizationResult(x.reshape(-1, 3), e, f, converged, it,
                              history)
