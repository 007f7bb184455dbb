"""Unified execution configuration for every SCF/HFX/MD entry point.

PR 1 grew ad-hoc ``executor=``/``nworkers=`` keyword pairs on six call
sites (``run_rhf``, ``HFXScheme``, ``distributed_exchange``,
``DirectJKBuilder``, ``IncrementalExchange``, ``BOMD``).  This module
replaces them with one frozen :class:`ExecutionConfig` value that also
carries the telemetry sinks, threaded through every layer as
``config=``.  The PR 2 deprecation shim that folded the legacy kwargs
into a config has served its one-window life and is gone;
:func:`resolve_execution` now only normalizes ``config=None`` to the
default and type-checks what it is given.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .boundary import KNOBS, MTS_INNER_ENGINES, SERVICE_TRANSPORTS, check
from .telemetry import NULL_TRACER, Tracer

__all__ = ["ExecutionConfig", "DEFAULT_EXECUTION", "resolve_execution",
           "MTS_INNER_ENGINES", "SERVICE_TRANSPORTS"]


@dataclass(frozen=True, eq=False)
class ExecutionConfig:
    """Where and how the hot paths execute, and what observes them.

    Fields are declared placement, numerics, observation — the role
    column of the one knob table in :mod:`repro.runtime.boundary`,
    which also validates every one of them.  What a trajectory
    *samples* (the RESPA stride and inner surface) is not here: it is
    hashed physics owned by ``JobSpec.mts_outer``/``mts_inner`` and
    ``BOMD(n_outer=, inner=)`` alone.

    Parameters
    ----------
    executor:
        ``"serial"`` (in-process reference) or ``"process"`` (persistent
        local worker pool).
    nworkers:
        Pool size for ``executor="process"`` (default: usable cores).
    pool_timeout:
        Seconds any single pool wait may take before the pool declares a
        worker hung (default: ``REPRO_POOL_TIMEOUT`` or 120 s).
    pool_max_retries:
        Recovery rounds the pool may spend respawning dead workers and
        re-running their rank jobs before it declares itself broken and
        the caller degrades to the serial executor (default:
        ``REPRO_POOL_MAX_RETRIES`` or 2; ``0`` disables recovery).
    kernel:
        Evaluator of the direct walk's quartet blocks: ``"quartet"``
        (one shell quartet per call, the reference evaluator; nothing
        is kept) or ``"batched"`` (one call per L-class through the
        class store; agrees with the reference to ~1e-13 and is several
        times faster).  Either way the blocks reach J and K through the
        same class accumulation, and screening is kernel-independent,
        so both walk — and count — the identical surviving-quartet
        list.
    jk:
        Coulomb/exchange factorization: ``"direct"`` (screened 4-index
        quartets; the bit-exact reference) or ``"ri"`` (density-fitted
        resolution-of-the-identity build: an even-tempered auxiliary
        basis, one 3-index fitted tensor ``B[P,uv]`` assembled per
        geometry and reused across every SCF iteration, J via two GEMMs
        and K via an occupied half-transform).  RI agrees with the
        direct reference to the fitted-error bound documented in
        DESIGN.md (|dE| <= 5e-5 Ha/atom on the test systems) and wins
        past the crossover size measured by the F15 benchmark.
    scf_solver:
        SCF convergence strategy for the closed-shell drivers:
        ``"diis"`` (Pulay DIIS only; the bit-exact reference),
        ``"soscf"`` (ADIIS rough phase, then trust-radius Newton
        micro-iterations), or ``"auto"`` (DIIS until the commutator
        norm crosses the handoff threshold or stalls, then Newton) —
        see :mod:`repro.scf.soscf`.  The accelerated solvers agree with
        the DIIS reference energies to the convergence tolerance while
        spending fewer Fock builds (``scf.fock_builds`` /
        ``scf.micro_iters`` in ``--profile``).
    tracer:
        Telemetry sink (:class:`repro.runtime.telemetry.Tracer`) or
        ``None`` for the zero-cost disabled path.
    checkpoint_dir:
        Directory for trajectory snapshots
        (:class:`repro.runtime.checkpoint.CheckpointStore`); ``None``
        disables checkpointing.
    checkpoint_every:
        Auto-checkpoint cadence in MD steps (default:
        ``REPRO_CHECKPOINT_EVERY`` or 10; only meaningful with
        ``checkpoint_dir``).
    checkpoint_keep:
        Ring size — snapshots kept on disk besides pruning (default 3).
    """

    # --- placement ---
    executor: str = "serial"
    nworkers: int | None = None
    pool_timeout: float | None = None
    pool_max_retries: int | None = None
    # --- numerics ---
    kernel: str = "quartet"
    jk: str = "direct"
    scf_solver: str = "diis"
    # --- observation ---
    tracer: Tracer | None = None
    checkpoint_dir: str | None = None
    checkpoint_every: int | None = None
    checkpoint_keep: int | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name in KNOBS:
                check(f.name, getattr(self, f.name), owner="ExecutionConfig")
        if self.checkpoint_dir is not None and \
                not isinstance(self.checkpoint_dir, (str, os.PathLike)):
            raise ValueError(
                f"checkpoint_dir must be a path, "
                f"got {self.checkpoint_dir!r}")

    @property
    def trace(self) -> Tracer:
        """The active tracer — never ``None`` (no-op when disabled)."""
        return self.tracer if self.tracer is not None else NULL_TRACER

    def replace(self, **changes) -> "ExecutionConfig":
        """A copy with the given fields changed."""
        return replace(self, **changes)


#: The default: serial execution, telemetry disabled.
DEFAULT_EXECUTION = ExecutionConfig()


def resolve_execution(config: ExecutionConfig | None = None, *,
                      owner: str = "this API") -> ExecutionConfig:
    """Normalize a ``config=`` argument: default it, type-check it.

    The PR 2 legacy-kwarg shim is gone (its deprecation window closed);
    a stray ``executor=``/``nworkers=`` kwarg now fails at the call
    site's signature, and a wrong-typed ``config`` fails here with the
    owner's name instead of deep inside the pool.
    """
    if config is None:
        return DEFAULT_EXECUTION
    if not isinstance(config, ExecutionConfig):
        raise TypeError(
            f"{owner}: config must be an ExecutionConfig "
            f"(the legacy executor=/nworkers= kwargs were removed), "
            f"got {type(config).__name__}")
    return config
