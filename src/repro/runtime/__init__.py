"""Parallel runtime — code that executes, never a model of the machine:
the process-pool backend that runs the HFX rank loop on real local
cores, worker supervision, checkpoints, durable file I/O, and the
telemetry layer (hierarchical wall-clock span tracer + metrics
registry) behind the unified :class:`ExecutionConfig` API.  The
modelled OpenMP thread teams and QPX SIMD live in
:mod:`repro.machine`."""

from .telemetry import (Span, Tracer, NullTracer, NULL_TRACER,
                        MetricsRegistry, TelemetrySnapshot, chrome_trace)
from .execconfig import (ExecutionConfig, DEFAULT_EXECUTION,
                         resolve_execution, MTS_INNER_ENGINES,
                         SERVICE_TRANSPORTS)
from .fsio import (atomic_write_bytes, atomic_write_text, FileLock,
                   HAVE_FLOCK)
from .schema import (SCHEMA_VERSION, ENVELOPE_KEYS, result_envelope,
                     check_envelope)
from .checkpoint import (CheckpointError, CheckpointCorruptError,
                         CheckpointStore, Restartable, RestartableRNG,
                         SnapshotInfo, resolve_checkpoint_every)
from .pool import (ExchangeWorkerPool, PoolLease, RankJob, WorkerDeathError,
                   default_nworkers, resolve_nworkers,
                   resolve_pool_timeout, resolve_pool_max_retries)
from .supervisor import WorkerDeath

__all__ = [
    "Span", "Tracer", "NullTracer", "NULL_TRACER",
    "MetricsRegistry", "TelemetrySnapshot", "chrome_trace",
    "ExecutionConfig", "DEFAULT_EXECUTION", "resolve_execution",
    "MTS_INNER_ENGINES", "SERVICE_TRANSPORTS",
    "atomic_write_bytes", "atomic_write_text", "FileLock", "HAVE_FLOCK",
    "SCHEMA_VERSION", "ENVELOPE_KEYS", "result_envelope", "check_envelope",
    "CheckpointError", "CheckpointCorruptError", "CheckpointStore",
    "Restartable", "RestartableRNG", "SnapshotInfo",
    "resolve_checkpoint_every",
    "ExchangeWorkerPool", "PoolLease", "RankJob", "WorkerDeathError",
    "default_nworkers", "resolve_nworkers",
    "resolve_pool_timeout", "resolve_pool_max_retries", "WorkerDeath",
]
