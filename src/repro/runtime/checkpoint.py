"""Checkpoint/restart: atomic snapshots and bit-identical resume.

The paper's production workload is multi-picosecond PBE0 BOMD on 96
BG/Q racks — runs far longer than any node's MTBF.  PR 4 made a single
HFX build survive *worker* death; this module makes the whole
trajectory survive *process* death: the stateful objects along the MD
path implement the :class:`Restartable` protocol and a
:class:`CheckpointStore` persists their combined state to disk with the
same detect -> validate -> resume shape a training stack uses for model
checkpoints.

Snapshot format (one file per snapshot)::

    magic    b"REPROCKPT"          9 bytes
    version  format version         4-byte little-endian unsigned
    length   payload byte count     8-byte little-endian unsigned
    digest   SHA-256 of payload    32 bytes
    payload  envelope               {"step", "saved_at", "state"}

Version 2 (what :meth:`CheckpointStore.save` writes) encodes the
envelope with :mod:`repro.runtime.codec`: JSON plus little-endian
numeric arrays, the molecule as a ``Molecule`` record — reading a
snapshot runs no code.  Version 1 pickled it; its reader stays so
existing snapshots still restore.  Any other version is refused.

Durability and corruption safety:

* **atomic writes** — every snapshot (and the ``latest`` pointer) is
  written to a temporary file, flushed, ``fsync``'d, and ``os.replace``'d
  into place, so a crash mid-write can never destroy an existing
  snapshot; the directory entry is fsync'd best-effort afterwards;
* **bounded ring** — the store keeps the newest ``keep`` snapshots and
  prunes older ones after each successful write, so a long trajectory
  cannot fill the disk;
* **validated restore** — loading verifies magic, version, payload
  length, and checksum; a truncated or bit-flipped snapshot is
  diagnosed as :class:`CheckpointCorruptError` and
  :meth:`CheckpointStore.load_latest` falls back through the ring to
  the newest *uncorrupted* snapshot (one ``RuntimeWarning`` per skipped
  file) instead of crashing.

What is deliberately **not** serialized: live worker pools (pipes,
process handles, shared memory) — a restore always respawns a fresh
pool from the restored basis, because pool state could never be
revived into live file descriptors; and tracer *spans* (wall-clock
intervals of a dead process are meaningless) — only the metrics
counters ride along so ``--profile`` totals span the whole logical run.
"""

from __future__ import annotations

import hashlib
import pickle
import re
import struct
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np

from . import codec
from .boundary import KNOBS, resolve, resolve_checkpoint_every
from .fsio import atomic_write_bytes, fsync_dir

__all__ = [
    "CheckpointError", "CheckpointCorruptError", "Restartable",
    "RestartableRNG", "SnapshotInfo", "CheckpointStore", "AutoCheckpoint",
    "resolve_checkpoint_every", "DEFAULT_CHECKPOINT_EVERY", "DEFAULT_KEEP",
]

#: File magic: identifies a repro snapshot regardless of extension.
MAGIC = b"REPROCKPT"

#: Snapshot format version :meth:`CheckpointStore.save` writes.  Bump
#: on any envelope change; a version without a reader is refused
#: (never half-parsed).
FORMAT_VERSION = 2

#: Auto-checkpoint cadence (MD steps) when checkpointing is enabled but
#: no cadence was chosen; REPRO_CHECKPOINT_EVERY overrides via
#: :func:`resolve_checkpoint_every` (a typo'd override fails there, not
#: as a modulo by zero deep inside the MD loop).
DEFAULT_CHECKPOINT_EVERY = KNOBS["checkpoint_every"].default

#: Ring size: snapshots kept on disk besides pruning.
DEFAULT_KEEP = KNOBS["checkpoint_keep"].default

_HEADER = struct.Struct("<9sIQ32s")
_SNAP_RE = re.compile(r"^snap-(\d+)\.ckpt$")


def _load_v1(payload: bytes):
    """The v1 payload reader.  Unpickling can run code; it stays only so
    snapshots written before v2 still restore, and nothing writes v1."""
    return pickle.loads(payload)


#: Payload reader of every format version this code restores.
_READERS = {1: _load_v1, 2: codec.decode}


class CheckpointError(RuntimeError):
    """A checkpoint operation failed (missing store, no usable snapshot,
    or restored state that does not match the object restoring it)."""


class CheckpointCorruptError(CheckpointError):
    """A single snapshot file failed validation (bad magic, unknown
    version, truncation, or checksum mismatch)."""


@runtime_checkable
class Restartable(Protocol):
    """Anything whose state can be captured and later restored.

    ``get_state`` must return a dict the :mod:`repro.runtime.codec`
    admits — plain values, numeric arrays and the codec's records,
    never live OS resources (pools, pipes, open files).
    ``set_state`` must validate the state against the object it is
    loaded into (shapes, method names) and raise
    :class:`CheckpointError` on mismatch, and must leave the object
    continuing *bit-identically* to an uninterrupted run.
    """

    def get_state(self) -> dict:
        """Codec-encodable snapshot of this object's mutable state."""
        ...

    def set_state(self, state: dict) -> None:
        """Restore a state previously returned by :meth:`get_state`."""
        ...


class RestartableRNG:
    """Checkpointable wrapper around :class:`numpy.random.Generator`.

    A plain ``np.random.default_rng(seed)`` consumes its seed once at
    construction; resuming a trajectory by re-seeding would *restart*
    the random stream instead of continuing it.  This wrapper exposes
    the bit-generator state through the :class:`Restartable` protocol
    so a restored stochastic thermostat draws the exact same numbers an
    uninterrupted run would have drawn.

    Draw methods (``normal``, ``chisquare``, ...) delegate to the
    wrapped generator.
    """

    def __init__(self, seed: int | None = None):
        self.seed = seed
        self.generator = np.random.default_rng(seed)

    def __getattr__(self, name):
        # delegate draw methods (normal, chisquare, uniform, ...)
        return getattr(self.generator, name)

    def get_state(self) -> dict:
        st = self.generator.bit_generator.state
        return {"kind": "rng", "seed": self.seed,
                "bit_generator": dict(st)}

    def set_state(self, state: dict) -> None:
        bg = state.get("bit_generator")
        if not isinstance(bg, dict) or "bit_generator" not in bg:
            raise CheckpointError("RestartableRNG: state carries no "
                                  "bit-generator state")
        have = type(self.generator.bit_generator).__name__
        want = bg["bit_generator"]
        if want != have:
            raise CheckpointError(
                f"RestartableRNG: snapshot was taken with bit generator "
                f"{want!r} but this generator is {have!r}")
        self.generator.bit_generator.state = bg
        self.seed = state.get("seed", self.seed)


@dataclass(frozen=True)
class SnapshotInfo:
    """Provenance of one loaded/written snapshot."""

    path: Path
    step: int
    saved_at: float        # epoch seconds at write time
    nbytes: int
    version: int = FORMAT_VERSION

    @property
    def age_s(self) -> float:
        """Seconds elapsed since the snapshot was written."""
        return max(0.0, time.time() - self.saved_at)


class CheckpointStore:
    """Versioned, self-describing snapshot store on a directory.

    Parameters
    ----------
    directory:
        Where snapshots live.  Created lazily on the first
        :meth:`save` — a restore from a nonexistent directory is an
        error, not an empty store.
    keep:
        Ring size: how many snapshots survive pruning (>= 1; ``None``
        is the table default, 3).
    """

    def __init__(self, directory, keep: int | None = None):
        self.directory = Path(directory)
        self.keep = resolve("checkpoint_keep", keep, owner="CheckpointStore")

    # --- writing -------------------------------------------------------------

    def save(self, state: dict, step: int) -> SnapshotInfo:
        """Atomically persist ``state`` as the snapshot for ``step``.

        Write-tmp / fsync / rename, then the ``latest`` pointer the
        same way, then ring pruning — in that order, so a crash at any
        instant leaves either the old snapshot set or the new one,
        never a torn file.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        saved_at = time.time()
        envelope = {"step": int(step), "saved_at": saved_at, "state": state}
        payload = codec.encode(envelope)
        digest = hashlib.sha256(payload).digest()
        header = _HEADER.pack(MAGIC, FORMAT_VERSION, len(payload), digest)
        name = f"snap-{int(step):08d}.ckpt"
        path = self.directory / name
        self._atomic_write(path, header + payload)
        self._atomic_write(self.directory / "latest",
                           (name + "\n").encode("ascii"))
        self._fsync_dir()
        self._prune(keep_name=name)
        return SnapshotInfo(path=path, step=int(step), saved_at=saved_at,
                            nbytes=len(header) + len(payload))

    def _atomic_write(self, path: Path, data: bytes) -> None:
        atomic_write_bytes(path, data)

    def _fsync_dir(self) -> None:
        fsync_dir(self.directory)

    def _prune(self, keep_name: str) -> None:
        """Drop ring overflow and stale tmp files; never the newest."""
        snaps = self.snapshots()
        for path in snaps[self.keep:]:
            if path.name != keep_name:
                try:
                    path.unlink()
                except OSError:
                    pass
        for tmp in self.directory.glob("*.tmp"):
            try:
                tmp.unlink()
            except OSError:
                pass

    # --- reading -------------------------------------------------------------

    def snapshots(self) -> list[Path]:
        """Snapshot files, newest (highest step) first."""
        if not self.directory.is_dir():
            return []
        found = []
        for path in self.directory.iterdir():
            m = _SNAP_RE.match(path.name)
            if m:
                found.append((int(m.group(1)), path))
        return [p for _, p in sorted(found, reverse=True)]

    def latest_path(self) -> Path | None:
        """The ``latest`` pointer's target, when present and sane."""
        pointer = self.directory / "latest"
        try:
            name = pointer.read_text().strip()
        except OSError:
            return None
        if not _SNAP_RE.match(name):
            return None
        path = self.directory / name
        return path if path.is_file() else None

    def _read(self, path: Path) -> tuple[dict, int]:
        """Validate and decode one snapshot file: ``(envelope,
        version)``."""
        try:
            blob = path.read_bytes()
        except OSError as e:
            raise CheckpointCorruptError(f"unreadable snapshot: {e}") from e
        if len(blob) < _HEADER.size:
            raise CheckpointCorruptError(
                f"truncated snapshot ({len(blob)} bytes < "
                f"{_HEADER.size}-byte header)")
        magic, version, length, digest = _HEADER.unpack_from(blob)
        if magic != MAGIC:
            raise CheckpointCorruptError(
                f"bad magic {magic!r} (not a repro snapshot)")
        if version not in _READERS:
            raise CheckpointCorruptError(
                f"snapshot format v{version} is newer than this code "
                f"(v{FORMAT_VERSION})" if version > FORMAT_VERSION else
                f"snapshot format v{version} is not one this code reads "
                f"(v{min(_READERS)}..v{FORMAT_VERSION})")
        payload = blob[_HEADER.size:]
        if len(payload) != length:
            raise CheckpointCorruptError(
                f"truncated payload ({len(payload)} of {length} bytes)")
        if hashlib.sha256(payload).digest() != digest:
            raise CheckpointCorruptError("payload checksum mismatch")
        try:
            envelope = _READERS[version](payload)
        except Exception as e:   # checksummed, so this means a format bug
            raise CheckpointCorruptError(
                f"undecodable payload: {e}") from e
        if not isinstance(envelope, dict) or "state" not in envelope:
            raise CheckpointCorruptError("payload is not a snapshot "
                                         "envelope")
        return envelope, version

    def load(self, path) -> tuple[dict, SnapshotInfo]:
        """Load one specific snapshot file (validated)."""
        path = Path(path)
        envelope, version = self._read(path)
        info = SnapshotInfo(
            path=path, step=int(envelope.get("step", -1)),
            saved_at=float(envelope.get("saved_at", 0.0)),
            nbytes=path.stat().st_size, version=version)
        return envelope["state"], info

    def load_latest(self) -> tuple[dict, SnapshotInfo]:
        """Newest uncorrupted snapshot, falling back through the ring.

        Tries the ``latest`` pointer's target first, then every ring
        snapshot newest-first; each unusable file gets one
        ``RuntimeWarning`` naming the diagnosis.  Raises
        :class:`CheckpointError` when the directory is missing or no
        snapshot survives validation.
        """
        if not self.directory.is_dir():
            raise CheckpointError(
                f"checkpoint directory '{self.directory}' does not exist "
                f"— nothing to restore")
        candidates: list[Path] = []
        pointed = self.latest_path()
        if pointed is not None:
            candidates.append(pointed)
        for path in self.snapshots():
            if path not in candidates:
                candidates.append(path)
        if not candidates:
            raise CheckpointError(
                f"checkpoint directory '{self.directory}' contains no "
                f"snapshots — nothing to restore")
        for path in candidates:
            try:
                return self.load(path)
            except CheckpointCorruptError as e:
                warnings.warn(
                    f"checkpoint: snapshot {path.name} is unusable ({e}); "
                    f"falling back to the previous ring snapshot",
                    RuntimeWarning, stacklevel=2)
        raise CheckpointError(
            f"no usable snapshot in '{self.directory}': all "
            f"{len(candidates)} candidate(s) failed validation")


class AutoCheckpoint:
    """One checkpointed loop's snapshot plumbing: the store, its
    cadence, the last step written, and the ``checkpoint.*`` spans and
    counters.

    The MD runners (:class:`repro.md.bomd.CheckpointedMD`) and the
    geometry optimizer write and restore through this one object, so
    they share the cadence rule, the one-snapshot-per-step dedup and the
    telemetry.  ``config`` is a resolved
    :class:`repro.runtime.ExecutionConfig`; ``directory`` overrides its
    ``checkpoint_dir``.
    """

    def __init__(self, config, directory=None):
        if directory is None:
            directory = config.checkpoint_dir
        self.store = CheckpointStore(directory, keep=config.checkpoint_keep)
        self.every = resolve_checkpoint_every(config.checkpoint_every)
        self.trace = config.trace
        self.last_step: int | None = None

    def offer(self, step: int, get_state, force: bool = False) -> None:
        """Write ``get_state()`` as the snapshot of ``step`` when the
        cadence (or ``force``) asks for one and ``step`` is not written
        yet — overlapping triggers (a final step on the cadence) make
        one snapshot."""
        if (force or step % self.every == 0) and step != self.last_step:
            self.save(get_state(), step)

    def save(self, state: dict, step: int) -> SnapshotInfo:
        """Write one snapshot now."""
        tr = self.trace
        with tr.span("checkpoint.write", cat="checkpoint", step=step):
            info = self.store.save(state, step=step)
        self.last_step = step
        if tr.enabled:
            tr.metrics.count("checkpoint.writes", 1)
            tr.metrics.set("checkpoint.last_step", step)
        return info

    def load(self) -> tuple[dict, SnapshotInfo]:
        """The newest good snapshot; the next write dedups against its
        step."""
        with self.trace.span("checkpoint.restore", cat="checkpoint"):
            state, info = self.store.load_latest()
        self.last_step = info.step
        return state, info

    def count_restore(self, info: SnapshotInfo) -> None:
        """Record a restore — after the snapshot's own counters are
        loaded, which would overwrite it."""
        tr = self.trace
        if tr.enabled:
            tr.metrics.count("checkpoint.restores", 1)
            tr.metrics.set("checkpoint.restored_step", float(info.step))
            tr.metrics.set("checkpoint.snapshot_age_s", info.age_s)
