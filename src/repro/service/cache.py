"""Content-addressed result cache for the screening service.

Results are keyed on :meth:`repro.service.JobSpec.canonical_key` — a
hash of everything that determines the physics of the answer and
nothing that merely determines where it ran.  Resubmitting a spec (or
submitting a duplicate inside one campaign) is therefore served from
the cache for free: zero Fock builds, zero MD steps.

The cache is a directory of ``<key>.json`` records (schema-versioned
envelopes, see :mod:`repro.runtime.schema`) so it survives process
restarts and is safe to share **across concurrent campaigns and
processes**:

* every record write is atomic (unique-temp + fsync + ``os.replace``,
  :func:`repro.runtime.fsio.atomic_write_text`) and serialized through
  an advisory ``flock`` on the directory's ``.lock`` sidecar, so any
  number of writers leave every record complete and readable;
* :meth:`try_lock` exposes a non-blocking **per-key compute lock**
  (``<key>.lock`` sidecars): a campaign about to compute a missing key
  takes it first, so a twin spec submitted to a *different* campaign on
  the same cache directory is deferred until the first compute lands
  and is then served from the cache — duplicate specs across concurrent
  campaigns cost one compute, not two.  ``flock`` locks die with their
  holder, so a killed campaign never wedges its siblings.

With ``directory=None`` it degrades to a per-process in-memory dict
(the compute lock degrades to an always-granted no-op).  A record that
fails to parse or fails the envelope check is treated as a miss (and
the stale file is ignored, not trusted) — a corrupt cache can cost a
recompute, never a wrong answer.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from ..runtime.fsio import FileLock, atomic_write_text
from ..runtime.schema import check_envelope

__all__ = ["ResultCache"]

_KEY_RE = re.compile(r"^[0-9a-f]{64}$")


class _HeldNothing:
    """The granted no-op compute lock of the in-memory cache."""

    def release(self) -> None:
        pass


class ResultCache:
    """Content-addressed JSON result store.

    Parameters
    ----------
    directory:
        Where records live (created lazily on the first :meth:`put`);
        ``None`` keeps the cache in memory for the lifetime of the
        process.  A directory may be shared by any number of campaign
        services in any number of processes.
    """

    def __init__(self, directory=None):
        self.directory = Path(directory) if directory is not None else None
        self._mem: dict[str, dict] = {}

    @staticmethod
    def _check_key(key: str) -> str:
        if not isinstance(key, str) or not _KEY_RE.match(key):
            raise ValueError(
                f"cache key must be a 64-hex-digit content address, "
                f"got {key!r}")
        return key

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The cached result envelope for ``key``, or ``None``."""
        self._check_key(key)
        if self.directory is None:
            hit = self._mem.get(key)
            return json.loads(json.dumps(hit)) if hit is not None else None
        path = self._path(key)
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        try:
            return check_envelope(record)
        except ValueError:
            return None     # stale/foreign record: recompute, don't trust

    def put(self, key: str, result: dict) -> None:
        """Store a result envelope under ``key``.

        Process-safe: the record is written atomically under the
        directory's advisory write lock, so concurrent campaigns
        hammering one cache directory can only ever race complete
        records against each other (last writer wins; both are valid
        answers to the same content address).
        """
        self._check_key(key)
        check_envelope(result)
        if self.directory is None:
            # deep-copy through JSON so later caller mutation can never
            # poison the cached record
            self._mem[key] = json.loads(json.dumps(result))
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        with FileLock(self.directory / ".lock"):
            atomic_write_text(self._path(key),
                              json.dumps(result, sort_keys=True))

    def try_lock(self, key: str):
        """Non-blocking per-key compute lock.

        Returns a held lock (``release()`` it when the record is in) or
        ``None`` when another process is already computing this key.
        The cross-campaign dedup protocol: check :meth:`get`, then take
        this lock, then check :meth:`get` **again** before computing;
        a key whose lock is taken is retried a little later, by which
        time the twin campaign's record has landed or is close.
        """
        self._check_key(key)
        if self.directory is None:
            return _HeldNothing()
        self.directory.mkdir(parents=True, exist_ok=True)
        lk = FileLock(self.directory / f"{key}.lock")
        return lk if lk.acquire(blocking=False) else None

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        if self.directory is None:
            return len(self._mem)
        if not self.directory.is_dir():
            return 0
        return sum(1 for p in self.directory.glob("*.json")
                   if _KEY_RE.match(p.stem))
