"""Environment control for workload children, and run provenance.

Three things outside the program decide what a run measures, so all three
are fixed before the child starts:

* BLAS threads.  Unpinned, a 2-lane campaign on 2 cores measures the
  scheduler: 18.9-27.9 s against 7.1-7.8 s pinned to one thread.
* ``REPRO_*`` overrides.  An inherited one silently runs another workload.
* glibc's malloc thresholds.  numpy's large temporaries are mmap'ed and
  unmapped again on every call by default; on this class of microVM each
  fresh page costs a host fault (60-125 us), which put 15-25 % of the
  ladders' wall into kernel time and made identical inputs take
  15-30 s.  Keeping freed memory in the heap takes the page faults, and
  the noise, out (RI ladder: 20 s with 4.5 s system time -> 15.3 s with
  none).  The variables are read when a process starts, so only the
  parent can set them.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
MALLOC_PINS = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),    # glibc's maximum
               "MALLOC_TRIM_THRESHOLD_": str(2 << 30),
               "MALLOC_TOP_PAD_": str(256 << 20)}
PINS = {**THREAD_PINS, **MALLOC_PINS}


def scrubbed_env(environ) -> dict:
    """A copy of ``environ`` that is safe to run a workload under: BLAS
    and malloc pinned, every ``REPRO_*`` override dropped, and the repo's
    ``src`` (plus the root, for ``bench`` itself) importable."""
    env = {k: v for k, v in environ.items() if not k.startswith("REPRO_")}
    env.update(PINS)
    path = [str(ROOT), str(SRC)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def scrub_in_place() -> list[str]:
    """Apply :func:`scrubbed_env` to this process (call before importing
    numpy); returns the ``REPRO_*`` names that were dropped.  The malloc
    pins only reach processes started from here on."""
    dropped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for k in dropped:
        del os.environ[k]
    os.environ.update(PINS)
    return dropped


def _git(*args) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _filesystem_of(path: Path) -> str:
    """Filesystem type holding ``path`` (fsync cost depends on it)."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    best, fstype = "", "unknown"
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mnt = fields[1]
        if (target == mnt or target.startswith(mnt.rstrip("/") + "/")) \
                and len(mnt) > len(best):
            best, fstype = mnt, fields[2]
    return fstype


def _blas() -> str:
    import numpy as np

    try:
        dep = np.__config__.show(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def spec_hash(specs) -> str:
    """Content hash of the generated inputs (same seed, same hash)."""
    h = hashlib.sha256()
    for spec in specs:
        h.update(spec.to_json().encode())
    return h.hexdigest()[:16]


def provenance(*, seed: int, lanes: int, workdir: Path, specs) -> dict:
    """Everything needed to reproduce (or distrust) a number."""
    import numpy
    import scipy

    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "lanes": lanes,
        "seed": seed,
        "pins": dict(PINS),
        "workdir_fs": _filesystem_of(workdir),
        "spec_hash": spec_hash(specs),
    }
