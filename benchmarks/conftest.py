"""Shared fixtures for the benchmark harness.

Workloads are cached on disk (benchmarks/.cache) because the synthetic
condensed-phase generator is itself a few seconds of work and every
figure reuses the same system.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path

import pytest

from repro.hfx import water_box_workload
from repro.runtime.fsio import atomic_write_bytes

CACHE_DIR = Path(__file__).parent / ".cache"
RESULTS_DIR = Path(__file__).parent / "results"

# Workload size knob: the paper-scale system (512 waters) takes ~10 s to
# generate; REPRO_BENCH_WATERS can shrink it for quick runs.
N_WATERS = int(os.environ.get("REPRO_BENCH_WATERS", "512"))
EPS = 1e-8
# Maps the STO-3G cost statistics to the paper's TZV2P-class basis
# (see DESIGN.md, substitutions).
FLOP_SCALE = 50.0
# TZV2P carries ~58 basis functions per water vs STO-3G's 7; the
# replicated-data baseline's memory wall is computed at this model size.
TZV2P_NBF_FACTOR = 58.0 / 7.0


# The sources the condensed-phase workload is generated from: a change
# to any of them keys a new cache file instead of reusing a stale pickle.
WORKLOAD_SOURCES = ("hfx/workload.py", "hfx/tasklist.py", "hfx/costmodel.py",
                    "integrals/schwarz.py", "chem/builders.py")


def _source_digest() -> str:
    """sha256 over the workload generator's sources (first 12 hex)."""
    import repro

    root = Path(repro.__file__).parent
    h = hashlib.sha256()
    for rel in WORKLOAD_SOURCES:
        h.update(rel.encode() + b"\0" + (root / rel).read_bytes())
    return h.hexdigest()[:12]


def _cached(name, builder):
    """``builder()``, pickled under ``benchmarks/.cache`` keyed by
    ``name`` and the generator sources; written atomically, so a run
    killed mid-dump never leaves a truncated pickle behind."""
    path = CACHE_DIR / f"{name}_{_source_digest()}.pkl"
    if path.exists():
        with open(path, "rb") as fh:
            return pickle.load(fh)
    obj = builder()
    atomic_write_bytes(path, pickle.dumps(obj))
    return obj


@pytest.fixture(scope="session")
def condensed_workload():
    """The paper-scale condensed-phase workload (liquid water box)."""
    return _cached(f"waterbox_{N_WATERS}_{EPS:g}",
                   lambda: water_box_workload(N_WATERS, eps=EPS, seed=0))


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def report(results_dir, capsys, request):
    """Print a report block to the live terminal and persist it."""

    def _report(text: str):
        name = request.node.name
        with capsys.disabled():
            print(f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _report
