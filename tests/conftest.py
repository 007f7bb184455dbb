"""Shared fixtures for the test suite.

Session-scoped fixtures cache the expensive objects (bases, ERI
tensors, converged SCFs) so the suite stays fast while every module
gets exercised against real data.
"""

from __future__ import annotations

import hashlib
import os
import pickle

import numpy as np
import pytest

from repro.basis import build_basis
from repro.chem import builders
from repro.integrals import eri_tensor
from repro.scf import run_rhf


@pytest.fixture(scope="session")
def h2():
    return builders.h2()


@pytest.fixture(scope="session")
def water():
    return builders.water()


@pytest.fixture(scope="session")
def h2_basis(h2):
    return build_basis(h2)


@pytest.fixture(scope="session")
def water_basis(water):
    return build_basis(water)


@pytest.fixture(scope="session")
def water_eri(water_basis):
    return eri_tensor(water_basis)


@pytest.fixture(scope="session")
def water_rhf(water):
    return run_rhf(water)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


# --- boundary codec: hostile and legacy bytes ---------------------------------

class _MkdirOnLoad:
    """Unpickling this runs ``os.mkdir(path)``: a payload that executes."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return os.mkdir, (self.path,)


@pytest.fixture
def hostile_pickle(tmp_path):
    """``(payload, marker)``: pickle bytes whose unpickling creates the
    directory ``marker`` — what no boundary decoder may ever run."""
    marker = tmp_path / "unpickled-and-ran"
    return pickle.dumps(_MkdirOnLoad(marker)), marker


@pytest.fixture
def write_v1_snapshot():
    """``write(directory, state, step)``: a snapshot in checkpoint format
    v1 (a pickled envelope), byte for byte what the v1 writer left,
    ``latest`` pointer included."""
    from repro.runtime.checkpoint import _HEADER, MAGIC

    def write(directory, state, step):
        envelope = {"step": int(step), "saved_at": 0.0, "state": state}
        payload = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        name = f"snap-{int(step):08d}.ckpt"
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, 1, len(payload),
                                  hashlib.sha256(payload).digest()))
            fh.write(payload)
        with open(os.path.join(directory, "latest"), "w") as fh:
            fh.write(name + "\n")

    return write
