import json
import os
import subprocess
import sys

from bench.env import PINS, scrub_in_place, scrubbed_env, spec_hash

DIRTY = {"REPRO_POOL_FAULT": "worker=0", "REPRO_SERVICE_TRANSPORT": "process",
         "REPRO_MTS_OUTER": "3", "REPRO_CHECKPOINT_EVERY": "1",
         "OPENBLAS_NUM_THREADS": "8", "PYTHONPATH": "/elsewhere",
         "PATH": os.environ.get("PATH", "")}


def test_scrubbed_env_pins_blas_and_drops_every_override():
    env = scrubbed_env(DIRTY)
    assert not [k for k in env if k.startswith("REPRO_")]
    assert {k: env[k] for k in PINS} == PINS
    parts = env["PYTHONPATH"].split(os.pathsep)
    assert parts[0].endswith("repo") or os.path.isdir(
        os.path.join(parts[0], "bench"))
    assert parts[1].endswith("src") and parts[-1] == "/elsewhere"
    assert DIRTY["OPENBLAS_NUM_THREADS"] == "8"      # input left alone


def test_child_is_born_with_the_scrubbed_environment():
    out = subprocess.run(
        [sys.executable, "-c",
         "import os, json; print(json.dumps(dict(os.environ)))"],
        env=scrubbed_env(DIRTY), capture_output=True, text=True, check=True)
    seen = json.loads(out.stdout)
    assert not [k for k in seen if k.startswith("REPRO_")]
    assert seen["OPENBLAS_NUM_THREADS"] == "1"
    assert seen["MALLOC_TRIM_THRESHOLD_"] == PINS["MALLOC_TRIM_THRESHOLD_"]


def test_scrub_in_place(monkeypatch):
    monkeypatch.setenv("REPRO_SERVICE_FAULT", "job=1")
    monkeypatch.setenv("OMP_NUM_THREADS", "16")
    assert scrub_in_place() == ["REPRO_SERVICE_FAULT"]
    assert "REPRO_SERVICE_FAULT" not in os.environ
    assert os.environ["OMP_NUM_THREADS"] == "1"


def test_spec_hash_follows_the_seed():
    from bench.workloads import DirectLadder

    wl = DirectLadder(smoke=True)
    assert spec_hash(wl.specs(3)) == spec_hash(wl.specs(3))
    hashes = {spec_hash(wl.specs(seed)) for seed in range(12)}
    assert len(hashes) > 1
