"""End-to-end: the real command at ``--smoke`` sizes (LiH one step,
(H2O)1-2 ladders, 8-job campaign)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _run(*args, **kw):
    return subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"),
                           *args], capture_output=True, text=True,
                          timeout=170, **kw)


def _names(kind):
    return {m["name"] for m in DECLARED[kind]}


@pytest.fixture(scope="module")
def smoke_record(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "record.json"
    proc = _run("--smoke", "--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text()), proc.stdout


def test_smoke_runs_every_declared_workload(smoke_record):
    record, stdout = smoke_record
    assert list(record["workloads"]) == WORKLOADS     # none dropped
    assert sum(w["total_s"] for w in record["workloads"].values()) < 30
    for name, w in record["workloads"].items():
        assert f"== {name}:" in stdout                # per-workload total
        assert w["attempted"] >= 1 and w["failed"] == 0 and not w["failures"]
        assert w["provenance"]["pins"]["OPENBLAS_NUM_THREADS"] == "1"
        assert w["malloc_pinned"] is True
        assert w["provenance"]["spec_hash"] and w["provenance"]["nproc"]


def test_smoke_emits_exactly_the_declared_metric_names(smoke_record):
    record, _ = smoke_record
    for w in record["workloads"].values():
        assert set(w["end_to_end"]) == _names("end_to_end") | {"failed_frac"}
        assert set(w["per_layer"]) == _names("per_layer")
        for e in w["end_to_end"].values():
            assert e["n"] == 1 and e["unit"]


def test_layers_add_up_and_stay_where_they_belong(smoke_record):
    record, _ = smoke_record
    for name, w in record["workloads"].items():
        pl = {k: v["median"] for k, v in w["per_layer"].items()}
        wall = pl["bench.traced_wall_s"]
        layer_s = sum(v for k, v in pl.items() if k.endswith(".self_s"))
        total = layer_s + pl["bench.unattributed_frac"] * wall
        assert total == pytest.approx(wall, rel=0.01), name
        trace = json.loads(Path(w["trace_file"]).read_text())
        assert trace["traceEvents"][0]["name"] == "bench.timed"
    pl = {n: {k: v["median"] for k, v in w["per_layer"].items()}
          for n, w in record["workloads"].items()}
    assert pl["scf_direct_ladder"]["integrals.quartet_batch.quartets"] > 0
    for idle in ("scf_ri_ladder", "md_pbe0_li2o2"):
        assert pl[idle]["integrals.quartet_batch.quartets"] == 0
        assert pl[idle]["integrals.quartet_batch.self_s"] == 0
    assert pl["scf_ri_ladder"]["scf.ri_jk.b_builds"] == 4
    assert pl["md_pbe0_li2o2"]["md.scf_per_force"] == 13     # 2 atoms
    assert pl["md_pbe0_li2o2"]["wall_s_per_fs"] > 0
    assert pl["scf_ri_ladder"]["wall_s_per_fs"] == 0
    campaign = pl["campaign_screen"]
    assert campaign["warm_jobs_per_s"] > 0
    assert campaign["service.transport.frames_sent"] > 0
    assert 0 < campaign["service.cache.hit_frac"] < 1


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_contract_line(trace, kind, tmp_path):
    proc = _run("--smoke", "--workload", "scf_direct_ladder", "--seed", "7",
                "--seconds", "1", "--trace", str(trace),
                "--out", str(tmp_path / "r.json"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == _names(kind)
    units = {m["name"]: m["unit"] for m in DECLARED[kind]}
    for name, metric in line["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark cannot produce a result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scf_ri_ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
