"""Tier-1 guards around the one force route.

* the benchmark's MD references were recorded from finite-difference
  trajectories; they stay valid on the analytic route only while no
  hashed ``JobSpec`` field was added (same keys) and the trajectories
  stay within the bench's own tolerance of them;
* ``src/repro`` keeps exactly one force engine over SCF energies and no
  caller of the per-quartet derivative route (it lives on as the oracle
  in ``tests/scf/test_gradient.py``).
"""

import ast
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import workloads                                 # noqa: E402

pytestmark = pytest.mark.gradient


@pytest.fixture(scope="module")
def reference():
    return json.loads((ROOT / "bench" / "reference.json").read_text())


def test_bench_md_specs_still_hash_to_the_recorded_keys(reference):
    """No hashed field was added for the force route, so the reference
    entries recorded at 25 SCFs per force are not stale."""
    scf, md = workloads.pool_specs()
    assert len(md) == 24
    for spec in md:
        entry = reference["md"][workloads.md_label(spec)]
        assert entry["key"] == spec.canonical_key(), workloads.md_label(spec)
    assert len(scf) == len(reference["scf"]) == 192
    for spec in scf:
        assert reference["scf"][spec.label]["key"] == \
            workloads.reference_spec(spec).canonical_key(), spec.label


def test_lih_smoke_trajectory_is_within_bench_tolerance_of_the_fd_record(
        reference):
    from repro import api

    tol = reference["tolerances"]
    traj = workloads.PBE0MD(smoke=True)
    for vseed in range(workloads.MD_POOL):
        spec = traj.spec(vseed)
        out = api.run_md(spec)
        entry = reference["md"][workloads.md_label(spec)]
        assert out["md"]["complete"]
        assert abs(out["final"]["energy_pot"] - entry["energy_pot"]) \
            <= tol["md_energy_ha"]
        assert out["md"]["drift"] <= max(10.0 * entry["drift"],
                                         tol["md_drift_rel"])


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC), ast.parse(path.read_text())


def test_one_force_engine_class_over_scf_energies():
    """Whatever provides ``energy_forces`` under ``src/repro``: the SCF
    engine, the classical force field, and the integrator's protocol —
    a second engine over SCF energies would show up here."""
    providers = {
        f"{path}:{node.name}"
        for path, tree in _trees() for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(
            isinstance(item, ast.FunctionDef) and item.name == "energy_forces"
            for item in node.body)}
    assert providers == {"md/bomd.py:SCFForceEngine",
                         "md/forcefield.py:ForceField",
                         "md/integrator.py:ForceEngine"}


def _identifiers(tree):
    """Every name a module defines, reads, imports, takes as a parameter
    or passes as a keyword."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
    return names


def _assert_gone(gone):
    for path, tree in _trees():
        found = _identifiers(tree) & gone
        assert not found, f"{path}: {sorted(found)}"


def test_no_per_quartet_derivative_route_or_force_switch_under_src():
    _assert_gone({"eri_gradient_quartet", "AnalyticSCFForceEngine",
                  "analytic_forces", "rhf_gradient", "gradient_block_1e"})


def test_no_geometry_delta_reuse_layer_under_src():
    """A new geometry is a full walk: no anchor tensor, no patched walk,
    no moved-shell diff, no inherited or memoizing shell pairs."""
    _assert_gone({"reuse", "moved_shells", "inherit_pairs", "inherit",
                  "memo", "_anchor", "quartets_reused", "pairs_inherited"})


def test_eri_tensor_keeps_the_signature_the_bench_hook_reads():
    """``bench/layers.py`` wraps ``eri_tensor`` and reads ``args[0]`` and
    ``screen``; the walk and the pair table take nothing else but the
    engine to count on."""
    import inspect

    from repro.basis.shellpair import build_shell_pairs
    from repro.integrals.eri import eri_tensor

    params = inspect.signature(eri_tensor).parameters
    assert list(params) == ["basis", "screen", "engine"]
    assert params["screen"].default == 0.0
    assert list(inspect.signature(build_shell_pairs).parameters) == \
        ["shells", "threshold"]


def test_bomd_takes_no_force_route_argument():
    import dataclasses

    import repro.md
    from repro.md import BOMD
    from repro.runtime.boundary import KNOBS
    from repro.runtime.execconfig import ExecutionConfig

    # one runner: the stride, inner surface and ASPC order are BOMD's
    init = [f.name for f in dataclasses.fields(BOMD) if f.init]
    assert len(init) == 11 and "analytic_forces" not in init
    assert "incremental" not in init
    assert not hasattr(repro.md, "MTSBOMD")
    assert len(dataclasses.fields(ExecutionConfig)) == 11
    assert len(KNOBS) == 34
    assert not any("force" in name for name in KNOBS)
