"""Tier-1 guard for the benchmark's per-layer attribution.

``bench/tests`` is outside the tier-1 ``testpaths``, so without this a
refactor under ``src/`` could break ``bench.layers`` — a span target
that no longer resolves, a hook attribute that moved — and only the
post-merge benchmark run would notice.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import layers                                    # noqa: E402
from bench.tracing import (Patcher, SpanTracer, _resolve,   # noqa: E402
                           leftover_wrappers)

TARGETS = layers.JOB + layers.PARENT


def test_reachable_modules_import():
    for modname in layers.REACHABLE:
        importlib.import_module(modname)


@pytest.mark.parametrize("path", sorted({p for _n, p, _h in TARGETS}))
def test_span_target_resolves_like_the_patcher(path):
    """``Patcher.install`` reads class targets from ``vars(owner)`` — an
    inherited method (say, ``RKS.run`` folded into ``RHF.run``) would be
    a ``KeyError`` in the traced pass."""
    owner, attr = _resolve(path)
    if isinstance(owner, type):
        assert attr in vars(owner), f"{path} is not defined on {owner}"
        member = vars(owner)[attr]
        assert callable(getattr(member, "__func__", member))
    else:
        assert callable(getattr(owner, attr))


def test_hook_attributes_exist_on_the_builders(water_basis):
    from repro.scf import DirectJKBuilder, RIJKBuilder

    direct = DirectJKBuilder(water_basis)
    assert direct.quartets_total == 0 and direct.quartets_computed == 0
    ri = RIJKBuilder(water_basis)
    assert ri.b_builds == 0 and ri.b_reuses == 0
    assert ri.aux.nbf > 0 and ri.basis.nbf == water_basis.nbf


def test_one_scf_run_span_per_kohn_sham_scf(water):
    """``RKS.run`` must reach the shared loop directly: through
    ``RHF.run`` the traced pass would nest two ``scf.run`` spans and
    count every Kohn-Sham iteration twice."""
    from repro.scf.dft import RKS

    for modname in layers.REACHABLE:
        importlib.import_module(modname)
    tracer = SpanTracer()
    with Patcher(tracer) as patcher:
        patcher.install(layers.JOB)
        res = RKS(water, functional="pbe0").run()
    assert leftover_wrappers() == []
    assert [s[0] for s in tracer.spans].count("scf.run") == 1
    assert tracer.counts["scf.iterations"] == res.niter
    assert tracer.counts["scf.fock_builds"] == res.fock_builds


def test_tensor_engine_reaches_eri_tensor_through_the_wrapped_call(water):
    """Every engine build must go through the module-level
    ``eri_tensor`` the harness wraps, or ``integrals.eri_tensor.self_s``
    would stop accounting for the wall.  The harness's quartet count is
    computed from the shell count; a build is a full walk, so it equals
    the engine's own counter."""
    from repro.basis import build_basis
    from repro.scf import TensorJKEngine

    for modname in layers.REACHABLE:
        importlib.import_module(modname)
    coords = water.coords.copy()
    coords[1, 0] += 1e-3
    tracer = SpanTracer()
    with Patcher(tracer) as patcher:
        patcher.install(layers.JOB)
        engine = TensorJKEngine(build_basis(water))
        engine.reset(build_basis(water.with_coords(coords)))
    assert leftover_wrappers() == []
    assert [s[0] for s in tracer.spans].count("integrals.eri_tensor") == 2
    assert tracer.counts["integrals.eri_tensor.quartets"] == 2 * 120
    assert engine.quartets_computed == engine.quartets_total == 120
