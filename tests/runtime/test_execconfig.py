"""Tests for the unified ExecutionConfig API (post-legacy-shim)."""

import pytest

from repro.runtime.execconfig import (DEFAULT_EXECUTION, ExecutionConfig,
                                      resolve_execution)
from repro.runtime.telemetry import NULL_TRACER, Tracer


def test_defaults():
    cfg = ExecutionConfig()
    assert cfg.executor == "serial"
    assert cfg.nworkers is None
    assert cfg.pool_timeout is None
    assert cfg.kernel == "quartet"
    assert cfg.tracer is None
    assert cfg.trace is NULL_TRACER


def test_fields_are_eleven_in_role_order():
    """placement, numerics, observation — and nothing that duplicates
    hashed JobSpec physics (mts_*) or that nobody reads (profile)."""
    import dataclasses

    from repro.runtime.boundary import KNOBS

    names = [f.name for f in dataclasses.fields(ExecutionConfig)]
    assert len(names) == 11
    assert not {"profile", "mts_outer", "mts_inner_engine"} & set(names)
    roles = [KNOBS[n].role if n in KNOBS else "observation" for n in names]
    order = ["placement", "numerics", "observation"]
    assert roles == sorted(roles, key=order.index)
    with pytest.raises(TypeError):
        ExecutionConfig(mts_outer=3)


def test_frozen():
    cfg = ExecutionConfig()
    with pytest.raises(AttributeError):
        cfg.executor = "process"


def test_replace():
    cfg = ExecutionConfig()
    cfg2 = cfg.replace(executor="process", nworkers=2)
    assert cfg2.executor == "process" and cfg2.nworkers == 2
    assert cfg.executor == "serial"  # original untouched


def test_trace_property_returns_tracer():
    tr = Tracer("t")
    assert ExecutionConfig(tracer=tr).trace is tr


@pytest.mark.parametrize("bad", ["gpu", "threads", ""])
def test_invalid_executor(bad):
    with pytest.raises(ValueError, match="executor"):
        ExecutionConfig(executor=bad)


@pytest.mark.parametrize("bad", [0, -1, 2.5, True])
def test_invalid_nworkers(bad):
    with pytest.raises(ValueError):
        ExecutionConfig(nworkers=bad)


@pytest.mark.parametrize("bad", [0, -3.0, "ten"])
def test_invalid_pool_timeout(bad):
    with pytest.raises(ValueError):
        ExecutionConfig(pool_timeout=bad)


def test_kernel_values():
    assert ExecutionConfig(kernel="batched").kernel == "batched"
    assert ExecutionConfig(kernel="quartet").kernel == "quartet"


@pytest.mark.parametrize("bad", ["simd", "BATCHED", ""])
def test_invalid_kernel(bad):
    with pytest.raises(ValueError, match="kernel"):
        ExecutionConfig(kernel=bad)


def test_resolve_default_is_shared_singleton():
    assert resolve_execution(None) is DEFAULT_EXECUTION
    cfg = ExecutionConfig(executor="process")
    assert resolve_execution(cfg) is cfg


@pytest.mark.parametrize("bad", [-1, 1.5, True, "two"])
def test_invalid_pool_max_retries(bad):
    with pytest.raises(ValueError, match="pool_max_retries"):
        ExecutionConfig(pool_max_retries=bad)


def test_pool_max_retries_accepts_zero():
    assert ExecutionConfig(pool_max_retries=0).pool_max_retries == 0
    assert ExecutionConfig(pool_max_retries=3).pool_max_retries == 3


def test_resolve_rejects_non_config():
    """The legacy kwargs are gone; a stray positional/mistyped value
    fails loudly with the owner's name."""
    with pytest.raises(TypeError, match="TestAPI.*ExecutionConfig"):
        resolve_execution("process", owner="TestAPI")


def test_legacy_kwargs_removed():
    """The PR 2 deprecation window is over: the old per-call kwargs no
    longer exist on any entry point."""
    from repro.chem import builders
    from repro.scf.rhf import RHF

    with pytest.raises(TypeError, match="executor"):
        RHF(builders.h2(), mode="direct", executor="serial")


def test_hfx_scheme_legacy_fields_removed():
    from repro.hfx import HFXScheme, water_box_workload
    from repro.machine import bgq_racks

    wl = water_box_workload(2)
    with pytest.raises(TypeError):
        HFXScheme(wl, bgq_racks(0.25), nworkers=2)
    # the model prices a build; it takes no execution config
    with pytest.raises(TypeError):
        HFXScheme(wl, bgq_racks(0.25),
                  config=ExecutionConfig(executor="process", nworkers=2))
