"""Public-API surface tests: the names README documents must exist and
compose the way the quickstart shows."""

import numpy as np


def test_top_level_exports():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_quickstart_composition():
    """The README quickstart, condensed."""
    from repro import (HFXScheme, bgq_racks, builders,
                       distributed_exchange, run_rks, water_box_workload)

    res = run_rks(builders.water(), functional="pbe0", conv_tol=1e-6)
    K, commlog, tasks, part = distributed_exchange(res.basis, res.D,
                                                   nranks=4, eps=1e-10)
    ex = -0.25 * float(np.einsum("pq,pq->", K, res.D))
    assert abs(ex - res.exchange_energy) < 1e-6

    wl = water_box_workload(8, eps=1e-7)
    cfg = bgq_racks(0.25)
    bt = HFXScheme(wl.split(wl.total_flops / (cfg.nranks * 4)),
                   cfg, flop_scale=50).simulate()
    assert bt.makespan > 0


def test_subpackage_docstrings():
    """Every subpackage documents itself (the docs deliverable)."""
    import repro

    for name in ("chem", "basis", "integrals", "scf", "hfx", "machine",
                 "runtime", "md", "liair", "analysis"):
        mod = getattr(repro, name)
        assert mod.__doc__ and len(mod.__doc__) > 20, name


def test_electrolyte_workload_api():
    from repro.hfx import electrolyte_workload

    wl = electrolyte_workload("DMSO", n_solvent=4, eps=1e-6)
    assert wl.ntasks > 0
    assert "DMSO" in wl.label


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_engine_surface_is_public_and_dead_wood_is_gone():
    import repro.runtime
    import repro.scf

    for name in ("JKEngine", "TensorJKEngine", "DirectJKBuilder",
                 "RIJKBuilder", "make_jk_engine"):
        assert name in repro.scf.__all__ and hasattr(repro.scf, name), name
    assert "PoolLease" in repro.runtime.__all__
    for name in ("Timer", "Trace", "TraceEvent"):
        assert not hasattr(repro.runtime, name), name
