"""Conformance + parity of every engine ``make_jk_engine`` can return.

One parametrization — {tensor, plain direct, the factory's direct
engine (incremental), ri} x {serial, process} x {quartet, batched} —
against the in-core tensor reference, replacing per-builder hand-picked
pairs: the surface (``build``/``reset``/``close``), pool ownership, and
the rule that neither a response density nor a Newton-phase Fock build
enters an increment history.
"""

import numpy as np
import pytest

from repro.basis import build_basis
from repro.hfx import IncrementalExchange
from repro.runtime import ExecutionConfig
from repro.runtime.pool import ExchangeWorkerPool
from repro.scf import (RHF, DirectJKBuilder, JKEngine, RIJKBuilder,
                       TensorJKEngine, make_jk_engine)
from repro.scf.dft import RKS
from repro.scf.fock import coulomb_from_tensor, exchange_from_tensor

EXACT = 1e-12
#: fitted-error bars of tests/scf/test_ri_jk.py
RI_DJ, RI_DK = 1e-4, 5e-4
EPS = 1e-15


def _cases():
    yield pytest.param("tensor", "serial", "quartet", id="tensor")
    for kind in ("direct", "incremental", "ri"):
        for executor in ("serial", "process"):
            for kernel in ("quartet", "batched"):
                marks = [pytest.mark.pool] if executor == "process" else []
                if kind == "ri":
                    if kernel == "batched":
                        continue        # no quartet kernel on the RI path
                    marks.append(pytest.mark.ri)
                yield pytest.param(kind, executor, kernel, marks=marks,
                                   id=f"{kind}-{executor}-{kernel}")


def _make(kind, executor, kernel, basis, pool=None):
    cfg = ExecutionConfig(executor=executor, kernel=kernel,
                          nworkers=2 if executor == "process" else None,
                          jk="ri" if kind == "ri" else "direct")
    if kind == "direct":
        # the plain full build is the caller's to make
        return DirectJKBuilder(basis, EPS, pool=pool, config=cfg)
    return make_jk_engine(basis, cfg, EPS, pool=pool,
                          mode="incore" if kind == "tensor" else "direct")


def _tols(kind):
    return (RI_DJ, RI_DK) if kind == "ri" else (EXACT, EXACT)


@pytest.fixture(scope="module")
def moved_basis(water):
    return build_basis(water.with_coords(water.coords * 1.02))


@pytest.mark.parametrize("kind,executor,kernel", _cases())
def test_build_matches_tensor_reference(kind, executor, kernel, water_basis,
                                        water_eri, water_rhf):
    engine = _make(kind, executor, kernel, water_basis)
    assert isinstance(engine, {"tensor": TensorJKEngine,
                               "direct": DirectJKBuilder,
                               "incremental": IncrementalExchange,
                               "ri": RIJKBuilder}[kind])
    assert isinstance(engine, JKEngine) and engine.executor == executor
    tol_j, tol_k = _tols(kind)
    try:
        # a short SCF-like density sequence: the second and third builds
        # are true increments for the incremental engine
        for scale in (1.0, 1.01, 1.0101):
            D = water_rhf.D * scale
            J, K = engine.build(D)
            assert np.abs(J - coulomb_from_tensor(water_eri, D)).max() < tol_j
            assert np.abs(K - exchange_from_tensor(water_eri, D)).max() < tol_k
        J_only, none = engine.build(D, want_k=False)
        assert none is None
        assert np.abs(J_only - coulomb_from_tensor(water_eri, D)).max() \
            < tol_j
        if kind != "incremental":
            # (the incremental J is the running sum; J-only is full)
            assert np.array_equal(J_only, J)
        none, K_only = engine.build(D, want_j=False)
        assert none is None and K_only is not None
        assert not engine.degraded
    finally:
        engine.close()


@pytest.mark.parametrize("kind,executor,kernel", _cases())
def test_reset_drops_geometry_state(kind, executor, kernel, water_basis,
                                    moved_basis, water_rhf):
    """After ``reset(basis)`` an engine is indistinguishable from a
    fresh one on that basis — bit for bit — and a shared pool serves
    the new basis."""
    D = water_rhf.D
    pool = ExchangeWorkerPool(water_basis, nworkers=2) \
        if executor == "process" else None
    try:
        engine = _make(kind, executor, kernel, water_basis, pool=pool)
        engine.build(D)
        engine.build(D * 1.01)
        engine.reset(moved_basis)
        assert engine.basis is moved_basis
        if pool is not None:
            assert pool.basis is moved_basis and not pool.closed
        if kind == "ri":
            assert engine._B is None
        if kind == "incremental":
            assert engine.builds == 0 and not engine.D_ref.any()
        if kind in ("direct", "incremental"):
            assert engine.Q is moved_basis._schwarz_cache
        fresh = _make(kind, executor, kernel, moved_basis)
        try:
            for got, want in zip(engine.build(D), fresh.build(D)):
                assert np.array_equal(got, want)
        finally:
            fresh.close()
        engine.close()
        if pool is not None:
            assert not pool.closed      # borrowed: never ours to close
    finally:
        if pool is not None:
            pool.close()


@pytest.mark.parametrize("kind,executor,kernel", _cases())
def test_close_is_idempotent_and_owned_only(kind, executor, kernel,
                                            water_basis):
    engine = _make(kind, executor, kernel, water_basis)
    owned = engine.lease.pool if engine.lease is not None else None
    assert (owned is not None) == (executor == "process")
    engine.close()
    engine.close()
    if owned is not None:
        assert owned.closed


def test_factory_refuses_impossible_engines(water_basis):
    proc = ExecutionConfig(executor="process")
    with pytest.raises(ValueError, match="mode='direct'"):
        make_jk_engine(water_basis, proc, mode="incore")
    # the incremental switch is gone: every direct engine is incremental
    with pytest.raises(TypeError, match="incremental"):
        make_jk_engine(water_basis, incremental=True)
    with pytest.raises(ValueError, match="mode must be"):
        make_jk_engine(water_basis, mode="semidirect")


@pytest.mark.soscf
def test_response_density_never_enters_increment_history(water, water_rhf):
    """The Newton micro-iterations contract indefinite, traceless
    perturbation densities, and the Newton phase's own Fock builds are
    trial points: both run the plain full build.  Only the rough
    phase's SCF densities (tr(DS) = N) become the incremental engine's
    ``D_ref``."""
    basis = build_basis(water)
    engine = make_jk_engine(basis, eps=1e-12)
    assert isinstance(engine, IncrementalExchange)
    history, plain = [], []
    build, respond = engine.build, engine.build_response
    engine.build = lambda D, want_j=True, want_k=True: \
        history.append(D) or build(D, want_j, want_k)
    engine.build_response = lambda d, want_j=True, want_k=True: \
        plain.append(d) or respond(d, want_j, want_k)
    res = RHF(water, basis, mode="direct", jk_engine=engine,
              config=ExecutionConfig(scf_solver="soscf")).run()
    assert res.converged and abs(res.energy - water_rhf.energy) < 1e-8

    def trace(d):
        return np.einsum("pq,qp->", d, res.S)

    responses = [d for d in plain if abs(trace(d)) < 1e-8]
    newton = [d for d in plain if abs(trace(d) - water.nelectron) < 1e-8]
    assert responses, "the Newton phase never built a response"
    assert newton, "the Newton phase never built a Fock matrix"
    assert len(responses) + len(newton) == len(plain)
    assert len(history) + len(newton) == res.fock_builds
    assert engine.builds == len(history)
    for D in history:
        assert abs(trace(D) - water.nelectron) < 1e-8
    assert np.array_equal(engine.D_ref, history[-1])


class _SpyEngine(TensorJKEngine):
    """Records which matrices each build was asked for; with
    ``force_k`` it computes K anyway, as the pre-engine RKS did."""

    def __init__(self, basis, force_k=False):
        super().__init__(basis)
        self.force_k = force_k
        self.asked_k = []

    def build(self, D, want_j=True, want_k=True):
        self.asked_k.append(want_k)
        J, K = super().build(D, want_j, want_k or self.force_k)
        return J, (K if want_k else None)


@pytest.mark.parametrize("solver", ["diis",
                                    pytest.param("soscf",
                                                 marks=pytest.mark.soscf)])
@pytest.mark.parametrize("functional", ["lda", "pbe"])
def test_pure_functional_never_requests_k(water, water_basis, functional,
                                          solver):
    cfg = ExecutionConfig(scf_solver=solver)
    spy = _SpyEngine(water_basis)
    res = RKS(water, water_basis, functional=functional, config=cfg,
              jk_engine=spy).run()
    assert res.converged and spy.asked_k and not any(spy.asked_k)
    # skipping the discarded K changes no bit of J, F or the energy
    old = RKS(water, water_basis, functional=functional, config=cfg,
              jk_engine=_SpyEngine(water_basis, force_k=True)).run()
    assert res.energy == old.energy and res.history == old.history
    assert np.array_equal(res.F, old.F)
    # ... while a hybrid still asks every time
    spy = _SpyEngine(water_basis)
    RKS(water, water_basis, functional="pbe0", jk_engine=spy).run()
    assert all(spy.asked_k)


@pytest.mark.pool
def test_caller_owned_process_engine_survives_rks(water, water_basis):
    """RKS used to close whatever builder it held; a caller-owned
    engine must keep its pool across runs and lose it exactly once, to
    its owner."""
    cfg = ExecutionConfig(executor="process", nworkers=2)
    engine = make_jk_engine(water_basis, cfg)
    pool = engine.lease.pool
    closes = []
    close = pool.close
    pool.close = lambda *a, **k: closes.append(1) or close(*a, **k)
    try:
        first = RKS(water, water_basis, functional="pbe0", mode="direct",
                    config=cfg, jk_engine=engine).run()
        assert not pool.closed and not closes and not engine.degraded
        again = RKS(water, water_basis, functional="pbe0", mode="direct",
                    config=cfg, jk_engine=engine).run()
        assert again.energy == first.energy
    finally:
        engine.close()
    engine.close()
    assert pool.closed and closes == [1]


def _scf_hexes(res):
    """Energy and density bits of a restricted or unrestricted result."""
    dens = [res.D] if hasattr(res, "D") else [res.D_a, res.D_b]
    return [float(res.energy).hex(), res.niter] + [
        [float(x).hex() for x in D.ravel()] for D in dens]


@pytest.mark.parametrize("driver", ["uhf", "pbe"])
def test_single_matrix_builds_never_touch_the_history(driver, water,
                                                      water_basis):
    """UHF (one J, one K per spin) and a pure functional (J only) build
    no J/K pair, so the factory's direct engine runs them as the plain
    full build: the SCF is bit-identical to one through a caller-passed
    ``DirectJKBuilder``."""
    from repro.scf.uhf import UHF

    def run(engine):
        if driver == "uhf":
            return UHF(water, water_basis, mode="direct",
                       jk_engine=engine, break_symmetry=True).run()
        return RKS(water, water_basis, functional="pbe", mode="direct",
                   jk_engine=engine).run()

    engine = make_jk_engine(water_basis)
    assert isinstance(engine, IncrementalExchange)
    got = run(engine)
    assert engine.builds == 0 and not engine.D_ref.any()
    assert _scf_hexes(got) == _scf_hexes(run(DirectJKBuilder(water_basis)))


@pytest.mark.pool
@pytest.mark.parametrize("nworkers", [1, 2, 4])
def test_pooled_direct_scf_matches_serial(nworkers):
    """A whole direct SCF through the incremental engine on the pool
    walks the serial SCF's quartet lists build for build.  The pool sums
    per-worker partial matrices, so J/K agree with the serial ones to
    rounding (~1e-15), not bit for bit; the energy to 1e-10 Ha."""
    from repro.chem import builders

    mol = builders.water_cluster(2)
    basis = build_basis(mol)

    def run(cfg):
        engine = make_jk_engine(basis, cfg)
        counts = []
        build = engine.build

        def counted(D, want_j=True, want_k=True):
            out = build(D, want_j, want_k)
            counts.append(engine.last_quartets)
            return out

        engine.build = counted
        try:
            res = RHF(mol, basis, mode="direct", config=cfg,
                      jk_engine=engine).run()
        finally:
            engine.close()
        return res, counts

    serial, s_counts = run(ExecutionConfig(kernel="batched"))
    pooled, p_counts = run(ExecutionConfig(kernel="batched",
                                           executor="process",
                                           nworkers=nworkers))
    assert serial.converged and pooled.converged
    assert pooled.niter == serial.niter and p_counts == s_counts
    assert abs(pooled.energy - serial.energy) < 1e-10
