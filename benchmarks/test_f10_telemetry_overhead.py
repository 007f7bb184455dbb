"""F10 — telemetry overhead: the disabled fast path must be (nearly) free.

The telemetry subsystem instruments the hottest loops in the repo (the
screened J/K quartet builds), so its acceptance bar is a measurement:
with telemetry *disabled* (the default ``ExecutionConfig``), the
instrumented builder must stay within 5% of a bare hand-rolled loop
with no tracer plumbing at all.  The *enabled* cost is recorded for
context (it is allowed to be visible — tracing is opt-in).

Timings are min-of-N over repeated builds on the F9-class real-integral
system (``REPRO_BENCH_POOL_WATERS`` resizes it); the minimum is the
standard estimator for "the loop itself" under scheduler noise.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.basis import build_basis
from repro.chem import builders
from repro.runtime import ExecutionConfig, Tracer
from repro.scf import DirectJKBuilder
from repro.scf.fock import _add_images, _compile

N_WATERS = int(os.environ.get("REPRO_BENCH_POOL_WATERS", "4"))
EPS = 1e-10
REPEATS = 5
MAX_DISABLED_OVERHEAD = 0.05

pytestmark = pytest.mark.telemetry


@pytest.fixture(scope="module")
def cluster_state():
    mol = builders.water_cluster(N_WATERS, seed=0)
    basis = build_basis(mol)
    rng = np.random.default_rng(0)
    A = rng.standard_normal((basis.nbf, basis.nbf)) * 0.1
    D = A + A.T + np.eye(basis.nbf)
    return basis, D


def _bare_build(builder: DirectJKBuilder, D: np.ndarray):
    """The same screened J/K walk with zero telemetry plumbing — the
    class-first screen, the reference blocks stacked and compiled per
    block, the four-image accumulation into half of J and K — the
    reference the disabled path is charged against."""
    basis = builder.basis
    engine = builder.engine
    nbf = basis.nbf
    Jh = np.zeros(nbf * nbf)
    Kh = np.zeros(nbf * nbf)
    Df = D.reshape(-1)
    dmax = float(np.abs(D).max()) if D.size else 0.0
    for cls in builder._screened_classes(dmax):
        blocks = np.stack([engine.quartet(*q) for q in cls.tolist()])
        _add_images(Jh, Kh, _compile(blocks, cls, basis), Df)
    J, K = Jh.reshape(nbf, nbf), Kh.reshape(nbf, nbf)
    return J + J.T, K + K.T


def _min_of(n: int, fn) -> tuple[float, object]:
    best, out = float("inf"), None
    for _ in range(n):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_f10_telemetry_overhead(cluster_state, report, results_dir):
    basis, D = cluster_state

    bare_builder = DirectJKBuilder(basis, eps=EPS)
    t_bare, (J_b, K_b) = _min_of(REPEATS, lambda: _bare_build(bare_builder, D))

    disabled = DirectJKBuilder(basis, eps=EPS)  # default config: NullTracer
    t_off, (J_o, K_o) = _min_of(REPEATS, lambda: disabled.build(D))

    tracer = Tracer("f10")
    traced = DirectJKBuilder(basis, eps=EPS,
                             config=ExecutionConfig(tracer=tracer))
    t_on, (J_t, K_t) = _min_of(REPEATS, lambda: traced.build(D))

    # telemetry is observation-only on every path
    np.testing.assert_array_equal(J_o, J_b)
    np.testing.assert_array_equal(K_o, K_b)
    np.testing.assert_array_equal(J_t, J_b)
    np.testing.assert_array_equal(K_t, K_b)

    overhead_off = t_off / t_bare - 1.0
    overhead_on = t_on / t_bare - 1.0
    nspans = len(tracer.spans)
    report(
        f"system              (H2O){N_WATERS}  nbf={basis.nbf}  "
        f"quartets={disabled.quartets_computed}\n"
        f"timing              min of {REPEATS} builds each\n"
        f"t(bare loop)        {t_bare * 1e3:.2f} ms   (no tracer plumbing)\n"
        f"t(telemetry off)    {t_off * 1e3:.2f} ms   "
        f"({overhead_off:+.2%} vs bare)\n"
        f"t(telemetry on)     {t_on * 1e3:.2f} ms   "
        f"({overhead_on:+.2%} vs bare, {nspans} spans/"
        f"{REPEATS} builds)\n"
        f"acceptance          disabled overhead < "
        f"{MAX_DISABLED_OVERHEAD:.0%}"
    )
    assert overhead_off < MAX_DISABLED_OVERHEAD
