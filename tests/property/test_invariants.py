"""Property-based tests (hypothesis) on core invariants.

These cover the data structures and algorithms whose correctness the
whole reproduction leans on: partition conservation, torus metrics,
scheduling bounds, screening counts, Boys-function analytic relations.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hfx.partition import PARTITIONERS, partition_tasks
from repro.integrals.boys import boys
from repro.integrals.schwarz import surviving_partners
from repro.machine.threads import ThreadTeam
from repro.machine.torus import Torus

settings.register_profile("suite", max_examples=25, deadline=None)
settings.load_profile("suite")


# --- partitioners ------------------------------------------------------------

costs_strategy = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=300,
).map(np.asarray)


@given(costs=costs_strategy, nranks=st.integers(1, 64),
       method=st.sampled_from(sorted(PARTITIONERS)))
def test_partition_conserves_everything(costs, nranks, method):
    part = partition_tasks(costs, nranks, method)
    part.validate(costs)
    assert np.isclose(part.rank_flops.sum(), costs.sum(), rtol=1e-9)
    assert part.rank_ntasks.sum() == len(costs)
    assert part.rank_flops.min() >= 0.0


@given(costs=costs_strategy, nranks=st.integers(1, 64))
def test_serpentine_within_factor_two_of_mean_plus_max(costs, nranks):
    """Graham-type bound: makespan <= mean + max task."""
    part = partition_tasks(costs, nranks, "serpentine")
    bound = costs.sum() / nranks + costs.max()
    assert part.rank_flops.max() <= bound + 1e-9


# --- torus --------------------------------------------------------------------

dims_strategy = st.lists(st.integers(1, 8), min_size=1, max_size=5) \
    .map(tuple)


@given(dims=dims_strategy, data=st.data())
def test_torus_metric_axioms(dims, data):
    t = Torus(dims)
    n = t.nnodes
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    assert t.hops(a, a) == 0
    assert t.hops(a, b) == t.hops(b, a)
    assert t.hops(a, c) <= t.hops(a, b) + t.hops(b, c)
    assert t.hops(a, b) <= t.diameter


@given(dims=dims_strategy)
def test_torus_coords_roundtrip(dims):
    t = Torus(dims)
    ranks = np.arange(t.nnodes)
    assert np.array_equal(t.index(t.coords(ranks)), ranks)


# --- thread scheduling ---------------------------------------------------------

@given(costs=costs_strategy, nthreads=st.integers(1, 32),
       policy=st.sampled_from(["static", "static_block", "dynamic",
                               "guided"]))
def test_schedule_conserves_work_and_bounds(costs, nthreads, policy):
    team = ThreadTeam(nthreads, dispatch_overhead=0.0)
    res = team.schedule(costs, policy=policy)
    assert np.isclose(res.total_work, costs.sum(), rtol=1e-9)
    # no schedule can beat the trivial lower bounds (to summation-order
    # rounding: costs reach 1e6, where one ulp of the sum exceeds 1e-9)
    assert res.makespan >= costs.sum() / nthreads * (1 - 1e-12) - 1e-9
    assert res.makespan >= costs.max() - 1e-9 or policy in (
        "static_block", "guided")  # chunked policies may merge tasks
    # list scheduling upper bound (dynamic only)
    if policy == "dynamic":
        assert res.makespan <= (costs.sum() / nthreads
                                + costs.max()) * (1 + 1e-12) + 1e-9


# --- screening ------------------------------------------------------------------

def _count(vals, eps):
    q = np.sort(np.asarray(vals, dtype=np.float64))[::-1]
    return int((surviving_partners(q, eps) - np.arange(len(q))).sum())


@given(vals=st.lists(st.floats(min_value=1e-12, max_value=10.0),
                     min_size=1, max_size=40),
       eps=st.floats(min_value=1e-20, max_value=1.0), data=st.data())
def test_count_surviving_matches_bruteforce(vals, eps, data):
    """Free ``eps`` and ``eps`` on a bound product ``q_i q_j`` or one ulp
    either side (the boundary a threshold form ``q_j >= eps / q_i``
    miscounts)."""
    vals_arr = np.asarray(sorted(vals, reverse=True))
    i = data.draw(st.integers(0, len(vals_arr) - 1))
    j = data.draw(st.integers(0, len(vals_arr) - 1))
    at = vals_arr[i] * vals_arr[j]
    for e in (eps, at, np.nextafter(at, 0.0), np.nextafter(at, np.inf)):
        brute = sum(1 for a in range(len(vals_arr))
                    for b in range(a, len(vals_arr))
                    if vals_arr[a] * vals_arr[b] >= e)
        assert _count(vals_arr, e) == brute


@given(vals=st.lists(st.floats(min_value=1e-10, max_value=10.0),
                     min_size=2, max_size=30),
       e1=st.floats(min_value=1e-12, max_value=1e-2),
       e2=st.floats(min_value=1e-12, max_value=1e-2))
def test_count_monotone_in_eps(vals, e1, e2):
    lo, hi = min(e1, e2), max(e1, e2)
    assert _count(vals, lo) >= _count(vals, hi)


# --- Boys function ----------------------------------------------------------------

@given(t=st.floats(min_value=0.0, max_value=200.0),
       m=st.integers(0, 8))
def test_boys_recursion_and_bounds(t, m):
    out = boys(m + 1, np.array([t]))
    fm = out[m, 0]
    # bounds: 0 < F_m(T) <= 1/(2m+1)
    assert 0.0 < fm <= 1.0 / (2 * m + 1) + 1e-12
    # downward recursion consistency
    lhs = out[m, 0]
    rhs = (2 * t * out[m + 1, 0] + np.exp(-t)) / (2 * m + 1)
    assert np.isclose(lhs, rhs, rtol=1e-8, atol=1e-14)


# --- tasklist splitting --------------------------------------------------------------

@given(flops=st.lists(st.floats(min_value=1.0, max_value=1e9),
                      min_size=1, max_size=50),
       grain_frac=st.floats(min_value=1e-4, max_value=2.0))
def test_split_conserves(flops, grain_frac):
    from repro.hfx.tasklist import TaskList

    flops_arr = np.asarray(flops)
    nq = np.maximum((flops_arr / 10.0).astype(np.int64), 1)
    tl = TaskList(pair_index=np.zeros((len(flops), 2), dtype=np.int64),
                  flops=flops_arr, nquartets=nq, eps=1e-8)
    split = tl.split(flops_arr.max() * grain_frac)
    assert np.isclose(split.total_flops, tl.total_flops, rtol=1e-9)
    assert split.total_quartets == tl.total_quartets
    assert split.ntasks >= tl.ntasks
