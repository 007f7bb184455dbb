"""The paper's static schedule as one piece of code: one surviving-partner
kernel (``integrals.schwarz.surviving_partners``) and one LPT
(``hfx.partition.lpt_bins``) under the task lists, the worker pool and
the RI shards — held to the balancers and counters they replaced
(``schedule_oracle``) bit for bit."""

import ast
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.basis import build_basis
from repro.basis.auxbasis import build_aux_basis
from repro.chem import builders
from repro.hfx import workload
from repro.hfx.incremental import incremental_survival
from repro.hfx.partition import lpt, lpt_bins
from repro.hfx.tasklist import build_tasklist
from repro.integrals.eri import ERIEngine
from repro.integrals.ri import aux_shard_slices
from repro.integrals.schwarz import surviving_partners
from repro.runtime.pool import own_bras
from repro.scf.fock import DirectJKBuilder

from . import schedule_oracle as oracle

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

# the boundary the threshold form ``q_b >= eps / q_a`` gets wrong
BOUNDARY_Q = np.array([5.254017870434784, 3.1031085137139978])


def _brute_ends(q, eps, scale=1.0):
    """Per bra, the survivors of the product test, which must be exactly
    the range ``[a, end)``; returns ``end``."""
    n = len(q)
    ends = []
    for a in range(n):
        keep = [b for b in range(a, n) if (q[a] * q[b]) * scale >= eps]
        assert keep == list(range(a, a + len(keep)))
        ends.append(a + len(keep))
    return np.array(ends, dtype=np.int64)


# --- the kernel --------------------------------------------------------------


@st.composite
def _bounds_and_eps(draw):
    q = np.sort(np.array(draw(st.lists(
        st.floats(min_value=1e-12, max_value=10.0), min_size=1,
        max_size=40))))[::-1]
    scale = draw(st.sampled_from([1.0, 1e-4, 0.3, 2.5]))
    i = draw(st.integers(0, len(q) - 1))
    j = draw(st.integers(0, len(q) - 1))
    at = (q[i] * q[j]) * scale
    eps = draw(st.sampled_from([at, np.nextafter(at, 0.0),
                                np.nextafter(at, np.inf)]))
    return q, float(eps), scale


@settings(max_examples=200, deadline=None)
@given(case=_bounds_and_eps())
def test_kernel_equals_the_brute_force_product_test(case):
    """``eps`` is drawn *at* a bound product ``q_i q_j`` (times the
    scale) or one ulp either side — exactly where a threshold form
    miscounts."""
    q, eps, scale = case
    got = surviving_partners(q, eps, scale)
    assert np.array_equal(got, _brute_ends(q, eps, scale))


def test_kernel_edges():
    assert surviving_partners(np.empty(0), 1e-8).shape == (0,)
    q = np.array([1.0, 0.5, 0.1])
    assert np.array_equal(surviving_partners(q, 1e-30), [3, 3, 3])
    assert np.array_equal(surviving_partners(q, 10.0), [0, 1, 2])
    assert np.array_equal(surviving_partners(q, 1e-8, scale=0.0), [0, 1, 2])


def test_boundary_regression():
    """The real screen keeps both quartets of ``(q0 q0)``/``(q0 q1)`` at
    ``eps = q0 * q1``; the threshold form counted one of them."""
    q = BOUNDARY_Q
    eps = q[0] * q[1]
    assert eps / q[0] > q[1]          # why the threshold form drops it
    assert np.array_equal(surviving_partners(q, eps), [2, 1])
    assert incremental_survival(q, eps, 1.0) == (2, 3)
    assert oracle.incremental_survival(q, eps, 1.0) == (1, 3)
    assert oracle.count_surviving_quartets(np.diag(q), eps) == 1


@pytest.mark.parametrize("builder", ["water", "li2o2"])
def test_model_counts_what_the_real_screen_keeps(builder):
    """``incremental_survival`` at ``|dD| = 1`` equals the quartets the
    direct builder's screen keeps, with ``eps`` on a product boundary."""
    jk = DirectJKBuilder(build_basis(getattr(builders, builder)()))
    q = np.sort(np.concatenate(jk.engine.pair_bounds()))[::-1]
    for i, j in ((0, 3), (2, 9), (5, 5)):
        jk.eps = q[i] * q[j]
        kept = sum(len(cls) for cls in jk._screened_classes(1.0))
        assert incremental_survival(q, jk.eps, 1.0)[0] == kept


# --- task lists --------------------------------------------------------------


_MOLECULES = {
    "water": builders.water,
    "water2": lambda: builders.water_cluster(2),
    "water3": lambda: builders.water_cluster(3),
    "water4": lambda: builders.water_cluster(4),
    "li2o2": builders.li2o2,
    "pc": builders.propylene_carbonate,
}


@pytest.mark.parametrize("name", sorted(_MOLECULES))
def test_tasklist_equals_the_per_quartet_loop(name):
    basis = build_basis(_MOLECULES[name]())
    engine = ERIEngine(basis)
    for eps in (1e-6, 1e-8, 1e-10, 1e-12):
        got = build_tasklist(basis, eps, engine=engine)
        ref = oracle.build_tasklist(basis, eps, engine=engine)
        for f in ("pair_index", "flops", "nquartets"):
            assert getattr(got, f).dtype == getattr(ref, f).dtype
            assert np.array_equal(getattr(got, f), getattr(ref, f)), f
        assert len(got.ket_lists) == len(ref.ket_lists)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype
                   for a, b in zip(got.ket_lists, ref.ket_lists))
        assert (got.nbf, got.nocc, got.label) == (ref.nbf, ref.nocc,
                                                  ref.label)


_BOXES = {
    "water8": lambda: builders.water_box(8, seed=0)[0],
    "water27": lambda: builders.water_box(27, seed=0)[0],
    "pc2": lambda: builders.electrolyte_box("PC", 2, seed=1)[0],
}


@pytest.mark.parametrize("box, eps", [("water8", 1e-7), ("water27", 1e-8),
                                      ("pc2", 1e-10)])
def test_synthetic_counts_match_the_threshold_form_off_the_boundary(box,
                                                                    eps):
    """On the modelled boxes no bound product sits on ``eps``, so the
    product test counts what the threshold form counted and the
    modelled F1-F6 inputs keep their bits."""
    mol = _BOXES[box]()
    tl = workload.synthetic_tasklist(mol, eps=eps)
    _, pairs, q = workload._model_pair_bounds(mol, eps, "sto-3g")
    keep = q * q.max() >= eps
    basis = build_basis(mol)
    ls = np.array([s.l for s in basis.shells])
    nps = np.array([s.nprim for s in basis.shells])
    p = pairs[keep]
    h = np.array([workload.pair_weight(int(l), int(n)) for l, n in zip(
        ls[p[:, 0]] + ls[p[:, 1]], nps[p[:, 0]] * nps[p[:, 1]])])
    order = np.argsort(q[keep])[::-1]
    nb, cost = oracle.workload_counts(q[keep][order], h[order], eps)
    alive = nb > 0
    assert np.array_equal(tl.nquartets, nb[alive])
    assert np.array_equal(tl.flops, cost[alive])
    assert np.array_equal(tl.pair_index, p[order][alive])


# --- the one LPT -------------------------------------------------------------


_costs = st.lists(st.integers(0, 6), min_size=0, max_size=60)


@given(costs=_costs, nbins=st.integers(1, 9))
def test_lpt_equals_the_pool_dispatch_balancer(costs, nbins):
    got = [sorted(b) for b in lpt_bins([float(c) for c in costs], nbins)]
    assert got == oracle.pool_lpt_assign([float(c) for c in costs], nbins)


@given(costs=_costs, nbins=st.integers(1, 9))
def test_lpt_equals_the_pair_balancer_in_order(costs, nbins):
    """Bras go to the ranks the old pair balancer gave them — LPT on the
    survivors per bra, ties in bra order — and each rank's job cost is
    the balancer's load of it."""
    rank_of_bra, loads = own_bras(np.array(costs, dtype=np.float64), nbins)
    ref = oracle.balance_pairs(
        [(t, t, np.zeros((c, 2), dtype=np.int64))
         for t, c in enumerate(costs)], nbins)
    assert loads == [c for _, _, c in ref]
    for rank, pairs, _ in ref:
        assert all(rank_of_bra[p[0]] == rank for p in pairs)
    assert len(rank_of_bra) == len(costs)


@given(costs=_costs, nbins=st.integers(1, 9))
def test_lpt_equals_the_aux_shard_balancer(costs, nbins):
    aux = SimpleNamespace(shells=[SimpleNamespace(nfunc=c) for c in costs],
                          nshell=len(costs))
    assert aux_shard_slices(aux, nbins) == \
        oracle.aux_shard_slices(aux, nbins)


@given(costs=st.lists(st.integers(1, 6), min_size=1, max_size=60),
       nranks=st.integers(1, 9))
def test_lpt_equals_the_partitioner(costs, nranks):
    """Same per-rank loads and task counts; a rank may swap tasks only
    with an equal-cost one (the old descending sort was not stable)."""
    costs = np.asarray(costs, dtype=np.float64)
    got = lpt(costs, nranks)
    ref = oracle.partition_lpt(costs, nranks)
    ref_flops = np.zeros(nranks)
    np.add.at(ref_flops, ref, costs)
    assert np.array_equal(got.rank_flops, ref_flops)
    assert np.array_equal(got.rank_ntasks,
                          np.bincount(ref, minlength=nranks))
    for r in range(nranks):
        assert sorted(costs[got.rank_of_task == r]) == \
            sorted(costs[ref == r])


@pytest.mark.parametrize("builder", ["water", "li2o2",
                                     "propylene_carbonate"])
def test_aux_shards_equal_the_old_balancer(builder):
    aux = build_aux_basis(build_basis(getattr(builders, builder)()))
    for nshards in (1, 2, 3, 4, 7, 16):
        assert aux_shard_slices(aux, nshards) == \
            oracle.aux_shard_slices(aux, nshards)


# --- one of each under src/ --------------------------------------------------


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text())


def test_heapq_only_in_the_two_schedulers():
    """The one LPT lives in ``hfx/partition.py``; the OpenMP model in
    ``machine/threads.py`` schedules in arrival order, not by LPT."""
    users = set()
    for path, tree in _modules():
        for node in ast.walk(tree):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom)
                     else [])
            if "heapq" in names:
                users.add(path.relative_to(SRC).as_posix())
    assert users == {"hfx/partition.py", "machine/threads.py"}


def test_replaced_names_are_gone():
    gone = {"_lpt_assign", "count_surviving_quartets", "QuartetCost",
            "pair_extent_estimate", "schwarz_matrix", "SimComm"}
    found = set()
    for _, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.add(node.name)
            elif isinstance(node, ast.alias):
                found.add(node.name)
            elif isinstance(node, ast.Constant) and \
                    isinstance(node.value, str):
                found.add(node.value)       # ``__all__`` entries
    assert not found & gone
