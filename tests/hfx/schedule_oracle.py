"""Oracles for the static schedule: the four greedy LPT balancers and the
four surviving-quartet counters that ``repro.hfx.partition.lpt_bins``
and ``repro.integrals.schwarz.surviving_partners`` replaced, plus the
per-quartet ``build_tasklist`` loop.  Kept verbatim so the one LPT and
the one kernel are held to them bit for bit; nothing under ``src/``
imports this module.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.hfx.costmodel import quartet_flops
from repro.hfx.tasklist import TaskList
from repro.integrals.eri import ERIEngine

# --- balancers ---------------------------------------------------------------


def partition_lpt(costs, nranks):
    """``partition.lpt``: rank of every task (unstable descending sort)."""
    costs = np.asarray(costs, dtype=np.float64)
    order = np.argsort(costs)[::-1]
    heap = [(0.0, r) for r in range(nranks)]
    heapq.heapify(heap)
    rk = np.empty(len(costs), dtype=np.int64)
    for t in order:
        load, r = heapq.heappop(heap)
        rk[t] = r
        heapq.heappush(heap, (load + costs[t], r))
    return rk


def pool_lpt_assign(costs, nworkers):
    """The pool's ``_lpt_assign``: job ids per worker, ascending."""
    heap = [(0.0, w) for w in range(nworkers)]
    heapq.heapify(heap)
    out = [[] for _ in range(nworkers)]
    for t in sorted(range(len(costs)), key=lambda t: -costs[t]):
        load, w = heapq.heappop(heap)
        out[w].append(t)
        heapq.heappush(heap, (load + costs[t], w))
    for lst in out:
        lst.sort()
    return out


def balance_pairs(pairs, nworkers):
    """The pool's ``balance_pairs``: ``(rank, pairs, cost)`` per worker,
    pairs in assignment order."""
    jobs = [[w, [], 0.0] for w in range(nworkers)]
    for p in sorted(pairs, key=lambda p: -len(p[2])):
        job = min(jobs, key=lambda job: job[2])
        job[1].append(p)
        job[2] += len(p[2])
    return [tuple(job) for job in jobs]


def aux_shard_slices(aux, nshards):
    """``integrals.ri.aux_shard_slices``."""
    nshards = max(1, int(nshards))
    costs = [(aux.shells[i].nfunc, i) for i in range(aux.nshell)]
    costs.sort(key=lambda t: (-t[0], t[1]))
    loads = [0.0] * nshards
    shards = [[] for _ in range(nshards)]
    for cost, i in costs:
        w = min(range(nshards), key=lambda k: (loads[k], k))
        shards[w].append(i)
        loads[w] += cost
    for sh in shards:
        sh.sort()
    return [sh for sh in shards if sh]


# --- counters ----------------------------------------------------------------


def count_surviving_quartets(Q, eps):
    """``schwarz.count_surviving_quartets`` (threshold form)."""
    n = Q.shape[0]
    iu = np.triu_indices(n)
    qpairs = Q[iu]
    sig = qpairs[qpairs > 0.0]
    sig = np.sort(sig)[::-1]
    if sig.size == 0:
        return 0
    asc = sig[::-1]
    count = 0
    for ia, qa in enumerate(sig):
        if qa * qa < eps:
            break
        thresh = eps / qa
        nge = sig.size - np.searchsorted(asc, thresh, side="left")
        nafter = nge - ia
        if nafter > 0:
            count += int(nafter)
    return count


def workload_counts(qs, hs, eps):
    """``synthetic_tasklist``'s per-bra ``(nquartets, flops)`` over bounds
    ``qs`` sorted descending with pair weights ``hs`` (threshold form)."""
    csum = np.concatenate([[0.0], np.cumsum(hs)])
    asc = qs[::-1]
    thresholds = eps / qs
    cnt_ge = len(qs) - np.searchsorted(asc, thresholds, side="left")
    a_idx = np.arange(len(qs))
    nb = np.maximum(cnt_ge - a_idx, 0)
    cost = hs * (csum[np.maximum(cnt_ge, a_idx)] - csum[a_idx])
    return nb, cost


def incremental_survival(q, eps, delta):
    """``incremental.incremental_survival`` (threshold form)."""
    q = np.sort(np.asarray(q, dtype=np.float64))[::-1]
    n = len(q)
    total = n * (n + 1) // 2
    if n == 0 or delta <= 0.0:
        return 0, total
    eff = eps / delta
    asc = q[::-1]
    cnt_ge = n - np.searchsorted(asc, eff / np.maximum(q, 1e-300),
                                 side="left")
    nb = np.maximum(cnt_ge - np.arange(n), 0)
    return int(nb.sum()), total


def build_tasklist(basis, eps=1e-8, engine=None, nocc=None):
    """``build_tasklist`` with its per-quartet cost loop (product form)."""
    if engine is None:
        engine = ERIEngine(basis)
    Q = engine.schwarz_bounds()
    keys = sorted(Q)
    qvals = np.array([Q[k] for k in keys])
    shells = basis.shells
    npb = np.array([shells[i].nprim * shells[j].nprim for i, j in keys])

    order = np.argsort(qvals)[::-1]
    pair_idx, flops, nquart, kets = [], [], [], []
    for a_pos, a in enumerate(order):
        qa = qvals[a]
        if qa <= 0.0:
            continue
        partners = order[a_pos:]
        surviving = partners[qvals[partners] * qa >= eps]
        if surviving.size == 0:
            continue
        i, j = keys[a]
        npa = int(npb[a])
        task_flops = 0.0
        for b in surviving:
            k, l = keys[b]
            task_flops += quartet_flops(shells[i].l, shells[j].l,
                                        shells[k].l, shells[l].l,
                                        npa,
                                        shells[k].nprim * shells[l].nprim)
        pair_idx.append((i, j))
        flops.append(task_flops)
        nquart.append(surviving.size)
        kets.append(np.array([keys[b] for b in surviving], dtype=np.int64))
    return TaskList(
        pair_index=np.asarray(pair_idx, dtype=np.int64).reshape(-1, 2),
        flops=np.asarray(flops), nquartets=np.asarray(nquart, dtype=np.int64),
        eps=eps, nbf=basis.nbf,
        nocc=(basis.molecule.nelectron // 2 if nocc is None else nocc),
        label=basis.molecule.name or "molecule", ket_lists=kets,
    )
