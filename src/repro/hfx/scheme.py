"""The paper's HFX parallelization scheme.

Three ingredients, composed by :class:`HFXScheme`:

1. **Screened pair-task decomposition** with a single accuracy knob
   (the Cauchy-Schwarz threshold of the task list);
2. **Static cost-model load balancing** across MPI ranks (no runtime
   dispatch — the property that removes the master bottleneck of
   dynamically scheduled baselines);
3. **Hierarchical in-rank execution**: hardware threads self-schedule
   quartet chunks, the inner kernels are short-vector data parallel.

Communication per build: an allgather of the (distributed) occupied
orbital coefficient slabs and an allreduce of the per-orbital-pair
exchange contributions — both tiny thanks to orbital locality in
condensed phase, which is what lets the scheme ride the 5-D torus to
6.3M threads.

Two paths, kept apart:

* :meth:`HFXScheme.simulate` prices a build on a BG/Q partition
  (any size up to the full 96 racks) in modelled seconds;
* :func:`distributed_exchange` runs the same static partition on a
  real (small) molecule: each rank's screened pair tasks go through the
  one rank loop, :func:`repro.runtime.pool.run_rank_jobs`, with the J/K
  unit of a :class:`repro.scf.fock.DirectJKBuilder` (in-process, or on
  its worker pool under ``ExecutionConfig(executor="process")``), and
  the per-rank partial K matrices are summed in rank order like the
  scheme's one allreduce.  It is checked against the serial reference
  in the tests, so the scheme is a real algorithm, not only a model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from ..basis.basisset import BasisSet
from ..integrals.batch import flatten_pairs
from ..integrals.pairclass import pair_classes
from ..machine.bgq import BGQConfig
from ..machine.node import NodeComputeModel
from ..machine.simulator import BuildTiming, CommPlan, simulate_static_build
from ..runtime.execconfig import ExecutionConfig, resolve_execution
from ..runtime.pool import RankJob
from ..scf.fock import DirectJKBuilder, eval_screened_pairs
from .partition import Partition, partition_tasks
from .tasklist import TaskList, build_tasklist

__all__ = ["HFXScheme", "distributed_exchange", "scheme_comm_plan",
           "simulate_partition"]

# Mean number of significant exchange partners per localized occupied
# orbital in condensed phase (sets the allreduce payload).
DEFAULT_ORBITAL_PARTNERS = 64


def scheme_comm_plan(tasks: TaskList, cfg: BGQConfig,
                     orbital_partners: int = DEFAULT_ORBITAL_PARTNERS
                     ) -> CommPlan:
    """Communication payloads of one build under the paper's scheme.

    * allgather: each rank contributes its slab of the occupied
      coefficients, ``nbf * nocc / p`` doubles;
    * allreduce: per-orbital-pair exchange contributions for the
      significant (localized) pairs, ``nocc * partners`` doubles.
    """
    p = max(cfg.nranks, 1)
    gather = int(np.ceil(tasks.nbf * max(tasks.nocc, 1) * 8 / p))
    reduce_ = int(max(tasks.nocc, 1) * orbital_partners * 8)
    return CommPlan(allgather_bytes_per_rank=gather,
                    allreduce_bytes=reduce_)


def simulate_partition(tasks: TaskList, part: Partition, cfg: BGQConfig,
                       comm: CommPlan, node: NodeComputeModel | None = None,
                       flop_scale: float = 1.0,
                       collective_algorithm: str = "torus_tree",
                       dilation: float = 1.0) -> BuildTiming:
    """Price one statically partitioned build — the scheme's and the
    cost-oblivious baseline's alike.

    Each rank's flops are scaled by ``flop_scale`` and its tasks'
    quartets are its threads' loop grain.  ``node=None`` picks the
    scheme's adaptive dynamic chunk: amortize dispatch overhead when
    quartets are abundant, shrink to 1 near the strong-scaling limit so
    every hardware thread stays busy.
    """
    rank_flops = part.rank_flops * flop_scale
    rank_nq = np.zeros(part.nranks, dtype=np.float64)
    np.add.at(rank_nq, part.rank_of_task, tasks.nquartets.astype(np.float64))
    if node is None:
        mean_nq = float(rank_nq.mean()) if rank_nq.size else 0.0
        chunk = int(np.clip(mean_nq / (cfg.threads_per_rank * 4.0), 1, 8))
        node = NodeComputeModel(cfg, chunk=chunk)
    return simulate_static_build(rank_flops, rank_nq, cfg, comm, node=node,
                                 collective_algorithm=collective_algorithm,
                                 dilation=dilation)


@dataclass
class HFXScheme:
    """Plan and price the paper's scheme for one workload on one machine.

    Parameters
    ----------
    tasks:
        The screened workload (real or synthetic task list).
    cfg:
        BG/Q partition.
    partitioner:
        Static balancing method (see :mod:`repro.hfx.partition`).
    flop_scale:
        Multiplier mapping the STO-3G-class cost statistics to the
        production basis of the paper (a TZV2P-quality contraction costs
        ~50x more per quartet; the multiplier is uniform, so balance and
        scaling shape are unaffected — see DESIGN.md substitutions).
    orbital_partners:
        Significant exchange partners per localized orbital (allreduce
        payload model).
    """

    tasks: TaskList
    cfg: BGQConfig
    partitioner: str = "serpentine"
    flop_scale: float = 1.0
    orbital_partners: int = DEFAULT_ORBITAL_PARTNERS
    node: NodeComputeModel | None = None
    collective_algorithm: str = "torus_tree"
    dilation: float = 1.0

    def plan(self) -> Partition:
        """Static partition of the pair tasks."""
        return partition_tasks(self.tasks.flops, self.cfg.nranks,
                               self.partitioner)

    def simulate(self, partition: Partition | None = None) -> BuildTiming:
        """Price one HFX build on the configured machine."""
        part = self.plan() if partition is None else partition
        return simulate_partition(
            self.tasks, part, self.cfg,
            scheme_comm_plan(self.tasks, self.cfg, self.orbital_partners),
            node=self.node, flop_scale=self.flop_scale,
            collective_algorithm=self.collective_algorithm,
            dilation=self.dilation)


@dataclass
class CommLog:
    """What a real distributed build moved: the bytes of one rank's
    contribution to its allreduce, and the number of allreduces."""

    allreduce_bytes: int = 0
    allreduce_calls: int = 0


def _rank_classes(tasks: TaskList, part: Partition, rank: int,
                  basis: BasisSet) -> list[np.ndarray]:
    """One rank's screened quartets as the J/K unit's block arrays, split
    by (bra, ket) pair class in first-seen order, task-list order within."""
    idx = flatten_pairs(
        [(int(tasks.pair_index[t][0]), int(tasks.pair_index[t][1]),
          tasks.ket_lists[t])
         for t in np.where(part.rank_of_task == rank)[0]])
    cid = pair_classes(basis).cid
    _, first, inv = np.unique(cid[idx[:, 0], idx[:, 1]] * cid.size
                              + cid[idx[:, 2], idx[:, 3]],
                              return_index=True, return_inverse=True)
    return [idx[inv == g] for g in np.argsort(first, kind="stable")]


def distributed_exchange(basis: BasisSet, D: np.ndarray, nranks: int,
                         eps: float = 1e-10,
                         partitioner: str = "serpentine",
                         pool=None,
                         config: ExecutionConfig | None = None
                         ) -> tuple[np.ndarray, CommLog, TaskList, Partition]:
    """Actually execute the distributed exchange build (real integrals)
    over ``nranks`` ranks.

    Every rank evaluates the quartet batches of its assigned pair tasks
    into a local partial K; one allreduce sums the partials in rank
    order.  Returns ``(K, comm_log, tasks, partition)``.

    ``config`` (an :class:`repro.runtime.ExecutionConfig`) selects the
    executor and carries the telemetry sinks.  The rank jobs run through
    a :class:`repro.scf.fock.DirectJKBuilder`: ``executor="serial"``
    (the reference) evaluates them in-process, ``"process"`` on that
    builder's worker pool (``config.nworkers`` processes, or an
    externally owned ``pool``) so the build really runs on multiple
    cores.  Both evaluate each rank through the one rank loop,
    :func:`repro.runtime.pool.run_rank_jobs`, so their K are the same
    bits.  An unrecoverable pool failure (worker deaths past the retry
    budget) degrades the build to the serial executor — one
    ``RuntimeWarning`` plus a ``pool.degraded_builds`` count — instead
    of raising.

    The build is the exact quartet walk the paper distributes;
    ``config.jk="ri"`` is refused (the fitted engine is
    :class:`repro.scf.ri_jk.RIJKBuilder`, which shards its own 3-index
    assembly over the pool).
    """
    cfg = resolve_execution(config, owner="distributed_exchange")
    if cfg.jk == "ri":
        raise ValueError(
            "distributed_exchange runs the exact quartet partition; "
            "jk='ri' has no rank partition here — build fitted "
            "exchange with repro.scf.ri_jk.RIJKBuilder")
    tr = cfg.trace
    builder = DirectJKBuilder(basis, eps, pool=pool, config=cfg)
    try:
        with tr.span("hfx.build", cat="hfx", nranks=nranks,
                     executor=cfg.executor, kernel=cfg.kernel):
            with tr.span("hfx.screening", cat="screening", eps=eps):
                tasks = build_tasklist(basis, eps, engine=builder.engine)
            with tr.span("hfx.partition", cat="hfx",
                         partitioner=partitioner):
                part = partition_tasks(tasks.flops, nranks, partitioner)
            jobs = [RankJob(rank=r, pairs=_rank_classes(tasks, part, r,
                                                        basis),
                            cost=float(part.rank_flops[r]))
                    for r in range(nranks)]
            results, _ = builder.lease.map(
                eval_screened_pairs, lambda pool: jobs, builder.engine, D,
                (False, True, builder.kernel))
            partials = [results[r][1] for r in range(nranks)]
            with tr.span("hfx.reduce", cat="comm"):
                K = reduce(np.add, partials)
    finally:
        builder.close()
    if tr.enabled:
        tr.metrics.absorb_engine(builder.engine)
        tr.metrics.count("hfx.builds", 1)
    return K, CommLog(partials[0].nbytes, 1), tasks, part
