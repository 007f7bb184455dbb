"""Collective-communication cost models on torus networks.

The HFX build needs exactly two collectives per SCF iteration — an
allgather of the occupied orbital coefficients and an allreduce of the
exchange contributions — and the paper's near-perfect scaling rests on
both being cheap on the BG/Q torus with its hardware collective
support.  We model:

* ``torus_tree``  — BG/Q-style hardware collectives embedded in the
  torus: latency proportional to the network diameter, bandwidth-
  pipelined payload;
* ``ring``        — classic software ring (what a low-dimensional or
  mapping-oblivious implementation degenerates to);
* ``recursive_doubling`` — log2(p) software algorithm with hop-dilation
  on the torus.

All costs in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bgq import BGQConfig
from .torus import Torus

__all__ = ["CollectiveModel", "point_to_point_time"]


def point_to_point_time(cfg: BGQConfig, nbytes: int, hops: int) -> float:
    """One message of ``nbytes`` over ``hops`` torus links (cut-through
    routing: per-hop latency plus a single bandwidth term)."""
    hops = max(int(hops), 1)
    return (cfg.mpi_overhead + hops * cfg.link_latency
            + nbytes / cfg.link_bandwidth)


@dataclass(frozen=True)
class CollectiveModel:
    """Collective timing on a specific machine/topology/algorithm."""

    cfg: BGQConfig
    torus: Torus
    algorithm: str = "torus_tree"   # torus_tree | ring | recursive_doubling
    # dilation factor > 1 models a mapping that ignores locality, so each
    # logical neighbor exchange crosses ~dilation physical hops
    dilation: float = 1.0

    def _p(self) -> int:
        return self.cfg.nranks

    def allreduce(self, nbytes: int) -> float:
        """Time for an allreduce of an ``nbytes`` payload."""
        p = self._p()
        if p <= 1:
            return 0.0
        cfg = self.cfg
        if self.algorithm == "torus_tree":
            # hardware collective: one traversal down+up the embedded
            # spanning tree of depth ~ diameter, payload pipelined at
            # link bandwidth (the BG/Q collective logic runs at
            # near-link rate)
            lat = 2.0 * self.torus.diameter * cfg.collective_latency
            return cfg.mpi_overhead + lat + 2.0 * nbytes / cfg.link_bandwidth
        if self.algorithm == "ring":
            # 2(p-1) neighbor steps, each moving nbytes/p, each neighbor
            # exchange dilated over the physical network
            per_step = (cfg.mpi_overhead
                        + self.dilation * cfg.link_latency
                        + (nbytes / p) / cfg.link_bandwidth)
            return 2.0 * (p - 1) * per_step
        if self.algorithm == "recursive_doubling":
            steps = int(np.ceil(np.log2(p)))
            # exchange distance grows with the step; average hop count
            # approximated by the torus average distance times dilation
            avg_hops = max(self.torus.average_distance(), 1.0) * self.dilation
            per_step = (cfg.mpi_overhead + avg_hops * cfg.link_latency
                        + nbytes / cfg.link_bandwidth)
            return steps * per_step
        raise ValueError(f"unknown collective algorithm {self.algorithm!r}")

    def allgather(self, nbytes_per_rank: int) -> float:
        """Time to allgather ``nbytes_per_rank`` contributed by each rank."""
        p = self._p()
        if p <= 1:
            return 0.0
        cfg = self.cfg
        total = nbytes_per_rank * p
        if self.algorithm == "torus_tree":
            lat = 2.0 * self.torus.diameter * cfg.collective_latency
            return cfg.mpi_overhead + lat + total / cfg.link_bandwidth
        if self.algorithm == "ring":
            per_step = (cfg.mpi_overhead
                        + self.dilation * cfg.link_latency
                        + nbytes_per_rank / cfg.link_bandwidth)
            return (p - 1) * per_step
        if self.algorithm == "recursive_doubling":
            steps = int(np.ceil(np.log2(p)))
            avg_hops = max(self.torus.average_distance(), 1.0) * self.dilation
            t = 0.0
            chunk = nbytes_per_rank
            for _ in range(steps):
                t += (cfg.mpi_overhead + avg_hops * cfg.link_latency
                      + chunk / cfg.link_bandwidth)
                chunk *= 2
            return t
        raise ValueError(f"unknown collective algorithm {self.algorithm!r}")

    def broadcast(self, nbytes: int) -> float:
        """Time to broadcast ``nbytes`` from one rank to all."""
        p = self._p()
        if p <= 1:
            return 0.0
        cfg = self.cfg
        if self.algorithm == "torus_tree":
            lat = self.torus.diameter * cfg.collective_latency
            return cfg.mpi_overhead + lat + nbytes / cfg.link_bandwidth
        steps = int(np.ceil(np.log2(p)))
        avg_hops = max(self.torus.average_distance(), 1.0) * self.dilation
        return steps * (cfg.mpi_overhead + avg_hops * cfg.link_latency
                        + nbytes / cfg.link_bandwidth)
