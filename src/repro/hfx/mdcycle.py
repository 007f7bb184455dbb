"""Whole-SCF-cycle and MD-step simulation.

One HFX build is the paper's microbenchmark; the production quantity is
an *MD step*: ~n_iter SCF iterations, each with an exchange build whose
work shrinks under incremental (density-difference) screening as the
density converges.  This module composes the per-build simulator with
a survival model to price full cycles — the basis of the ablation
benchmark that shows where the "tailored for MD" design pays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..machine.bgq import BGQConfig
from ..machine.simulator import BuildTiming
from .incremental import REBUILD_EVERY
from .scheme import HFXScheme
from .tasklist import TaskList

__all__ = ["SCFCycleResult", "simulate_scf_cycle", "loglinear_survival"]

# geometric convergence of |dD| per SCF iteration under DIIS with a
# warm (previous-MD-step) starting density
DEFAULT_DELTA0 = 0.05
DEFAULT_DECAY = 0.2


def loglinear_survival(decades: float = 8.0, floor: float = 0.02
                       ) -> Callable[[float], float]:
    """Work surviving the density-difference screen at increment
    magnitude delta.

    Screened pair-bound products are spread roughly log-uniformly over
    ``decades`` orders of magnitude, so shrinking |dD| by one decade
    removes ~1/decades of the surviving work — the pattern the real
    measurement (benchmark F8a) shows on water clusters.  ``floor``
    models the always-recomputed near-diagonal core.
    """

    def survival(delta: float) -> float:
        if delta >= 1.0:
            return 1.0
        frac = 1.0 + np.log10(max(delta, 1e-300)) / decades
        return float(min(max(frac, floor), 1.0))

    return survival


@dataclass
class SCFCycleResult:
    """Timings of a full SCF cycle (one MD step's electronic solve)."""

    builds: list[BuildTiming]
    incremental: bool
    work_fractions: list[float] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        """Wall-clock of all exchange builds in the cycle."""
        return float(sum(b.makespan for b in self.builds))

    @property
    def total_flops(self) -> float:
        """Summed exchange work across the cycle."""
        return float(sum(b.total_flops for b in self.builds))

    @property
    def niter(self) -> int:
        """SCF iterations in the cycle."""
        return len(self.builds)


def simulate_scf_cycle(tasks: TaskList, cfg: BGQConfig, n_iter: int = 8,
                       incremental: bool = True,
                       delta0: float = DEFAULT_DELTA0,
                       decay: float = DEFAULT_DECAY,
                       flop_scale: float = 1.0,
                       rebuild_every: int = REBUILD_EVERY,
                       survival: Callable[[float], float] | None = None,
                       **scheme_kw) -> SCFCycleResult:
    """Price ``n_iter`` exchange builds of one SCF cycle.

    Without incremental builds every iteration costs a full build; with
    them, iteration k >= 1 screens against ``delta0 * decay^(k-1)`` and
    the surviving work shrinks per the survival model (full rebuilds
    every ``rebuild_every`` iterations, as production codes do).
    """
    if survival is None:
        survival = loglinear_survival()
    builds: list[BuildTiming] = []
    fractions: list[float] = []
    for k in range(n_iter):
        if not incremental or k % rebuild_every == 0:
            frac = 1.0
        else:
            frac = survival(delta0 * decay ** (k - 1))
        fractions.append(frac)
        scaled = TaskList(
            pair_index=tasks.pair_index,
            flops=tasks.flops * frac,
            nquartets=np.maximum(
                (tasks.nquartets * frac).astype(np.int64), 1),
            eps=tasks.eps, nbf=tasks.nbf, nocc=tasks.nocc,
            label=tasks.label + f"/iter{k}",
        )
        bt = HFXScheme(scaled, cfg, flop_scale=flop_scale,
                       **scheme_kw).simulate()
        builds.append(bt)
    return SCFCycleResult(builds, incremental, fractions)
