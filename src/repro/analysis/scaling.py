"""Scaling-law analysis: Amdahl/Gustafson fits, efficiency metrics,
load imbalance, iso-efficiency thread counts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["amdahl_time", "fit_amdahl", "speedup", "efficiency",
           "imbalance", "max_threads_at_efficiency", "ScalingSeries"]


def amdahl_time(p: np.ndarray, t1: float, serial_fraction: float) -> np.ndarray:
    """Amdahl model: T(p) = t1 * (s + (1 - s) / p)."""
    p = np.asarray(p, dtype=np.float64)
    return t1 * (serial_fraction + (1.0 - serial_fraction) / p)


def fit_amdahl(p: np.ndarray, t: np.ndarray) -> tuple[float, float]:
    """Least-squares fit of (t1, serial_fraction) to measured times.

    Linear in the transformed variables: t = t1*s + t1*(1-s)/p.
    """
    p = np.asarray(p, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    A = np.vstack([np.ones_like(p), 1.0 / p]).T
    coef, *_ = np.linalg.lstsq(A, t, rcond=None)
    a, b = float(coef[0]), float(coef[1])   # a = t1*s, b = t1*(1-s)
    t1 = a + b
    s = a / t1 if t1 != 0 else 0.0
    return t1, min(max(s, 0.0), 1.0)


def speedup(threads: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Speedup relative to the smallest-thread point."""
    threads = np.asarray(threads, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    i0 = int(np.argmin(threads))
    return times[i0] / times


def efficiency(threads: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Strong-scaling parallel efficiency relative to the smallest
    point: E = S / (n / n_ref)."""
    threads = np.asarray(threads, dtype=np.float64)
    i0 = int(np.argmin(threads))
    return speedup(threads, times) / (threads / threads[i0])


def imbalance(loads: np.ndarray) -> float:
    """Load imbalance (max - mean) / mean; 0 when there is no load."""
    loads = np.asarray(loads, dtype=np.float64)
    mean = float(loads.mean()) if loads.size else 0.0
    if mean <= 0.0:
        return 0.0
    return float((loads.max() - mean) / mean)


def max_threads_at_efficiency(threads: np.ndarray, times: np.ndarray,
                              target: float = 0.5) -> float:
    """Largest measured thread count whose efficiency is >= target
    (log-interpolated between the last point above and the first below;
    the paper's "scales up to N threads" metric)."""
    threads = np.asarray(threads, dtype=np.float64)
    order = np.argsort(threads)
    thr = threads[order]
    eff = efficiency(threads, times)[order]
    above = eff >= target
    if above.all():
        return float(thr[-1])
    if not above[0]:
        return float(thr[0])
    k = int(np.argmin(above))  # first False
    # log-linear interpolation between k-1 and k
    e0, e1 = eff[k - 1], eff[k]
    n0, n1 = np.log(thr[k - 1]), np.log(thr[k])
    frac = (e0 - target) / max(e0 - e1, 1e-12)
    return float(np.exp(n0 + frac * (n1 - n0)))


@dataclass
class ScalingSeries:
    """A labeled strong-scaling measurement series."""

    label: str
    threads: np.ndarray
    times: np.ndarray

    def __post_init__(self) -> None:
        self.threads = np.asarray(self.threads, dtype=np.float64)
        self.times = np.asarray(self.times, dtype=np.float64)
        if len(self.threads) != len(self.times):
            raise ValueError("threads/times length mismatch")

    def efficiency(self) -> np.ndarray:
        """Per-point strong-scaling efficiency."""
        return efficiency(self.threads, self.times)

    def speedup(self) -> np.ndarray:
        """Per-point speedup."""
        return speedup(self.threads, self.times)

    def scalability(self, target: float = 0.5) -> float:
        """Max useful threads at the target efficiency."""
        return max_threads_at_efficiency(self.threads, self.times, target)
