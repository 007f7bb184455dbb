"""Small-sample statistics the harness reports with."""

from __future__ import annotations

import statistics

#: Tail percentiles a timing may report, lowest first.
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def summarize(values) -> dict:
    """Median, quartiles and n of repeated measurements of one metric."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "median": median(values),
            "q1": float(q1), "q3": float(q3)}


def spread(summary: dict) -> float:
    """Inter-quartile distance as a share of the median."""
    med = abs(summary["median"])
    return (summary["q3"] - summary["q1"]) / med if med else 0.0


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with >= MIN_BEYOND samples beyond
    it among ``n`` samples; ``None`` when not even the lowest rung
    qualifies (always so below 20 samples, where the median itself has
    fewer than ten on its far side)."""
    best = None
    for p in TAIL_LADDER:
        # rounded: 10000 * (100 - 99.9) / 100 is 9.999... in floats
        if round(n * (100.0 - p) / 100.0, 6) >= MIN_BEYOND:
            best = p
    return best


def timing_summary(samples) -> dict:
    """p50 plus the one tail percentile the sample count supports."""
    samples = sorted(float(s) for s in samples)
    out = {"n": len(samples), "p50": median(samples), "tail": None}
    p = tail_percentile(len(samples))
    if p is not None:
        # nearest-rank: the smallest sample with >= p % at or below it
        rank = max(0, -(-len(samples) * p // 100) - 1)
        out["tail"] = {"percentile": p, "value": samples[int(rank)]}
    return out
