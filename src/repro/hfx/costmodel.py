"""Cost model for ERI shell quartets.

The static load balancing of the paper's scheme rests on predicting the
work of every pair task before execution.  For a McMurchie-Davidson
quartet the dominant terms are

* the Hermite Coulomb tensor build: ~ (L+1)^3 * (L+2) recursion entries
  over nprim_ab * nprim_cd primitive combinations,
* the double Hermite-to-Cartesian transformation:
  ncomp_bra * ncomp_ket * nherm_bra * nherm_ket multiply-adds per
  primitive combination,
* a Boys-function evaluation (L+1 orders) per primitive combination.

The model is exact enough that its *ratios* across quartet classes match
measured kernel times (validated in the tests); absolute flops are a
calibration constant folded into the machine model's sustained rate.
"""

from __future__ import annotations

from ..basis.shell import ncart

__all__ = ["quartet_flops", "pair_weight", "BOYS_FLOPS"]

BOYS_FLOPS = 35.0  # per primitive combination and Boys order


def _nherm(L: int) -> int:
    """Hermite components with t+u+v <= L."""
    return (L + 1) * (L + 2) * (L + 3) // 6


def quartet_flops(la: int, lb: int, lc: int, ld: int,
                  nprim_ab: int, nprim_cd: int) -> float:
    """Estimated flops of one shell quartet ``(la lb | lc ld)``."""
    L1, L2 = la + lb, lc + ld
    L = L1 + L2
    nprim = nprim_ab * nprim_cd
    r_tensor = (L + 1) ** 3 * (L + 2) * 2.0
    boys = (L + 1) * BOYS_FLOPS
    transform = (ncart(la) * ncart(lb) * ncart(lc) * ncart(ld)
                 * _nherm(L1) * _nherm(L2) * 2.0)
    return nprim * (r_tensor + boys + transform)


def pair_weight(l_ab: int, nprim_ab: int) -> float:
    """Separable per-pair weight ``h`` such that
    ``h(bra) * h(ket) ~ quartet_flops``.

    The exact quartet cost couples bra and ket through (L1 + L2); the
    separable proxy keeps the product structure the synthetic workload
    generator needs while staying within a ~3-4x band of the exact model
    over the s/p quartet classes (asserted in the tests; the exponent
    2.75 minimizes that band).
    """
    return float(nprim_ab) * (1.0 + l_ab) ** 2.75 * 16.0

