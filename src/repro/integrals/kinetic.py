"""Kinetic-energy integrals over contracted Cartesian Gaussians, one pair
class at a time (:mod:`repro.integrals.pairclass`).

Uses the standard reduction of the 1-D kinetic operator to shifted
overlaps:  T_ij = b(2j+1) S_ij - 2 b^2 S_{i,j+2} - j(j-1)/2 S_{i,j-2}.
"""

from __future__ import annotations

import numpy as np

from ..basis.basisset import BasisSet
from .pairclass import pair_classes

__all__ = ["kinetic_matrix"]


def kinetic_matrix(basis: BasisSet) -> np.ndarray:
    """Full AO kinetic-energy matrix, shape ``(nbf, nbf)``."""
    table = pair_classes(basis)
    return table.matrix(cls.kinetic() for cls in table)
