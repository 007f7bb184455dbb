"""Overlap integrals over contracted Cartesian Gaussians, one pair class
at a time (:mod:`repro.integrals.pairclass`)."""

from __future__ import annotations

import numpy as np

from ..basis.basisset import BasisSet
from .pairclass import pair_classes

__all__ = ["overlap_matrix"]


def overlap_matrix(basis: BasisSet) -> np.ndarray:
    """Full AO overlap matrix, shape ``(nbf, nbf)``."""
    table = pair_classes(basis)
    return table.matrix(cls.overlap() for cls in table)
