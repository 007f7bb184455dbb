"""Nuclear-attraction integrals (point charges) via Hermite Coulomb
integrals, one pair class at a time (:mod:`repro.integrals.pairclass`):
one Hermite Coulomb table over (pairs x primitives x nuclei) per chunk
of a class."""

from __future__ import annotations

import numpy as np

from ..basis.basisset import BasisSet
from ..chem.molecule import Molecule
from .pairclass import pair_classes

__all__ = ["nuclear_matrix"]


def nuclear_matrix(basis: BasisSet, mol: Molecule | None = None
                   ) -> np.ndarray:
    """Full AO nuclear-attraction matrix, shape ``(nbf, nbf)``, of the
    nuclei of ``mol`` (default: the basis's own molecule)."""
    if mol is None:
        mol = basis.molecule
    charges = mol.numbers.astype(np.float64)
    table = pair_classes(basis)
    return table.matrix(cls.nuclear(charges, mol.coords) for cls in table)
