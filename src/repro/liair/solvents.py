"""The solvent library of the lithium/air study.

Each candidate electrolyte solvent carries:

* its full molecular geometry (for boxes, force-field MD, workload
  statistics),
* an SCF-feasible *model fragment* bearing the same electrophilic motif
  (for quantum reaction energetics — see DESIGN.md substitutions),
* the attack site: index of the electrophilic atom in the model
  fragment and the direction a nucleophile approaches from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..chem import builders
from ..chem.molecule import Molecule

__all__ = ["Solvent", "SOLVENTS", "get_solvent"]


@dataclass(frozen=True)
class Solvent:
    """A candidate electrolyte solvent.

    Attributes
    ----------
    name / full_name:
        Short key and chemical name.
    molecule / model:
        Builders for the full molecule and the quantum model fragment.
    attack_atom:
        Index of the electrophilic atom in the *model* fragment.
    attack_direction:
        Unit-ish vector (model frame) along which the nucleophile's
        leading oxygen approaches the attack atom.
    paper_role:
        How the solvent figures in the paper's narrative.
    """

    name: str
    full_name: str
    molecule: Callable[[], Molecule]
    model: Callable[[], Molecule]
    attack_atom: int
    attack_direction: tuple[float, float, float]
    paper_role: str

    def build_model(self) -> Molecule:
        """The quantum model fragment."""
        return self.model()

    def build_molecule(self) -> Molecule:
        """The full solvent molecule."""
        return self.molecule()

    def attack_vector(self) -> np.ndarray:
        """Normalized approach direction."""
        v = np.asarray(self.attack_direction, dtype=np.float64)
        return v / np.linalg.norm(v)


SOLVENTS: dict[str, Solvent] = {
    "PC": Solvent(
        name="PC", full_name="propylene carbonate",
        molecule=builders.propylene_carbonate,
        model=builders.carbonate_model,
        # carbonyl carbon of the carbonate motif; nucleophile comes in
        # perpendicular-ish to the sp2 plane (Buergi-Dunitz-like)
        attack_atom=0, attack_direction=(0.0, 0.35, 0.94),
        paper_role=("reference electrolyte; chemically degraded by "
                    "lithium peroxide (the paper's negative result)"),
    ),
    "DMSO": Solvent(
        name="DMSO", full_name="dimethyl sulfoxide",
        molecule=builders.dmso,
        model=builders.sulfoxide_model,
        attack_atom=0, attack_direction=(0.0, -0.35, 0.94),
        paper_role=("alternative aprotic solvent with enhanced "
                    "stability against peroxide attack"),
    ),
    "ACN": Solvent(
        name="ACN", full_name="acetonitrile",
        molecule=builders.acetonitrile,
        model=builders.nitrile_model,
        attack_atom=1, attack_direction=(0.94, 0.0, 0.35),
        paper_role="alternative aprotic solvent (nitrile class)",
    ),
}


def get_solvent(name: str) -> Solvent:
    """Look up a solvent by short key (case-insensitive)."""
    try:
        return SOLVENTS[name.upper()]
    except KeyError:
        raise ValueError(f"unknown solvent {name!r}; "
                         f"available: {sorted(SOLVENTS)}") from None
