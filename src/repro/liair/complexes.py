"""Attack-complex construction: a reduced-oxygen nucleophile approaching
a solvent fragment.

The degradation mechanism established for propylene carbonate is
nucleophilic attack of the reduced oxygen species formed at the cathode
on the electrophilic center of the solvent.  We build rigid approach
complexes with one of three nucleophiles: the closed-shell **peroxide
dianion O2^2-** (the default; the lithium counter-ions act as
spectators at the attack geometry), molecular **Li2O2**, or the
**superoxide radical anion O2^-**, whose complex keeps its doublet
multiplicity.  One oxygen points at the solvent's attack atom, at a
controllable distance along the attack vector.

Because the anionic nucleophiles carry charge, absolute interaction
energies are dominated by long-range Coulomb terms identical for all
solvents; the chemistry lives in the *approach energetics* relative to
a far reference point, which is what :mod:`repro.liair.degradation`
reports.
"""

from __future__ import annotations

import numpy as np

from ..chem import builders
from ..chem.molecule import Molecule
from ..constants import BOHR_PER_ANGSTROM
from .solvents import Solvent

__all__ = ["attack_complex", "approach_scan_geometries", "NUCLEOPHILES"]

NUCLEOPHILES = {
    "peroxide": builders.peroxide_dianion,
    "li2o2": builders.li2o2,
    "superoxide": builders.superoxide_anion,
}


def _orient_nucleophile(nuc: Molecule, direction: np.ndarray) -> Molecule:
    """Rotate so the O-O axis aligns with ``direction``; translate so
    the *leading* oxygen sits at the origin."""
    z = np.array([0.0, 0.0, 1.0])
    d = direction / np.linalg.norm(direction)
    axis = np.cross(z, d)
    norm = np.linalg.norm(axis)
    if norm > 1e-12:
        angle = float(np.arccos(np.clip(z @ d, -1.0, 1.0)))
        nuc = nuc.rotated(axis, angle)
    elif z @ d < 0:
        nuc = nuc.rotated(np.array([1.0, 0.0, 0.0]), np.pi)
    proj = nuc.coords @ (-d)
    oxygens = [i for i, zn in enumerate(nuc.numbers) if zn == 8]
    lead = max(oxygens, key=lambda i: proj[i])
    return nuc.translated(-nuc.coords[lead])


def attack_complex(solvent: Solvent, distance_angstrom: float,
                   nucleophile: str = "peroxide") -> Molecule:
    """Solvent model fragment + nucleophile with the leading oxygen
    ``distance_angstrom`` from the attack atom, along the attack vector.

    The complex carries the nucleophile's multiplicity (the model
    fragments are closed-shell), so the superoxide complex is a doublet.
    """
    try:
        nuc = NUCLEOPHILES[nucleophile]()
    except KeyError:
        raise ValueError(f"unknown nucleophile {nucleophile!r}; "
                         f"available: {sorted(NUCLEOPHILES)}") from None
    frag = solvent.build_model()
    d = solvent.attack_vector()
    site = frag.coords[solvent.attack_atom]
    # axis along the approach line; the leading O (maximum projection
    # onto -d, i.e. closest to the fragment) goes to the origin
    oriented = _orient_nucleophile(nuc, d)
    offset = site + d * distance_angstrom * BOHR_PER_ANGSTROM
    oriented = oriented.translated(offset)
    cplx = frag + oriented
    cplx.multiplicity = nuc.multiplicity
    cplx.name = f"{frag.name}+{nuc.name}@{distance_angstrom:.2f}A"
    return cplx


def approach_scan_geometries(solvent: Solvent, distances_angstrom=None,
                             nucleophile: str = "peroxide"
                             ) -> tuple[np.ndarray, list[Molecule]]:
    """Rigid approach scan: ``(distances, complexes)``, farthest first.

    The default ladder is six points from 4.0 down to 1.8 Angstrom.
    """
    if distances_angstrom is None:
        distances_angstrom = np.linspace(4.0, 1.8, 6)
    distances = np.sort(np.asarray(distances_angstrom,
                                   dtype=np.float64))[::-1]
    return distances, [attack_complex(solvent, float(d), nucleophile)
                       for d in distances]
