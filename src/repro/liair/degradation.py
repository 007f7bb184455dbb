"""Degradation energetics: reduced-oxygen attack profiles per solvent.

For each solvent the rigid approach scan of a nucleophile (the peroxide
dianion by default, Li2O2 or the superoxide radical anion on request)
yields an energy profile referenced to its own *far point* (the longest
scan distance):

    dE(r) = E[complex at r] - E[complex at r_far]

The long-range ion-molecule attraction is common to every solvent; what
distinguishes them is whether the approach to contact is **downhill into
a chemical well** (propylene carbonate's carbonyl carbon — nucleophilic
attack, degradation) or **uphill against a repulsive wall** (the
sulfinyl/nitrile centers of the stabler alternatives).  That contrast is
exactly the paper's chemistry conclusion, and the attack energy
(contact minus far) is the stability descriptor the solvent screening
ranks by.

Each profile takes its open-shell decision from
:func:`repro.scf.scf_driver`, the rule :func:`repro.api.run_scf` runs:
UHF for ``method="uhf"`` or an open-shell complex (the superoxide
doublet), restricted Hartree-Fock or Kohn-Sham otherwise.  There is no
unrestricted Kohn-Sham, so an open-shell complex with a DFT method is
refused before any SCF runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag

from ..chem.molecule import Molecule
from ..constants import KCALMOL_PER_HARTREE
from ..scf.dft import RKS
from ..scf.route import scf_driver
from ..scf.uhf import UHF
from .complexes import NUCLEOPHILES, approach_scan_geometries
from .solvents import Solvent, get_solvent

__all__ = ["AttackProfile", "attack_profile"]


def _energy(mol: Molecule, route: str, basis: str, D0, **kw) -> float:
    """One profile point on ``route``: ``"uhf"``, ``"hf"`` (restricted)
    or a Kohn-Sham functional name."""
    kw.setdefault("max_iter", 300)
    if route == "uhf":
        res = UHF(mol, basis, **kw).run(D0=D0)
        if not res.converged:
            res = UHF(mol, basis, level_shift=0.4, **kw).run(D0=D0)
    elif route == "hf":
        res = RKS(mol, basis, functional=route, **kw).run(D0=D0)
        if not res.converged:
            res = RKS(mol, basis, functional=route, level_shift=0.5,
                      damping=0.3, **kw).run(D0=D0)
    else:
        # the DFT gap of the anionic complexes is near-degenerate:
        # converge with Fermi smearing, then anneal it down so the
        # final (uniform across all profile points) width is small —
        # the standard condensed-phase recipe
        warm = RKS(mol, basis, functional=route, smearing=0.01,
                   **kw).run(D0=D0)
        res = RKS(mol, basis, functional=route, smearing=0.002,
                  **kw).run(D0=warm.D)
    if not res.converged:
        raise RuntimeError(f"SCF not converged for {mol.name} ({route})")
    return res.energy


def _fragment_guess(sv: Solvent, nucleophile: str, route: str,
                    basis: str):
    """Block-diagonal density guess from separately converged
    fragment + nucleophile SCFs (the anionic complexes rarely converge
    from a core guess).

    Closed shell: ``[D_frag, D_nuc]``.  UHF: one ``(Da, Db)`` pair of
    ``[D_frag / 2, D_nuc^sigma]`` blocks — the fragment is
    closed-shell, so each spin carries half its density.
    """
    frag, nuc = sv.build_model(), NUCLEOPHILES[nucleophile]()
    if route == "uhf":
        rf = UHF(frag, basis, max_iter=300).run()
        rn = UHF(nuc, basis, max_iter=300).run()
        return (block_diag(0.5 * rf.D_total, rn.D_a),
                block_diag(0.5 * rf.D_total, rn.D_b))
    smear = {} if route == "hf" else {"smearing": 0.01}
    rf = RKS(frag, basis, functional=route, max_iter=300, **smear).run()
    rn = RKS(nuc, basis, functional=route, max_iter=300, **smear).run()
    return block_diag(rf.D, rn.D)


@dataclass
class AttackProfile:
    """Approach-energy profile of nucleophilic attack on one solvent.

    ``distances`` are in Angstrom, descending (long range first);
    ``energies`` are in Hartree relative to the far point.
    """

    solvent: str
    method: str
    distances: np.ndarray
    energies: np.ndarray
    e_far_absolute: float
    details: dict = field(default_factory=dict)

    @property
    def attack_energy_kcal(self) -> float:
        """Energy change far -> closest approach (kcal/mol).
        Negative: contact itself is downhill."""
        return float(self.energies[-1]) * KCALMOL_PER_HARTREE

    @property
    def well_depth_kcal(self) -> float:
        """Most attractive point along the approach (kcal/mol,
        <= 0 by construction of the far reference)."""
        return float(self.energies.min()) * KCALMOL_PER_HARTREE

    @property
    def well_distance(self) -> float:
        """Distance (Angstrom) of the most attractive point."""
        return float(self.distances[int(np.argmin(self.energies))])

    @property
    def wall_kcal(self) -> float:
        """Height of the repulsive wall at contact above the well
        (kcal/mol); ~0 means the approach never turns uphill."""
        imin = int(np.argmin(self.energies))
        after = self.energies[imin:]
        return float(after.max() - self.energies[imin]) * KCALMOL_PER_HARTREE

    def is_degrading(self, threshold_kcal: float = -5.0) -> bool:
        """True when the approach finds a chemical well substantially
        below the far reference — the solvent is attacked."""
        return self.well_depth_kcal < threshold_kcal

    def stability_score(self) -> float:
        """More positive = more stable against nucleophilic attack.

        Dominated by the chemical well depth (deeply negative when the
        solvent is attacked, 0 for all-uphill approaches); the contact
        repulsion enters as a small tiebreaker that orders the stable
        solvents by how hard their electrophilic center repels the
        nucleophile.
        """
        return self.well_depth_kcal + 0.05 * self.attack_energy_kcal


def attack_profile(solvent: str | Solvent, method: str = "hf",
                   basis: str = "sto-3g", distances_angstrom=None,
                   nucleophile: str = "peroxide", **scf_kw) -> AttackProfile:
    """Compute the attack profile of ``nucleophile`` on one solvent."""
    sv = get_solvent(solvent) if isinstance(solvent, str) else solvent
    distances, geoms = approach_scan_geometries(sv, distances_angstrom,
                                                nucleophile)
    route = "uhf" if isinstance(scf_driver(geoms[0], method, basis), UHF) \
        else method.lower()
    D0 = _fragment_guess(sv, nucleophile, route, basis)
    absolute = np.array([_energy(g, route, basis, D0, **scf_kw)
                         for g in geoms])
    return AttackProfile(sv.name, method, distances,
                         absolute - absolute[0], float(absolute[0]))
