"""Lithium/air battery application: solvents, reduced-oxygen attack
complexes, degradation energetics, solvent stability screening."""

from .solvents import Solvent, SOLVENTS, get_solvent
from .complexes import attack_complex, approach_scan_geometries, NUCLEOPHILES
from .degradation import AttackProfile, attack_profile
from .screening import ScreeningResult, screen_solvents

__all__ = [
    "Solvent", "SOLVENTS", "get_solvent",
    "attack_complex", "approach_scan_geometries", "NUCLEOPHILES",
    "AttackProfile", "attack_profile",
    "ScreeningResult", "screen_solvents",
]
