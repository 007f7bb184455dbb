"""Molecular dynamics: velocity Verlet, thermostats, Born-Oppenheimer MD
on SCF forces, a classical force field for large boxes, observables."""

from .integrator import (ForceEngine, MDState, VelocityVerlet,
                         initialize_velocities, kinetic_energy, temperature)
from .thermostat import (BerendsenThermostat, CSVRThermostat,
                         VelocityRescale, restore_thermostat)
from .forcefield import ForceField, LJParams, detect_bonds, detect_angles
from .bomd import BOMD, CheckpointedMD, SCFForceEngine, restore_md
from .respa import RESPAIntegrator
from .classical import ClassicalMD
from .observables import energy_drift, temperature_series, rdf, msd
from .optimize import OptimizationResult, optimize_geometry

__all__ = [
    "ForceEngine", "MDState", "VelocityVerlet",
    "initialize_velocities", "kinetic_energy", "temperature",
    "BerendsenThermostat", "CSVRThermostat", "VelocityRescale",
    "restore_thermostat",
    "ForceField", "LJParams", "detect_bonds", "detect_angles",
    "BOMD", "CheckpointedMD", "SCFForceEngine", "restore_md",
    "RESPAIntegrator",
    "ClassicalMD",
    "energy_drift", "temperature_series", "rdf", "msd",
    "OptimizationResult", "optimize_geometry",
]
