"""Checkpointed classical (force-field) MD.

Before this module the classical :class:`repro.md.forcefield.ForceField`
engine could only be driven by hand-rolled
:class:`repro.md.integrator.VelocityVerlet` loops, which bypassed the
checkpoint store entirely (the ROADMAP "checkpoint coverage" gap).
:class:`ClassicalMD` closes it: the same resume-aware
``run``/``checkpoint``/``restore`` core as :class:`repro.md.bomd.BOMD`,
with the classical engine in place of the SCF one — so the force-field
trajectories that serve as the MTS inner surface are resumable end to
end, with the identical auto-snapshot cadence and bit-identity
guarantees.

The force field itself is stateless and deterministic: it is rebuilt at
restore from the template molecule and the force constants recorded in
the snapshot, which reproduces the equilibrium bond/angle targets
exactly (they derive from the construction geometry).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..chem.molecule import Molecule
from ..runtime.execconfig import ExecutionConfig
from ..chem.pbc import Cell
from .bomd import CheckpointedMD
from .forcefield import ForceField

__all__ = ["ClassicalMD"]


@dataclass
class ClassicalMD(CheckpointedMD):
    """Resume-aware classical MD runner on the harmonic/LJ force field.

    Mirrors :class:`repro.md.bomd.BOMD`: ``run(nsteps)`` integrates
    until logical step ``nsteps`` from wherever the trajectory stands,
    and ``ExecutionConfig(checkpoint_dir=...)`` auto-snapshots through
    the same atomic, ring-pruned store (initial state, cadence, final
    step — deduplicated by step id).
    """

    mol: Molecule
    dt_fs: float = 0.5
    temperature: float | None = None
    seed: int = 0
    thermostat: object | None = None
    cell: Cell | None = None
    charges: np.ndarray | None = None
    kbond: float = 0.30
    kangle: float = 0.05
    config: ExecutionConfig | None = None

    _KIND = "classical_md"
    _IDENTITY = ("dt_fs", "kbond", "kangle", "natom")

    def __post_init__(self) -> None:
        from ..runtime.execconfig import resolve_execution

        self.config = resolve_execution(self.config, owner="ClassicalMD")
        if self.cell is not None and not isinstance(self.cell, Cell):
            self.cell = Cell(self.cell)     # a snapshot's cell vectors
        self.engine = ForceField(self.mol, cell=self.cell,
                                 charges=self.charges, kbond=self.kbond,
                                 kangle=self.kangle)
        self._init_runtime_state()

    def _params(self) -> dict:
        """Snapshot parameters, the cell as its ``(3, 3)`` vectors."""
        p = super()._params()
        if self.cell is not None:
            p["cell"] = self.cell.vectors.copy()
        return p

    def _integrator(self):
        from ..constants import fs_to_aut
        from .integrator import VelocityVerlet

        return VelocityVerlet(self.engine, self.mol.masses,
                              fs_to_aut(self.dt_fs),
                              thermostat=self.thermostat)
