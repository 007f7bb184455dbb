#!/usr/bin/env python3
"""Born-Oppenheimer MD on SCF forces — the paper's production loop in
miniature.

Runs a short NVE trajectory of a single water molecule on the HF/STO-3G
surface (swap in ``method="pbe0"`` for the paper's functional), then
reports energy conservation and the SCF-iteration savings from density
reuse — the "tailored for molecular dynamics" ingredient.

Run:  python examples/bomd_water.py [nsteps]
"""

import sys

import numpy as np

from repro.analysis.report import print_table
from repro.chem import builders
from repro.constants import FEMTOSECOND_PER_AUT
from repro.md import BOMD, energy_drift, temperature_series

NSTEPS = int(sys.argv[1]) if len(sys.argv) > 1 else 15

mol = builders.water()
print(f"BOMD: {mol.name}, HF/STO-3G, dt = 0.4 fs, {NSTEPS} steps, "
      f"T0 = 350 K\n")
b = BOMD(mol, method="hf", dt_fs=0.4, temperature=350.0, seed=7)
traj = b.run(NSTEPS)

masses = mol.masses
temps = temperature_series(traj, masses)
rows = []
for k in (0, NSTEPS // 4, NSTEPS // 2, NSTEPS):
    s = traj[k]
    roh = np.linalg.norm(s.coords[1] - s.coords[0])
    rows.append([k, f"{k * 0.4:.1f}", f"{s.energy_pot:.6f}",
                 f"{s.total_energy(masses):.6f}", f"{temps[k]:.0f}",
                 f"{roh:.4f}"])
print_table(rows, headers=["step", "t (fs)", "E_pot (Ha)",
                           "E_total (Ha)", "T (K)", "r(OH) (Bohr)"],
            title="trajectory")

drift = energy_drift(traj, masses)
iters = b.engine.scf_iterations
print(f"\nenergy drift over {NSTEPS * 0.4:.1f} fs: {drift:.2e} (relative)")
print(f"SCF iterations per force call: first {iters[0]}, "
      f"median {int(np.median(iters))} "
      f"(density reuse keeps the tail short)")
print(f"total SCF solves: {len(iters)} "
      f"(one per force call: forces are the analytic gradient)")
