"""F15 — density fitting: direct vs RI full-SCF wall-clock crossover.

The tentpole claim of the RI work, measured end to end: the same
converged RHF calculation run with the quartet-direct J/K engine and
with the density-fitted engine (``ExecutionConfig(jk="ri")``), on a
growing water-cluster series, Li2O2, propylene carbonate and the
campaign's three solvent models.  Per system the report records both
wall-clocks, the speedup, the fitted J/K errors at the converged
density, and the fitted energy error per atom — the accuracy half of
the claim next to the speed half.

The water clusters and Li2O2 run the direct side on the per-quartet
reference kernel, as this figure always has; propylene carbonate and
the solvent models run it on the class-batched kernel (the same
energies to ~1e-10 Ha), where the per-quartet walk would take minutes.

Where the advantage comes from: the direct path pays the screened
quartet walk on *every* SCF iteration, while the RI path assembles the
3-index ``B`` tensor once per geometry and reduces every later Fock
build to dense GEMMs; the ``b_builds``/``b_reuses`` counters in the
report make the amortization explicit.

``REPRO_BENCH_RI_WATERS`` sets the largest cluster (default 3); the
acceptance bar — >= 2x SCF wall-clock on the largest cluster, and every
system's |dE| per atom within its tolerance (5e-5 Ha/atom; 1e-4 for the
sulfoxide model, whose second-row S the campaign documents as its
exception) — is asserted.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.basis import build_basis
from repro.chem import builders
from repro.runtime import ExecutionConfig
from repro.scf import RHF, RIJKBuilder
from repro.scf.fock import coulomb_from_tensor, exchange_from_tensor

N_WATERS = int(os.environ.get("REPRO_BENCH_RI_WATERS", "3"))
TARGET_SPEEDUP = 2.0
DE_PER_ATOM = 5e-5
#: The campaign's bar for the second-row sulfoxide model.
DE_PER_ATOM_SULFOXIDE = 1e-4

pytestmark = pytest.mark.ri


def _systems():
    """``(name, molecule, direct-side kernel, |dE|/atom tolerance)``."""
    for n in range(1, N_WATERS + 1):
        yield (f"(H2O){n}", builders.water_cluster(n, seed=0), "quartet",
               DE_PER_ATOM)
    yield "Li2O2", builders.li2o2(), "quartet", DE_PER_ATOM
    yield "PC", builders.propylene_carbonate(), "batched", DE_PER_ATOM
    yield "carbonate", builders.carbonate_model(), "batched", DE_PER_ATOM
    yield ("sulfoxide", builders.sulfoxide_model(), "batched",
           DE_PER_ATOM_SULFOXIDE)
    yield "nitrile", builders.nitrile_model(), "batched", DE_PER_ATOM


def _timed_scf(mol, cfg):
    scf = RHF(mol, mode="direct", config=cfg)
    t0 = time.perf_counter()
    res = scf.run()
    dt = time.perf_counter() - t0
    assert res.converged
    return dt, res, scf


def test_f15_ri_crossover(report):
    rows = []
    final = None
    for name, mol, kernel, tol in _systems():
        t_d, r_d, _ = _timed_scf(mol, ExecutionConfig(kernel=kernel))
        t_r, r_r, scf_r = _timed_scf(mol, ExecutionConfig(jk="ri"))
        b = scf_r._jk                       # the RIJKBuilder
        de_atom = abs(r_r.energy - r_d.energy) / mol.natom
        # fitted J/K error at the converged reference density
        basis = build_basis(mol)
        from repro.integrals import eri_tensor

        eri = eri_tensor(basis)
        J_fit, K_fit = RIJKBuilder(basis).build(r_d.D)
        dj = float(np.abs(J_fit - coulomb_from_tensor(eri, r_d.D)).max())
        dk = float(np.abs(K_fit - exchange_from_tensor(eri, r_d.D)).max())
        speedup = t_d / t_r
        rows.append(
            f"{name:<9s} {kernel:<7s} nbf={basis.nbf:<4d} "
            f"naux={b.aux.nbf:<5d} "
            f"t(direct)={t_d:7.2f} s  t(ri)={t_r:7.2f} s  "
            f"speedup={speedup:5.2f}x  B {b.b_builds}+{b.b_reuses}r  "
            f"|dE|/atom={de_atom:.2e} (<= {tol:.0e})  max|dJ|={dj:.2e}  "
            f"max|dK|={dk:.2e}")
        assert de_atom <= tol
        assert b.b_builds == 1
        assert b.b_reuses == r_r.fock_builds - 1
        if name.startswith("(H2O)"):
            final = (name, speedup, de_atom)
    name, speedup, de_atom = final
    report("\n".join(rows) + "\n"
           f"\nlargest cluster   {name}\n"
           f"SCF speedup       {speedup:.2f}x  (target >= "
           f"{TARGET_SPEEDUP:.1f}x)\n"
           f"|dE|/atom         {de_atom:.2e}  (bound {DE_PER_ATOM:.0e})")
    assert speedup >= TARGET_SPEEDUP
