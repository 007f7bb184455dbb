"""F15 — density fitting: direct vs RI full-SCF wall-clock crossover.

The tentpole claim of the RI work, measured end to end: the same
converged RHF calculation run with the quartet-direct J/K engine and
with the density-fitted engine (``ExecutionConfig(jk="ri")``), on a
growing water-cluster series plus one electrolyte fragment.  Per
system the report records both wall-clocks, the speedup, the fitted
J/K errors at the converged density, and the fitted energy error per
atom — the accuracy half of the claim next to the speed half.

Where the advantage comes from: the direct path pays the screened
quartet walk on *every* SCF iteration, while the RI path assembles the
3-index ``B`` tensor once per geometry and reduces every later Fock
build to dense GEMMs; the ``b_builds``/``b_reuses`` counters in the
report make the amortization explicit.

``REPRO_BENCH_RI_WATERS`` sets the largest cluster (default 3); the
acceptance bar — >= 2x SCF wall-clock on the largest system with
|dE| <= 5e-5 Ha/atom — is asserted.
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

pytestmark = pytest.mark.ri


def _systems():
    for n in range(1, N_WATERS + 1):
        yield f"(H2O){n}", builders.water_cluster(n, seed=0)
    yield "Li2O2", builders.li2o2()


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
    for name, mol in _systems():
        t_d, r_d, _ = _timed_scf(mol, ExecutionConfig())
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
            f"{name:<8s} nbf={basis.nbf:<4d} naux={b.aux.nbf:<5d} "
            f"t(direct)={t_d:7.2f} s  t(ri)={t_r:7.2f} s  "
            f"speedup={speedup:5.2f}x  B {b.b_builds}+{b.b_reuses}r  "
            f"|dE|/atom={de_atom:.2e}  max|dJ|={dj:.2e}  "
            f"max|dK|={dk:.2e}")
        assert de_atom <= DE_PER_ATOM
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
