"""F8 — incremental Fock builds across the SCF iterations of a geometry.

The scheme is "specifically tailored for ... molecular dynamics": with
the previous density as reference, each build walks the density
*increment*, the Cauchy-Schwarz screen absorbs |dD|, and quartets drop
out as the SCF converges.  (a) Real SCFs through the shipped engine —
every direct-mode SCF builds through
:class:`repro.hfx.IncrementalExchange` — with per-iteration quartet
counts (the plain full build's vs the increment walk's) and the energy
error against the in-core tensor; (b) the modeled savings on the
condensed-phase workload; (c) the rebuild-cadence x threshold sweep on
propylene carbonate.
"""

import numpy as np

from repro.analysis.report import format_table
from repro.chem import builders
from repro.hfx import IncrementalExchange, incremental_survival
from repro.hfx.incremental import REBUILD_EVERY
from repro.hfx.workload import _model_pair_bounds
from repro.runtime import ExecutionConfig
from repro.scf import RHF, DirectJKBuilder, make_jk_engine
from repro.scf.dft import RKS

from conftest import EPS, N_WATERS

SCF_EPS = 1e-10                 # the SCF drivers' default screen_eps
BATCHED = ExecutionConfig(kernel="batched")


def _counted_scf(mol, engine, method="hf"):
    """One direct SCF through ``engine``; per J/K-pair build the
    quartets a plain full build of that density walks and the quartets
    the engine walked."""
    rows = []
    build = engine.build

    def counted(D, want_j=True, want_k=True):
        out = build(D, want_j, want_k)
        if want_j and want_k:
            full = sum(len(kets) for _, _, kets in
                       engine._screened_pairs(float(np.abs(D).max())))
            rows.append((full, engine.quartets_computed))
        return out

    engine.build = counted
    if method == "hf":
        res = RHF(mol, engine.basis, mode="direct", config=BATCHED,
                  jk_engine=engine).run()
    else:
        res = RKS(mol, engine.basis, functional=method, mode="direct",
                  config=BATCHED, jk_engine=engine).run()
    assert res.converged
    return res, rows


def _incore_energy(mol, method="hf"):
    if method == "hf":
        return RHF(mol).run().energy
    return RKS(mol, functional=method).run().energy


def test_f8_incremental_builds(report, benchmark):
    # (a) real SCFs through the engine make_jk_engine ships
    blocks = []
    for mol in (builders.water_cluster(4), builders.propylene_carbonate()):
        e_ref = _incore_energy(mol)
        engine = make_jk_engine(RHF(mol).basis, BATCHED, SCF_EPS)
        assert isinstance(engine, IncrementalExchange)
        res, counts = _counted_scf(mol, engine)
        rows = [[k, full, inc, f"{inc / full:.3f}",
                 "full" if k % REBUILD_EVERY == 0 else "increment"]
                for k, (full, inc) in enumerate(counts)]
        tot_full = sum(f for f, _ in counts)
        tot_inc = sum(i for _, i in counts)
        err = abs(res.energy - e_ref)
        blocks.append(format_table(
            rows, headers=["iteration", "full-build quartets",
                           "walked quartets", "fraction", "build"],
            title=f"F8a: direct RHF on {mol.name} through the shipped "
                  f"engine (eps={SCF_EPS:g}, REBUILD_EVERY={REBUILD_EVERY})")
            + f"\nquartets per SCF: full {tot_full}   walked {tot_inc}   "
              f"({(1 - tot_inc / tot_full) * 100:.1f}% skipped)"
              f"\n|dE| vs in-core tensor: {err:.1e} Ha")
        # the late increments walk a fraction of the full build, and the
        # energy stays within the paper's accuracy budget
        assert counts[-1][1] < counts[-1][0]
        assert tot_inc < tot_full
        assert err < 1e-9

    # (b) condensed-phase model: surviving unique quartets vs |dD| over
    # the modelled pair bounds of the same water box every figure uses
    mol, _ = builders.water_box(N_WATERS, seed=0)
    _, _, q_pairs = _model_pair_bounds(mol, EPS, "sto-3g")
    rows_b = []
    survs = []
    for delta in (1.0, 1e-2, 1e-4, 1e-6):
        surv, tot = incremental_survival(q_pairs, eps=EPS, delta=delta)
        survs.append(surv)
        rows_b.append([f"{delta:.0e}", surv, f"{surv / tot:.4f}",
                       f"{surv / survs[0]:.3f}"])
    table_b = format_table(
        rows_b, headers=["|dD|", "surviving quartets", "fraction",
                         "vs |dD|=1"],
        title=f"F8b: modeled incremental survival, (H2O){N_WATERS} box "
              f"({len(q_pairs)} modelled pair bounds, "
              f"{tot} unique pair-of-pairs, eps={EPS:g})")
    report("\n\n".join(blocks) + "\n\n" + table_b)

    # model: survival strictly decreasing in |dD|
    assert all(a > b for a, b in zip(survs, survs[1:]))

    benchmark(lambda: incremental_survival(q_pairs, EPS, 1e-4))


class _Threshold(IncrementalExchange):
    """The engine with the increment threshold ``eps / divisor``."""

    divisor = 1.0

    @property
    def increment_eps(self):
        return self.eps / self.divisor


def test_f8c_rebuild_sweep(report):
    """Rebuild cadence x increment threshold on PC HF direct: |dE|
    against the in-core tensor and quartets per SCF; the plain full
    build every iteration is the first row."""
    mol = builders.propylene_carbonate()
    basis = RHF(mol).basis
    e_ref = _incore_energy(mol)
    never = 10 ** 9
    rows = []

    def row(label, cadence, threshold, engine, method="hf"):
        res, counts = _counted_scf(mol, engine, method)
        err = abs(res.energy - (e_ref if method == "hf"
                                else _incore_energy(mol, method)))
        rows.append([label, cadence, threshold, res.niter,
                     sum(i for _, i in counts), f"{err:.1e}"])
        return err

    row("hf", "every", "-", DirectJKBuilder(basis, SCF_EPS, config=BATCHED))
    for cadence in (8, 16, never):
        # eps / never would screen nothing away: "never" takes eps / 16
        for divisor in (1, 16 if cadence == never else cadence):
            engine = _Threshold(basis, SCF_EPS, rebuild_every=cadence,
                                config=BATCHED)
            engine.divisor = divisor
            row("hf", "never" if cadence == never else cadence,
                f"eps/{divisor}" if divisor > 1 else "eps", engine)
    shipped = make_jk_engine(basis, BATCHED, SCF_EPS)
    err_pbe0 = row("pbe0", REBUILD_EVERY, f"eps/{REBUILD_EVERY}", shipped,
                   method="pbe0")
    report(format_table(
        rows, headers=["method", "rebuild every", "increment threshold",
                       "iterations", "quartets per SCF", "|dE| (Ha)"],
        title=f"F8c: rebuild cadence x increment threshold, {mol.name} "
              f"direct SCF (eps={SCF_EPS:g}; |dE| vs in-core tensor)"))
    shipped_hf = next(r for r in rows if r[0] == "hf"
                      and r[1] == REBUILD_EVERY and r[2] != "eps")
    assert float(shipped_hf[5]) < 1e-9 and err_pbe0 < 1e-9
    assert shipped_hf[4] < rows[0][4]
