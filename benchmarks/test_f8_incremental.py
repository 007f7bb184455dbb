"""F8 — incremental exchange builds across SCF/MD steps.

The scheme is "specifically tailored for ... molecular dynamics": with
the previous density seeding each build, the Cauchy-Schwarz screen
absorbs |dD| and most quartets drop out as the SCF converges.  Real
quartet counts per iteration on a real molecule, plus the modeled
savings on the condensed-phase workload.
"""

import numpy as np

from repro.analysis.report import format_table
from repro.chem import builders
from repro.hfx import IncrementalExchange, incremental_survival
from repro.hfx.workload import _model_pair_bounds
from repro.scf import RHF
from repro.scf.guess import core_guess

from conftest import EPS, N_WATERS


def test_f8_incremental_builds(report, benchmark):
    # (a) real molecule: density sequence approaching convergence
    mol = builders.water_dimer()
    res = RHF(mol, conv_tol=1e-10).run()
    D0, _, _ = core_guess(res.hcore, res.S, mol.nelectron // 2)
    dD = D0 - res.D
    inc = IncrementalExchange(res.basis, eps=1e-8, rebuild_every=100)
    rows = []
    for k in range(9):
        D = res.D + dD * (0.1 ** k)
        inc.update(D)
        delta = float(np.abs(dD).max() * 0.1 ** k)
        rows.append([k, f"{delta:.1e}", inc.last_quartets,
                     f"{inc.last_quartets / inc.total_quartets_full * inc.builds:.3f}"])
    full = rows[0][2]
    table_a = format_table(
        rows, headers=["iteration", "|dD| scale", "quartets computed",
                       "fraction"],
        title=f"F8a: incremental exchange on {mol.name} "
              f"(eps=1e-8, full build = {full} quartets)")

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
    report(table_a + "\n\n" + table_b +
           f"\n\ncumulative savings on the real sequence: "
           f"{inc.savings * 100:.1f}% of quartets skipped")

    # shape: late iterations compute a small fraction of the full build
    assert rows[-1][2] < full / 2
    assert inc.savings > 0.2
    # model: survival strictly decreasing in |dD|
    assert all(a > b for a, b in zip(survs, survs[1:]))

    benchmark(lambda: incremental_survival(q_pairs, EPS, 1e-4))
