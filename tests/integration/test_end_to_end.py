"""Integration tests across subsystems: the full pipelines the
reproduction's claims rest on."""

import numpy as np
import pytest

from repro.chem import builders
from repro.hfx import (HFXScheme, ReplicatedDynamicBaseline,
                       distributed_exchange, water_box_workload)
from repro.machine import bgq_racks, parallel_efficiency
from repro.scf import DirectJKBuilder, run_rhf
from repro.scf.dft import run_rks


def test_scf_to_distributed_exchange_pipeline():
    """Converge PBE0 water, rebuild its exact-exchange matrix through
    the distributed scheme, verify the exchange energy agrees."""
    res = run_rks(builders.water(), functional="pbe0", conv_tol=1e-7)
    K_dist, log, tasks, part = distributed_exchange(
        res.basis, res.D, nranks=6, eps=1e-12)
    ex = -0.25 * float(np.einsum("pq,pq->", K_dist, res.D))
    assert np.isclose(ex, res.exchange_energy, atol=1e-7)
    assert part.nranks == 6
    assert log.allreduce_calls == 1


def test_scheme_energy_identical_across_rank_counts():
    """The distributed exchange is bitwise-stable (up to summation
    order) for any rank count — the correctness half of the scaling
    claim."""
    res = run_rhf(builders.water_dimer())
    energies = []
    for nranks in (1, 3, 8):
        K, _, _, _ = distributed_exchange(res.basis, res.D, nranks,
                                          eps=1e-11)
        energies.append(-0.25 * float(np.einsum("pq,pq->", K, res.D)))
    assert np.ptp(energies) < 1e-10


def test_screening_threshold_controls_energy_error():
    """The paper's 'highly controllable accuracy': exchange-energy
    error decreases monotonically (and roughly proportionally) with
    eps."""
    res = run_rhf(builders.water_dimer())
    _, K_ref = DirectJKBuilder(res.basis, eps=1e-14).build(
        res.D, want_j=False)
    e_ref = -0.25 * float(np.einsum("pq,pq->", K_ref, res.D))
    errors = []
    for eps in (1e-3, 1e-5, 1e-7):
        K, _, _, _ = distributed_exchange(res.basis, res.D, 4, eps=eps)
        e = -0.25 * float(np.einsum("pq,pq->", K, res.D))
        errors.append(abs(e - e_ref))
    assert errors[0] >= errors[1] >= errors[2]
    assert errors[2] < 1e-6


@pytest.mark.parametrize("racks", [1, 16])
def test_simulated_scaling_pipeline(racks):
    """Workload generator -> split -> scheme -> simulator, end to end."""
    wl = water_box_workload(27, eps=1e-7, seed=0)
    cfg = bgq_racks(racks)
    wls = wl.split(wl.total_flops / (cfg.nranks * 8))
    bt = HFXScheme(wls, cfg, flop_scale=50).simulate()
    assert bt.makespan > 0
    assert bt.compute_fraction > 0.5


def test_headline_claims_shape():
    """The three abstract claims, end to end on a reduced sweep:
    near-perfect scheme efficiency, baseline collapse >= 20x earlier,
    >= 10x time-to-solution at the baseline's last useful scale."""
    wl = water_box_workload(27, eps=1e-7, seed=0)
    cfg_max = bgq_racks(8)
    wls = wl.split(wl.total_flops / (cfg_max.nranks * 16))
    scheme_t, base_t = {}, {}
    for racks in (0.0625, 0.25, 1, 4, 8):
        cfg = bgq_racks(racks)
        cfgb = bgq_racks(racks, ranks_per_node=16)
        scheme_t[cfg.total_threads] = HFXScheme(
            wls, cfg, flop_scale=50).simulate()
        base_t[cfgb.nodes * 16] = ReplicatedDynamicBaseline(
            wl, cfgb, flop_scale=50).simulate()
    eff_s = parallel_efficiency(scheme_t)
    eff_b = parallel_efficiency(base_t)
    max_thr_s = max(n for n, e in eff_s.items() if e >= 0.5)
    max_thr_b = max((n for n, e in eff_b.items() if e >= 0.5),
                    default=min(base_t))
    assert max_thr_s >= 16 * max_thr_b / 4   # scaled-down 20x analogue
    # time-to-solution at the baseline's largest useful partition
    t_s = scheme_t[max(scheme_t)].makespan
    t_b = base_t[max(base_t)].makespan
    assert t_b > 5 * t_s


def test_bomd_with_pbe0_single_step():
    """One PBE0 BOMD step on H2 — the paper's production method in
    miniature."""
    from repro.md.bomd import BOMD

    b = BOMD(builders.h2(0.76), method="pbe0", dt_fs=0.2)
    traj = b.run(1)
    assert len(traj) == 2
    assert traj[1].energy_pot < 0


def test_incremental_scf_integration():
    """An SCF driven by the incremental exchange builder converges to
    the standard answer."""
    from repro.hfx.incremental import IncrementalExchange
    from repro.scf import RHF
    from repro.scf.guess import core_guess, density_from_orbitals, orthogonalizer
    from repro.chem.molecule import nuclear_repulsion

    mol = builders.water()
    ref = run_rhf(mol)
    solver = RHF(mol)
    S, hcore = solver._setup()
    X = orthogonalizer(S)
    inc = IncrementalExchange(solver.basis, eps=1e-11)
    D, _, _ = core_guess(hcore, S, 5)
    from repro.scf.diis import DIIS

    diis = DIIS()
    energy = 0.0
    for _ in range(30):
        J, K = inc.build(D)
        F = hcore + J - 0.5 * K
        energy = (0.5 * float(np.einsum("pq,pq->", D, hcore + F))
                  + nuclear_repulsion(mol))
        err = X.T @ (F @ D @ S - S @ D @ F) @ X
        diis.push(F, err)
        if diis.error_norm() < 1e-7:
            break
        f = X.T @ diis.extrapolate() @ X
        _, Cp = np.linalg.eigh(f)
        D = density_from_orbitals(X @ Cp, 5)
    assert np.isclose(energy, ref.energy, atol=1e-5)
    assert inc.savings >= 0.0
