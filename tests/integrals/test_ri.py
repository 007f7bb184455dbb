"""2-/3-index RI integrals: analytic values, symmetries, screening,
and the auxiliary-shard partitioner."""

import numpy as np
import pytest

from repro.basis import build_aux_basis, build_basis
from repro.basis.shell import Shell
from repro.basis.basisset import BasisSet
from repro.chem import builders
from repro.integrals import eri_tensor
from repro.integrals.pairclass import pair_classes
from repro.integrals.ri import (aux_shard_slices, inv_sqrt_metric, metric_2c,
                                three_center_slab)

from .auxpair_oracle import AuxShellPair

pytestmark = pytest.mark.ri


def _aux_of(name="water", basis="sto-3g"):
    b = build_basis(getattr(builders, name)(), basis)
    return b, build_aux_basis(b)


class TestMetric:
    def test_two_s_primitives_analytic(self):
        # (P|Q) for normalized s Gaussians on one center is
        # 2 pi^(5/2) / (a b sqrt(a+b)) times the two norms
        a, b = 0.8, 1.7
        mol = builders.h2()
        shells = [Shell(0, np.array([a]), np.array([1.0]), mol.coords[0]),
                  Shell(0, np.array([b]), np.array([1.0]), mol.coords[0])]
        aux = BasisSet(mol, "probe", shells)
        V = metric_2c(aux)
        na = shells[0].norm_coefs[0, 0]
        nb = shells[1].norm_coefs[0, 0]
        expect = 2.0 * np.pi ** 2.5 / (a * b * np.sqrt(a + b)) * na * nb
        assert V[0, 1] == pytest.approx(expect, rel=1e-13)
        assert V[1, 0] == pytest.approx(expect, rel=1e-13)

    def test_symmetric_positive_definite(self):
        _, aux = _aux_of()
        V = metric_2c(aux)
        assert np.abs(V - V.T).max() < 1e-11
        w = np.linalg.eigvalsh(V)
        assert w.min() > -1e-10 * w.max()

    def test_inv_sqrt_squares_to_inverse(self):
        _, aux = _aux_of("lih")
        V = metric_2c(aux)
        Vh = inv_sqrt_metric(V)
        # V^{-1/2} V V^{-1/2} is the identity on the retained subspace
        # (full rank here; tolerance scales with the metric condition)
        assert np.abs(Vh @ V @ Vh - np.eye(aux.nbf)).max() < 1e-5
        assert np.abs(Vh - Vh.T).max() < 1e-12


class TestAuxShellPair:
    def test_duck_types_shellpair_surface(self):
        _, aux = _aux_of()
        pr = AuxShellPair(aux.shells[0], 0)
        assert pr.nprim == 1
        assert pr.lab == aux.shells[0].l
        idx, lam = pr.hermite_lambda()
        assert lam.shape[0] == aux.shells[0].nfunc
        assert lam.shape[1] == 1
        # the ghost pair class holding shell 0 stacks the same layout
        table = pair_classes(aux, ghost=True)
        c, rows = table.locate(np.array([0]), np.array([0]))
        cls = table.pair_class(c)
        assert (cls.la, cls.lb) == (pr.lab, 0)
        assert cls.lam()[rows[0]].shape == lam.shape


class TestThreeCenterSlab:
    def test_bra_symmetry(self):
        basis, aux = _aux_of()
        slab, _ = three_center_slab(basis, aux, range(aux.nshell))
        # (uv|P) == (vu|P)
        assert np.abs(slab - slab.transpose(0, 2, 1)).max() < 1e-12

    def test_screening_parity_at_tiny_eps(self):
        basis, aux = _aux_of("water_dimer")
        full, n_full = three_center_slab(basis, aux, range(aux.nshell),
                                         eps=0.0)
        scr, n_scr = three_center_slab(basis, aux, range(aux.nshell),
                                       eps=1e-14)
        # Schwarz is a strict upper bound: anything dropped at this eps
        # is far below double-precision significance
        assert np.abs(full - scr).max() < 1e-13
        assert n_scr <= n_full

    def test_screening_drops_work_and_bounds_error(self):
        basis, aux = _aux_of("water_dimer")
        full, n_full = three_center_slab(basis, aux, range(aux.nshell),
                                         eps=0.0)
        scr, n_scr = three_center_slab(basis, aux, range(aux.nshell),
                                       eps=1e-6)
        assert n_scr < n_full
        assert np.abs(full - scr).max() < 1e-5

    def test_row_subset_matches_full(self):
        basis, aux = _aux_of()
        full, _ = three_center_slab(basis, aux, range(aux.nshell))
        subset = [1, 3]
        part, _ = three_center_slab(basis, aux, subset)
        slices = aux.shell_slices()
        rows = np.concatenate([np.arange(slices[i].start, slices[i].stop)
                               for i in subset])
        assert np.array_equal(part, full[rows])

    def test_against_quartet_reference_via_jk(self, water_basis, water_eri,
                                              water_rhf):
        # end to end: the fitted J from this slab must sit within the
        # fitting error of the exact J at the converged density
        from repro.scf.ri_jk import RIJKBuilder

        D = water_rhf.D
        J_exact = np.einsum("pqrs,rs->pq", water_eri, D)
        J_fit, _ = RIJKBuilder(water_basis).build(D, want_k=False)
        assert np.abs(J_fit - J_exact).max() < 1e-4


class TestAuxShardSlices:
    @pytest.mark.parametrize("nshards", [1, 2, 3, 4, 7])
    def test_partition_is_exact(self, nshards):
        _, aux = _aux_of("water_dimer")
        shards = aux_shard_slices(aux, nshards)
        seen = sorted(i for shard in shards for i in shard)
        assert seen == list(range(aux.nshell))
        assert all(list(s) == sorted(s) for s in shards)

    def test_balanced_by_function_count(self):
        _, aux = _aux_of("water_dimer")
        shards = aux_shard_slices(aux, 4)
        loads = [sum(aux.shells[i].nfunc for i in s) for s in shards]
        assert max(loads) <= 2 * min(loads)

    def test_more_shards_than_shells(self):
        _, aux = _aux_of("h2")
        shards = aux_shard_slices(aux, 1000)
        assert len(shards) <= aux.nshell
        assert sorted(i for s in shards for i in s) == \
            list(range(aux.nshell))
