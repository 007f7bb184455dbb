"""RIJKBuilder: fitted J/K parity, cross-iteration caching, SCF-driver
dispatch, and pool-sharded assembly bit-identity."""

import numpy as np
import pytest

from repro.basis import build_basis
from repro.chem import builders
from repro.runtime import ExecutionConfig
from repro.scf import RHF, RIJKBuilder
from repro.scf.fock import coulomb_from_tensor, exchange_from_tensor

pytestmark = pytest.mark.ri

#: Fitted-error bars measured for the sto-3g autoaux set on the test
#: systems (water: |dE|/atom 1.5e-5, dJ 1.6e-5, dK 1.0e-4) with margin.
DE_PER_ATOM = 5e-5
DJ_MAX = 1e-4
DK_MAX = 5e-4

RI = ExecutionConfig(jk="ri")


class TestFittedJK:
    def test_j_matches_tensor(self, water_basis, water_eri, water_rhf):
        J_fit, _ = RIJKBuilder(water_basis).build(water_rhf.D, want_k=False)
        J = coulomb_from_tensor(water_eri, water_rhf.D)
        assert np.abs(J_fit - J).max() < DJ_MAX
        assert np.abs(J_fit - J_fit.T).max() < 1e-12

    def test_k_matches_tensor(self, water_basis, water_eri, water_rhf):
        _, K_fit = RIJKBuilder(water_basis).build(water_rhf.D, want_j=False)
        K = exchange_from_tensor(water_eri, water_rhf.D)
        assert np.abs(K_fit - K).max() < DK_MAX
        assert np.abs(K_fit - K_fit.T).max() < 1e-12

    def test_exchange_energy_negative(self, water_basis, water_rhf):
        ex = RIJKBuilder(water_basis).exchange_energy(water_rhf.D)
        assert ex < 0.0

    def test_signed_response_density(self, water_basis, water_rhf, rng):
        # the SOSCF response builds contract indefinite symmetric
        # "densities"; the signed-eigenvalue half-transform must handle
        # them exactly (vs the quadratic form in B)
        X = rng.standard_normal(water_rhf.D.shape)
        D = X + X.T
        b = RIJKBuilder(water_basis)
        _, K = b.build(D, want_j=False)
        B = b.fitted_tensor()
        K_ref = np.einsum("Puv,vw,Pwx->ux", B, D, B, optimize=True)
        assert np.abs(K - K_ref).max() < 1e-10


class TestBCaching:
    def test_built_once_reused_after(self, water_basis, water_rhf):
        b = RIJKBuilder(water_basis)
        for _ in range(4):
            b.build(water_rhf.D)
        assert b.b_builds == 1
        assert b.b_reuses == 3
        assert b.ints_3c > 0

    def test_reset_invalidates(self, water_basis, water_rhf):
        b = RIJKBuilder(water_basis)
        b.build(water_rhf.D)
        basis2 = build_basis(builders.water(), "sto-3g")
        b.reset(basis2)
        assert b._B is None
        b.build(water_rhf.D)
        assert b.b_builds == 2

    def test_close_keeps_tensor(self, water_basis, water_rhf):
        b = RIJKBuilder(water_basis)
        b.build(water_rhf.D)
        b.close()
        b.build(water_rhf.D)
        assert b.b_builds == 1 and b.b_reuses == 1


class TestRHFDispatch:
    @pytest.mark.parametrize("name", ["water", "lih"])
    def test_energy_within_fitting_error(self, name):
        mol = getattr(builders, name)()
        e_ref = RHF(mol, mode="direct").run().energy
        e_ri = RHF(mol, mode="direct", config=RI).run().energy
        assert abs(e_ri - e_ref) < DE_PER_ATOM * mol.natom

    def test_external_builder_survives_run(self, water_rhf):
        mol = builders.water()
        basis = build_basis(mol, "sto-3g")
        b = RIJKBuilder(basis)
        res = RHF(mol, basis=basis, mode="direct", config=RI,
                  jk_engine=b).run()
        # one assembly, one reuse per remaining Fock build, and the
        # driver's close() must not have dropped the cached tensor
        assert b.b_builds == 1
        assert b.b_reuses == res.fock_builds - 1
        assert b._B is not None

    def test_soscf_agrees_with_diis(self):
        mol = builders.water()
        e_diis = RHF(mol, mode="direct", config=RI).run().energy
        e_newt = RHF(mol, mode="direct",
                     config=RI.replace(scf_solver="soscf")).run().energy
        assert abs(e_newt - e_diis) < 1e-9

    def test_rks_hybrid(self):
        from repro.scf.dft import RKS

        mol = builders.water()
        e_ref = RKS(mol, functional="pbe0", mode="direct").run().energy
        e_ri = RKS(mol, functional="pbe0", mode="direct",
                   config=RI).run().energy
        assert abs(e_ri - e_ref) < DE_PER_ATOM * mol.natom

    def test_incore_rejected(self):
        with pytest.raises(ValueError, match="mode='direct'"):
            RHF(builders.water(), config=RI)

    def test_k_builder_rejected(self):
        # the incremental switch is gone: the factory's fitted engine
        # is never incremental, its exact direct engine always
        from repro.scf import make_jk_engine

        basis = build_basis(builders.water(), "sto-3g")
        with pytest.raises(TypeError, match="incremental"):
            make_jk_engine(basis, RI, incremental=True)
        assert isinstance(make_jk_engine(basis, RI), RIJKBuilder)

    def test_ri_builder_requires_ri(self):
        mol = builders.water()
        basis = build_basis(mol, "sto-3g")
        with pytest.raises(ValueError, match="jk='ri'"):
            RHF(mol, basis=basis, mode="direct",
                jk_engine=RIJKBuilder(basis))


class TestDistributedExchange:
    def test_partials_reduce_to_fitted_k(self, water_basis, water_rhf):
        from repro.hfx.scheme import distributed_exchange

        D = water_rhf.D
        K, comm, _, _ = distributed_exchange(
            water_basis, D, nranks=4, config=ExecutionConfig(jk="ri"))
        _, K_ref = RIJKBuilder(water_basis).build(D, want_j=False)
        assert np.abs(K - K_ref).max() < 1e-12
        assert comm.allreduce_calls > 0

    @pytest.mark.parametrize("nranks", [3, 200])
    def test_partials_follow_b_rows_when_the_metric_is_singular(
            self, water_basis, water_rhf, monkeypatch, nranks):
        """A duplicated aux shell: ``B`` has fewer rows than there are
        aux functions, and the rank shards (more ranks than rows leaves
        some empty) still reduce to the fitted K."""
        from repro.basis import BasisSet, build_aux_basis
        from repro.hfx.scheme import distributed_exchange
        from repro.scf import ri_jk

        def duplicated(basis):
            aux = build_aux_basis(basis)
            d = next(sh for sh in aux.shells if sh.l == 2)
            return BasisSet(aux.molecule, aux.name, list(aux.shells) + [d])

        monkeypatch.setattr(ri_jk, "build_aux_basis", duplicated)
        D = water_rhf.D
        builder = RIJKBuilder(water_basis)
        B = builder.fitted_tensor()
        assert len(B) == builder.aux.nbf - builder.aux.shells[-1].nfunc
        _, K_ref = builder.build(D, want_j=False)
        K, _, _, _ = distributed_exchange(water_basis, D, nranks=nranks,
                                          config=RI)
        assert np.abs(K - K_ref).max() < 1e-12


@pytest.mark.pool
class TestPooledAssembly:
    @pytest.mark.parametrize("nworkers", [1, 2, 4])
    def test_fitted_tensor_bit_identical(self, water_basis, nworkers):
        serial = RIJKBuilder(water_basis).fitted_tensor()
        b = RIJKBuilder(water_basis,
                        config=ExecutionConfig(jk="ri", executor="process",
                                               nworkers=nworkers))
        try:
            pooled = b.fitted_tensor()
            assert not b.degraded
            assert b.ints_3c > 0
        finally:
            b.close()
        assert np.array_equal(serial, pooled)

    def test_pooled_rhf_energy_bitwise(self):
        mol = builders.water()
        e_serial = RHF(mol, mode="direct", config=RI).run().energy
        cfg = ExecutionConfig(jk="ri", executor="process", nworkers=2)
        e_pooled = RHF(mol, mode="direct", config=cfg).run().energy
        assert e_pooled == e_serial
