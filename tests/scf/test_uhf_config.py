"""UHF on the ExecutionConfig dispatch: direct/RI/pooled builds,
summary envelope, and the validation surface."""

import numpy as np
import pytest

from repro.chem import builders
from repro.runtime import ExecutionConfig
from repro.scf.uhf import UHF, run_uhf

pytestmark = pytest.mark.ri


@pytest.fixture(scope="module")
def li_incore():
    return run_uhf(builders.li_atom())


class TestModeParity:
    def test_direct_matches_incore(self, li_incore):
        r = UHF(builders.li_atom(), mode="direct").run()
        assert abs(r.energy - li_incore.energy) < 1e-10

    def test_ri_within_fitting_error(self, li_incore):
        r = UHF(builders.li_atom(), mode="direct",
                config=ExecutionConfig(jk="ri")).run()
        assert r.converged
        # single atom: loose per-system bound, the open-shell density
        # is harder to fit than closed-shell water
        assert abs(r.energy - li_incore.energy) < 5e-4

    def test_ri_superoxide_converges(self):
        r = UHF(builders.superoxide_anion(), mode="direct",
                level_shift=0.2, config=ExecutionConfig(jk="ri")).run()
        assert r.converged
        assert 0.7 < r.s_squared() < 1.0

    @pytest.mark.pool
    def test_process_pool_matches_serial(self):
        mol = builders.li_atom()
        r_ser = UHF(mol, mode="direct").run()
        r_par = UHF(mol, mode="direct",
                    config=ExecutionConfig(executor="process",
                                           nworkers=2)).run()
        assert abs(r_par.energy - r_ser.energy) < 1e-10


class TestSummary:
    def test_envelope(self, li_incore):
        s = li_incore.summary()
        assert s["kind"] == "scf"
        assert s["counters"]["scf.niter"] == li_incore.niter
        assert s["counters"]["scf.fock_builds"] == li_incore.fock_builds
        assert s["nalpha"] == 2 and s["nbeta"] == 1
        assert s["solver"] == "diis"
        assert s["converged"] is True
        assert np.isclose(s["s_squared"], 0.75, atol=1e-6)

    def test_fock_build_accounting(self, li_incore):
        assert li_incore.fock_builds == li_incore.niter
        assert li_incore.wall_s > 0.0


class TestValidation:
    def test_rejects_soscf_solver(self):
        with pytest.raises(ValueError, match="closed-shell"):
            UHF(builders.li_atom(),
                config=ExecutionConfig(scf_solver="soscf"))

    def test_ri_requires_direct(self):
        with pytest.raises(ValueError, match="mode='direct'"):
            UHF(builders.li_atom(), mode="incore",
                config=ExecutionConfig(jk="ri"))

    def test_process_requires_direct(self):
        with pytest.raises(ValueError, match="mode='direct'"):
            UHF(builders.li_atom(), mode="incore",
                config=ExecutionConfig(executor="process"))
