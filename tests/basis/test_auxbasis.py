"""Even-tempered auxiliary-basis generator."""

import numpy as np
import pytest

from repro.basis import (Shell, build_aux_basis, build_basis,
                         even_tempered_exponents)
from repro.chem import builders

pytestmark = pytest.mark.ri


class TestEvenTemperedExponents:
    def test_covers_range(self):
        e = even_tempered_exponents(0.1, 50.0, beta=2.0)
        assert e[0] == pytest.approx(0.1)
        assert e[-1] >= 50.0
        assert np.all(np.diff(np.log(e)) > 0)

    def test_geometric_ratio(self):
        e = even_tempered_exponents(0.5, 100.0, beta=2.5)
        ratios = e[1:] / e[:-1]
        assert np.allclose(ratios, 2.5)

    def test_degenerate_range_single_exponent(self):
        e = even_tempered_exponents(3.0, 3.0, beta=2.0)
        assert len(e) == 1 and e[0] == pytest.approx(3.0)

    @pytest.mark.parametrize("emin,emax,beta", [
        (0.0, 1.0, 2.0), (-1.0, 1.0, 2.0), (2.0, 1.0, 2.0),
        (0.1, 1.0, 1.0), (0.1, 1.0, 0.5),
    ])
    def test_rejects_bad_inputs(self, emin, emax, beta):
        with pytest.raises(ValueError):
            even_tempered_exponents(emin, emax, beta)


class TestBuildAuxBasis:
    def test_water_dimensions(self, water_basis):
        aux = build_aux_basis(water_basis)
        # the fitting set must overcomplete the orbital product space
        assert aux.nbf > water_basis.nbf
        assert aux.name == "sto-3g-autoaux"
        assert aux.molecule is water_basis.molecule

    def test_single_primitive_shells(self, water_basis):
        aux = build_aux_basis(water_basis)
        assert all(sh.nprim == 1 for sh in aux.shells)

    def test_angular_layer_beyond_product_limit(self, water_basis):
        # sto-3g water: lmax = 1, products reach l = 2, generator adds
        # the l = 3 correction layer
        aux = build_aux_basis(water_basis)
        lmax_orb = max(sh.l for sh in water_basis.shells)
        assert max(sh.l for sh in aux.shells) == 2 * lmax_orb + 1

    def test_same_element_same_plan(self):
        basis = build_basis(builders.water(), "sto-3g")
        aux = build_aux_basis(basis)
        by_atom = {}
        for sh in aux.shells:
            by_atom.setdefault(sh.atom, []).append((sh.l, float(sh.exps[0])))
        # the two hydrogens carry identical fitting sets
        assert by_atom[1] == by_atom[2]

    def test_per_layer_shell_counts(self):
        # sto-3g O: s and p at ratio 3 (10/9 shells on a uniform ratio-2 ladder),
        # d at ratio 2, the top f layer over the diffuse 30 % of its
        # range (5 shells over the whole); H: s at ratio 3 and its top
        # p layer trimmed
        basis = build_basis(builders.water(), "sto-3g")
        aux = build_aux_basis(basis)
        counts = {}
        for sh in aux.shells:
            key = (sh.atom, sh.l)
            counts[key] = counts.get(key, 0) + 1
        assert counts == {(0, 0): 7, (0, 1): 6, (0, 2): 5, (0, 3): 3,
                          (1, 0): 4, (1, 1): 3, (2, 0): 4, (2, 1): 3}
        assert aux.nbf == 111

    def test_layer_ratios(self):
        aux = build_aux_basis(build_basis(builders.water(), "sto-3g"))
        for l, ratio in ((0, 3.0), (1, 3.0), (2, 2.0), (3, 2.0)):
            e = [float(sh.exps[0]) for sh in aux.shells
                 if sh.atom == 0 and sh.l == l]
            assert np.allclose(np.diff(np.log(e)), np.log(ratio))

    def test_bench_systems_naux(self):
        # the fitting-set sizes the rule gives the benchmark's systems
        # (the uniform ratio-2 ladder gave 963 / 468 / 660 / 358)
        for name, naux in (("propylene_carbonate", 673), ("li2o2", 340),
                           ("sulfoxide_model", 268)):
            basis = build_basis(getattr(builders, name)())
            assert build_aux_basis(basis).nbf == naux
        assert build_aux_basis(
            build_basis(builders.water_cluster(4))).nbf == 444

    def test_two_geometries_share_one_plan(self):
        mol = builders.water()
        moved = builders.water()
        moved.coords = moved.coords + np.array([0.3, -0.2, 0.1])
        a = build_aux_basis(build_basis(mol, "sto-3g"))
        b = build_aux_basis(build_basis(moved, "sto-3g"))
        assert a.nbf == b.nbf
        for sa, sb in zip(a.shells, b.shells):
            # one plan: the exponent and coefficient arrays are the same
            # objects, read-only, and each shell owns its centre
            assert sa.exps is sb.exps and sa.norm_coefs is sb.norm_coefs
            assert not sa.norm_coefs.flags.writeable
            assert sa.center is not sb.center
            assert np.allclose(sb.center - sa.center, [0.3, -0.2, 0.1])

    def test_cached_shells_normalize_like_fresh_ones(self):
        aux = build_aux_basis(build_basis(builders.li2o2()))
        for sh in aux.shells:
            fresh = Shell(sh.l, sh.exps, sh.coefs, sh.center, atom=sh.atom)
            assert np.array_equal(fresh.norm_coefs, sh.norm_coefs)
