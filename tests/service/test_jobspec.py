"""JobSpec: boundary validation, JSON round-trip, content addressing."""

import json

import numpy as np
import pytest

from repro.service import JobSpec, solvent_screening_specs

pytestmark = pytest.mark.service


# --- validation ---------------------------------------------------------------


def test_defaults_validate():
    spec = JobSpec()
    assert spec.kind == "scf" and spec.method == "hf"


@pytest.mark.parametrize("bad", [
    dict(kind="dance"),
    dict(method="ccsd"),
    dict(kind="md", method="uhf"),          # uhf is SCF-only
    dict(molecule=""),
    dict(molecule={"symbols": ["H"]}),      # missing coords
    dict(kernel="magic"),
    dict(scf_solver="newton"),
    dict(mode="semidirect"),
    dict(executor="mpi"),
    dict(thermostat="nose"),
    dict(conv_tol=0.0),
    dict(dt_fs=-0.5),
    dict(perturb=-0.1),
    dict(kind="md", steps=0),
    dict(kind="md", thermostat="csvr"),     # thermostat needs T
    dict(executor="process", method="pbe0", mode="incore"),
    dict(executor="process", mode="incore"),
    dict(scf_solver="soscf", method="uhf"),
    dict(scf_solver="auto", multiplicity=3),
    # the boundary hole: these used to pass and die inside the lane
    dict(nworkers=0),
    dict(nworkers=True, executor="process"),
    dict(nworkers=2.0),
    dict(charge=True),
    dict(charge="0"),
    dict(multiplicity=0),
    dict(multiplicity=1.0),
    dict(seed=True),
    dict(seed=-1),
    dict(perturb_seed=0.5),
    dict(mts_outer="3"),
    dict(conv_tol="1e-8"),
])
def test_rejects_malformed(bad):
    with pytest.raises(ValueError, match=f"JobSpec.*{next(iter(bad))}"
                       if len(bad) == 1 else None):
        JobSpec(**bad)
    with pytest.raises(ValueError):
        JobSpec.from_dict({**JobSpec().to_dict(), **bad})


_O2_TRIPLET = {"symbols": ["O", "O"],
               "coords_angstrom": [[0.0, 0.0, 0.0], [0.0, 0.0, 1.2075]],
               "multiplicity": 3}


@pytest.mark.parametrize("solver", ["soscf", "auto"])
def test_inline_open_shell_refuses_the_newton_solvers(solver):
    """The solver rule reads an inline geometry's own multiplicity, as
    the MD rule does: the job is refused at submit instead of failing in
    its lane after every retry."""
    with pytest.raises(ValueError, match="DIIS-only"):
        JobSpec(molecule=_O2_TRIPLET, scf_solver=solver)
    with pytest.raises(ValueError, match="DIIS-only"):
        JobSpec.from_dict({**JobSpec().to_dict(), "molecule": _O2_TRIPLET,
                           "scf_solver": solver})
    with pytest.raises(ValueError, match="multiplicity"):
        JobSpec(kind="md", molecule=_O2_TRIPLET)
    assert JobSpec(molecule=_O2_TRIPLET).resolve_molecule().multiplicity == 3
    # the top-level field shapes builder molecules only, for both rules
    singlet = {k: v for k, v in _O2_TRIPLET.items() if k != "multiplicity"}
    JobSpec(molecule=singlet, multiplicity=3, scf_solver=solver)
    JobSpec(kind="md", molecule=singlet, multiplicity=3)


@pytest.mark.parametrize("method", ["lda", "pbe", "pbe0"])
def test_process_executor_serves_every_dft_method(method):
    """The pooled direct builder runs RKS (and PBE0 force calls) too:
    the spec is accepted for SCF and MD, and placement stays out of the
    key.  The ``mode="incore"`` refusal still holds."""
    for kind in ("scf", "md"):
        spec = JobSpec(kind=kind, method=method, executor="process",
                       nworkers=2)
        assert spec.canonical_key() == \
            JobSpec(kind=kind, method=method).canonical_key()
    with pytest.raises(ValueError, match="incore"):
        JobSpec(method=method, executor="process", mode="incore")


# canonical keys of specs that were valid before the process executor
# took DFT methods: the hash must not move
_KEYS = [
    ({}, "9028a3e595f329ca05a36716212afc35"
         "5434670acfa7f8fa9110a3a268d10e95"),
    ({"method": "uhf", "molecule": "li_atom", "executor": "process",
      "nworkers": 2}, "48ef7b12020c2a4d0dee436f98782abe"
                      "ca23e16fef8acac2149be14fa3762106"),
    ({"method": "pbe0"}, "a298d14510c5e6d3a7e66b2c246bd2bf"
                         "5b78a660d2184e1946c7cc0edea6c7ea"),
    ({"method": "pbe", "jk": "ri"}, "39cd9a08f67134516482e5431b3c8245"
                                    "4a17aef1489cad52c45c04b688f7725c"),
    ({"kind": "md", "method": "pbe0", "steps": 2},
     "0f2a026d2f08fdcff360be1a01f2c237"
     "5c5c00d9104e2fe8daa51ff966813033"),
    ({"executor": "process", "nworkers": 3, "mode": "direct"},
     "61bca7a1d863c3c5a05600f310a020b2"
     "7e8b983b0b02b04ededf016471e9c155"),
]


@pytest.mark.parametrize("fields, key", _KEYS)
def test_canonical_key_unchanged_for_specs_valid_before(fields, key):
    assert JobSpec(**fields).canonical_key() == key


def test_replace_revalidates():
    spec = JobSpec()
    with pytest.raises(ValueError):
        spec.replace(method="nope")


# --- JSON round-trip ----------------------------------------------------------


def test_dict_and_json_round_trip():
    spec = JobSpec(kind="md", molecule="h2", steps=7, dt_fs=0.25,
                   temperature=300.0, thermostat="csvr", seed=3,
                   label="t")
    assert JobSpec.from_dict(spec.to_dict()) == spec
    assert JobSpec.from_json(spec.to_json()) == spec


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="no field"):
        JobSpec.from_dict({"kind": "scf", "molcule": "water"})


def test_from_dict_revalidates():
    d = JobSpec().to_dict()
    d["method"] = "ccsd"
    with pytest.raises(ValueError):
        JobSpec.from_dict(d)


# --- molecule resolution ------------------------------------------------------


def test_resolve_builder_with_overrides():
    mol = JobSpec(molecule="h2", charge=1, multiplicity=2).resolve_molecule()
    assert mol.charge == 1 and mol.multiplicity == 2


def test_resolve_unknown_builder():
    with pytest.raises(ValueError, match="unknown built-in molecule"):
        JobSpec(molecule="unobtainium").resolve_molecule()


def test_resolve_inline_bohr_is_exact():
    from repro.chem import builders

    ref = builders.h2()
    spec = JobSpec(molecule={"symbols": list(ref.symbols),
                             "coords_bohr": ref.coords.tolist()})
    mol = spec.resolve_molecule()
    assert np.array_equal(mol.coords, ref.coords)
    assert np.array_equal(mol.numbers, ref.numbers)


def test_perturbation_is_seeded_and_deterministic():
    base = JobSpec(molecule="water").resolve_molecule()
    a = JobSpec(molecule="water", perturb=0.05,
                perturb_seed=1).resolve_molecule()
    b = JobSpec(molecule="water", perturb=0.05,
                perturb_seed=1).resolve_molecule()
    c = JobSpec(molecule="water", perturb=0.05,
                perturb_seed=2).resolve_molecule()
    assert np.array_equal(a.coords, b.coords)
    assert not np.array_equal(a.coords, base.coords)
    assert not np.array_equal(a.coords, c.coords)


# --- canonical key ------------------------------------------------------------


def test_key_ignores_execution_placement():
    a = JobSpec(molecule="h2")
    b = a.replace(executor="process", nworkers=4, label="elsewhere")
    assert a.canonical_key() == b.canonical_key()


def test_key_changes_with_physics():
    base = JobSpec(molecule="h2")
    assert base.canonical_key() != base.replace(
        basis="3-21g").canonical_key()
    assert base.canonical_key() != base.replace(
        method="pbe").canonical_key()
    assert base.canonical_key() != base.replace(
        conv_tol=1e-9).canonical_key()
    assert base.canonical_key() != base.replace(
        perturb=0.05).canonical_key()


def test_scf_key_ignores_md_fields_md_key_does_not():
    scf = JobSpec(kind="scf", molecule="h2")
    assert scf.canonical_key() == scf.replace(steps=99,
                                              seed=7).canonical_key()
    md = JobSpec(kind="md", molecule="h2")
    assert md.canonical_key() != md.replace(steps=99).canonical_key()
    assert md.canonical_key() != md.replace(seed=7).canonical_key()
    assert scf.canonical_key() != md.canonical_key()


def test_key_survives_json_round_trip():
    spec = JobSpec(kind="md", molecule="water", perturb=0.03,
                   perturb_seed=5, dt_fs=0.5, temperature=350.0,
                   thermostat="berendsen")
    clone = JobSpec.from_json(json.dumps(json.loads(spec.to_json())))
    assert clone.canonical_key() == spec.canonical_key()


# --- screening generator ------------------------------------------------------


def test_solvent_screening_axes():
    specs = solvent_screening_specs(solvents=("PC", "ACN"),
                                    methods=("hf", "pbe"), nperturb=2,
                                    perturb=0.02)
    assert len(specs) == 2 * 2 * 2
    keys = {s.canonical_key() for s in specs}
    assert len(keys) == len(specs)      # every axis point is distinct
    labels = {s.label for s in specs}
    assert "PC/hf/p0/s0" in labels and "ACN/pbe/p1/s0" in labels


def test_solvent_screening_md_seed_axis():
    specs = solvent_screening_specs(solvents=("PC",), methods=("hf",),
                                    kind="md", seeds=(0, 1, 2), steps=4)
    assert len(specs) == 3
    assert len({s.canonical_key() for s in specs}) == 3


def test_solvent_screening_rejects_unknown_solvent():
    with pytest.raises(Exception):
        solvent_screening_specs(solvents=("XYZ",))


# --- jk placement axis --------------------------------------------------------


def test_key_ignores_jk_engine():
    # direct and RI answer the same physical question to within the
    # fitted error bar, so either result may serve the cache entry
    a = JobSpec(molecule="h2")
    assert a.canonical_key() == a.replace(jk="ri").canonical_key()


def test_jk_validation():
    with pytest.raises(ValueError, match="'direct' or 'ri'"):
        JobSpec(molecule="h2", jk="cholesky")
    with pytest.raises(ValueError, match="incore"):
        JobSpec(molecule="h2", jk="ri", mode="incore")
    JobSpec(molecule="h2", jk="ri", mode="direct")    # fine
    JobSpec(molecule="h2", jk="ri")                   # mode resolved later


def test_solvent_screening_jk_axis():
    specs = solvent_screening_specs(solvents=("PC",), methods=("hf",),
                                    jks=("direct", "ri"))
    assert len(specs) == 2
    assert {s.jk for s in specs} == {"direct", "ri"}
    # one physical point: the jk axis never splits the cache key
    assert len({s.canonical_key() for s in specs}) == 1
    assert {s.label for s in specs} == {"PC/hf/p0/s0/direct",
                                        "PC/hf/p0/s0/ri"}


# --- MTS (r-RESPA) axis -------------------------------------------------------


def test_mts_fields_validate():
    JobSpec(kind="md", molecule="h2", mts_outer=5, mts_inner="pbe",
            mts_aspc_order=None)                       # all fine
    for bad in [dict(mts_outer=0), dict(mts_outer=True),
                dict(mts_outer=2.0), dict(mts_inner="pbe0"),
                dict(mts_aspc_order=-1), dict(mts_aspc_order=1.5)]:
        with pytest.raises(ValueError):
            JobSpec(kind="md", molecule="h2", **bad)


def test_mts_outer_changes_md_key_not_scf_key():
    # the outer cadence changes the integrated trajectory (physics),
    # so it must split the MD cache key; SCF keys ignore MD fields
    md = JobSpec(kind="md", molecule="h2")
    assert md.canonical_key() != md.replace(mts_outer=5).canonical_key()
    assert md.canonical_key() != md.replace(mts_inner="pbe").canonical_key()
    scf = JobSpec(kind="scf", molecule="h2")
    assert scf.canonical_key() == scf.replace(
        mts_outer=5, mts_inner="pbe").canonical_key()


def test_mts_fields_survive_json_round_trip():
    spec = JobSpec(kind="md", molecule="h2", mts_outer=3,
                   mts_inner="lda", mts_aspc_order=1)
    clone = JobSpec.from_json(spec.to_json())
    assert clone == spec
    assert clone.canonical_key() == spec.canonical_key()


def test_solvent_screening_mts_axis():
    specs = solvent_screening_specs(solvents=("PC",), methods=("hf",),
                                    kind="md", steps=4,
                                    mts_outers=(1, 5))
    assert len(specs) == 2
    assert {s.mts_outer for s in specs} == {1, 5}
    # a different force cadence is a different trajectory: the axis
    # splits the cache key, unlike the jk placement axis
    assert len({s.canonical_key() for s in specs}) == 2
    assert {s.label for s in specs} == {"PC/hf/p0/s0/mts1",
                                        "PC/hf/p0/s0/mts5"}


def test_solvent_screening_mts_axis_ignored_for_scf():
    specs = solvent_screening_specs(solvents=("PC",), methods=("hf",),
                                    kind="scf", mts_outers=(1, 3, 5))
    assert len(specs) == 1
