"""One SCF route: every entry point reaches the same J/K engine (or the
same refusal) for each (executor, jk, mode) cell, and the same driver
(or the same refusal) for each method and spin."""

import itertools

import pytest

from repro import api
from repro.chem import builders
from repro.hfx import IncrementalExchange
from repro.md import SCFForceEngine
from repro.runtime import ExecutionConfig
from repro.scf import RHF, RIJKBuilder, TensorJKEngine, scf_driver
from repro.scf.dft import RKS
from repro.service import JobSpec


def _cells():
    for executor, jk, mode in itertools.product(
            ("serial", "process"), ("direct", "ri"),
            (None, "incore", "direct")):
        marks = [pytest.mark.pool] if executor == "process" else []
        if jk == "ri":
            marks.append(pytest.mark.ri)
        yield pytest.param(executor, jk, mode, marks=marks,
                           id=f"{executor}-{jk}-{mode}")


def _expected(executor, jk, mode):
    """The engine class a cell builds, or ``None`` where it is refused."""
    if mode == "incore" and (executor == "process" or jk == "ri"):
        return None
    if mode is None:
        mode = "direct" if executor == "process" or jk == "ri" else "incore"
    if mode == "incore":
        return TensorJKEngine
    return RIJKBuilder if jk == "ri" else IncrementalExchange


def _outcome(build):
    """``build()``'s engine class, or the refusal's message."""
    try:
        return build()
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("executor,jk,mode", _cells())
def test_every_entry_point_takes_the_same_route(executor, jk, mode,
                                                monkeypatch):
    from repro.md import bomd
    from repro.scf import rhf

    mol = builders.h2()
    cfg = ExecutionConfig(executor=executor, jk=jk, nworkers=1)
    made = []

    def recording(make):
        def wrapped(*args, **kw):
            engine = make(*args, **kw)
            made.append(type(engine))
            return engine
        return wrapped

    monkeypatch.setattr(rhf, "make_jk_engine",
                        recording(rhf.make_jk_engine))
    monkeypatch.setattr(bomd, "make_jk_engine",
                        recording(bomd.make_jk_engine))

    def driver(cls, **kw):
        def build():
            solver = cls(mol, mode=mode, config=cfg, **kw)
            solver._setup()
            solver._close_jk()
            return made.pop()
        return build

    def facade():
        api.run_scf(JobSpec(molecule="h2", executor=executor, nworkers=1,
                            jk=jk, mode=mode))
        return made.pop()

    def force_engine():
        engine = SCFForceEngine(mol, config=cfg, scf_kwargs={"mode": mode})
        try:
            engine._solver(mol)
        finally:
            engine.close()
        return made.pop()

    outcomes = [_outcome(build) for build in (
        driver(RHF), driver(RKS, functional="pbe0"), facade, force_engine)]
    want = _expected(executor, jk, mode)
    if want is None:
        assert isinstance(outcomes[0], str) and "mode='direct'" in \
            outcomes[0]
    else:
        assert outcomes[0] is want
    assert outcomes == [outcomes[0]] * 4
    assert not made


@pytest.mark.parametrize("placement", [
    pytest.param({"jk": "ri"}, marks=pytest.mark.ri, id="ri"),
    pytest.param({"executor": "process", "nworkers": 2},
                 marks=pytest.mark.pool, id="process")])
def test_driver_default_runs_the_facades_route(placement):
    """A driver's default ``mode`` runs what the facade runs for the
    same placement (the drivers used to refuse these configs)."""
    water = builders.water()
    direct = RHF(water, config=ExecutionConfig(**placement)).run()
    facade = api.run_scf(JobSpec(molecule="water", **placement))
    assert float(direct.energy).hex() == \
        float(facade["scf"]["energy"]).hex()


OPEN_SHELL_KS = r"cannot run the open-shell .*: there is no unrestricted " \
                r"Kohn-Sham; use method='uhf'$"


def test_open_shell_kohn_sham_is_refused_on_every_entry_point():
    from repro.liair import attack_profile

    triplet = JobSpec(molecule="o2", multiplicity=3, method="pbe0")
    with pytest.raises(ValueError, match=OPEN_SHELL_KS):
        api.run_scf(triplet)
    # a builder molecule that is open-shell by itself passes the spec's
    # multiplicity check; the trajectory's first force call refuses it
    with pytest.raises(ValueError, match=OPEN_SHELL_KS):
        api.run_md(JobSpec(kind="md", molecule="superoxide_anion",
                           method="pbe0", steps=1))
    with pytest.raises(ValueError, match=OPEN_SHELL_KS):
        attack_profile("ACN", method="pbe0", nucleophile="superoxide",
                       distances_angstrom=[4.0, 3.0])
    # the same molecule with Hartree-Fock is the UHF route
    assert api.run_scf(triplet.replace(method="hf"))["method"] == "UHF"


def test_the_method_rule():
    closed, doublet = builders.water(), builders.li_atom()
    assert type(scf_driver(closed, "hf")) is RHF
    assert type(scf_driver(closed, "pbe0")) is RKS
    for mol, method in ((closed, "uhf"), (doublet, "hf"),
                        (doublet, "uhf")):
        drv = scf_driver(mol, method,
                         config=ExecutionConfig(scf_solver="auto"))
        assert type(drv).__name__ == "UHF" and drv.scf_solver == "diis"
    with pytest.raises(ValueError, match="closed-shell only"):
        scf_driver(doublet, "hf", config=ExecutionConfig(scf_solver="soscf"))
    with pytest.raises(ValueError, match=OPEN_SHELL_KS):
        scf_driver(doublet, "lda")


def test_md_refuses_the_unrestricted_route():
    with pytest.raises(ValueError, match="closed-shell drivers"):
        api.run_md(JobSpec(kind="md", molecule="superoxide_anion",
                           method="hf", steps=1))


@pytest.mark.parametrize("budget,engine", [
    (None, TensorJKEngine),
    # one byte below Li2O2's 8 nbf^4 = 1.28 MB tensor (nbf 20)
    (8 * 20 ** 4 - 1, IncrementalExchange)])
def test_the_derived_route_follows_the_tensor_size(budget, engine,
                                                   monkeypatch):
    """``mode=None`` on the serial exact route builds the in-core tensor
    only while its ``8 nbf^4`` bytes fit in ``CLASS_STORE_BYTES``; past
    that it derives the direct walk.  An explicit ``incore`` still
    builds the tensor."""
    import repro.integrals.eri as eri_module
    from repro.basis import build_basis
    from repro.scf import make_jk_engine

    if budget is not None:
        monkeypatch.setattr(eri_module, "CLASS_STORE_BYTES", budget)
    basis = build_basis(builders.li2o2())
    assert basis.nbf == 20
    jk = make_jk_engine(basis)
    try:
        assert type(jk) is engine
    finally:
        jk.close()
    forced = make_jk_engine(basis, mode="incore")
    assert type(forced) is TensorJKEngine
    forced.close()
