"""The one SCF iteration loop.

``RHF._run`` is the only iteration loop under ``src/repro/scf``: the
closed-shell DIIS reference, the rough phase of the accelerated solvers
and UHF all run it.  These tests hold it to the three loops it replaced
(``loop_oracle.py``) bit for bit — energies and histories by
``float.hex()``, densities, Fock matrices and orbitals by
``np.array_equal``, and the iteration/build counts — and guard the
structure: one ``"scf.iteration"`` span site, ``UHF`` a subclass of
``RHF`` with its constructor unchanged, and no EDIIS left.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from repro.chem import builders
from repro.chem.molecule import Molecule
from repro.runtime import ExecutionConfig, Tracer
from repro.scf.dft import RKS
from repro.scf.rhf import RHF
from repro.scf.uhf import UHF

from .loop_oracle import diis_loop, soscf_loop, uhf_loop

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

pytestmark = pytest.mark.soscf


def _hex(values):
    return [float(v).hex() for v in values]


def _assert_same(new, ref, arrays):
    assert float(new.energy).hex() == float(ref.energy).hex()
    assert _hex(new.history) == _hex(ref.history)
    assert (new.niter, new.fock_builds, new.converged) == \
        (ref.niter, ref.fock_builds, ref.converged)
    for name in arrays:
        assert np.array_equal(getattr(new, name), getattr(ref, name)), name


def _assert_same_rhf(new, ref):
    _assert_same(new, ref, ("D", "F", "C", "eps"))
    assert float(new.exchange_energy).hex() == \
        float(ref.exchange_energy).hex()
    assert new.micro_iters == ref.micro_iters
    assert new.soscf_state == ref.soscf_state
    assert new.solver == ref.solver


def _driver(method, mol, **kw):
    if method == "hf":
        return RHF(mol, **kw)
    return RKS(mol, functional=method, **kw)


def _closed_shell(method, mol, solver, D0=None, **kw):
    cfg = ExecutionConfig(scf_solver=solver)
    oracle = diis_loop if solver == "diis" else soscf_loop
    ref = oracle(_driver(method, mol, config=cfg, **kw), D0)
    new = _driver(method, mol, config=cfg, **kw).run(D0)
    _assert_same_rhf(new, ref)
    return new


@pytest.mark.parametrize("mode", ["incore", "direct"])
@pytest.mark.parametrize("solver", ["diis", "soscf", "auto"])
@pytest.mark.parametrize("method", ["hf", "lda", "pbe", "pbe0"])
def test_closed_shell_loop_equals_the_oracle(water, method, solver, mode):
    res = _closed_shell(method, water, solver, mode=mode)
    assert res.converged
    # a converged-density restart: no orbitals, no exit before an update
    _closed_shell(method, water, solver, D0=res.D, mode=mode)


@pytest.mark.parametrize("solver", ["diis", "soscf", "auto"])
@pytest.mark.parametrize("stabilizer", [dict(level_shift=0.3),
                                        dict(damping=0.3)])
def test_stabilized_loop_equals_the_oracle(water, solver, stabilizer):
    _closed_shell("hf", water, solver, **stabilizer)
    _closed_shell("pbe0", water, solver, **stabilizer)


@pytest.mark.parametrize("method", ["hf", "pbe"])
def test_smeared_loop_equals_the_oracle(water, method):
    _closed_shell(method, water, "diis", smearing=0.02)


@pytest.mark.parametrize("solver", ["diis", "soscf", "auto"])
def test_stretched_anion_equals_the_oracle(solver):
    """Stretched LiO2^- under level shift + damping: the ADIIS rough
    phase from the start (``soscf``) and DIIS lands on different SCF
    solutions, each reproduced exactly."""
    mol = builders.lio2()
    mol.charge = -1
    stretched = mol.with_coords(mol.coords * 1.25)
    _closed_shell("hf", stretched, solver, level_shift=0.2, damping=0.2,
                  max_iter=60)


def test_auto_stall_switch_equals_the_oracle():
    """Li2O2/PBE0 stalls under DIIS far from the handoff: ``auto``
    switches its rough phase to ADIIS instead of handing off."""
    res = _closed_shell("pbe0", builders.li2o2(), "auto")
    assert res.converged


def test_unconverged_rough_phase_equals_the_oracle(water):
    _closed_shell("hf", water, "diis", max_iter=3)
    _closed_shell("hf", water, "auto", max_iter=3)


def test_warm_newton_state_equals_the_oracle(water):
    first = RHF(water, config=ExecutionConfig(scf_solver="soscf")).run()
    _closed_shell("hf", water, "soscf", D0=first.D,
                  soscf_state=first.soscf_state)


_O2_TRIPLET = Molecule.from_symbols(["O", "O"], [[0, 0, 0], [0, 0, 1.2075]],
                                    multiplicity=3, name="O2")


@pytest.mark.parametrize("jk", ["incore", "direct", "ri"])
@pytest.mark.parametrize("variant", ["plain", "level_shift",
                                     "break_symmetry", "restart"])
def test_uhf_loop_equals_the_oracle(variant, jk):
    mol = builders.h2(2.5) if variant == "break_symmetry" else \
        builders.li_atom()
    kw = dict(mode="incore" if jk == "incore" else "direct",
              config=ExecutionConfig(jk="ri" if jk == "ri" else "direct"))
    if variant == "level_shift":
        kw["level_shift"] = 0.2
    if variant == "break_symmetry":
        kw.update(break_symmetry=True, max_iter=300)
    D0 = None
    if variant == "restart":
        base = UHF(mol, **kw).run()
        D0 = (base.D_a, base.D_b)
    ref = uhf_loop(UHF(mol, **kw), D0)
    new = UHF(mol, **kw).run(D0)
    _assert_same(new, ref, ("D_a", "D_b", "C_a", "C_b", "eps_a", "eps_b"))
    assert new.converged
    assert (new.nalpha, new.nbeta, new.solver) == \
        (ref.nalpha, ref.nbeta, ref.solver)
    if variant == "break_symmetry":
        assert new.s_squared() > 0.2


# --- structure ------------------------------------------------------------


def test_one_scf_iteration_span_site():
    sites = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "scf").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == "scf.iteration"]
    assert len(sites) == 1, sites
    assert sites[0].startswith("rhf.py:")


def _identifiers(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
    return names


def test_no_second_loop_or_rough_phase_option_left():
    assert issubclass(UHF, RHF)
    gone = {"EDIIS", "soscf_rough", "_final_orbitals", "_run_diis",
            "_run_soscf", "_build_jk"}
    for path in sorted(SRC.rglob("*.py")):
        found = gone & _identifiers(ast.parse(path.read_text()))
        assert not found, f"{path.relative_to(SRC)}: {sorted(found)}"
    assert "soscf_rough" not in inspect.signature(RHF).parameters


def test_uhf_constructor_is_unchanged():
    params = inspect.signature(UHF).parameters
    assert [(p.name, p.default) for p in params.values()] == [
        ("mol", inspect.Parameter.empty), ("basis", "sto-3g"),
        ("mode", None), ("conv_tol", 1e-8), ("max_iter", 150),
        ("diis_size", 8), ("level_shift", 0.0), ("break_symmetry", False),
        ("screen_eps", 1e-10), ("jk_engine", None), ("config", None)]
    # ``run`` is UHF's own, so a patcher of RHF.run never wraps it
    assert "run" in vars(UHF)


def _traced(drv):
    """Run ``drv`` traced, recording the ``scf.fock_builds`` counter as
    each Fock build starts."""
    tr = drv.config.trace
    seen = []
    hook = drv._fock_energy

    def spy(hcore, enuc):
        fock_energy = hook(hcore, enuc)

        def counted(D):
            seen.append(tr.metrics.get("scf.fock_builds"))
            return fock_energy(D)
        return counted

    drv._fock_energy = spy
    res = drv.run()
    return res, tr.snapshot(), seen


def test_traced_uhf_reports_the_rhf_counter_set(water):
    """UHF counts what RHF counts, including ``scf.diis_fallbacks``, and
    counts each Fock build as its iteration runs, not once at the end."""
    rhf, rhf_snap, _ = _traced(RHF(water, config=ExecutionConfig(
        tracer=Tracer(name="rhf"))))
    uhf, uhf_snap, seen = _traced(UHF(_O2_TRIPLET, config=ExecutionConfig(
        tracer=Tracer(name="uhf"))))
    assert set(uhf_snap.counters) == set(rhf_snap.counters)
    assert "scf.diis_fallbacks" in uhf_snap.counters
    counters = uhf_snap.counters
    assert counters["scf.fock_builds"] == uhf.fock_builds == uhf.niter
    assert counters["scf.niter"] == uhf.niter
    assert seen == list(range(uhf.niter))
    spans = [s.name for s in uhf_snap.spans]
    assert spans.count("scf.iteration") == uhf.niter
