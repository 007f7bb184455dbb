"""The boundary table: one matrix over every row, plus the guards that
keep it the only edge (env reads, CLI choices, bindings, docs)."""

import argparse
import dataclasses
import re
from pathlib import Path

import pytest

from repro.runtime import boundary
from repro.runtime.boundary import (ENV_VARS, KNOBS, check, from_text,
                                    parse_fault, resolve)

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
NUMERIC = [k for k, knob in KNOBS.items() if knob.kind != "choice"]
CHOICE = [k for k, knob in KNOBS.items() if knob.kind == "choice"]
BOUNDED = [k for k in NUMERIC if KNOBS[k].lo is not None]
ENV_BACKED = [k for k, knob in KNOBS.items() if knob.env]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in ENV_VARS:
        monkeypatch.delenv(var, raising=False)


def _good(knob):
    """A valid non-default value of the row."""
    if knob.kind == "choice":
        return knob.choices[-1]
    base = 7 if knob.lo is None else knob.lo + 7
    return base if knob.kind == "int" else base + 0.5


# --- the matrix: every row x every way a value can arrive ---------------------

@pytest.mark.parametrize("key", KNOBS)
def test_none_resolves_to_the_default(key):
    knob = KNOBS[key]
    want = knob.default() if callable(knob.default) else knob.default
    assert resolve(key) == want
    if want is not None:                # the default is itself valid
        assert check(key, want) == want


@pytest.mark.parametrize("key", KNOBS)
def test_good_value_passes_on_the_api_path(key):
    knob = KNOBS[key]
    good = _good(knob)
    assert check(key, good) == good
    assert resolve(key, good) == good
    if knob.kind == "float":            # ints are numbers; result is float
        assert type(check(key, int(good) + 1)) is float
    for choice in knob.choices:
        assert check(key, choice) is choice


@pytest.mark.parametrize("key", KNOBS)
def test_none_passes_check_only_on_optional_rows(key):
    if KNOBS[key].optional:
        assert check(key, None) is None
    else:
        with pytest.raises(ValueError, match=KNOBS[key].name):
            check(key, None)


@pytest.mark.parametrize("key", KNOBS)
def test_bool_is_refused_naming_the_field(key):
    for flag in (True, False):
        with pytest.raises(ValueError, match=rf"Owner\.{KNOBS[key].name} "):
            check(key, flag, owner="Owner")
        with pytest.raises(ValueError, match=KNOBS[key].name):
            resolve(key, flag)


@pytest.mark.parametrize("key", KNOBS)
def test_wrong_type_is_refused_naming_the_field(key):
    knob = KNOBS[key]
    wrong = {"int": [2.5, "3", [3]], "float": ["ten", "1.5", [1.5]],
             "choice": [7, "", "".join(knob.choices), list(knob.choices)]}
    for bad in wrong[knob.kind]:
        with pytest.raises(ValueError, match=rf"Owner\.{knob.name} must be"):
            check(key, bad, owner="Owner")
        # the API path refuses numeric text too: only the environment
        # and the CLI spell a value as text
        with pytest.raises(ValueError, match=rf"^{knob.name} must be"):
            resolve(key, bad)


@pytest.mark.parametrize("key", BOUNDED)
def test_range_edge(key):
    knob = KNOBS[key]
    below = knob.lo - 1 if knob.kind == "int" else knob.lo - 0.25
    for value in (below, below - 1):
        with pytest.raises(ValueError, match=knob.name):
            check(key, value)
        with pytest.raises(ValueError, match=knob.name):
            resolve(key, value)
    if knob.open:
        with pytest.raises(ValueError, match="positive"):
            check(key, knob.lo)
        assert check(key, knob.lo + 1e-9) == knob.lo + 1e-9
    else:
        assert check(key, knob.lo) == knob.lo
    if knob.kind == "float":
        for bad in (float("nan"), float("-inf")):
            with pytest.raises(ValueError, match=knob.name):
                check(key, bad)


@pytest.mark.parametrize("key", [k for k in NUMERIC if KNOBS[k].lo is None])
def test_unbounded_rows_take_negatives(key):
    assert check(key, -3) == -3


@pytest.mark.parametrize("key", ENV_BACKED)
def test_env_path(key, monkeypatch):
    knob = KNOBS[key]
    good = _good(knob)
    monkeypatch.setenv(knob.env, str(good))
    assert resolve(key) == good
    assert resolve(key, knob.default) == knob.default   # explicit beats env
    bads = ["garbage!", ""]
    if knob.lo is not None:
        bads.append(str(knob.lo if knob.open else knob.lo - 1))
    if knob.kind == "int":
        bads.append("2.5")
    for bad in bads:
        monkeypatch.setenv(knob.env, bad)
        with pytest.raises(ValueError,
                           match=rf"^{knob.env} must be .*{re.escape(repr(bad))}"):
            resolve(key)
    if knob.lo is not None and not knob.open:
        monkeypatch.setenv(knob.env, str(knob.lo))
        assert resolve(key) == knob.lo


@pytest.mark.parametrize("key", KNOBS)
def test_text_path_names_its_label(key):
    knob = KNOBS[key]
    good = _good(knob)
    assert from_text(key, str(good), "--flag") == good
    with pytest.raises(ValueError, match="^--flag must be"):
        from_text(key, "garbage!", "--flag")


def test_describe_phrases():
    assert KNOBS["nworkers"].describe() == "a positive integer"
    assert KNOBS["checkpoint_every"].describe() == \
        "a positive integer (MD steps)"
    assert KNOBS["pool_max_retries"].describe() == "a non-negative integer"
    assert KNOBS["charge"].describe() == "an integer"
    assert KNOBS["pool_timeout"].describe() == "a positive number (seconds)"
    assert KNOBS["perturb"].describe() == "a non-negative number (Bohr)"
    assert KNOBS["jk"].describe() == "'direct' or 'ri'"
    assert KNOBS["scf_solver"].describe() == "'diis', 'soscf', or 'auto'"


# --- the table is well formed -------------------------------------------------

def test_rows_are_well_formed():
    roles = [knob.role for knob in KNOBS.values()]
    order = ["placement", "numerics", "observation"]
    assert roles == sorted(roles, key=order.index)
    for key, knob in KNOBS.items():
        assert knob.kind in ("int", "float", "choice"), key
        assert bool(knob.choices) == (knob.kind == "choice"), key
        assert (knob.key or knob.name) == key
        if knob.kind == "int" and knob.lo is not None:
            assert isinstance(knob.lo, int) and not knob.open, key
    flags = [k.flag for k in KNOBS.values() if k.flag]
    assert len(set(flags)) == len(flags) - 1      # --method: scf and md rows


def test_the_six_variables():
    assert sorted(ENV_VARS) == [
        "REPRO_CHECKPOINT_EVERY", "REPRO_POOL_FAULT",
        "REPRO_POOL_MAX_RETRIES", "REPRO_POOL_TIMEOUT",
        "REPRO_SERVICE_FAULT", "REPRO_SERVICE_HEARTBEAT"]
    with pytest.raises(KeyError):
        boundary.env_text("REPRO_NOT_A_KNOB")


def test_env_is_read_in_exactly_one_module():
    readers = [p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py")
               if re.search(r"os\.environ|os\.getenv|\bgetenv\(",
                            p.read_text())]
    assert readers == ["runtime/boundary.py"]


def test_enumerations_are_defined_once():
    """No module but the table spells one of its enumerations as a
    literal tuple/list/set."""
    import ast

    enums = {frozenset(k.choices) for k in KNOBS.values() if k.choices}
    for path in SRC.rglob("*.py"):
        if path.name == "boundary.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and all(
                    isinstance(e, ast.Constant) for e in node.elts):
                spelled = frozenset(e.value for e in node.elts)
                assert spelled not in enums, (path, node.lineno, spelled)


def test_resolve_names_are_table_bindings():
    import repro.runtime as rt
    from repro.runtime import checkpoint, pool

    homes = {"resolve_pool_timeout": pool, "resolve_nworkers": pool,
             "resolve_pool_max_retries": pool,
             "resolve_checkpoint_every": checkpoint}
    for name, module in homes.items():
        bound = getattr(boundary, name)
        assert getattr(module, name) is bound and getattr(rt, name) is bound
        assert bound.func is resolve
        assert bound.args == (name.removeprefix("resolve_"),)


# --- the owners validate through it ------------------------------------------

def _parser_actions(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parser_actions(sub)
        else:
            yield action


def test_every_cli_choices_is_a_table_tuple():
    from repro.cli import build_parser

    tuples = [k.choices for k in KNOBS.values() if k.choices]
    seen = 0
    for action in _parser_actions(build_parser()):
        if action.choices is not None:
            seen += 1
            assert any(action.choices is t for t in tuples), \
                action.option_strings or action.dest
    assert seen >= 15


def test_table_flags_exist_with_table_defaults():
    from repro.cli import build_parser

    by_flag = {}
    for action in _parser_actions(build_parser()):
        for opt in action.option_strings:
            by_flag.setdefault(opt, []).append(action)
    for key, knob in KNOBS.items():
        if knob.flag is None:
            continue
        assert knob.flag in by_flag, key
        if knob.env or callable(knob.default):
            assert all(a.default is None for a in by_flag[knob.flag]), key


def test_jobspec_and_execconfig_defaults_are_the_tables():
    from repro.runtime import ExecutionConfig
    from repro.service import JobSpec

    free_form = {"molecule", "basis", "temperature", "label"}
    assert {f.name for f in dataclasses.fields(JobSpec)} - set(KNOBS) \
        == free_form
    for f in dataclasses.fields(JobSpec):
        if f.name in KNOBS and not callable(KNOBS[f.name].default):
            assert f.default == KNOBS[f.name].default, f.name
    for f in dataclasses.fields(ExecutionConfig):
        if f.name in KNOBS and not KNOBS[f.name].optional:
            assert f.default == KNOBS[f.name].default, f.name


# --- one fault grammar ---------------------------------------------------------

@pytest.mark.parametrize("var,nth,modes", [
    ("REPRO_POOL_FAULT", "build", ("kill", "hang", "exc")),
    ("REPRO_SERVICE_FAULT", "exec", ("kill", "hang"))])
def test_parse_fault_grammar(var, nth, modes):
    assert parse_fault(None, var, nth, modes) is None
    assert parse_fault("", var, nth, modes) is None
    assert parse_fault("worker=*", var, nth, modes) == ("*", 1, modes[0])
    assert parse_fault(f" worker = 2 , {nth}=3,mode={modes[1]}", var, nth,
                       modes) == (2, 3, modes[1])
    for bad in ("mode=kill", "worker=x", f"worker=0,{nth}=0",
                f"worker=0,{nth}=two", "worker=0,mode=explode",
                "worker=0,when=now", "worker"):
        with pytest.raises(ValueError, match=var):
            parse_fault(bad, var, nth, modes)


def test_lane_worker_acts_through_the_pools_trigger():
    """One child-side fault actor: both worker loops tick the
    supervisor's gate (the pool's private trigger is gone)."""
    from repro.runtime import pool, supervisor
    from repro.service import transport

    assert transport.FaultGate is pool.FaultGate is supervisor.FaultGate
    assert not hasattr(pool, "_trigger_fault")


# --- the docs are the registry -------------------------------------------------

def doc_rows():
    """DESIGN §6's knob table, rendered from the registry."""
    yield "| field | CLI flag | `REPRO_*` | default | range | role |"
    yield "|---|---|---|---|---|---|"
    for key, knob in KNOBS.items():
        field = f"`{knob.name}`" + (f" ({key})" if key != knob.name else "")
        if knob.kind == "choice":
            rng = " / ".join(knob.choices)
        elif knob.lo is None:
            rng = f"any {knob.kind}"
        else:
            rng = f"{knob.kind} {'>' if knob.open else '>='} {knob.lo}"
        if knob.unit:
            rng += f" ({knob.unit})"
        if knob.optional:
            rng += ", or None"
        default = ("usable cores" if callable(knob.default)
                   else "—" if knob.default is None else f"`{knob.default}`")
        yield (f"| {field} | {f'`{knob.flag}`' if knob.flag else '—'} "
               f"| {f'`{knob.env}`' if knob.env else '—'} | {default} "
               f"| {rng} | {knob.role} |")


def test_design_knob_table_equals_the_registry():
    text = (REPO / "DESIGN.md").read_text()
    begin, end = "<!-- knob-table:begin -->", "<!-- knob-table:end -->"
    assert begin in text and end in text
    table = text.split(begin)[1].split(end)[0].strip().splitlines()
    assert table == list(doc_rows())
