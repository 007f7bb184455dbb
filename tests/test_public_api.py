"""Public-API surface tests: the names README documents must exist and
compose the way the quickstart shows."""

import numpy as np


def test_top_level_exports():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_quickstart_composition():
    """The README quickstart, condensed."""
    from repro import (HFXScheme, bgq_racks, builders,
                       distributed_exchange, run_rks, water_box_workload)

    res = run_rks(builders.water(), functional="pbe0", conv_tol=1e-6)
    K, commlog, tasks, part = distributed_exchange(res.basis, res.D,
                                                   nranks=4, eps=1e-10)
    ex = -0.25 * float(np.einsum("pq,pq->", K, res.D))
    assert abs(ex - res.exchange_energy) < 1e-6

    wl = water_box_workload(8, eps=1e-7)
    cfg = bgq_racks(0.25)
    bt = HFXScheme(wl.split(wl.total_flops / (cfg.nranks * 4)),
                   cfg, flop_scale=50).simulate()
    assert bt.makespan > 0


def test_subpackage_docstrings():
    """Every subpackage documents itself (the docs deliverable)."""
    import repro

    for name in ("chem", "basis", "integrals", "scf", "hfx", "machine",
                 "runtime", "md", "liair", "analysis"):
        mod = getattr(repro, name)
        assert mod.__doc__ and len(mod.__doc__) > 20, name


def test_electrolyte_workload_api():
    from repro.hfx import electrolyte_workload

    wl = electrolyte_workload("DMSO", n_solvent=4, eps=1e-6)
    assert wl.ntasks > 0
    assert "DMSO" in wl.label


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_engine_surface_is_public_and_dead_wood_is_gone():
    import repro.runtime
    import repro.scf

    for name in ("JKEngine", "TensorJKEngine", "DirectJKBuilder",
                 "RIJKBuilder", "make_jk_engine"):
        assert name in repro.scf.__all__ and hasattr(repro.scf, name), name
    assert "PoolLease" in repro.runtime.__all__
    for name in ("Timer", "Trace", "TraceEvent"):
        assert not hasattr(repro.runtime, name), name


def _calls_under_src(callee: str) -> set[str]:
    """``module:function`` of every call to ``callee`` under
    ``src/repro`` (``module`` alone for a call at module level)."""
    import ast
    import pathlib

    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    callers = set()
    for path in sorted(src.rglob("*.py")):
        mod = path.relative_to(src).as_posix()

        def walk(node, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    walk(child, child.name)
                    continue
                if isinstance(child, ast.Call):
                    f = child.func
                    name = f.attr if isinstance(f, ast.Attribute) else (
                        f.id if isinstance(f, ast.Name) else None)
                    if name == callee:
                        callers.add(f"{mod}:{where}" if where else mod)
                walk(child, where)

        walk(ast.parse(path.read_text()), None)
    return callers


def test_one_rank_loop_and_one_clock():
    """Every rank job runs through the one rank loop, whose executor
    knows nothing about J/K or RI, and the tracer keeps one (wall)
    clock: the machine model's communicator and simulated timeline are
    gone."""
    import ast
    import pathlib

    import repro.runtime
    from repro.runtime.pool import ExchangeWorkerPool, PoolLease
    from repro.runtime.telemetry import NullTracer, Span, Tracer

    assert _calls_under_src("run_rank_jobs") == {
        "runtime/pool.py:_worker_main", "runtime/pool.py:map"}
    assert _calls_under_src("eval_screened_pairs") == set()
    assert _calls_under_src("three_center_slab") == {
        "scf/ri_jk.py:_slab_unit"}
    for name in ("exchange", "ri3c"):
        assert not hasattr(ExchangeWorkerPool, name), name
    assert not hasattr(PoolLease, "run")
    pool_src = (pathlib.Path(__file__).resolve().parents[1] / "src"
                / "repro" / "runtime" / "pool.py")
    package, imported = ["repro", "runtime"], set()
    for node in ast.walk(ast.parse(pool_src.read_text())):
        if isinstance(node, ast.ImportFrom):
            head = package[:len(package) + 1 - node.level] \
                if node.level else []
            imported.add(".".join(head + [node.module or ""]).rstrip("."))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert "repro.integrals.eri" in imported      # the resolver sees it
    assert not [m for m in imported
                if m.startswith(("repro.scf", "repro.integrals.ri"))]
    assert {c.split("/")[0] for c in _calls_under_src("PoolLease")} == {
        "scf"}
    for name in ("SimWorld", "CommLog"):
        assert not hasattr(repro.runtime, name), name
        assert name not in repro.runtime.__all__, name
    for cls in (Tracer, NullTracer):
        assert not hasattr(cls, "add_logical"), cls
    assert "clock" not in Span.__dataclass_fields__


def test_the_model_lives_in_machine_and_prices_one_way():
    """``repro.runtime`` holds only code that executes: the modelled
    thread and SIMD models live in ``repro.machine``, nothing under
    ``src/repro/runtime`` imports ``repro.machine``, and the second
    rate, schedule, comm pricer and wrappers are gone."""
    import ast
    import pathlib

    import repro.machine
    import repro.runtime
    from repro.hfx.baseline import ReplicatedDynamicBaseline
    from repro.machine import BGQConfig, NodeComputeModel, collectives

    for name in ("ThreadTeam", "ScheduleResult", "SIMDModel",
                 "KernelProfile", "ERI_KERNEL", "DGEMM_KERNEL",
                 "SCALAR_KERNEL"):
        assert not hasattr(repro.runtime, name), name
        assert name not in repro.runtime.__all__, name
        assert name in repro.machine.__all__, name
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    assert not (src / "runtime" / "threads.py").exists()
    assert not (src / "runtime" / "simd.py").exists()
    for path in sorted((src / "runtime").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                mod = ("." * node.level) + (node.module or "")
                names = [mod] + [f"{mod}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert not [n for n in names if n.startswith(
                ("repro.machine", "..machine"))], (path.name, names)
    for owner, name in ((BGQConfig, "thread_flops"),
                        (BGQConfig, "rank_flops"),
                        (NodeComputeModel, "compute_time_uniform"),
                        (ReplicatedDynamicBaseline, "_comm_time"),
                        (collectives, "allreduce_time"),
                        (collectives, "allgather_time"),
                        (collectives, "broadcast_time"),
                        (repro.machine.simulator, "_rank_compute_times")):
        assert not hasattr(owner, name), name
    assert "kernel" not in NodeComputeModel.__dataclass_fields__
    assert len(NodeComputeModel.__dataclass_fields__) == 6


def test_one_jk_route_and_one_driver_rule():
    """The in-core/direct choice is made in ``make_jk_engine`` alone: no
    other function under ``src/repro`` constructs one of the engines it
    picks between (``distributed_exchange`` runs the plain full build
    on purpose), and the retired route helpers are gone.  The method
    rule is ``scf_driver``'s: the other constructions of a driver are
    the ``run_*`` one-liners and the attack profile's recipes."""
    import pathlib

    for engine in ("TensorJKEngine", "IncrementalExchange", "RIJKBuilder"):
        assert _calls_under_src(engine) == {"scf/fock.py:make_jk_engine"}, \
            engine
    assert _calls_under_src("DirectJKBuilder") == {
        "hfx/scheme.py:distributed_exchange"}
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        for name in ("jk_build_mode", "check_jk_mode"):
            assert name not in text, (path.name, name)
    recipes = {"liair/degradation.py:_energy",
               "liair/degradation.py:_fragment_guess"}
    assert _calls_under_src("RHF") == {"scf/route.py:scf_driver",
                                       "scf/rhf.py:run_rhf"}
    assert _calls_under_src("RKS") == recipes | {"scf/route.py:scf_driver",
                                                 "scf/dft.py:run_rks"}
    assert _calls_under_src("UHF") == recipes | {"scf/route.py:scf_driver",
                                                 "scf/uhf.py:run_uhf"}


def test_one_jk_accumulation():
    """Both quartet evaluators feed the one four-image accumulation: no
    per-quartet scatter (or its permutation table), no per-slot class
    scatter (or its slot table, block gather and ``np.add.at`` helper)
    and no triangle reflection is defined, imported, exported or
    referenced under ``src/repro``, and the reference evaluator
    ``ERIEngine.quartet`` is called only by the rank-job unit."""
    import ast
    import pathlib

    gone = {"scatter_exchange", "scatter_coulomb", "_PERM_TABLE",
            "_build_perm_table", "_slot_table", "_SLOT_ACTIVE",
            "_gather_blocks", "_add_blocks", "scatter_exchange_batch",
            "scatter_coulomb_batch", "reflect_triangle"}
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, attr, None)
                     for attr in ("id", "attr", "name", "asname")}
            if isinstance(node, ast.Constant):
                names.add(node.value)
            assert not names & gone, (path.name, node.lineno, names & gone)
    assert _calls_under_src("quartet") == {"scf/fock.py:eval_screened_pairs"}


def test_one_pair_table():
    """Every ERI walk reads the pair classes: the per-pair auxiliary
    pair, its table, the pair grouping, the unique-pair helper and the
    per-pair stacking, the L-class grouping of a quartet list and its
    engine method are not defined, imported, exported or referenced
    under ``src/repro``; the per-quartet reference's ``ShellPair``, its
    ``shell_pairs()`` table and its ``hermite_lambda`` appear only in
    ``basis/``, ``integrals/eri.py`` and ``eri_quartet_batch``; the
    tensor walk and the derivative walk take their rows from the block
    walk, so neither lists every unique quartet (``np.triu_indices``)
    and one lookup (``PairClasses.locate``), in the class batch, finds
    the class rows of a bare quartet list."""
    import ast
    import inspect
    import pathlib

    from repro.integrals import ERIEngine, schwarz_bounds

    gone = {"AuxShellPair", "aux_hermite_pairs", "pair_class_groups",
            "unique_shell_pairs", "_stack_pairs", "quartet_class_groups",
            "group_quartets"}
    reference = {"ShellPair", "shell_pairs", "hermite_lambda"}
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    readers = set()
    for path in sorted(src.rglob("*.py")):
        mod = path.relative_to(src).as_posix()

        def walk(node, where):
            for child in ast.iter_child_nodes(node):
                names = {getattr(child, attr, None)
                         for attr in ("id", "attr", "name", "asname")}
                if isinstance(child, ast.Constant):
                    names.add(child.value)
                assert not names & gone, (mod, child.lineno, names & gone)
                if names & reference:
                    readers.add((mod, where))
                walk(child, where or (
                    child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef))
                    else None))

        walk(ast.parse(path.read_text()), None)
    assert {(mod, where) for mod, where in readers
            if not mod.startswith("basis/") and mod != "integrals/eri.py"} \
        <= {("integrals/batch.py", "eri_quartet_batch")}
    assert not hasattr(ERIEngine, "pairs")
    assert list(inspect.signature(schwarz_bounds).parameters) == ["basis"]
    assert _calls_under_src("locate") == {"integrals/eri.py:_class_batch"}
    assert not {caller for caller in _calls_under_src("triu_indices")
                if caller.partition(":")[0] in ("integrals/eri.py",
                                                "scf/gradient.py")}


def test_one_boundary_codec():
    """No byte from a socket, pipe or disk runs code: under
    ``src/repro`` only ``runtime/checkpoint.py`` imports ``pickle``, and
    ``pickle.loads`` is the one use of it, in the v1 snapshot reader;
    the pool's pipes carry bytes only (``send_bytes``/``recv_bytes``,
    never ``Connection.send``/``.recv``); and the three boundary modules
    encode and decode through :mod:`repro.runtime.codec`."""
    import ast
    import pathlib

    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    importers, uses, codec_uses = set(), set(), {}
    for path in sorted(src.rglob("*.py")):
        mod = path.relative_to(src).as_posix()

        def walk(node, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Import):
                    if any(a.name == "pickle" for a in child.names):
                        importers.add(mod)
                elif isinstance(child, ast.ImportFrom):
                    if child.module == "pickle":
                        importers.add(mod)
                elif isinstance(child, ast.Attribute) and \
                        isinstance(child.value, ast.Name):
                    if child.value.id == "pickle":
                        uses.add((mod, where, child.attr))
                    if child.value.id == "codec":
                        codec_uses.setdefault(mod, set()).add(child.attr)
                walk(child, child.name if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    else where)

        walk(ast.parse(path.read_text()), None)
    assert importers == {"runtime/checkpoint.py"}
    assert uses == {("runtime/checkpoint.py", "_load_v1", "loads")}
    for mod in ("runtime/pool.py", "service/transport.py",
                "runtime/checkpoint.py"):
        assert {"encode", "decode"} <= codec_uses.get(mod, set()), mod
    pool_calls = {c.func.attr for c in ast.walk(ast.parse(
        (src / "runtime" / "pool.py").read_text()))
        if isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)}
    assert not pool_calls & {"send", "recv"}
    assert {"send_bytes", "recv_bytes"} <= pool_calls
