"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "6291456" in out
    assert "repro" in out


def test_scf_builtin(capsys):
    assert main(["scf", "h2"]) == 0
    out = capsys.readouterr().out
    assert "E(RHF/sto-3g)" in out
    assert "-1.11" in out


def test_scf_uhf_route(capsys):
    assert main(["scf", "li_atom", "--multiplicity", "2"]) == 0
    out = capsys.readouterr().out
    assert "UHF" in out and "<S^2>" in out


def test_scf_dft(capsys):
    assert main(["scf", "h2", "--method", "lda"]) == 0
    assert "E(LDA" in capsys.readouterr().out


def test_scf_unknown_molecule():
    with pytest.raises(SystemExit):
        main(["scf", "unobtainium"])


def test_scf_from_xyz(tmp_path, capsys):
    from repro.chem import builders, write_xyz

    path = tmp_path / "m.xyz"
    write_xyz(path, builders.h2())
    assert main(["scf", "--xyz", str(path)]) == 0
    assert "-1.11" in capsys.readouterr().out


def test_workload(capsys):
    assert main(["workload", "water", "--size", "8"]) == 0
    out = capsys.readouterr().out
    assert "pair tasks" in out


def test_scale_small(capsys):
    assert main(["scale", "--size", "8", "--racks", "0.25,1"]) == 0
    out = capsys.readouterr().out
    assert "efficiency" in out


def test_scale_with_baseline(capsys):
    assert main(["scale", "--size", "8", "--racks", "0.25,0.5",
                 "--baseline"]) == 0
    assert "t(legacy)" in capsys.readouterr().out


def test_scf_trace_writes_chrome_json(tmp_path, capsys):
    import json

    path = tmp_path / "trace.json"
    assert main(["scf", "h2", "--mode", "direct",
                 "--trace", str(path)]) == 0
    assert "trace:" in capsys.readouterr().out
    doc = json.loads(path.read_text())
    names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
    assert "scf.iteration" in names
    assert "jk.screen" in names
    assert {"batch.assemble", "batch.eval", "batch.scatter"} <= names
    assert "jk.quartet_batch" not in names


def test_scf_profile_table(capsys):
    assert main(["scf", "h2", "--mode", "direct", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "profile" in out
    assert "jk.build" in out
    assert "calls" in out


def test_scf_json_output(tmp_path, capsys):
    import json

    path = tmp_path / "trace.json"
    assert main(["scf", "h2", "--mode", "direct", "--json",
                 "--trace", str(path)]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)  # stdout is pure JSON
    assert doc["scf"]["converged"] is True
    assert abs(doc["scf"]["energy"] - -1.1166843872) < 1e-6
    assert doc["telemetry"]["nspans"] > 0


def test_scf_rejects_nonpositive_nworkers(capsys):
    with pytest.raises(SystemExit):
        main(["scf", "h2", "--nworkers", "0"])
    assert "positive integer" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["scf", "h2", "--nworkers", "many"])


@pytest.mark.parametrize("argv,key", [
    (["md", "h2", "--dt", "0"], "dt_fs"),
    (["scf", "h2", "--multiplicity", "0"], "multiplicity")])
def test_boundary_rows_refuse_md_and_geometry_flags(argv, key, capsys):
    """``--dt`` and ``--multiplicity`` are declared by their boundary
    rows: argparse refuses a value the row refuses, with its message."""
    from repro.runtime.boundary import KNOBS

    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert f"value must be {KNOBS[key].describe()}, got '0'" \
        in capsys.readouterr().err


def test_md_and_geometry_flag_defaults_are_the_rows():
    args = build_parser().parse_args(["md"])
    assert (args.dt, args.tau, args.seed, args.mts_outer, args.charge,
            args.multiplicity, args.mts_aspc_order) == \
        (0.5, 50.0, 0, 1, 0, 1, 2)
    assert [type(v) for v in (args.dt, args.tau, args.seed)] == \
        [float, float, int]
    args = build_parser().parse_args(
        ["scf", "--charge", "-1", "--multiplicity", "2"])
    assert (args.charge, args.multiplicity) == (-1, 2)


def test_scf_rejects_bad_pool_timeout_env(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_POOL_TIMEOUT", "not-a-number")
    with pytest.raises(SystemExit):
        main(["scf", "h2"])


def test_md_basic_run(capsys):
    assert main(["md", "h2", "--steps", "3"]) == 0
    out = capsys.readouterr().out
    assert "2 atoms" in out
    assert "steps 0..3" in out
    assert "drift" in out


def test_md_checkpoint_then_restore(tmp_path, capsys):
    ck = str(tmp_path / "ck")
    assert main(["md", "h2", "--steps", "4", "--checkpoint", ck,
                 "--checkpoint-every", "2"]) == 0
    out = capsys.readouterr().out
    assert f"checkpointing to '{ck}' every 2 steps" in out
    assert (tmp_path / "ck" / "latest").is_file()

    assert main(["md", "--restore", ck, "--steps", "6",
                 "--profile"]) == 0
    out = capsys.readouterr().out
    assert "at step 4" in out
    assert "steps 0..6" in out
    assert "restored from checkpoint: step 4" in out


def test_md_restore_missing_directory(tmp_path):
    with pytest.raises(SystemExit, match="does not exist"):
        main(["md", "--restore", str(tmp_path / "nope")])


def test_md_restore_needs_a_directory():
    with pytest.raises(SystemExit, match="needs a directory"):
        main(["md", "h2", "--restore"])


def test_md_thermostat_needs_temperature():
    with pytest.raises(SystemExit, match="--temperature"):
        main(["md", "h2", "--thermostat", "csvr"])


def test_md_rejects_bad_checkpoint_every():
    with pytest.raises(SystemExit):
        main(["md", "h2", "--checkpoint-every", "0"])


def test_md_json_output(tmp_path, capsys):
    import json

    assert main(["md", "h2", "--steps", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["md"]["steps"] == 2
    assert doc["md"]["restored_from"] is None
    assert doc["molecule"]["natom"] == 2


def test_campaign_submit_run_results(tmp_path, capsys):
    d = str(tmp_path / "camp")
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(
        '[{"kind": "scf", "molecule": "h2", "label": "one"},'
        ' {"kind": "scf", "molecule": "h2", "label": "dup"}]')
    assert main(["campaign", "--dir", d, "submit",
                 "--spec", str(spec_file)]) == 0
    out = capsys.readouterr().out
    assert "2 job(s) queued" in out

    assert main(["campaign", "--dir", d, "status"]) == 0
    assert "2 pending" in capsys.readouterr().out

    assert main(["campaign", "--dir", d, "run"]) == 0
    out = capsys.readouterr().out
    assert "2/2 completed" in out
    assert "1 cache hit(s)" in out
    assert "[cache]" in out

    assert main(["campaign", "--dir", d, "results"]) == 0
    out = capsys.readouterr().out
    assert "one" in out and "dup" in out and "done" in out


def test_campaign_run_process_transport(tmp_path, capsys):
    d = str(tmp_path / "camp")
    spec_file = tmp_path / "spec.json"
    spec_file.write_text('{"kind": "scf", "molecule": "h2"}')
    assert main(["campaign", "--dir", d, "submit",
                 "--spec", str(spec_file)]) == 0
    capsys.readouterr()
    assert main(["campaign", "--dir", d, "run",
                 "--transport", "process",
                 "--cache-dir", str(tmp_path / "shared-cache")]) == 0
    out = capsys.readouterr().out
    assert "1/1 completed" in out and "process lanes" in out
    # the shared cache dir (not <campaign>/cache) holds the record
    assert list((tmp_path / "shared-cache").glob("*.json"))
    # a second campaign pointed at the same cache is served for free
    d2 = str(tmp_path / "camp2")
    assert main(["campaign", "--dir", d2, "submit",
                 "--spec", str(spec_file)]) == 0
    capsys.readouterr()
    assert main(["campaign", "--dir", d2, "run",
                 "--cache-dir", str(tmp_path / "shared-cache")]) == 0
    assert "1 cache hit(s)" in capsys.readouterr().out


def test_campaign_run_json_report(tmp_path, capsys):
    import json

    d = str(tmp_path / "camp")
    spec_file = tmp_path / "spec.json"
    spec_file.write_text('{"kind": "md", "molecule": "h2", "steps": 2}')
    assert main(["campaign", "--dir", d, "submit",
                 "--spec", str(spec_file)]) == 0
    capsys.readouterr()
    assert main(["campaign", "--dir", d, "run", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "campaign_report"
    assert doc["completed"] == 1
    assert doc["counters"]["service.jobs_completed"] == 1


def test_campaign_failed_job_sets_exit_code(tmp_path, capsys, monkeypatch):
    d = str(tmp_path / "camp")
    spec_file = tmp_path / "spec.json"
    spec_file.write_text('{"kind": "scf", "molecule": "h2"}')
    assert main(["campaign", "--dir", d, "submit",
                 "--spec", str(spec_file)]) == 0
    monkeypatch.setenv("REPRO_SERVICE_FAULT", "job=0,times=5")
    assert main(["campaign", "--dir", d, "run",
                 "--max-retries", "0"]) == 1
    out = capsys.readouterr().out
    assert "InjectedWorkerDeath" in out


def test_campaign_submit_rejects_bad_spec_file(tmp_path):
    d = str(tmp_path / "camp")
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "scf", "molcule": "h2"}')
    with pytest.raises(SystemExit, match="bad spec"):
        main(["campaign", "--dir", d, "submit", "--spec", str(bad)])
    # a bad placement field is refused at submit time, not after the
    # lane has burnt the job's retry budget on it
    bad.write_text('{"kind": "scf", "molecule": "h2", "nworkers": 0}')
    with pytest.raises(SystemExit, match="bad spec.*JobSpec.nworkers"):
        main(["campaign", "--dir", d, "submit", "--spec", str(bad)])
    with pytest.raises(SystemExit, match="nothing to submit"):
        main(["campaign", "--dir", d, "submit"])


def test_campaign_screen_generator(tmp_path, capsys):
    d = str(tmp_path / "camp")
    assert main(["campaign", "--dir", d, "submit", "--screen",
                 "--solvents", "PC", "--methods", "hf",
                 "--nperturb", "2"]) == 0
    out = capsys.readouterr().out
    assert "2 job(s) queued" in out
    assert "PC/hf/p0/s0" in out and "PC/hf/p1/s0" in out


def test_md_mts_run(capsys):
    assert main(["md", "h2", "--steps", "3", "--dt", "0.2",
                 "--mts-outer", "3"]) == 0
    out = capsys.readouterr().out
    assert "MTS (r-RESPA): full HF force every 3 steps" in out
    assert "'ff' inner surface" in out
    assert "ASPC order 2" in out


def test_md_mts_aspc_off_and_inner_choice(capsys):
    assert main(["md", "h2", "--steps", "2", "--dt", "0.2",
                 "--mts-outer", "2", "--mts-inner", "lda",
                 "--mts-aspc-order", "-1"]) == 0
    out = capsys.readouterr().out
    assert "'lda' inner surface" in out
    assert "ASPC off" in out


def test_md_rejects_bad_mts_outer(capsys):
    with pytest.raises(SystemExit):
        main(["md", "h2", "--steps", "2", "--mts-outer", "0"])
    assert "--mts-outer: value must be a positive integer" \
        in capsys.readouterr().err


def test_open_shell_kohn_sham_is_a_clean_error():
    with pytest.raises(SystemExit, match="no unrestricted Kohn-Sham"):
        main(["scf", "o2", "--multiplicity", "3", "--method", "pbe0"])


def test_md_mts_checkpoint_then_restore(tmp_path, capsys):
    """--restore revives the MTS runner (kind-dispatched) and keeps
    the r-RESPA cadence without re-passing --mts-outer."""
    ck = str(tmp_path / "ck")
    assert main(["md", "h2", "--steps", "2", "--dt", "0.2",
                 "--mts-outer", "2", "--checkpoint", ck,
                 "--checkpoint-every", "1"]) == 0
    capsys.readouterr()
    assert main(["md", "--restore", ck, "--steps", "4"]) == 0
    out = capsys.readouterr().out
    assert "at step 2" in out
    assert "steps 0..4" in out


def test_campaign_screen_mts_axis(tmp_path, capsys):
    d = str(tmp_path / "camp")
    assert main(["campaign", "--dir", d, "submit", "--screen",
                 "--solvents", "PC", "--methods", "hf",
                 "--kind", "md", "--steps", "2",
                 "--mts-outers", "1,5"]) == 0
    out = capsys.readouterr().out
    assert "2 job(s) queued" in out
    assert "PC/hf/p0/s0/mts1" in out and "PC/hf/p0/s0/mts5" in out
