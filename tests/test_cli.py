import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import islandsis
from islandsis.harness.cli import main

BASE = {
    "topology": {"generator": "bipartite"},
    "sizes": 30,
    "strains": [{"gamma": 2.0, "mu": 1.0}],
    "initial": {"kind": "uniform", "fraction": 0.2},
    "t_end": 2.0,
    "grid": 5,
    "replications": 2,
    "seed": 3,
}


def write_cfg(tmp_path, name="cfg.yaml", **overrides):
    raw = dict(BASE, **overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


def test_simulate_then_compare(tmp_path, capsys):
    cfg = write_cfg(tmp_path, sizes=200)
    out = tmp_path / "run"
    assert main(["simulate", str(cfg), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    assert (out / "traj_rep0000.csv").exists()
    assert main(["compare", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "compare_report.json").read_text())
    assert "sup_deviation" in report


def test_compare_failure_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, sizes=200, compare={"max_deviation": 1e-12})
    out = tmp_path / "run"
    assert main(["simulate", str(cfg), "--out", str(out)]) == 0
    assert main(["compare", str(cfg), "--out", str(out)]) == 1


def test_compare_starts_the_ode_from_the_initial_counts(tmp_path, capsys):
    # The grid need not contain t=0: without it the deviation is the same as with it
    deviations = []
    for name, grid in (("with_zero", [0, 1.5, 3]), ("without_zero", [1.5, 3])):
        cfg = write_cfg(tmp_path, name=f"{name}.yaml", sizes=2000, replications=4, t_end=3.0,
                        grid=grid, initial={"kind": "uniform", "fraction": 0.05})
        out = tmp_path / name
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        assert main(["compare", str(cfg), "--out", str(out)]) == 0
        deviations.append(json.loads((out / "compare_report.json").read_text())["sup_deviation"])
    assert deviations[1] == deviations[0] < 0.02


def test_compare_refuses_a_run_of_another_model(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", str(write_cfg(tmp_path, sizes=200)), "--out", str(out)]) == 0
    capsys.readouterr()
    for name, overrides, field in (
        ("rates", {"sizes": 200, "strains": [{"gamma": 0.5, "mu": 1.0}]}, "strains"),
        ("sizes", {"sizes": 50}, "sizes"),
    ):
        cfg = write_cfg(tmp_path, name=f"{name}.yaml", **overrides)
        assert main(["compare", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {field}: "), err
    assert not (out / "compare_report.json").exists()


def test_compare_refuses_a_run_from_other_initial_counts(tmp_path, capsys):
    grid_cfg = dict(sizes=200, replications=4, t_end=3.0, grid=[1.5, 3])
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, initial={"kind": "uniform", "fraction": 0.05}, **grid_cfg)
    assert main(["simulate", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["initial_counts"] == [[10], [10]]
    capsys.readouterr()
    other = write_cfg(tmp_path, name="other.yaml", initial={"kind": "uniform", "fraction": 0.4},
                      **grid_cfg)
    assert main(["compare", str(other), "--out", str(out)]) == 2
    # a manifest that does not record its initial counts is refused too
    del manifest["initial_counts"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["compare", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("config error: initial: ") for line in err), err
    assert not (out / "compare_report.json").exists()


def test_meanfield_and_plotdata(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "mf"
    assert main(["meanfield", str(cfg), "--out", str(out)]) == 0
    plot_cfg = write_cfg(
        tmp_path,
        name="plot.yaml",
        plotdata={"inputs": [str(out / "meanfield.csv")], "mode": "series"},
    )
    assert main(["plotdata", str(plot_cfg), "--out", str(out)]) == 0
    header = (out / "plotdata.csv").read_text().splitlines()[0]
    assert header == "time,series,value"


def test_classify_single_and_multi(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["classify", str(cfg), "--out", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "persistence" and payload["level"] == 0.5

    multi = write_cfg(
        tmp_path, name="multi.yaml",
        topology={"generator": "cycle", "islands": 4},
        strains=[{"gamma": 0.8}, {"gamma": 0.6}],
        initial={"kind": "uniform", "fraction": [0.1, 0.1]},
    )
    assert main(["classify", str(multi), "--out", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["strain"] == 1 and payload["superdegree"] == 2

    tied = write_cfg(
        tmp_path, name="tied.yaml",
        strains=[{"gamma": 2.0}, {"gamma": 2.0}],
        initial={"kind": "uniform", "fraction": [0.1, 0.1]},
    )
    assert main(["classify", str(tied), "--out", str(tmp_path)]) == 2


def test_taylor_subcommand(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        topology={"generator": "cycle", "islands": 6},
        sizes=10,
        initial={"kind": "single_island", "island": 1, "fraction": 0.5},
        taylor_order=4,
    )
    out = tmp_path / "ty"
    assert main(["taylor", str(cfg), "--out", str(out)]) == 0
    table = json.loads((out / "taylor_table.json").read_text())
    assert table["n_max"] == 4
    # three hops from the seeded island, orders 0..2 vanish
    assert table["coefficients"]["island4:strain1"][:3] == [0.0, 0.0, 0.0]


def test_taylor_coefficients_are_in_the_config_time(tmp_path):
    # dy/dt of the mu = 2 system at (0.3, 0.1) is (2*0.1*0.7 - 2*0.3, 2*0.3*0.9 - 2*0.1)
    cfg = write_cfg(tmp_path, sizes=10, strains=[{"gamma": 2.0, "mu": 2.0}],
                    initial={"kind": "matrix", "values": [[0.3], [0.1]]})
    out = tmp_path / "ty"
    assert main(["taylor", str(cfg), "--out", str(out)]) == 0
    coeff = json.loads((out / "taylor_table.json").read_text())["coefficients"]
    rows = [coeff[f"island{i}:strain1"][n] for n in (1, 2) for i in (1, 2)]
    assert rows == pytest.approx([-0.46, 0.34, 0.744, -0.856], rel=0, abs=1e-12)


def test_taylor_overflow_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg = write_cfg(tmp_path, topology={"generator": "cycle", "islands": 6}, sizes=10,
                    strains=[{"gamma": 1e200}], taylor_order=12,
                    initial={"kind": "single_island", "island": 1, "fraction": 0.5})
    out = tmp_path / "ty"
    assert main(["taylor", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: Taylor coefficients of order 2 "), err
    assert not out.exists()


def test_suite_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path, suite=["taylor", "appendix"])
    out = tmp_path / "suite"
    assert main(["suite", str(cfg), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert any(line.startswith("[PASS] taylor:") for line in lines)
    report = json.loads((out / "suite_report.json").read_text())
    assert report["passed"] is True


def test_converge_subcommand(tmp_path):
    cfg = write_cfg(
        tmp_path,
        size_schedule=[50, 100, 200],
        replications=8,
        t_end=2.0,
        grid=5,
        seed=7,
    )
    out = tmp_path / "conv"
    assert main(["converge", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "convergence_report.json").read_text())
    assert report["monotone_trend"] is True


def test_converge_trend_failure_maps_to_exit_1(tmp_path, monkeypatch):
    from islandsis.harness import cli
    from islandsis.harness.experiments import ConvergenceRecord, ConvergenceReport

    fake = ConvergenceReport(
        records=[ConvergenceRecord(10, 1, 0.1, 0.0), ConvergenceRecord(20, 1, 0.2, 0.0)],
        monotone_trend=False,
        tolerance_heuristic="n/a",
    )
    monkeypatch.setattr(cli, "run_converge", lambda cfg, out: fake)
    cfg = write_cfg(tmp_path, size_schedule=[10, 20, 40])
    assert main(["converge", str(cfg), "--out", str(tmp_path / "c")]) == 1


def test_config_error_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.yaml"
    assert main(["simulate", str(missing)]) == 2

    bad = tmp_path / "bad.yaml"
    bad.write_text("topology: [not, a, mapping\n")
    assert main(["simulate", str(bad)]) == 2

    incomplete = write_cfg(tmp_path, name="inc.yaml")
    raw = yaml.safe_load(incomplete.read_text())
    del raw["t_end"]
    incomplete.write_text(yaml.safe_dump(raw))
    assert main(["simulate", str(incomplete), "--out", str(tmp_path / "x")]) == 2
    assert "t_end" in capsys.readouterr().err

    unknown_suite = write_cfg(tmp_path, name="us.yaml", suite="bogus")
    assert main(["suite", str(unknown_suite)]) == 2


@pytest.mark.parametrize("command, overrides, field", [
    ("meanfield", {"strains": [2.0]}, "strains[0]"),
    ("classify", {"strains": [2.0]}, "strains[0]"),
    ("meanfield", {"strains": [{"gamma": 2.0, "mu": "fast"}]}, "strains[0].mu"),
    ("simulate", {"initial": {"kind": "uniform", "fraction": {"a": 1}}}, "initial.fraction"),
    ("simulate", {"topology": {"generator": "custom", "edges": [1, 2]}, "sizes": [3, 3]},
     "topology.edges[0]"),
    ("compare", {"compare": 5}, "compare"),
    ("meanfield", {"initial": {"kind": "matrix", "values": {"a": 1}}}, "initial.values"),
    ("meanfield", {"initial": {"kind": "matrix", "values": [[0.1], ["x"]]}}, "initial.values[1][0]"),
    ("meanfield", {"grid": [0, [1]]}, "grid[1]"),
    ("meanfield", {"grid": [0, "x"]}, "grid[1]"),
    ("suite", {"suite": 5}, "suite"),
    ("plotdata", {"plotdata": {"output": 5}}, "plotdata.output"),
    ("plotdata", {"plotdata": {"inputs": [5]}}, "plotdata.inputs[0]"),
    ("simulate", {"topology": {"generator": "custom", "edges": [[[1], 2]]}, "sizes": [3, 3]},
     "topology.edges[0][0]"),
    ("simulate", {"topology": {"generator": "custom", "edges": [["a", 2]]}, "sizes": [3, 3]},
     "topology.edges[0][0]"),
    ("simulate", {"t_end": float("inf")}, "t_end"),
    ("meanfield", {"t_end": float("inf")}, "t_end"),
    ("simulate", {"t_end": float("nan")}, "t_end"),
    ("taylor", {"taylor_order": 13}, "taylor_order"),
    # found by tests/test_cli_fuzz.py or next to what it found
    ("simulate", {"topology": None}, "topology"),
    ("simulate", {"integrator": {1: 2}}, "integrator"),
    ("meanfield", {"t_end": 5e-324}, "grid"),
    ("meanfield", {"strains": [{"gamma": 2.0, "mu": 5e-324}]}, "strains"),
    ("meanfield", {"integrator": {"method": "rk4", "fixed_step": 1e-300}}, "integrator.fixed_step"),
    ("simulate", {"sizes": [2**70, 3]}, "sizes[0]"),
    ("converge", {"size_schedule": [4, 8, 2**70]}, "size_schedule[2]"),
    ("simulate", {"strains": [{"gamma": 1.0e308}]}, "strains"),
    ("meanfield", {"integrator": {"method": "euler"}}, "integrator.method"),
], ids=["strain-not-mapping-meanfield", "strain-not-mapping-classify", "mu-not-number",
        "fraction-not-number", "edge-not-pair", "compare-not-mapping", "values-not-rows",
        "value-not-number", "grid-entry-list", "grid-entry-string", "suite-not-name",
        "plot-output-not-string", "plot-input-not-string", "edge-label-list", "edge-label-string",
        "t_end-inf-simulate", "t_end-inf-meanfield", "t_end-nan", "taylor-order-too-high",
        "topology-null", "non-string-key", "grid-collapses", "rates-overflow", "rk4-over-budget",
        "size-beyond-2**53", "schedule-size-beyond-2**53", "event-rates-overflow",
        "unknown-method"])
def test_wrong_type_exits_2_naming_the_field(tmp_path, capsys, command, overrides, field):
    cfg = write_cfg(tmp_path, **overrides)
    assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {field}: "), err


def test_internal_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    from islandsis.harness import cli

    def broken(cfg, out):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr(cli, "run_simulate", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["simulate", str(write_cfg(tmp_path)), "--out", str(tmp_path / "out")])


def test_out_key_must_be_a_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ISLANDSIS_OUT", raising=False)
    assert main(["simulate", str(write_cfg(tmp_path, out=5))]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: out: "), err


def _tree(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


@pytest.mark.parametrize("command", ["simulate", "meanfield", "converge", "taylor", "suite"])
@pytest.mark.parametrize("out", ["cfg.yaml", "cfg.yaml/sub"], ids=["a-file", "under-a-file"])
def test_out_that_cannot_be_a_directory_exits_2_before_any_work(tmp_path, capsys, command, out):
    cfg = write_cfg(tmp_path, size_schedule=[10, 20, 40], suite="taylor")
    before = _tree(tmp_path)
    assert main([command, str(cfg), "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == f"config error: out: {cfg} is not a directory", err
    assert _tree(tmp_path) == before


def test_plotdata_output_naming_a_directory_exits_2(tmp_path, capsys):
    (tmp_path / "out" / "plot").mkdir(parents=True)
    cfg = write_cfg(tmp_path, plotdata={"output": "plot"})
    assert main(["plotdata", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: plotdata.output: "), err
    assert _tree(tmp_path / "out") == ["plot"]


def test_plotdata_input_that_is_no_trajectory_exits_2(tmp_path, capsys):
    other = tmp_path / "x.csv"
    other.write_text("a,b\n1,2\n")
    cfg = write_cfg(tmp_path, plotdata={"inputs": [str(other)]})
    assert main(["plotdata", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: plotdata.inputs: {other}: "), err


def _drop_files(run):
    manifest = json.loads((run / "manifest.json").read_text())
    del manifest["files"]
    (run / "manifest.json").write_text(json.dumps(manifest))


def _append_short_row(run):
    with open(run / "traj_rep0000.csv", "a") as fh:
        fh.write("1,2\n")


@pytest.mark.parametrize("damage, overrides, field", [
    (_drop_files, {}, "out"),
    (lambda run: (run / "traj_rep0001.csv").unlink(), {}, "out"),
    (lambda run: (run / "manifest.json").write_text("{not json"), {}, "out"),
    (_append_short_row, {}, "out"),
    (lambda run: None, {"compare": {"max_deviation": {"a": 1}}}, "compare.max_deviation"),
], ids=["manifest-without-files", "csv-deleted", "manifest-not-json", "short-csv-row",
        "max-deviation-not-number"])
def test_compare_on_a_bad_run_exits_2_naming_the_field(tmp_path, capsys, damage, overrides, field):
    cfg = write_cfg(tmp_path, **overrides)
    run = tmp_path / "run"
    assert main(["simulate", str(cfg), "--out", str(run)]) == 0
    damage(run)
    capsys.readouterr()
    assert main(["compare", str(cfg), "--out", str(run)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {field}: "), err
    assert not (run / "compare_report.json").exists()


# A two-strain run with unequal island sizes, one strain given per ordered
# pair and one uniform, and mu != 1, as written before the micro rates moved
# from a (k, j, i) dict to rows over the directed island edges.
PINNED_SIMULATE = {
    "topology": {"generator": "bipartite"},
    "sizes": [40, 25],
    "strains": [{"gamma": {"1->2": 2.5, "2->1": 1.5}, "mu": 1.3}, {"gamma": 1.75, "mu": 1.3}],
    "initial": {"kind": "uniform", "fraction": [0.1, 0.15]},
    "t_end": 4.0,
    "grid": 9,
    "replications": 1,
    "seed": 17,
}
PINNED_TRAJ_SHA256 = "638c403b6f300a8d53709934c2ee03218d50c3239ed5faa80498d9c25b02a9d5"
PINNED_PARAMS_HASH = "40b5d97345553f52d99d1abb65b2c852e8d6caf027628cc5447024d00458f03d"


def test_simulate_bytes_and_params_hash_are_pinned(tmp_path, capsys):
    path = tmp_path / "pin.yaml"
    path.write_text(yaml.safe_dump(PINNED_SIMULATE))
    out = tmp_path / "run"
    assert main(["simulate", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["params_hash"] == PINNED_PARAMS_HASH
    assert hashlib.sha256((out / "traj_rep0000.csv").read_bytes()).hexdigest() == PINNED_TRAJ_SHA256


def test_seed_override_changes_bytes(tmp_path):
    cfg = write_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", str(cfg), "--out", str(a)]) == 0
    assert main(["simulate", str(cfg), "--out", str(b), "--seed", "99"]) == 0
    assert (a / "traj_rep0000.csv").read_bytes() != (b / "traj_rep0000.csv").read_bytes()


def test_env_out_override(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path)
    envdir = tmp_path / "from_env"
    monkeypatch.setenv("ISLANDSIS_OUT", str(envdir))
    assert main(["meanfield", str(cfg)]) == 0
    assert (envdir / "meanfield.csv").exists()
    # an explicit flag wins over the environment
    flagdir = tmp_path / "from_flag"
    assert main(["meanfield", str(cfg), "--out", str(flagdir)]) == 0
    assert (flagdir / "meanfield.csv").exists()


def test_integration_failure_exits_2(tmp_path, capsys):
    # RK4 with step 0.5 is unstable at gamma 50 and leaves the simplex
    cfg = write_cfg(
        tmp_path,
        strains=[{"gamma": 50.0, "mu": 1.0}],
        t_end=5.0,
        integrator={"method": "rk4", "fixed_step": 0.5},
    )
    assert main(["meanfield", str(cfg), "--out", str(tmp_path / "mf")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("integration error: "), err


# sha256 of meanfield.csv for the BASE config, as written before the manifest
# gained its stats block; the integrator counts must not reach the CSV.
BASE_MEANFIELD_CSV_SHA256 = "67b6408b5efad556461b84ae2f192496559e95e082da20a5012fddb7313b657b"


def test_meanfield_manifest_stats_leave_csv_unchanged(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "mf"
    assert main(["meanfield", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "meanfield_manifest.json").read_text())
    assert manifest["stats"] == {"n_steps": 18, "n_rejected": 2}
    data = (out / "meanfield.csv").read_bytes()
    assert b"n_steps" not in data and b"n_rejected" not in data
    assert hashlib.sha256(data).hexdigest() == BASE_MEANFIELD_CSV_SHA256


def test_cli_import_leaves_scipy_out():
    # scipy costs every CLI call its import time; only tests may load it
    src = str(Path(islandsis.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, islandsis.harness.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            check=True, timeout=60)
    assert result.stdout.strip() == "[]"
