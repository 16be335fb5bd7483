import ast
import hashlib
import json
import os
import re
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


def test_rk4_overflow_prints_one_integration_error_line(tmp_path):
    # in a process of its own, so numpy's warnings reach stderr as a user sees them
    cfg = write_cfg(tmp_path, sizes=10, strains=[{"gamma": 1e150}], t_end=1, grid=3,
                    initial={"kind": "uniform", "fraction": 0.1})
    src = str(Path(islandsis.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-m", "islandsis.harness.cli", "meanfield", str(cfg),
                             "--out", str(tmp_path / "out")],
                            env=env, capture_output=True, text=True, timeout=60)
    err = result.stderr.splitlines()
    assert result.returncode == 2
    assert len(err) == 1 and err[0].startswith("integration error: step size underflow"), err


def test_suite_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path, suite=["taylor", "appendix"])
    out = tmp_path / "suite"
    assert main(["suite", str(cfg), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert any(line.startswith("[PASS] taylor:") for line in lines)
    report = json.loads((out / "suite_report.json").read_text())
    assert report["passed"] is True


# sha256 of suite_report.json for all six suites: every check's recorded figures, pinned
PINNED_SUITE_REPORT_SHA256 = "a08b21f457392174ace20b988f2ea793f8ae8003075cf6b8cc62317a906e4338"


def test_suite_runs_all_six_suites_by_default(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["suite", str(cfg), "--out", str(tmp_path / "suite")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 27 and all(line.startswith("[PASS] ") for line in lines), lines
    assert {line.split()[1].split(":")[0] for line in lines} == {
        "bipartite-single", "bipartite-bivirus", "regular-single", "regular-multivirus",
        "taylor", "appendix"}
    report = (tmp_path / "suite" / "suite_report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == PINNED_SUITE_REPORT_SHA256


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


def test_converge_refuses_a_bad_integrator_before_simulating(tmp_path, monkeypatch, capsys):
    from islandsis.harness import experiments

    calls = []
    monkeypatch.setattr(experiments, "simulate", lambda *args, **kwargs: calls.append(args))
    cfg = write_cfg(tmp_path, size_schedule=[10, 20, 40], integrator={"rtol": -1.0})
    assert main(["converge", str(cfg), "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: integrator.rtol: "), err
    assert calls == []


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
    # the generator is checked before the section is read further
    ("simulate", {"topology": {"generator": "foo"}}, "topology.generator"),
    ("simulate", {"topology": {"generator": [1]}}, "topology.generator"),
    ("simulate", {"topology": {"generator": None}}, "topology.generator"),
    # mu * t_end overflows: refused before the integrator runs to an infinite horizon
    ("meanfield", {"sizes": 10, "strains": [{"gamma": 1.0e300, "mu": 1.0e300}], "t_end": 1.0e10,
                   "grid": [0, 1.0e10]}, "strains.mu"),
    ("meanfield", {"sizes": 10, "strains": [{"gamma": 1.0e300, "mu": 1.0e300}], "t_end": 1.0e10,
                   "grid": 5}, "strains.mu"),
    ("simulate", {"topology": {"generator": "custom", "edges": [[1, 2]]}, "sizes": 3}, "sizes"),
    ("simulate", {"sizes": [3, 3, 3]}, "sizes"),
    ("converge", {"size_schedule": [10, 20]}, "size_schedule"),
    ("simulate", {"topology": {"generator": "custom", "edges": [[1, 1]]}, "sizes": [3, 3]},
     "topology"),
    ("simulate", {"topology": {"generator": "cycle", "islands": 2}}, "topology"),
    ("simulate", {"strains": [{"gamma": {"1-2": 2.0}}]}, "strains[0].gamma"),
    ("simulate", {"initial": {"kind": "uniform", "fraction": [0.1, 0.1]}}, "initial.fraction"),
    ("simulate", {"initial": {"kind": "single_island", "island": 5, "fraction": 0.1}}, "initial"),
    ("simulate", {"strains": [{"gamma": 2.0}, {"gamma": 1.5}],
                  "initial": {"kind": "uniform", "fraction": 0.6}}, "initial"),
    ("simulate", {"t_end": 10**400}, "t_end"),
    ("plotdata", {"plotdata": {"inputs": "x"}}, "plotdata.inputs"),
    ("plotdata", {"plotdata": {"inputs": ["no-such-trajectory.csv"]}}, "plotdata.inputs"),
    ("plotdata", {"plotdata": {"output": "a/b.csv"}}, "plotdata.output"),
    ("classify", {"sizes": [4, 5]}, "strains"),
    # keys the schema does not declare, misspelled or retired
    ("meanfield", {"integrator": {"rtoll": 1.0e-3}}, "integrator.rtoll"),
    ("meanfield", {"rtoll": 1.0e-3}, "rtoll"),
    ("simulate", {"strains": [{"gamma": 2.0, "nu": 1.0}]}, "strains[0].nu"),
    ("simulate", {"topology": {"generator": "bipartite", "size": 3}}, "topology.size"),
    ("plotdata", {"plotdata": {"ouput": "p.csv"}}, "plotdata.ouput"),
    ("meanfield", {"integrator": {"method": "rk45"}}, "integrator.method"),
], ids=["strain-not-mapping-meanfield", "strain-not-mapping-classify", "mu-not-number",
        "fraction-not-number", "edge-not-pair", "compare-not-mapping", "values-not-rows",
        "value-not-number", "grid-entry-list", "grid-entry-string", "suite-not-name",
        "plot-output-not-string", "plot-input-not-string", "edge-label-list", "edge-label-string",
        "t_end-inf-simulate", "t_end-inf-meanfield", "t_end-nan", "taylor-order-too-high",
        "topology-null", "non-string-key", "grid-collapses", "rates-overflow", "rk4-over-budget",
        "size-beyond-2**53", "schedule-size-beyond-2**53", "event-rates-overflow",
        "unknown-method", "unknown-generator", "generator-list", "generator-null",
        "horizon-overflows", "horizon-overflows-grid-count", "custom-scalar-sizes",
        "sizes-count-mismatch", "schedule-too-short", "custom-self-loop", "cycle-of-two",
        "gamma-key-not-pair", "fraction-count-mismatch", "single-island-out-of-range",
        "initial-outside-simplex", "t_end-beyond-float", "plot-inputs-not-list",
        "plot-input-missing", "plot-output-not-file-name", "classify-unequal-sizes",
        "integrator-key-misspelled", "top-level-key-misspelled", "strain-key-unknown",
        "topology-key-unknown", "plotdata-key-misspelled", "method-retired"])
def test_wrong_type_exits_2_naming_the_field(tmp_path, capsys, command, overrides, field):
    cfg = write_cfg(tmp_path, **overrides)
    assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {field}: "), err


@pytest.mark.parametrize("text, field", [
    ("t_end: 1\nt_end: 2\n", "t_end"),
    ("integrator: {rtol: 1.0e-6}\nintegrator: {atol: 1.0e-6}\n", "integrator"),
    ("initial: {kind: uniform, fraction: 0.2, kind: matrix}\n", "initial.kind"),
], ids=["top-level", "section", "in-a-section"])
def test_repeated_key_exits_2_naming_it(tmp_path, capsys, text, field):
    given = {line.split(":")[0] for line in text.splitlines()}
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({k: v for k, v in BASE.items() if k not in given}) + text)
    assert main(["meanfield", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {field}: repeated key"]


def test_key_overriding_a_merged_key_is_not_a_repeat(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({k: v for k, v in BASE.items() if k not in ("strains", "initial")})
                   + "strains: [&s {gamma: 2.0, mu: 1.0}, {<<: *s, gamma: 1.5}]\n"
                   + "initial: {kind: uniform, fraction: [0.1, 0.1]}\n")
    plain = write_cfg(tmp_path, name="plain.yaml", strains=[{"gamma": 2.0, "mu": 1.0},
                                                            {"gamma": 1.5, "mu": 1.0}],
                      initial={"kind": "uniform", "fraction": [0.1, 0.1]})
    assert main(["meanfield", str(cfg), "--out", str(tmp_path / "merged")]) == 0
    assert main(["meanfield", str(plain), "--out", str(tmp_path / "plain")]) == 0
    assert ((tmp_path / "merged" / "meanfield.csv").read_bytes()
            == (tmp_path / "plain" / "meanfield.csv").read_bytes())


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"t_end: \xff\xfe\n"),
    lambda path: path.write_text("t_end: [1\n"),
    lambda path: None,
], ids=["directory", "not-utf-8", "malformed-yaml", "missing"])
def test_config_file_that_cannot_be_loaded_exits_2_with_one_line(tmp_path, capsys, make):
    make(tmp_path / "cfg.yaml")
    assert main(["meanfield", str(tmp_path / "cfg.yaml"), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: (file): "), err


@pytest.mark.parametrize("command", ["meanfield", "taylor", "classify", "converge"])
def test_strains_healing_at_different_rates_exit_2(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, strains=[{"gamma": 2.0, "mu": 1.0}, {"gamma": 1.5, "mu": 2.0}],
                    initial={"kind": "uniform", "fraction": [0.1, 0.1]}, size_schedule=[10, 20, 40])
    assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: strains: "), err
    assert re.search(r"\bmu\b", err[0]), err


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


def test_plotdata_series_with_a_repeated_stem_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    for run in ("a", "b"):
        assert main(["meanfield", str(cfg), "--out", str(tmp_path / run)]) == 0
    plot_cfg = write_cfg(tmp_path, name="plot.yaml", plotdata={
        "inputs": [str(tmp_path / run / "meanfield.csv") for run in ("a", "b")], "mode": "series"})
    capsys.readouterr()
    assert main(["plotdata", str(plot_cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: plotdata.inputs: "), err
    assert "'meanfield'" in err[0], err
    assert not (tmp_path / "out" / "plotdata.csv").exists()


def test_plotdata_overlay_input_of_unknown_kind_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["meanfield", str(cfg), "--out", str(tmp_path / "mf")]) == 0
    lines = (tmp_path / "mf" / "meanfield.csv").read_text().splitlines(keepends=True)
    kindless = tmp_path / "kindless.csv"
    kindless.write_text("".join(line for line in lines if not line.startswith("# kind: ")))
    plot_cfg = write_cfg(tmp_path, name="plot.yaml", plotdata={"inputs": [str(kindless)], "mode": "overlay"})
    capsys.readouterr()
    assert main(["plotdata", str(plot_cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: plotdata.inputs: {kindless}: "), err


def _drop_files(run):
    manifest = json.loads((run / "manifest.json").read_text())
    del manifest["files"]
    (run / "manifest.json").write_text(json.dumps(manifest))


def _append_short_row(run):
    with open(run / "traj_rep0000.csv", "a") as fh:
        fh.write("1,2\n")


def _append_repeated_cell(run):
    # a second copy of the (t = 1, island 2, strain 1) cell, which reading must not drop
    with open(run / "traj_rep0000.csv", "a") as fh:
        fh.write("1,2,1,30,1\n")


def _list_only_meanfield(run):
    assert main(["meanfield", str(run.parent / "cfg.yaml"), "--out", str(run)]) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["files"] = ["meanfield.csv"]
    (run / "manifest.json").write_text(json.dumps(manifest))


def _drop_last_sample_of_rep1(run):
    path = run / "traj_rep0001.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-2]))  # the last time's cells: 2 islands, 1 strain


def _end_config_before_last_sample(run):
    path = run.parent / "cfg.yaml"
    path.write_text(yaml.safe_dump(dict(yaml.safe_load(path.read_text()), t_end=1.0)))


def _edit_last_row(run, field, value):
    path = run / "traj_rep0000.csv"
    lines = path.read_text().splitlines()
    row = lines[-1].split(",")
    row[field] = value
    path.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")


@pytest.mark.parametrize("damage, overrides, field", [
    (_drop_files, {}, "out"),
    (lambda run: (run / "traj_rep0001.csv").unlink(), {}, "out"),
    (lambda run: (run / "manifest.json").write_text("{not json"), {}, "out"),
    (_append_short_row, {}, "out"),
    (_append_repeated_cell, {}, "out"),
    (lambda run: _edit_last_row(run, 4, "inf"), {}, "out"),
    (lambda run: _edit_last_row(run, 3, ""), {}, "out"),
    (lambda run: None, {"compare": {"max_deviation": {"a": 1}}}, "compare.max_deviation"),
    (_list_only_meanfield, {}, "out"),
    (_drop_last_sample_of_rep1, {}, "out"),
    (_end_config_before_last_sample, {}, "t_end"),
], ids=["manifest-without-files", "csv-deleted", "manifest-not-json", "short-csv-row",
        "repeated-cell", "fraction-inf", "count-missing", "max-deviation-not-number",
        "only-meanfield-listed", "replications-on-other-grids", "t_end-before-last-sample"])
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


def test_seed_beyond_64_bits_exits_2(tmp_path, capsys):
    # the RNG key holds 64 bits of seed; 2**64 would silently rerun seed 0
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--out", str(out), "--seed", str(2**64)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: seed: "), err
    assert not out.exists()
    assert main(["simulate", str(cfg), "--out", str(out), "--seed", str(2**64 - 1)]) == 0


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
    # so stiff that the error control shrinks the first step below h_min
    cfg = write_cfg(tmp_path, sizes=10, strains=[{"gamma": 1.0e30, "mu": 1.0}], t_end=1.0)
    assert main(["meanfield", str(cfg), "--out", str(tmp_path / "mf")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["integration error: step size underflow at t=0 (h=6.554e-14)"], err


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


def _callers_of(name, node, where="<module>"):
    """The innermost enclosing function of every call of `name` under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                               getattr(node.func, "attr", None)):
        yield where
    for child in ast.iter_child_nodes(node):
        yield from _callers_of(name, child, where)


def test_only_integrate_calls_integrate_field():
    # every mean-field run then passes through meanfield.integrate, where it is traced
    root = Path(islandsis.__file__).resolve().parent
    callers = {(path.relative_to(root).as_posix(), fn)
               for path in root.rglob("*.py")
               for fn in _callers_of("integrate_field", ast.parse(path.read_text()))}
    assert callers == {("meanfield.py", "integrate")}


# Outputs at a common healing rate mu != 1, as written when the harness still
# rescaled (gamma -> gamma/mu, t -> mu*t) itself: a 4-island custom network
# with unequal sizes, two strains (one given per ordered pair) at mu = 2.5; and
# a classification at mu = 2.
PINNED_MU_CUSTOM = {
    "topology": {"generator": "custom", "edges": [[1, 2], [2, 1], [2, 3], [3, 2], [3, 4], [4, 3],
                                                  [4, 1], [1, 4], [1, 3], [3, 1]]},
    "sizes": [20, 30, 45, 25],
    "strains": [
        {"gamma": {"1->2": 1.3, "2->1": 0.7, "2->3": 1.1, "3->2": 0.9, "3->4": 1.6, "4->3": 0.4,
                   "4->1": 1.2, "1->4": 0.8, "1->3": 0.6, "3->1": 1.7}, "mu": 2.5},
        {"gamma": 0.9, "mu": 2.5},
    ],
    "initial": {"kind": "matrix", "values": [[0.3, 0.1], [0.0, 0.2], [0.05, 0.0], [0.1, 0.1]]},
    "t_end": 3.0,
    "grid": 7,
    "taylor_order": 5,
    "size_schedule": [8, 16, 32],
    "replications": 3,
    "seed": 5,
}
PINNED_MU_CLASSIFY = dict(BASE, topology={"generator": "cycle", "islands": 5}, sizes=10,
                          strains=[{"gamma": 2.4, "mu": 2.0}, {"gamma": 1.6, "mu": 2.0}])
PINNED_MU_SHA256 = {
    ("meanfield", "custom"):
        "bf48d3a3b357e9c194eae1681cfa2412c38ed1f51e0bd5a5661daf6b3b018320",
    ("taylor", "custom"):
        "d7fd5ef5fce55184bef12d0c5c1841e16ff84800ccdf1cd515d9f8676df41923",
    ("converge", "custom"):
        "5d2f1867198a658962863d735b067c738753a8152b7bb69b47da4aef726cba6f",
    ("classify", "classify"):
        "c7a87543f79292ef269dfa3a06d524b3087f3350e9ab258a9b1f620f25d7d70c",
}
PINNED_MU_FILES = {"meanfield": "meanfield.csv", "taylor": "taylor_table.json",
                   "converge": "convergence_report.json"}


@pytest.mark.parametrize("command, case", list(PINNED_MU_SHA256),
                         ids=[f"{command}-{case}" for command, case in PINNED_MU_SHA256])
def test_nonunit_healing_rate_outputs_are_pinned(tmp_path, capsys, command, case):
    raw = {"custom": PINNED_MU_CUSTOM, "classify": PINNED_MU_CLASSIFY}[case]
    path = tmp_path / "mu.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "run"
    capsys.readouterr()
    assert main([command, str(path), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    data = (out / PINNED_MU_FILES[command]).read_bytes() if command in PINNED_MU_FILES else stdout.encode()
    assert hashlib.sha256(data).hexdigest() == PINNED_MU_SHA256[(command, case)]
