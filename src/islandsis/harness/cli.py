"""Command line interface.

    islandsis <subcommand> <config.yaml> [--seed N] [--out DIR]

The subcommands are the keys of COMMANDS.  The only positional arguments
are the subcommand and the config path; everything else lives in the config
file.  --seed and --out override the config; the ISLANDSIS_OUT environment
variable overrides the config's output directory (but not --out).  It is
checked before any work and created by the first file trajio writes into it.

Exit status: 0 on success, 1 when a requested check fails, 2 on bad input
(ConfigError: the config, an output location that is not a directory, the run
directory or the plotdata inputs), an unmet hypothesis or a failed ODE
integration.  Any other exception is a bug and surfaces as one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from ..analysis import UnmetHypothesisError, classify_multi, taylor_coefficients
from ..meanfield import IntegrationError
from ..topology import superdegree
from .config import ConfigError, ExperimentConfig
from .experiments import run_compare, run_converge, run_meanfield, run_simulate
from .suites import run_theorem_suite
from .trajio import emit_plot_data, write_manifest

ENV_OUT = "ISLANDSIS_OUT"


def _resolve_out(cfg: ExperimentConfig, flag: str | None) -> Path:
    """--out, else ISLANDSIS_OUT, else `out`; it, or its nearest existing ancestor, must be a directory."""
    out = Path(flag or os.environ.get(ENV_OUT) or cfg.out)
    existing = next(p for p in (out, *out.parents) if os.path.lexists(p))
    if not existing.is_dir():
        raise ConfigError("out", f"{existing} is not a directory")
    return out


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_simulate(cfg: ExperimentConfig, out: Path) -> int:
    _emit(run_simulate(cfg, out))
    return 0


def _cmd_meanfield(cfg: ExperimentConfig, out: Path) -> int:
    _emit(run_meanfield(cfg, out))
    return 0


def _cmd_converge(cfg: ExperimentConfig, out: Path) -> int:
    report = run_converge(cfg, out)
    _emit(asdict(report))
    return 0 if report.monotone_trend else 1


def _cmd_compare(cfg: ExperimentConfig, out: Path) -> int:
    report = run_compare(cfg, out)
    _emit(report)
    return 0 if report.get("passed", True) else 1


def _cmd_classify(cfg: ExperimentConfig, out: Path) -> int:
    net = cfg.build_net()
    params = cfg.meanfield_params(net)
    if not params.is_symmetric_configuration:
        raise ConfigError("strains", "classification needs a symmetric configuration "
                                      "(equal sizes, one uniform rate per strain)")
    result = classify_multi(net, [params.uniform_rate(k) for k in range(1, params.num_strains + 1)])
    _emit(dict(asdict(result), superdegree=superdegree(net, 1)))
    return 0


def _cmd_taylor(cfg: ExperimentConfig, out: Path) -> int:
    net = cfg.build_net()
    params = cfg.meanfield_params(net)
    y0 = cfg.initial_fractions(net)
    table = taylor_coefficients(params, y0, cfg.taylor_order)
    payload = {
        "n_max": table.n_max,
        "coefficients": {
            f"island{i + 1}:strain{k + 1}": table.coeff[:, i, k].tolist()
            for i in range(y0.shape[0])
            for k in range(y0.shape[1])
        },
    }
    write_manifest(out / "taylor_table.json", payload)
    _emit(payload)
    return 0


def _cmd_suite(cfg: ExperimentConfig, out: Path) -> int:
    reports = [run_theorem_suite(name) for name in cfg.suites()]
    payload = {"suites": [r.to_dict() for r in reports], "passed": all(r.passed for r in reports)}
    write_manifest(out / "suite_report.json", payload)
    for report in reports:
        for check in report.checks:
            print(f"[{'PASS' if check.passed else 'FAIL'}] {report.suite}:{check.name}")
    return 0 if payload["passed"] else 1


def _cmd_plotdata(cfg: ExperimentConfig, out: Path) -> int:
    inputs, mode, output = cfg.plotdata()
    target = out / output
    if target.is_dir():
        raise ConfigError("plotdata.output", f"{target} is a directory")
    try:
        rows = emit_plot_data(inputs, mode, target)
    except ValueError as exc:  # the inputs are not trajectory files on one grid
        raise ConfigError("plotdata.inputs", str(exc)) from exc
    _emit({"output": str(target), "rows": rows})
    return 0


# Handlers look their runners up when called, so patching `cli.run_converge` works.
COMMANDS = {
    "simulate": _cmd_simulate,
    "meanfield": _cmd_meanfield,
    "converge": _cmd_converge,
    "classify": _cmd_classify,
    "taylor": _cmd_taylor,
    "compare": _cmd_compare,
    "suite": _cmd_suite,
    "plotdata": _cmd_plotdata,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="islandsis", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("config", help="path to the YAML experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        cfg = ExperimentConfig.load(args.config)
        if args.seed is not None:
            cfg.raw["seed"] = args.seed
        return COMMANDS[args.command](cfg, _resolve_out(cfg, args.out))
    except (ConfigError, UnmetHypothesisError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"integration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
