"""Experiment drivers: replicated simulation, ODE runs, convergence studies.

Every output is a deterministic function of (config, master seed); wall-clock
timestamps appear only in the run manifest.  Replications fan out to a process
pool when the config asks for more than one worker; results come back in
replication order, so the schedule does not affect any output.
"""

from __future__ import annotations

import datetime as _dt
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .. import __version__
from ..meanfield import integrate
from ..micro import RNG_ALGORITHM, MacroCounts, MicroTrajectory, StrainParams, simulate
from ..topology import SuperNetwork
from .config import ConfigError, ExperimentConfig, canonical_hash
from .trajio import (TrajectoryData, read_manifest, read_trajectory, write_manifest,
                     write_micro_trajectory, write_ode_trajectory)

MANIFEST_NAME = "manifest.json"
MEANFIELD_MANIFEST_NAME = "meanfield_manifest.json"  # keeps a shared out dir collision-free


def params_hash(params: StrainParams) -> str:
    return canonical_hash(
        {
            "num_strains": params.num_strains,
            "gamma": sorted(([k, j, i], g) for k, rates in enumerate(params.gamma, start=1)
                            for (j, i), g in zip(params.net.in_edge_pairs, rates)),
            "mu": list(params.mu),
        }
    )


def _write_run_manifest(path: Path, cfg: ExperimentConfig, command: str, files: list[str],
                        **fields) -> dict:
    """Write the fields every run manifest carries, plus the command's own; return them."""
    manifest = {
        "format": "islandsis-manifest v1",
        "command": command,
        "config_hash": canonical_hash(cfg.resolved()),
        "library_version": __version__,
        "master_seed": cfg.seed,
        "files": files,
        "created_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        **fields,
    }
    write_manifest(path, manifest)
    return manifest


def run_replications(
    counts0: MacroCounts,
    net: SuperNetwork,
    params: StrainParams,
    t_end: float,
    seed: int,
    grid: np.ndarray,
    reps: range,
    workers: int = 1,
) -> list[MicroTrajectory]:
    """Replications in index order regardless of execution order."""
    if params.overflows:
        raise ConfigError("strains", "event rates can overflow the float range")
    task = partial(simulate, counts0, net, params, t_end, seed, grid)
    workers = min(workers, len(reps))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(task, reps))
    return list(map(task, reps))


def run_simulate(cfg: ExperimentConfig, out_dir: str | Path) -> dict:
    """Write one trajectory CSV per replication plus a manifest; return the manifest."""
    net = cfg.build_net()
    params = cfg.strain_params(net)
    counts0 = cfg.initial_counts(net)
    grid = cfg.grid_times()
    out = Path(out_dir)
    trajectories = run_replications(
        counts0, net, params, cfg.t_end, cfg.seed, grid,
        range(cfg.replications), workers=cfg.workers,
    )
    phash = params_hash(params)
    files = []
    for traj in trajectories:
        name = f"traj_rep{traj.rep:04d}.csv"
        write_micro_trajectory(out / name, traj, extra_meta={"params_hash": phash})
        files.append(name)
    return _write_run_manifest(
        out / MANIFEST_NAME, cfg, "simulate", files, params_hash=phash,
        rng_algorithm=RNG_ALGORITHM, replications=cfg.replications, integrator=None,
        initial_counts=[list(row) for row in counts0.y],
        stats={"n_events": [traj.n_events for traj in trajectories]},
    )


def meanfield_run(cfg: ExperimentConfig, net: SuperNetwork, y0: np.ndarray, grid: np.ndarray):
    """Integrate the limiting dynamics on the config's grid, in the config's time.

    The field runs to mu * t_end in units of the common healing rate mu, so
    mu is refused where that horizon or the scaled grid leaves the float range.
    """
    params = cfg.meanfield_params(net)
    control = cfg.step_control()
    with np.errstate(over="ignore", invalid="ignore"):
        horizon, t_eval = params.mu * cfg.t_end, params.mu * grid
    if not (0 < horizon < np.inf and np.all(np.diff(t_eval) > 0)):
        raise ConfigError("strains.mu",
                          f"healing rate {params.mu} leaves no distinct normalized sample times")
    traj = integrate(params, y0, cfg.t_end, control=control, t_eval=grid)
    return params, traj


def run_meanfield(cfg: ExperimentConfig, out_dir: str | Path) -> dict:
    """Single ODE trajectory CSV plus manifest."""
    net = cfg.build_net()
    grid = cfg.grid_times()
    y0 = cfg.initial_fractions(net)
    params, traj = meanfield_run(cfg, net, y0, grid)
    out = Path(out_dir)
    regime = "symmetric" if params.is_symmetric_configuration else "unanalyzed-asymmetric"
    write_ode_trajectory(
        out / "meanfield.csv", traj, times=grid,
        extra_meta={"regime": regime, "healing_rate": params.mu},
    )
    return _write_run_manifest(
        out / MEANFIELD_MANIFEST_NAME, cfg, "meanfield", ["meanfield.csv"], rng_algorithm=None,
        integrator=traj.integrator_metadata(),
        stats={"n_steps": traj.n_steps, "n_rejected": traj.n_rejected},
    )


def mean_vs_ode(fractions: np.ndarray, ode_states: np.ndarray):
    """|mean - ODE| over (T, M, K) for replicated fractions (R, T, M, K), its sup and argmax.

    Feeding the ODE samples back as the one replication gives exactly zero.
    """
    gap = np.abs(fractions.mean(axis=0) - ode_states)
    flat = int(np.argmax(gap))
    return gap, float(gap.flat[flat]), np.unravel_index(flat, gap.shape)


@dataclass
class ConvergenceRecord:
    size: int
    replications: int
    deviation: float  # sup over grid times, islands, strains of |mean - ode|
    stderr: float  # standard error of the mean fraction at the sup location


@dataclass
class ConvergenceReport:
    records: list[ConvergenceRecord]
    monotone_trend: bool  # deviation at the largest size < deviation at the smallest
    tolerance_heuristic: str


def run_converge(cfg: ExperimentConfig, out_dir: str | Path) -> ConvergenceReport:
    """Empirical mean trajectories against the ODE across a size schedule.

    For each size, R replications start from the rounded counts and the ODE
    starts from the exact fractions those counts realize.  The ODE runs first,
    so a bad ODE setting is refused before any replication.  Replication RNG
    streams are disjoint across sizes.
    """
    sizes = cfg.size_schedule()
    grid = cfg.grid_times()
    reps = cfg.replications
    records = []
    for si, size in enumerate(sizes):
        net = cfg.build_net(size_override=size)
        params = cfg.strain_params(net)
        counts0 = cfg.initial_counts(net)
        _, ode = meanfield_run(cfg, net, counts0.fractions(), grid)
        trajectories = run_replications(
            counts0, net, params, cfg.t_end, cfg.seed, grid,
            range(si * reps, (si + 1) * reps), workers=cfg.workers,
        )
        fractions = np.stack([t.fractions() for t in trajectories])  # (R, T, M, K)
        _, deviation, (t_idx, i_idx, k_idx) = mean_vs_ode(fractions, ode.states)
        stderr = float(
            fractions[:, t_idx, i_idx, k_idx].std(ddof=1) / np.sqrt(reps)
        ) if reps > 1 else 0.0
        records.append(ConvergenceRecord(size, reps, deviation, stderr))
    report = ConvergenceReport(
        records=records,
        monotone_trend=records[-1].deviation < records[0].deviation,
        tolerance_heuristic="O(1/sqrt(N)) sampling fluctuation; heuristic, not a proved rate",
    )
    write_manifest(Path(out_dir) / "convergence_report.json", asdict(report))
    return report


def _read_run_file(read, path: Path):
    """read(path); a file that cannot be read or parsed is a ConfigError on `out`."""
    try:
        return read(path)
    except OSError as exc:
        raise ConfigError("out", f"{path}: {exc.strerror}") from exc
    except ValueError as exc:  # trajio names the file in each of its parse errors
        raise ConfigError("out", str(exc)) from exc


def _read_run(out: Path) -> tuple[dict, list[TrajectoryData]]:
    """The manifest in `out` and the micro trajectories it lists."""
    manifest_path = out / MANIFEST_NAME
    if not manifest_path.exists():
        raise ConfigError("out", f"no {MANIFEST_NAME} in {out}; run simulate first")
    manifest = _read_run_file(read_manifest, manifest_path)
    files = manifest.get("files") if isinstance(manifest, dict) else None
    if not isinstance(files, list) or not all(isinstance(name, str) for name in files):
        raise ConfigError("out", f"{manifest_path}: expected a list of file names under \"files\"")
    data = [_read_run_file(read_trajectory, out / name) for name in files]
    data = [d for d in data if d.kind == "micro"]
    if not data:
        raise ConfigError("out", "manifest lists no micro trajectory files")
    return manifest, data


def run_compare(cfg: ExperimentConfig, out_dir: str | Path) -> dict:
    """Compare previously simulated replications in out_dir with the ODE.

    The run must have simulated the config's rates and island sizes from the
    config's initial counts, as its manifest records them, and sampled every
    replication on one grid within t_end.  Its replications are averaged and
    compared in sup norm with the ODE on the same grid, started from the exact
    fractions the initial counts realize.  A `compare.max_deviation` config key
    makes the comparison pass/fail.
    """
    limit = cfg.max_deviation
    out = Path(out_dir)
    manifest, data = _read_run(out)

    net = cfg.build_net()
    params = cfg.strain_params(net)
    if manifest.get("params_hash") != params_hash(params):
        raise ConfigError("strains", f"the run in {out} simulated other rates than the config's")
    if any(d.metadata.get("sizes") != " ".join(map(str, net.sizes)) for d in data):
        raise ConfigError("sizes", f"the run in {out} simulated island sizes other than {net.sizes}")
    counts0 = cfg.initial_counts(net)
    if manifest.get("initial_counts") != [list(row) for row in counts0.y]:
        raise ConfigError("initial", f"the run in {out} started from other counts than the config's")
    times = data[0].times
    shape = (times.size, net.num_islands, params.num_strains)
    if any(d.fractions.shape != shape or not np.array_equal(d.times, times) for d in data):
        raise ConfigError("out", f"the trajectories in {out} differ in their times, islands or strains")
    if times[-1] > cfg.t_end:
        raise ConfigError("t_end", f"the run in {out} sampled up to t = {times[-1]}, beyond t_end")
    _, ode = meanfield_run(cfg, net, counts0.fractions(), times)
    gap, deviation, _ = mean_vs_ode(np.stack([d.fractions for d in data]), ode.states)
    per_series = {
        f"island{i + 1}:strain{k + 1}": float(gap[:, i, k].max())
        for i in range(gap.shape[1])
        for k in range(gap.shape[2])
    }
    report = {
        "replications": len(data),
        "sup_deviation": deviation,
        "per_series_deviation": per_series,
    }
    if limit is not None:
        report["max_deviation"] = limit
        report["passed"] = report["sup_deviation"] <= limit
    write_manifest(out / "compare_report.json", report)
    return report
