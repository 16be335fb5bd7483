"""Layered benchmark of islandsis: one workload per run, or all four.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from `src/`.  A run
times set-up in fresh processes, then calls the workload's entry point again
and again for about `--seconds` seconds, checks every call's output, and
prints one line per metric followed by a JSON object as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb).  With `--trace 1`, untraced and traced calls alternate and the
metrics are the per-layer ones, from spans around calls between modules,
plus trace_overhead_frac.  Facts, checks and spans go under `.perfbench/`.
`--workload all` runs each workload in a fresh child process.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child process this starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Workload name -> default seed, the acceptance tests' seeds where one exists
# (C8: 2025, C9: 11 and 11 + 2).  A second set for confirming claims on
# unseen seeds: 4049, 17, 499, 3.
DEFAULT_SEEDS = {"converge-c8": 2025, "selfcheck-c9": 11, "meanfield-cycle1000": 0, "suite-all": 0}
SETUP_PROBES = 15


def _use_program() -> None:
    """Put the checkout's src/ first on the path; refuse to benchmark any other copy."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import islandsis

    if Path(islandsis.__file__).resolve().parent != SRC / "islandsis":
        sys.exit(f"perfbench: imported islandsis from {islandsis.__file__}, not {SRC}")


def _setup_probe(name: str, seed: int) -> float:
    """Import the program and build the workload's inputs; return the seconds taken."""
    t0 = time.perf_counter()
    _use_program()
    from workloads import WORKLOADS

    workdir = OUT / "work" / f"probe-{os.getpid()}"
    try:
        WORKLOADS[name](seed, workdir).build()
        return time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _timed_setups(name: str, seed: int) -> list[float]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-probe"]
    return [float(subprocess.run(argv, check=True, capture_output=True, text=True,
                                 timeout=60, cwd=ROOT).stdout.strip().splitlines()[-1])
            for _ in range(SETUP_PROBES)]


def _facts(seed: int, seeds: dict) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "seed": seed,
        "seeds": seeds,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setups = _timed_setups(name, seed)
    _use_program()
    from layers import BOUNDARIES, keep_largest_integration, layer_metrics, time_rhs
    from spans import Tracer
    from workloads import WORKLOADS

    workdir = OUT / "work" / f"{name}-{os.getpid()}"
    try:
        wl = WORKLOADS[name](seed, workdir)
        wl.build()
        tracer = Tracer()
        probes = [b for b in BOUNDARIES if b.probe]
        # Under --trace 1, untraced and traced calls alternate.
        records, walls, traced_walls = [], [], []
        start = time.perf_counter()
        while True:
            index = len(records)
            traced = trace and index % 2 == 1
            tracer.run = f"{name}/seed{seed}/call{index}" + ("/traced" if traced else "")
            restore = tracer.install(BOUNDARIES if traced else probes)
            try:
                t0 = time.perf_counter()
                output = tracer.span(name, wl.call, index) if traced else wl.call(index)
                (traced_walls if traced else walls).append(time.perf_counter() - t0)
            finally:
                restore()
            records.append(wl.digest(index, output, tracer.kept))
            keep_largest_integration(tracer.kept)
            enough = len(records) >= wl.min_calls and bool(traced_walls or not trace)
            upcoming = traced_walls if trace and len(records) % 2 == 1 else walls
            if enough and time.perf_counter() - start + upcoming[-1] > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        checks = wl.checks(records)
        failed = sum(not c.ok for c in checks)
        extras: dict[str, tuple[float, str]] = {"failed_frac": (failed / len(checks), "ratio")}
        if trace:
            traced_runs = {s.run for s in tracer.spans if s.run.endswith("/traced")}
            rhs_us, w_bytes = time_rhs(tracer.kept.get("meanfield.integrate", []))
            metrics = layer_metrics(tracer.spans, traced_runs, len(traced_walls), rhs_us, w_bytes,
                                    statistics.median(traced_walls) / statistics.median(walls) - 1.0)
        else:
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            work = wl.work(records, tracer.spans)
            for key in ("events", "replications"):
                if key in work:
                    extras[f"{key}_per_s"] = (work[key] / sum(walls), "1/s")

        facts = _facts(seed, wl.seeds)
        tag = f"{name}-seed{seed}-trace{int(trace)}"
        tracer.dump(OUT / "spans" / f"{tag}.jsonl", facts)
        detail = {
            "workload": name, "trace": trace, "facts": facts,
            "untraced_walls_s": walls, "traced_walls_s": traced_walls, "setup_probes_s": setups,
            "checks": [vars(c) for c in checks],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extras}.items()},
        }
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        (OUT / "results" / f"{tag}.json").write_text(json.dumps(detail, indent=2) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# {name} seed={seed} trace={int(trace)} calls: {len(walls)} untraced, {len(traced_walls)} traced")
    for key, (value, unit) in {**metrics, **extras}.items():
        print(f"{name:>20} {key:<48} {value:>16.6g} {unit}")
    for c in checks:
        print(f"# [{'PASS' if c.ok else 'FAIL'}] {c.name}: {c.detail}")
    print(f"# facts {json.dumps(facts, sort_keys=True)}")
    return {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int | None, seconds: int, trace: int) -> dict:
    """Each workload in a fresh child process; metrics keyed '<workload>.<metric>'."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in DEFAULT_SEEDS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seconds", str(seconds), "--trace", str(trace)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        res = subprocess.run(argv, capture_output=True, text=True, timeout=2 * seconds + 120, cwd=ROOT)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            sys.stderr.write(res.stderr)
            sys.exit(f"perfbench: workload {name} exited {res.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*DEFAULT_SEEDS, "all"))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed; defaults to the acceptance tests' seeds")
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        if not (SRC / "islandsis" / "__init__.py").is_file():
            sys.exit(f"perfbench: no islandsis sources under {SRC}")
        seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
        if args.setup_probe:
            print(_setup_probe(args.workload, seed))
            return 0
        result = run_workload(args.workload, seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
