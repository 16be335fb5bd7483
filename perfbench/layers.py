"""The layer boundaries the benchmark wraps, and the per-layer metrics it derives.

Layers are the package's modules: topology, micro, meanfield, analysis and
harness (config, experiments, suites, trajio, cli).  Each boundary is a public
function that one module calls in another, wrapped where the caller looks it
up.  Boundaries marked `probe` stay installed in untraced runs too,
because verification or an end-to-end count needs what they observe; they
fire a few times per timed call.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from islandsis import analysis, meanfield, micro
from islandsis.harness import cli, config, experiments, suites
from islandsis.meanfield import MeanFieldParams
from islandsis.topology import SuperNetwork

from spans import Boundary, Span, self_times

SUITE_NAMES = config.SUITE_NAMES


def _events(args, kwargs, traj):
    return {"events": traj.n_events}


def _integration(args, kwargs, traj):
    per_attempt = 7 if traj.method == "rk45" else 4
    attempts = traj.n_steps + (traj.n_rejected if traj.method == "rk45" else 0)
    return {"steps": traj.n_steps, "rejected": traj.n_rejected, "evals": per_attempt * attempts}


def _written(args, kwargs, _result):
    path, traj = args[0], args[1]
    return {"rows": int(np.prod(traj.states.shape)), "bytes": Path(path).stat().st_size}


BOUNDARIES = (
    # harness.experiments -> micro, and the benchmark's own calls into micro
    Boundary(experiments, "simulate", "micro.simulate", _events, probe=True),
    Boundary(micro, "simulate", "micro.simulate", _events),
    Boundary(micro, "node_level_simulate", "micro.node_level_simulate", _events),
    # harness.experiments / harness.suites / analysis -> meanfield
    Boundary(experiments, "integrate", "meanfield.integrate", _integration, keep=True),
    Boundary(suites, "integrate", "meanfield.integrate", _integration, keep=True),
    Boundary(analysis, "integrate", "meanfield.integrate", _integration, keep=True),
    Boundary(MeanFieldParams, "from_micro", "meanfield.params"),
    Boundary(MeanFieldParams, "symmetric", "meanfield.params"),
    Boundary(MeanFieldParams, "from_rates", "meanfield.params"),
    # meanfield -> topology
    Boundary(SuperNetwork, "adjacency_matrix", "topology.adjacency_matrix"),
    # harness.experiments / harness.cli -> harness.config
    Boundary(config.ExperimentConfig, "strain_params", "harness.config.strain_params"),
    Boundary(config.ExperimentConfig, "meanfield_params", "harness.config.meanfield_params"),
    # harness.suites -> analysis
    Boundary(suites, "check_dominance", "analysis.check_dominance"),
    Boundary(suites, "taylor_coefficients", "analysis.taylor_coefficients"),
    Boundary(suites, "classify_single", "analysis.classify"),
    Boundary(suites, "classify_multi", "analysis.classify"),
    # harness.cli -> harness.suites / harness.experiments
    Boundary(cli, "run_theorem_suite", lambda name: f"harness.suites.{name}"),
    Boundary(cli, "run_converge", "harness.experiments.run_converge"),
    # harness.experiments -> harness.trajio
    Boundary(experiments, "write_ode_trajectory", "harness.trajio.write_ode_trajectory",
             _written, keep=True, probe=True),
)


def keep_largest_integration(kept: dict) -> None:
    """Drop every kept `meanfield.integrate` call but the one with the largest params."""
    calls = kept.get("meanfield.integrate", [])
    if len(calls) > 1:
        kept["meanfield.integrate"] = [max(calls, key=lambda call: call[0][0].w.size)]


def time_rhs(kept_integrations) -> tuple[float, int]:
    """Median microseconds per `rhs` call on the largest params the workload integrated.

    Returns (us_per_call, w_bytes); w_bytes is K*M*M*8, computed from the
    rate tensor's shape.  (0.0, 0) when the workload integrated nothing.
    """
    if not kept_integrations:
        return 0.0, 0
    args, _ = max(kept_integrations, key=lambda call: call[0][0].w.size)
    params, y0 = args[0], np.asarray(args[1], dtype=float)
    per_call = []
    for _ in range(7):
        n, t0 = 0, time.perf_counter()
        while n < 5 or time.perf_counter() - t0 < 0.03:
            meanfield.rhs(y0, params)
            n += 1
        per_call.append((time.perf_counter() - t0) / n)
    return float(np.median(per_call)) * 1e6, int(params.w.size * 8)


@dataclass
class _Agg:
    calls: int = 0
    inclusive: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(float))


def aggregate(spans: list[Span], runs: set[str]) -> dict[str, _Agg]:
    """Totals per span name over the spans of the given runs."""
    out: dict[str, _Agg] = defaultdict(_Agg)
    for span, own in zip(spans, self_times(spans)):
        if span.run not in runs:
            continue
        agg = out[span.name]
        agg.calls += 1
        agg.inclusive += span.duration
        agg.self_s += own
        for key, value in span.counts.items():
            agg.counts[key] += value
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span], runs: set[str], units: int, rhs_us: float, w_bytes: int,
                  overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced call of the workload's entry point."""
    agg = aggregate(spans, runs)
    per = 1.0 / units
    m: dict[str, tuple[float, str]] = {}

    sim = agg.get("micro.simulate", _Agg())
    m["micro.simulate.calls"] = (sim.calls * per, "count")
    m["micro.simulate.events"] = (sim.counts["events"] * per, "count")
    m["micro.simulate.self_s"] = (sim.self_s * per, "s")
    m["micro.simulate.us_per_event"] = (_ratio(sim.self_s, sim.counts["events"]) * 1e6, "us")
    m["micro.simulate.us_per_call"] = (_ratio(sim.inclusive, sim.calls) * 1e6, "us")

    node = agg.get("micro.node_level_simulate", _Agg())
    m["micro.node_level_simulate.calls"] = (node.calls * per, "count")
    m["micro.node_level_simulate.events"] = (node.counts["events"] * per, "count")
    m["micro.node_level_simulate.self_s"] = (node.self_s * per, "s")
    m["micro.node_level_simulate.us_per_call"] = (_ratio(node.inclusive, node.calls) * 1e6, "us")

    ode = agg.get("meanfield.integrate", _Agg())
    m["meanfield.rhs.us_per_call"] = (rhs_us, "us")
    m["meanfield.rhs.evals"] = (ode.counts["evals"] * per, "count")
    m["meanfield.rhs.w_bytes"] = (float(w_bytes), "bytes")
    m["meanfield.integrate.calls"] = (ode.calls * per, "count")
    m["meanfield.integrate.steps"] = (ode.counts["steps"] * per, "count")
    m["meanfield.integrate.rejected"] = (ode.counts["rejected"] * per, "count")
    attempts = ode.counts["steps"] + ode.counts["rejected"]
    m["meanfield.integrate.accept_ratio"] = (_ratio(ode.counts["steps"], attempts), "ratio")
    m["meanfield.integrate.self_s"] = (ode.self_s * per, "s")
    m["meanfield.params.build_s"] = (agg.get("meanfield.params", _Agg()).inclusive * per, "s")

    adj = agg.get("topology.adjacency_matrix", _Agg())
    m["topology.adjacency_matrix.calls"] = (adj.calls * per, "count")
    m["topology.adjacency_matrix.self_s"] = (adj.self_s * per, "s")
    for name in ("strain_params", "meanfield_params"):
        a = agg.get(f"harness.config.{name}", _Agg())
        m[f"harness.config.{name}.self_s"] = (a.self_s * per, "s")

    for name in ("check_dominance", "taylor_coefficients", "classify"):
        a = agg.get(f"analysis.{name}", _Agg())
        m[f"analysis.{name}.calls"] = (a.calls * per, "count")
        m[f"analysis.{name}.self_s"] = (a.self_s * per, "s")
    for name in SUITE_NAMES:
        m[f"harness.suites.{name}.self_s"] = (agg.get(f"harness.suites.{name}", _Agg()).self_s * per, "s")

    w = agg.get("harness.trajio.write_ode_trajectory", _Agg())
    m["harness.trajio.write_ode_trajectory.rows"] = (w.counts["rows"] * per, "count")
    m["harness.trajio.write_ode_trajectory.bytes"] = (w.counts["bytes"] * per, "bytes")
    m["harness.trajio.write_ode_trajectory.rows_per_s"] = (_ratio(w.counts["rows"], w.inclusive), "1/s")
    m["harness.experiments.run_converge.self_s"] = (
        agg.get("harness.experiments.run_converge", _Agg()).self_s * per, "s")
    m["trace_overhead_frac"] = (overhead, "ratio")
    return m
