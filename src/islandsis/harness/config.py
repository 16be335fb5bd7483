"""Experiment configuration: schema, loading, validation.

A single YAML document drives every subcommand.  Full key set:

    topology:
      generator: cycle | complete | star | bipartite | custom
      islands: <int>              # island count (generators; bipartite fixes 2)
      edges: [[j, i], ...]        # custom only; 1-based island labels
    sizes: <int> | [<int>, ...]   # nodes per island, at most 2**53; a scalar is uniform
    size_schedule: [<int>, ...]   # converge only; strictly increasing uniform sizes, at most 2**53
    strains:                      # one entry per strain
      - gamma: <float> | {"j->i": <float>, ...}   # uniform or per ordered pair
        mu: <float>               # healing rate, default 1.0
    initial:
      kind: uniform | matrix | single_island
      fraction: <float> | [<float>, ...]   # uniform: per strain
      values: [[...], ...]        # matrix: M rows x K columns of fractions
      island: <int>               # single_island
      strain: <int>               #   (defaults to 1)
    t_end: <float>
    grid: <int> | [<float>, ...]  # sample count (linspace incl. 0) or explicit times
    replications: <int>           # micro runs; default 1
    seed: <int>                   # master seed; default 0
    workers: <int>                # parallel replications; default 1
    out: <path>                   # output directory, a non-empty string
    integrator:                   # optional overrides
      method: rk45 | rk4
      rtol: <float>
      atol: <float>
      fixed_step: <float>
    suite: <name> | [<name>, ...] # suite subcommand; omit to run all
    taylor_order: <int>           # taylor subcommand; 0..12, default 6
    compare:
      max_deviation: <float>      # compare subcommand failure threshold
    plotdata:
      inputs: [<csv path>, ...]   # existing trajectory files
      mode: series | overlay
      output: <file name>         # written into the output directory

Numbers must be finite: `.inf` and `.nan` are rejected wherever a number
goes, and so is `null` wherever a key has a default.  Mapping keys are
strings.  The output directory resolves as --out flag, then the
ISLANDSIS_OUT environment variable, then the `out` key (default "./out").

Every key above is read and checked here, and nowhere else.  Bad input
raises ConfigError naming the offending field path; so do the run directory
`compare` reads (on `out`) and the files `plotdata` merges (on
`plotdata.inputs`) when they cannot be parsed.  The CLI exits with status 2
on a ConfigError.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from ..analysis import MAX_TAYLOR_ORDER
from ..meanfield import MeanFieldParams, StepControl, _simplex_violation
from ..micro import MacroCounts, StrainParams, _prepare_grid, edge_rows
from ..topology import (
    SuperNetwork,
    TopologyError,
    bipartite_supernetwork,
    build_supernetwork,
    complete_supernetwork,
    cycle_supernetwork,
    star_supernetwork,
)

SUITE_NAMES = (
    "bipartite-single",
    "bipartite-bivirus",
    "regular-single",
    "regular-multivirus",
    "taylor",
    "appendix",
)


class ConfigError(ValueError):
    """Invalid configuration; `field` carries the offending key path."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


def _need(mapping: dict, key: str, path: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required key")
    return mapping[key]


def _as_positive_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ConfigError(path, f"expected a positive integer, got {value!r}")
    return value


def _as_size(value, path: str) -> int:
    # Up to 2**53 the f*N rounding of initial counts and the N_j/N_i rate ratios
    # are exact in float64, and the int64 counts are far from overflow.
    if _as_positive_int(value, path) > 2**53:
        raise ConfigError(path, f"expected an island size of at most 2**53, got {value}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise ConfigError(path, f"expected a finite number, got {value!r}")


def _as_positive_float(value, path: str) -> float:
    number = _as_number(value, path)
    if number <= 0:
        raise ConfigError(path, f"expected a positive number, got {value!r}")
    return number


def _as_path(value, path: str) -> str:
    if not isinstance(value, str) or not value or "\0" in value:
        raise ConfigError(path, f"expected a non-empty path string, got {value!r}")
    return value


def _string_keys(data, path: str = "") -> None:
    """Refuse a mapping key that is not a string anywhere in the document."""
    if isinstance(data, dict):
        for key, value in data.items():
            if not isinstance(key, str):
                raise ConfigError(path or "(file)", f"mapping keys must be strings, got {key!r}")
            _string_keys(value, f"{path}.{key}" if path else key)
    elif isinstance(data, list):
        for n, value in enumerate(data):
            _string_keys(value, f"{path}[{n}]")


@dataclass
class ExperimentConfig:
    """Validated configuration plus helpers to materialize model objects."""

    raw: dict

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        p = Path(path)
        if not p.exists():
            raise ConfigError("(file)", f"config file not found: {p}")
        try:
            data = yaml.safe_load(p.read_text())
        except yaml.YAMLError as exc:
            raise ConfigError("(file)", f"not valid YAML: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("(file)", "top level must be a mapping")
        _string_keys(data)
        return cls(raw=data)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        return cls(raw=dict(data))

    # -- core sections ----------------------------------------------------

    @property
    def seed(self) -> int:
        seed = self.raw.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError("seed", f"expected a non-negative integer, got {seed!r}")
        return seed

    @property
    def t_end(self) -> float:
        return _as_positive_float(_need(self.raw, "t_end", ""), "t_end")

    @property
    def replications(self) -> int:
        return _as_positive_int(self.raw.get("replications", 1), "replications")

    @property
    def workers(self) -> int:
        return _as_positive_int(self.raw.get("workers", 1), "workers")

    def _topology(self) -> tuple[dict, Any]:
        """The topology section and its generator."""
        topo = _need(self.raw, "topology", "")
        if not isinstance(topo, dict):
            raise ConfigError("topology", "expected a mapping")
        return topo, _need(topo, "generator", "topology")

    def num_islands(self) -> int:
        topo, gen = self._topology()
        if gen == "bipartite":
            return 2
        if gen == "custom":
            sizes = _need(self.raw, "sizes", "")
            if not isinstance(sizes, list):
                raise ConfigError("sizes", "custom topology needs an explicit size list")
            return len(sizes)
        return _as_positive_int(_need(topo, "islands", "topology"), "topology.islands")

    def sizes(self, override_uniform: int | None = None) -> tuple[int, ...]:
        m = self.num_islands()
        if override_uniform is not None:
            return (override_uniform,) * m
        sizes = _need(self.raw, "sizes", "")
        if isinstance(sizes, int) and not isinstance(sizes, bool):
            return (_as_size(sizes, "sizes"),) * m
        if isinstance(sizes, list):
            if len(sizes) != m:
                raise ConfigError("sizes", f"expected {m} entries, got {len(sizes)}")
            return tuple(_as_size(s, f"sizes[{i}]") for i, s in enumerate(sizes))
        raise ConfigError("sizes", f"expected int or list, got {type(sizes).__name__}")

    def size_schedule(self) -> tuple[int, ...]:
        sched = _need(self.raw, "size_schedule", "")
        if not isinstance(sched, list) or len(sched) < 3:
            raise ConfigError("size_schedule", "need a list of at least 3 sizes")
        sizes = tuple(_as_size(s, f"size_schedule[{i}]") for i, s in enumerate(sched))
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ConfigError("size_schedule", f"sizes must be strictly increasing, got {sizes}")
        return sizes

    def build_net(self, size_override: int | None = None) -> SuperNetwork:
        topo, gen = self._topology()
        sizes = self.sizes(size_override)
        try:
            if gen == "cycle":
                return cycle_supernetwork(len(sizes), sizes)
            if gen == "complete":
                return complete_supernetwork(len(sizes), sizes)
            if gen == "star":
                return star_supernetwork(len(sizes), sizes)
            if gen == "bipartite":
                return bipartite_supernetwork(sizes[0], sizes[1])
            if gen == "custom":
                edges = _need(topo, "edges", "topology")
                if not isinstance(edges, list):
                    raise ConfigError("topology.edges", "expected a list of [j, i] pairs")
                for n, e in enumerate(edges):
                    if not isinstance(e, list) or len(e) != 2:
                        raise ConfigError(f"topology.edges[{n}]", f"expected a [j, i] pair, got {e}")
                return build_supernetwork(sizes, [
                    tuple(_as_positive_int(x, f"topology.edges[{n}][{a}]") for a, x in enumerate(e))
                    for n, e in enumerate(edges)])
        except TopologyError as exc:
            raise ConfigError("topology", str(exc)) from exc
        raise ConfigError(
            "topology.generator",
            f"unknown generator {gen!r} (cycle|complete|star|bipartite|custom)",
        )

    # -- strains -----------------------------------------------------------

    def strain_specs(self) -> list[tuple[str, Any, float]]:
        """(field path, gamma value, validated mu) per strain."""
        strains = _need(self.raw, "strains", "")
        if not isinstance(strains, list) or not strains:
            raise ConfigError("strains", "expected a non-empty list")
        specs = []
        for k, section in enumerate(strains):
            path = f"strains[{k}]"
            if not isinstance(section, dict):
                raise ConfigError(path, "expected a mapping with gamma (and optional mu)")
            g = _need(section, "gamma", path)
            specs.append((path, g, _as_positive_float(section.get("mu", 1.0), f"{path}.mu")))
        return specs

    def strain_params(self, net: SuperNetwork) -> StrainParams:
        rows: list[tuple[float, ...]] = []
        specs = self.strain_specs()
        for k, (path, g, _) in enumerate(specs, start=1):
            if not isinstance(g, dict):
                rows += StrainParams.uniform(net, _as_positive_float(g, f"{path}.gamma")).gamma
                continue
            rates = {}
            for pair, rate in g.items():
                try:
                    j, i = (int(x) for x in str(pair).split("->"))
                except ValueError:
                    raise ConfigError(
                        f"{path}.gamma", f'pair keys look like "j->i", got {pair!r}'
                    ) from None
                rates[(k, j, i)] = _as_positive_float(rate, f"{path}.gamma[{pair}]")
            try:
                rows += edge_rows(net, rates, (k,))
            except ValueError as exc:
                raise ConfigError(f"{path}.gamma", str(exc)) from exc
        return StrainParams(net=net, gamma=tuple(rows), mu=tuple(mu for _, _, mu in specs))

    def common_mu(self) -> float:
        """The shared healing rate; refuses strain-heterogeneous mu.

        Comparing against the limiting dynamics rescales time by mu and rates
        by 1/mu, which only makes sense when all strains share one mu.
        """
        mus = {mu for _, _, mu in self.strain_specs()}
        if len(mus) > 1:
            raise ConfigError(
                "strains.mu",
                f"strain-dependent healing rates {sorted(mus)} cannot be rescaled "
                "to a common normalized time",
            )
        return mus.pop()

    def meanfield_params(self, net: SuperNetwork) -> MeanFieldParams:
        """Effective ODE rates: micro gamma over the common mu, times size ratios."""
        mu = self.common_mu()
        params = self.strain_params(net)
        try:
            scaled = StrainParams(net, tuple(tuple(g / mu for g in r) for r in params.gamma),
                                  (1.0,) * params.num_strains)
            return MeanFieldParams.from_micro(net, scaled)
        except ValueError as exc:  # gamma/mu, or its size-scaled form, overflows
            raise ConfigError("strains", str(exc)) from exc

    # -- initial conditions -------------------------------------------------

    def initial_fractions(self, net: SuperNetwork) -> np.ndarray:
        section = _need(self.raw, "initial", "")
        if not isinstance(section, dict):
            raise ConfigError("initial", "expected a mapping")
        kind = section.get("kind", "uniform")
        m = net.num_islands
        kk = len(self.strain_specs())
        if kind == "uniform":
            frac = _need(section, "fraction", "initial")
            row = (
                [_as_number(f, f"initial.fraction[{k}]") for k, f in enumerate(frac)]
                if isinstance(frac, list)
                else [_as_number(frac, "initial.fraction")] * kk
            )
            if len(row) != kk:
                raise ConfigError("initial.fraction", f"expected {kk} per-strain entries")
            y0 = np.tile(np.asarray(row), (m, 1))
        elif kind == "matrix":
            values = _need(section, "values", "initial")
            if (not isinstance(values, list) or len(values) != m
                    or any(not isinstance(row, list) or len(row) != kk for row in values)):
                raise ConfigError("initial.values",
                                  f"expected {m} rows of {kk} fractions, got {values!r}")
            y0 = np.array([[_as_number(f, f"initial.values[{i}][{k}]") for k, f in enumerate(row)]
                           for i, row in enumerate(values)])
        elif kind == "single_island":
            island = _as_positive_int(_need(section, "island", "initial"), "initial.island")
            strain = _as_positive_int(section.get("strain", 1), "initial.strain")
            if island > m or strain > kk:
                raise ConfigError("initial", f"island {island}/strain {strain} out of range")
            y0 = np.zeros((m, kk))
            y0[island - 1, strain - 1] = _as_number(_need(section, "fraction", "initial"),
                                                    "initial.fraction")
        else:
            raise ConfigError("initial.kind", f"unknown kind {kind!r}")
        if _simplex_violation(y0, 0.0):
            raise ConfigError("initial", "fractions must be >= 0 with island totals <= 1")
        return y0

    def initial_counts(self, net: SuperNetwork) -> MacroCounts:
        return MacroCounts.from_fractions(net, self.initial_fractions(net))

    # -- numerics -----------------------------------------------------------

    def grid_times(self) -> np.ndarray:
        t_end = self.t_end
        grid = self.raw.get("grid", 101)
        if isinstance(grid, int) and not isinstance(grid, bool):
            if grid < 2:
                raise ConfigError("grid", "need at least 2 sample times")
            times = np.linspace(0.0, t_end, grid)
        elif isinstance(grid, list):
            times = [_as_number(t, f"grid[{n}]") for n, t in enumerate(grid)]
        else:
            raise ConfigError("grid", f"expected int or list, got {type(grid).__name__}")
        try:
            return _prepare_grid(times, t_end)
        except ValueError as exc:
            raise ConfigError("grid", str(exc)) from exc

    def step_control(self) -> StepControl:
        section = self.raw.get("integrator", {})
        if not isinstance(section, dict):
            raise ConfigError("integrator", "expected a mapping")
        kwargs: dict[str, Any] = {}
        if "method" in section:
            kwargs["method"] = section["method"]
        for key in ("rtol", "atol", "fixed_step"):
            if key in section:
                kwargs[key] = _as_positive_float(section[key], f"integrator.{key}")
        try:
            return StepControl(**kwargs)
        except ValueError as exc:  # the other keys are checked above, so the method is bad
            raise ConfigError("integrator.method", str(exc)) from exc

    def suites(self) -> tuple[str, ...]:
        if "suite" not in self.raw:
            return SUITE_NAMES
        suite = self.raw["suite"]
        if isinstance(suite, str):
            named = [("suite", suite)]
        elif isinstance(suite, list):
            named = [(f"suite[{n}]", name) for n, name in enumerate(suite)]
        else:
            raise ConfigError("suite", f"expected a suite name or a list of names, got {suite!r}")
        for path, name in named:
            if name not in SUITE_NAMES:
                raise ConfigError(path, f"unknown suite {name!r}; choose from {SUITE_NAMES}")
        return tuple(name for _, name in named)

    # -- subcommand inputs ----------------------------------------------------

    @property
    def out(self) -> str:
        """The `out` key; the CLI's --out flag and ISLANDSIS_OUT take precedence."""
        return _as_path(self.raw.get("out", "out"), "out")

    @property
    def taylor_order(self) -> int:
        order = self.raw.get("taylor_order", 6)
        if not isinstance(order, int) or isinstance(order, bool) or not 0 <= order <= MAX_TAYLOR_ORDER:
            raise ConfigError("taylor_order",
                              f"expected an integer in 0..{MAX_TAYLOR_ORDER}, got {order!r}")
        return order

    @property
    def max_deviation(self) -> float | None:
        """The `compare` pass/fail threshold, None when the config sets none."""
        section = self.raw.get("compare", {})
        if not isinstance(section, dict):
            raise ConfigError("compare", f"expected a mapping, got {section!r}")
        if "max_deviation" not in section:
            return None
        return _as_number(section["max_deviation"], "compare.max_deviation")

    def plotdata(self) -> tuple[list[str], str, str]:
        """(input files, mode, output file name) of the `plotdata` section."""
        section = self.raw.get("plotdata", {})
        if not isinstance(section, dict):
            raise ConfigError("plotdata", "expected a mapping")
        inputs = section.get("inputs", [])
        if not isinstance(inputs, list):
            raise ConfigError("plotdata.inputs", "expected a list of trajectory files")
        inputs = [_as_path(p, f"plotdata.inputs[{n}]") for n, p in enumerate(inputs)]
        missing = [p for p in inputs if not Path(p).is_file()]
        if missing:
            raise ConfigError("plotdata.inputs", f"missing input files: {missing}")
        mode = section.get("mode", "series")
        if mode not in ("series", "overlay"):
            raise ConfigError("plotdata.mode", f"expected series|overlay, got {mode!r}")
        output = _as_path(section.get("output", "plotdata.csv"), "plotdata.output")
        if output in (".", "..") or Path(output).name != output:
            raise ConfigError("plotdata.output", f"expected a file name, got {output!r}")
        return inputs, mode, output

    def resolved(self) -> dict:
        """The configuration as run: raw keys minus output location."""
        out = {k: v for k, v in self.raw.items() if k != "out"}
        out["seed"] = self.seed
        return out


def canonical_hash(data: Any) -> str:
    """sha256 of the canonical JSON encoding (sorted keys, no whitespace)."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()
