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
    seed: <int>                   # master seed in [0, 2**64); default 0
    workers: <int>                # parallel replications; default 1
    out: <path>                   # output directory, a non-empty string
    integrator:                   # optional overrides
      method: rk45                # the one scheme, adaptive Dormand-Prince 5(4)
      rtol: <float>
      atol: <float>
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

Every key above is read and checked here, and nowhere else, each kind of
value by one rule: integers by `_as_int`, numbers by `_as_number`, mappings
by `_mapping` and names by `_choice`.  The generators are the keys of
GENERATORS.  Bad input raises ConfigError naming the offending field path; so
do the run directory `compare` reads (on `out`) and the files `plotdata`
merges (on `plotdata.inputs`) when they cannot be parsed.  The CLI exits with
status 2 on a ConfigError.
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
from ..micro import SEED_LIMIT, MacroCounts, StrainParams, _prepare_grid, edge_rows
from ..topology import (
    SuperNetwork,
    TopologyError,
    bipartite_supernetwork,
    build_supernetwork,
    complete_supernetwork,
    cycle_supernetwork,
    star_supernetwork,
)
from .suites import SUITE_NAMES
from .trajio import PLOT_MODES


class ConfigError(ValueError):
    """Invalid configuration; `field` carries the offending key path."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


def _need(mapping: dict, key: str, path: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required key")
    return mapping[key]


def _as_int(value, path: str, low: int = 1, high: float = math.inf) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not low <= value <= high:
        bounds = f"in {low}..{high}" if high < math.inf else f">= {low}"
        raise ConfigError(path, f"expected an integer {bounds}, got {value!r}")
    return value


def _as_size(value, path: str) -> int:
    # Up to 2**53 the f*N rounding of initial counts and the N_j/N_i rate ratios
    # are exact in float64, and the int64 counts are far from overflow.
    return _as_int(value, path, 1, 2**53)


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


def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _choice(value, path: str, choices) -> str:
    # The str test comes first: `in` on a dict hashes the value, and a list is unhashable.
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(path, f"expected one of {'|'.join(choices)}, got {value!r}")
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


def _custom_network(topo: dict, sizes: tuple[int, ...]) -> SuperNetwork:
    edges = _need(topo, "edges", "topology")
    if not isinstance(edges, list):
        raise ConfigError("topology.edges", "expected a list of [j, i] pairs")
    for n, e in enumerate(edges):
        if not isinstance(e, list) or len(e) != 2:
            raise ConfigError(f"topology.edges[{n}]", f"expected a [j, i] pair, got {e}")
    return build_supernetwork(sizes, [
        tuple(_as_int(x, f"topology.edges[{n}][{a}]") for a, x in enumerate(e))
        for n, e in enumerate(edges)])


# Generator name -> builder(topology section, island sizes); only `custom` reads the section.
GENERATORS = {
    "cycle": lambda topo, sizes: cycle_supernetwork(len(sizes), sizes),
    "complete": lambda topo, sizes: complete_supernetwork(len(sizes), sizes),
    "star": lambda topo, sizes: star_supernetwork(len(sizes), sizes),
    "bipartite": lambda topo, sizes: bipartite_supernetwork(*sizes),
    "custom": _custom_network,
}


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
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The one way in: the document must be a mapping with string keys throughout."""
        _string_keys(_mapping(data, "(file)"))
        return cls(raw=dict(data))

    # -- core sections ----------------------------------------------------

    @property
    def seed(self) -> int:
        return _as_int(self.raw.get("seed", 0), "seed", 0, SEED_LIMIT - 1)

    @property
    def t_end(self) -> float:
        return _as_positive_float(_need(self.raw, "t_end", ""), "t_end")

    @property
    def replications(self) -> int:
        return _as_int(self.raw.get("replications", 1), "replications")

    @property
    def workers(self) -> int:
        return _as_int(self.raw.get("workers", 1), "workers")

    def _topology(self) -> tuple[dict, str]:
        """The topology section and its generator, a key of GENERATORS."""
        topo = _mapping(_need(self.raw, "topology", ""), "topology")
        return topo, _choice(_need(topo, "generator", "topology"), "topology.generator", GENERATORS)

    def num_islands(self) -> int:
        topo, gen = self._topology()
        if gen == "bipartite":
            return 2
        if gen == "custom":
            sizes = _need(self.raw, "sizes", "")
            if not isinstance(sizes, list):
                raise ConfigError("sizes", "custom topology needs an explicit size list")
            return len(sizes)
        return _as_int(_need(topo, "islands", "topology"), "topology.islands")

    def sizes(self, override_uniform: int | None = None) -> tuple[int, ...]:
        m = self.num_islands()
        if override_uniform is not None:
            return (override_uniform,) * m
        sizes = _need(self.raw, "sizes", "")
        if isinstance(sizes, list):
            if len(sizes) != m:
                raise ConfigError("sizes", f"expected {m} entries, got {len(sizes)}")
            return tuple(_as_size(s, f"sizes[{i}]") for i, s in enumerate(sizes))
        return (_as_size(sizes, "sizes"),) * m

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
            return GENERATORS[gen](topo, sizes)
        except TopologyError as exc:
            raise ConfigError("topology", str(exc)) from exc

    # -- strains -----------------------------------------------------------

    def strain_specs(self) -> list[tuple[str, Any, float]]:
        """(field path, gamma value, validated mu) per strain."""
        strains = _need(self.raw, "strains", "")
        if not isinstance(strains, list) or not strains:
            raise ConfigError("strains", "expected a non-empty list")
        specs = []
        for k, section in enumerate(strains):
            path = f"strains[{k}]"
            g = _need(_mapping(section, path), "gamma", path)
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

    def meanfield_params(self, net: SuperNetwork) -> MeanFieldParams:
        """Effective ODE rates: micro gamma over the strains' common mu, times size ratios."""
        params = self.strain_params(net)
        try:
            return MeanFieldParams.from_micro(net, params)
        except ValueError as exc:  # mu differs between strains, or a rate overflows
            raise ConfigError("strains", str(exc)) from exc

    # -- initial conditions -------------------------------------------------

    def initial_fractions(self, net: SuperNetwork) -> np.ndarray:
        section = _mapping(_need(self.raw, "initial", ""), "initial")
        m = net.num_islands
        kk = len(self.strain_specs())
        kind = _choice(section.get("kind", "uniform"), "initial.kind",
                       ("uniform", "matrix", "single_island"))
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
        else:  # single_island
            island = _as_int(_need(section, "island", "initial"), "initial.island")
            strain = _as_int(section.get("strain", 1), "initial.strain")
            if island > m or strain > kk:
                raise ConfigError("initial", f"island {island}/strain {strain} out of range")
            y0 = np.zeros((m, kk))
            y0[island - 1, strain - 1] = _as_number(_need(section, "fraction", "initial"),
                                                    "initial.fraction")
        if _simplex_violation(y0, 0.0):
            raise ConfigError("initial", "fractions must be >= 0 with island totals <= 1")
        return y0

    def initial_counts(self, net: SuperNetwork) -> MacroCounts:
        return MacroCounts.from_fractions(net, self.initial_fractions(net))

    # -- numerics -----------------------------------------------------------

    def grid_times(self) -> np.ndarray:
        t_end = self.t_end
        grid = self.raw.get("grid", 101)
        if isinstance(grid, list):
            times = [_as_number(t, f"grid[{n}]") for n, t in enumerate(grid)]
        else:
            times = np.linspace(0.0, t_end, _as_int(grid, "grid", 2))
        try:
            return _prepare_grid(times, t_end)
        except ValueError as exc:
            raise ConfigError("grid", str(exc)) from exc

    def step_control(self) -> StepControl:
        section = _mapping(self.raw.get("integrator", {}), "integrator")
        _choice(section.get("method", "rk45"), "integrator.method", ("rk45",))
        return StepControl(**{key: _as_positive_float(section[key], f"integrator.{key}")
                              for key in ("rtol", "atol") if key in section})

    def suites(self) -> tuple[str, ...]:
        suite = self.raw.get("suite", list(SUITE_NAMES))
        named = ([(f"suite[{n}]", name) for n, name in enumerate(suite)]
                 if isinstance(suite, list) else [("suite", suite)])
        return tuple(_choice(name, path, SUITE_NAMES) for path, name in named)

    # -- subcommand inputs ----------------------------------------------------

    @property
    def out(self) -> str:
        """The `out` key; the CLI's --out flag and ISLANDSIS_OUT take precedence."""
        return _as_path(self.raw.get("out", "out"), "out")

    @property
    def taylor_order(self) -> int:
        return _as_int(self.raw.get("taylor_order", 6), "taylor_order", 0, MAX_TAYLOR_ORDER)

    @property
    def max_deviation(self) -> float | None:
        """The `compare` pass/fail threshold, None when the config sets none."""
        section = _mapping(self.raw.get("compare", {}), "compare")
        if "max_deviation" not in section:
            return None
        return _as_number(section["max_deviation"], "compare.max_deviation")

    def plotdata(self) -> tuple[list[str], str, str]:
        """(input files, mode, output file name) of the `plotdata` section."""
        section = _mapping(self.raw.get("plotdata", {}), "plotdata")
        inputs = section.get("inputs", [])
        if not isinstance(inputs, list):
            raise ConfigError("plotdata.inputs", "expected a list of trajectory files")
        inputs = [_as_path(p, f"plotdata.inputs[{n}]") for n, p in enumerate(inputs)]
        missing = [p for p in inputs if not Path(p).is_file()]
        if missing:
            raise ConfigError("plotdata.inputs", f"missing input files: {missing}")
        mode = _choice(section.get("mode", "series"), "plotdata.mode", PLOT_MODES)
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
