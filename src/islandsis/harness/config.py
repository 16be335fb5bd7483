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
    integrator:                   # adaptive Dormand-Prince 5(4), the one scheme
      rtol: <float>               # default 1e-9
      atol: <float>               # default 1e-12
    suite: <name> | [<name>, ...] # suite subcommand; omit to run all
    taylor_order: <int>           # taylor subcommand; 0..12, default 6
    compare:
      max_deviation: <float>      # compare subcommand failure threshold; none if absent or null
    plotdata:
      inputs: [<csv path>, ...]   # existing trajectory files
      mode: series | overlay
      output: <file name>         # written into the output directory

Numbers must be finite: `.inf` and `.nan` are rejected wherever a number
goes, and so is `null` wherever a key has a default.  Mapping keys are
strings.  The output directory resolves as --out flag, then the
ISLANDSIS_OUT environment variable, then the `out` key (default "./out").

Every key above is declared once, with its default, in SCHEMA and read
through `_get`, here and nowhere else.  Any other key is refused, and so is a
key repeated within one mapping (overriding a key a `<<` merge brings in is
no repeat).  Each kind of value has one rule: integers `_as_int`, numbers
`_as_number`, mappings `_mapping` and names `_choice`.  The generators are
the keys of GENERATORS.  Bad input raises ConfigError naming the offending
field path; so do the run directory `compare` reads (on `out`) and the files
`plotdata` merges (on `plotdata.inputs`) when they cannot be parsed.  The CLI
exits with status 2 on a ConfigError.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
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


REQUIRED = object()  # SCHEMA: each key path ("strains[]" is each strain) -> its default or this
SCHEMA: dict[str, Any] = {
    "topology": REQUIRED, "topology.generator": REQUIRED, "topology.islands": REQUIRED,
    "topology.edges": REQUIRED, "sizes": REQUIRED, "size_schedule": REQUIRED, "strains": REQUIRED,
    "strains[].gamma": REQUIRED, "strains[].mu": 1.0, "initial": REQUIRED,
    "initial.kind": "uniform", "initial.fraction": REQUIRED, "initial.values": REQUIRED,
    "initial.island": REQUIRED, "initial.strain": 1, "t_end": REQUIRED, "grid": 101,
    "replications": 1, "seed": 0, "workers": 1, "out": "out", "integrator": {},
    "integrator.rtol": StepControl.rtol, "integrator.atol": StepControl.atol,
    "suite": list(SUITE_NAMES), "taylor_order": 6, "compare": {}, "compare.max_deviation": None,
    "plotdata": {}, "plotdata.inputs": [], "plotdata.mode": "series",
    "plotdata.output": "plotdata.csv",
}


def _get(mapping: dict, key: str, path: str) -> Any:
    """mapping[key], else its SCHEMA default; `path` is the mapping's own key path."""
    full = f"{path}.{key}" if path else key
    if (value := mapping.get(key, SCHEMA[re.sub(r"\[\d+\]", "[]", full)])) is REQUIRED:
        raise ConfigError(full, "missing required key")
    return value


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


def _check_keys(data, path: str = "") -> None:
    """Refuse a non-string key anywhere, and an undeclared one in a mapping SCHEMA declares."""
    if isinstance(data, dict):
        section = re.sub(r"\[\d+\]", "[]", path)
        declared = {p.rpartition(".")[2] for p in SCHEMA if p.rpartition(".")[0] == section}
        for key, value in data.items():
            if not isinstance(key, str):
                raise ConfigError(path or "(file)", f"mapping keys must be strings, got {key!r}")
            if declared and key not in declared:
                raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
            _check_keys(value, f"{path}.{key}" if path else key)
    elif isinstance(data, list):
        for n, value in enumerate(data):
            _check_keys(value, f"{path}[{n}]")


def _refuse_repeats(node: yaml.Node, path: str = "") -> None:
    """Refuse a key repeated within one mapping; overriding a `<<` merged key is no repeat."""
    if isinstance(node, yaml.MappingNode):
        seen = set()
        for key, value in node.value:
            here = f"{path}.{key.value}" if path else str(key.value)
            if (key.tag, here) in seen:
                raise ConfigError(here, "repeated key")
            seen.add((key.tag, here))
            _refuse_repeats(value, here)
    elif isinstance(node, yaml.SequenceNode):
        for n, value in enumerate(node.value):
            _refuse_repeats(value, f"{path}[{n}]")


def _custom_network(topo: dict, sizes: tuple[int, ...]) -> SuperNetwork:
    edges = _get(topo, "edges", "topology")
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
        try:
            loader = yaml.SafeLoader(Path(path).read_text(encoding="utf-8"))
            _refuse_repeats(node := loader.get_single_node())
            data = loader.construct_document(node) if node else None
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("(file)", f"cannot read config file {path}: {exc}") from exc
        except yaml.YAMLError as exc:  # on one line: the problem and where it is
            at = getattr(exc, "problem_mark", None)
            where = exc if at is None else (
                f"{exc.context or ''} {exc.problem} (line {at.line + 1}, column {at.column + 1})")
            raise ConfigError("(file)", " ".join(f"not valid YAML: {where}".split())) from exc
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The one way in: a mapping with string keys throughout and only declared keys."""
        _check_keys(_mapping(data, "(file)"))
        return cls(raw=dict(data))

    # -- core sections ----------------------------------------------------

    @property
    def seed(self) -> int:
        return _as_int(_get(self.raw, "seed", ""), "seed", 0, SEED_LIMIT - 1)

    @property
    def t_end(self) -> float:
        return _as_positive_float(_get(self.raw, "t_end", ""), "t_end")

    @property
    def replications(self) -> int:
        return _as_int(_get(self.raw, "replications", ""), "replications")

    @property
    def workers(self) -> int:
        return _as_int(_get(self.raw, "workers", ""), "workers")

    def _topology(self) -> tuple[dict, str]:
        """The topology section and its generator, a key of GENERATORS."""
        topo = _mapping(_get(self.raw, "topology", ""), "topology")
        return topo, _choice(_get(topo, "generator", "topology"), "topology.generator", GENERATORS)

    def num_islands(self) -> int:
        topo, gen = self._topology()
        if gen == "bipartite":
            return 2
        if gen == "custom":
            sizes = _get(self.raw, "sizes", "")
            if not isinstance(sizes, list):
                raise ConfigError("sizes", "custom topology needs an explicit size list")
            return len(sizes)
        return _as_int(_get(topo, "islands", "topology"), "topology.islands")

    def sizes(self, override_uniform: int | None = None) -> tuple[int, ...]:
        m = self.num_islands()
        if override_uniform is not None:
            return (override_uniform,) * m
        sizes = _get(self.raw, "sizes", "")
        if isinstance(sizes, list):
            if len(sizes) != m:
                raise ConfigError("sizes", f"expected {m} entries, got {len(sizes)}")
            return tuple(_as_size(s, f"sizes[{i}]") for i, s in enumerate(sizes))
        return (_as_size(sizes, "sizes"),) * m

    def size_schedule(self) -> tuple[int, ...]:
        sched = _get(self.raw, "size_schedule", "")
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
        strains = _get(self.raw, "strains", "")
        if not isinstance(strains, list) or not strains:
            raise ConfigError("strains", "expected a non-empty list")
        specs = []
        for k, section in enumerate(strains):
            path = f"strains[{k}]"
            g = _get(_mapping(section, path), "gamma", path)
            specs.append((path, g, _as_positive_float(_get(section, "mu", path), f"{path}.mu")))
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
        section = _mapping(_get(self.raw, "initial", ""), "initial")
        m = net.num_islands
        kk = len(self.strain_specs())
        kind = _choice(_get(section, "kind", "initial"), "initial.kind",
                       ("uniform", "matrix", "single_island"))
        if kind == "uniform":
            frac = _get(section, "fraction", "initial")
            row = (
                [_as_number(f, f"initial.fraction[{k}]") for k, f in enumerate(frac)]
                if isinstance(frac, list)
                else [_as_number(frac, "initial.fraction")] * kk
            )
            if len(row) != kk:
                raise ConfigError("initial.fraction", f"expected {kk} per-strain entries")
            y0 = np.tile(np.asarray(row), (m, 1))
        elif kind == "matrix":
            values = _get(section, "values", "initial")
            if (not isinstance(values, list) or len(values) != m
                    or any(not isinstance(row, list) or len(row) != kk for row in values)):
                raise ConfigError("initial.values",
                                  f"expected {m} rows of {kk} fractions, got {values!r}")
            y0 = np.array([[_as_number(f, f"initial.values[{i}][{k}]") for k, f in enumerate(row)]
                           for i, row in enumerate(values)])
        else:  # single_island
            island = _as_int(_get(section, "island", "initial"), "initial.island")
            strain = _as_int(_get(section, "strain", "initial"), "initial.strain")
            if island > m or strain > kk:
                raise ConfigError("initial", f"island {island}/strain {strain} out of range")
            y0 = np.zeros((m, kk))
            y0[island - 1, strain - 1] = _as_number(_get(section, "fraction", "initial"),
                                                    "initial.fraction")
        if _simplex_violation(y0, 0.0):
            raise ConfigError("initial", "fractions must be >= 0 with island totals <= 1")
        return y0

    def initial_counts(self, net: SuperNetwork) -> MacroCounts:
        return MacroCounts.from_fractions(net, self.initial_fractions(net))

    # -- numerics -----------------------------------------------------------

    def grid_times(self) -> np.ndarray:
        t_end = self.t_end
        grid = _get(self.raw, "grid", "")
        if isinstance(grid, list):
            times = [_as_number(t, f"grid[{n}]") for n, t in enumerate(grid)]
        else:
            times = np.linspace(0.0, t_end, _as_int(grid, "grid", 2))
        try:
            return _prepare_grid(times, t_end)
        except ValueError as exc:
            raise ConfigError("grid", str(exc)) from exc

    def step_control(self) -> StepControl:
        section = _mapping(_get(self.raw, "integrator", ""), "integrator")
        return StepControl(**{key: _as_positive_float(_get(section, key, "integrator"),
                                                      f"integrator.{key}")
                              for key in ("rtol", "atol")})

    def suites(self) -> tuple[str, ...]:
        suite = _get(self.raw, "suite", "")
        named = ([(f"suite[{n}]", name) for n, name in enumerate(suite)]
                 if isinstance(suite, list) else [("suite", suite)])
        return tuple(_choice(name, path, SUITE_NAMES) for path, name in named)

    # -- subcommand inputs ----------------------------------------------------

    @property
    def out(self) -> str:
        """The `out` key; the CLI's --out flag and ISLANDSIS_OUT take precedence."""
        return _as_path(_get(self.raw, "out", ""), "out")

    @property
    def taylor_order(self) -> int:
        return _as_int(_get(self.raw, "taylor_order", ""), "taylor_order", 0, MAX_TAYLOR_ORDER)

    @property
    def max_deviation(self) -> float | None:
        """The `compare` pass/fail threshold, None when the config sets none."""
        limit = _get(_mapping(_get(self.raw, "compare", ""), "compare"), "max_deviation", "compare")
        return None if limit is None else _as_number(limit, "compare.max_deviation")

    def plotdata(self) -> tuple[list[str], str, str]:
        """(input files, mode, output file name) of the `plotdata` section."""
        section = _mapping(_get(self.raw, "plotdata", ""), "plotdata")
        inputs = _get(section, "inputs", "plotdata")
        if not isinstance(inputs, list):
            raise ConfigError("plotdata.inputs", "expected a list of trajectory files")
        inputs = [_as_path(p, f"plotdata.inputs[{n}]") for n, p in enumerate(inputs)]
        missing = [p for p in inputs if not Path(p).is_file()]
        if missing:
            raise ConfigError("plotdata.inputs", f"missing input files: {missing}")
        mode = _choice(_get(section, "mode", "plotdata"), "plotdata.mode", PLOT_MODES)
        output = _as_path(_get(section, "output", "plotdata"), "plotdata.output")
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
