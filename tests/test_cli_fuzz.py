"""Fuzz the CLI's input boundary with Hypothesis.

Each example starts from a tiny valid config, replaces the value at one key
path of the schema (see `islandsis.harness.config`) with a small YAML value,
and runs one subcommand through `cli.main`.  Whatever the value, `main` must
return 0, 1 or 2 without raising, and exit 2 must come with exactly one
`config error: ` or `integration error: ` line on stderr.
"""

import contextlib
import copy
import io
import math
import string

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from islandsis.harness.cli import COMMANDS, main

# Every top-level key of the schema, with values small enough for tier-1.
BASE = {
    "topology": {"generator": "bipartite"},
    "sizes": 4,
    "size_schedule": [4, 8, 16],
    "strains": [{"gamma": 2.0, "mu": 1.0}],
    "initial": {"kind": "uniform", "fraction": 0.25},
    "t_end": 0.5,
    "grid": 3,
    "replications": 1,
    "seed": 0,
    "workers": 1,
    "out": "work",
    "integrator": {"method": "rk45", "rtol": 1e-6, "atol": 1e-9},
    "suite": [],
    "taylor_order": 3,
    "compare": {"max_deviation": 0.5},
    "plotdata": {"inputs": ["run/traj_rep0000.csv"], "mode": "series", "output": "plot.csv"},
}
# Each variant swaps in the other forms of a section, so their keys get fuzzed too.
VARIANTS = [
    {},
    {"topology": {"generator": "cycle", "islands": 3}},
    {"topology": {"generator": "custom", "edges": [[1, 2], [2, 3]]}, "sizes": [4, 3, 5]},
    {"strains": [{"gamma": {"1->2": 2.0, "2->1": 1.5}, "mu": 1.0}, {"gamma": 1.5, "mu": 1.0}],
     "initial": {"kind": "uniform", "fraction": [0.25, 0.25]}},
    {"initial": {"kind": "matrix", "values": [[0.25], [0.5]]}},
    {"initial": {"kind": "single_island", "island": 2, "strain": 1, "fraction": 0.5}},
    {"integrator": {"method": "rk4", "fixed_step": 0.1}},
]
# compare reads the run the module fixture simulates from BASE into "run"
COMMAND_OVERRIDES = {"compare": {"out": "run"}}

NAMES = ["rk4", "cycle", "complete", "star", "custom", "matrix", "single_island", "overlay", "1->2"]
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 50),
    st.floats(-5, 5),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.text(string.ascii_letters + string.digits + "->", max_size=5),
    st.sampled_from(NAMES),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.one_of(st.text(string.ascii_lowercase, max_size=3), st.integers(0, 2)),
                      inner, max_size=3),
    max_leaves=5,
)


def key_paths(node, prefix=()):
    """Every path into the config tree, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


def replaced(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


@st.composite
def cases(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    cfg = dict(BASE, **draw(st.sampled_from(VARIANTS)), **COMMAND_OVERRIDES.get(command, {}))
    path = draw(st.sampled_from(list(key_paths(cfg))))
    return command, path, replaced(cfg, path, draw(values))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.chdir(tmp_path_factory.mktemp("fuzz"))
    mp.delenv("ISLANDSIS_OUT", raising=False)
    with open("base.yaml", "w") as fh:
        yaml.safe_dump(BASE, fh)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "base.yaml", "--out", "run"]) == 0
    yield
    mp.undo()


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(case=cases())
def test_main_exits_0_1_or_2_on_any_single_key_change(workdir, case):
    command, path, cfg = case
    with open("cfg.yaml", "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "cfg.yaml"])
    assert code in (0, 1, 2), (command, path, cfg)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(("config error: ", "integration error: ")), lines
