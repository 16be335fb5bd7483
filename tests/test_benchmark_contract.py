"""The names the benchmark in perfbench/ wraps must stay where it looks them up.

perfbench/layers.py wraps module functions and classmethods by name; a
refactor that renames or moves one makes every benchmark run fail.  This
installs every boundary and restores it without running a workload.
"""

import importlib
from pathlib import Path

from islandsis import micro

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_benchmark_boundary_installs(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    original = micro.simulate
    restore = spans.Tracer().install(layers.BOUNDARIES)
    try:
        assert micro.simulate is not original
    finally:
        restore()
    assert micro.simulate is original
    assert len(layers.BOUNDARIES) == 19
