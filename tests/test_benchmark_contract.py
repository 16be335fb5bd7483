"""The names the benchmark in perfbench/ wraps must stay where it looks them up.

perfbench/layers.py wraps module functions and classmethods by name; a
refactor that renames or moves one makes every benchmark run fail.  This
installs every boundary and restores it without running a workload.
"""

import importlib
from pathlib import Path

import numpy as np

from islandsis import micro
from islandsis.harness import experiments
from islandsis.harness.config import ExperimentConfig

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


def test_run_meanfield_passes_its_grid_as_times(monkeypatch, tmp_path):
    # the meanfield-cycle1000 workload checks the CSV against kwargs["times"]
    written = []
    write = experiments.write_ode_trajectory

    def recording(*args, **kwargs):
        written.append((args, kwargs))
        return write(*args, **kwargs)

    monkeypatch.setattr(experiments, "write_ode_trajectory", recording)
    cfg = ExperimentConfig.from_dict({
        "topology": {"generator": "cycle", "islands": 6}, "sizes": 100,
        "strains": [{"gamma": 1.5}, {"gamma": 1.2}],
        "initial": {"kind": "single_island", "island": 2, "fraction": 0.5},
        "t_end": 2.0, "grid": 11,
    })
    experiments.run_meanfield(cfg, tmp_path)
    [(args, kwargs)] = written
    assert np.array_equal(kwargs["times"], cfg.grid_times())
    assert np.array_equal(kwargs["times"], args[1].times)
