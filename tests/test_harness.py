import csv
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from islandsis.harness.config import ConfigError, ExperimentConfig, canonical_hash
from islandsis.harness.experiments import (
    run_compare,
    run_converge,
    run_meanfield,
    run_simulate,
    sup_deviation,
)
from islandsis.harness import trajio
from islandsis.harness.suites import disjoint_union, run_theorem_suite
from islandsis.harness.trajio import (
    emit_plot_data,
    read_manifest,
    read_trajectory,
    write_manifest,
    write_micro_trajectory,
    write_ode_trajectory,
)
from islandsis.meanfield import MeanFieldParams, OdeTrajectory, StepControl, integrate
from islandsis.micro import RNG_ALGORITHM, MacroCounts, MicroTrajectory, StrainParams, simulate
from islandsis.topology import bipartite_supernetwork, complete_supernetwork, cycle_supernetwork

BASE = {
    "topology": {"generator": "bipartite"},
    "sizes": 30,
    "strains": [{"gamma": 2.0, "mu": 1.0}],
    "initial": {"kind": "uniform", "fraction": 0.2},
    "t_end": 3.0,
    "grid": 7,
    "replications": 3,
    "seed": 11,
}


def cfg_with(**overrides) -> ExperimentConfig:
    raw = json.loads(json.dumps(BASE))
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


class TestConfig:
    def test_load_and_build(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(
            "topology: {generator: cycle, islands: 4}\n"
            "sizes: [10, 10, 10, 10]\n"
            "strains:\n  - gamma: 1.5\n"
            "initial: {kind: uniform, fraction: 0.1}\n"
            "t_end: 2.0\n"
        )
        cfg = ExperimentConfig.load(path)
        net = cfg.build_net()
        assert net.num_islands == 4 and net.sizes == (10, 10, 10, 10)
        assert cfg.strain_params(net).num_strains == 1

    def test_missing_key_names_field(self):
        cfg = cfg_with()
        del cfg.raw["t_end"]
        with pytest.raises(ConfigError, match="t_end"):
            cfg.t_end

    def test_bad_gamma_names_field(self):
        cfg = cfg_with(strains=[{"gamma": -1.0}])
        with pytest.raises(ConfigError, match=r"strains\[0\].gamma"):
            cfg.strain_params(cfg.build_net())

    def test_pairwise_gamma_map(self):
        cfg = cfg_with(strains=[{"gamma": {"1->2": 2.0, "2->1": 3.0}}])
        net = cfg.build_net()
        params = cfg.strain_params(net)
        rate = dict(zip(net.in_edge_pairs, params.gamma[0]))
        assert rate[(1, 2)] == 2.0
        assert rate[(2, 1)] == 3.0

    def test_incomplete_pair_map_rejected(self):
        cfg = cfg_with(strains=[{"gamma": {"1->2": 2.0}}])
        with pytest.raises(ConfigError, match="strains"):
            cfg.strain_params(cfg.build_net())

    def test_initial_matrix_shape_checked(self):
        cfg = cfg_with(initial={"kind": "matrix", "values": [[0.1], [0.2], [0.3]]})
        with pytest.raises(ConfigError, match="initial.values"):
            cfg.initial_fractions(cfg.build_net())

    def test_single_island_initial(self):
        cfg = cfg_with(initial={"kind": "single_island", "island": 2, "fraction": 0.5})
        y0 = cfg.initial_fractions(cfg.build_net())
        assert y0[1, 0] == 0.5 and y0.sum() == 0.5

    def test_heterogeneous_mu_refused_for_comparison(self):
        cfg = cfg_with(strains=[{"gamma": 2.0, "mu": 1.0}, {"gamma": 1.0, "mu": 2.0}])
        with pytest.raises(ConfigError, match="mu"):
            cfg.meanfield_params(cfg.build_net())

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError, match="suite"):
            cfg_with(suite="nonsense").suites()

    def test_size_schedule_must_increase(self):
        with pytest.raises(ConfigError, match="size_schedule"):
            cfg_with(size_schedule=[100, 100, 400]).size_schedule()

    def test_from_dict_refuses_a_non_mapping(self):
        with pytest.raises(ConfigError, match=r"^\(file\): "):
            ExperimentConfig.from_dict([BASE])

    def test_from_dict_refuses_a_non_string_key(self):
        raw = dict(BASE, initial={"kind": "uniform", 1: 0.2})
        with pytest.raises(ConfigError, match="^initial: "):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("overrides, read, field", [
        ({"plotdata": {"mode": "stacked"}}, ExperimentConfig.plotdata, "plotdata.mode"),
        ({"grid": 1}, ExperimentConfig.grid_times, "grid"),
        ({"initial": [0.2]}, lambda cfg: cfg.initial_fractions(cfg.build_net()), "initial"),
        ({"plotdata": ["a.csv"]}, ExperimentConfig.plotdata, "plotdata"),
    ], ids=["unknown-plot-mode", "grid-count-1", "initial-not-mapping", "plotdata-not-mapping"])
    def test_refusal_names_the_field(self, overrides, read, field):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            read(cfg_with(**overrides))

    def test_canonical_hash_is_order_insensitive(self):
        assert canonical_hash({"a": 1, "b": 2}) == canonical_hash({"b": 2, "a": 1})


_TAG = "# islandsis-trajectory v1\n"
_HEAD = _TAG + "# kind: meanfield\ntime,island,strain,count,fraction\n"

_SUBNORMALS = st.floats(min_value=-2.2250738585072009e-308, max_value=2.2250738585072009e-308)
_FRACTIONS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.0, 1 - 2**-53, 1 + 2**-52]),
    _SUBNORMALS,
    st.floats(min_value=1 - 1e-9, max_value=1 + 1e-9),
    st.floats(min_value=-1e-6, max_value=1.5),
)


@st.composite
def _trajectories(draw):
    """(kind, times, values, sizes): ODE fractions, or micro counts with their island sizes."""
    n_t, m, kk = draw(st.integers(1, 6)), draw(st.integers(1, 7)), draw(st.integers(1, 3))
    times = sorted(draw(st.lists(st.one_of(st.just(0.0), _SUBNORMALS.map(abs), st.floats(0.0, 1e9)),
                                 min_size=n_t, max_size=n_t, unique=True)))
    cells = st.lists(_FRACTIONS, min_size=n_t * m * kk, max_size=n_t * m * kk)
    if draw(st.booleans()):
        return "ode", times, np.array(draw(cells)).reshape(n_t, m, kk), None
    sizes = tuple(draw(st.lists(st.integers(1, 2**62), min_size=m, max_size=m)))
    counts = draw(st.lists(st.integers(0, 2**63 - 1), min_size=n_t * m * kk, max_size=n_t * m * kk))
    return "micro", times, np.array(counts, dtype=np.int64).reshape(n_t, m, kk), sizes


class TestTrajIO:
    def test_micro_roundtrip_exact(self, tmp_path):
        net = bipartite_supernetwork(7, 5)
        traj = simulate(
            MacroCounts(((3,), (1,)), (7, 5)),
            net,
            StrainParams.uniform(net, 2.0),
            2.0,
            5,
            np.linspace(0, 2, 5),
        )
        path = tmp_path / "t.csv"
        write_micro_trajectory(path, traj, extra_meta={"params_hash": "x"})
        back = read_trajectory(path)
        assert back.kind == "micro"
        assert back.metadata["seed"] == "5"
        assert np.array_equal(back.counts, traj.counts)
        # 17 significant digits round-trip doubles exactly
        assert np.array_equal(back.fractions, traj.fractions())
        assert np.array_equal(back.times, traj.times)

    def test_ode_roundtrip(self, tmp_path):
        params = MeanFieldParams.symmetric(bipartite_supernetwork(1, 1), 2.0)
        grid = np.linspace(0, 5, 11)
        traj = integrate(params, np.array([[0.3], [0.7]]), 5.0, t_eval=grid)
        path = tmp_path / "ode.csv"
        write_ode_trajectory(path, traj)
        back = read_trajectory(path)
        assert back.kind == "meanfield" and back.counts is None
        assert np.array_equal(back.fractions, traj.states)
        assert back.metadata["integrator_method"] == "rk45"

    def test_reject_foreign_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("time,island\n0,1\n")
        with pytest.raises(ValueError, match="not an islandsis trajectory"):
            read_trajectory(path)

    @pytest.mark.parametrize("text, message", [
        ("time,island,strain,count,fraction\n0,1,1,,0.5\n", "not an islandsis trajectory file"),
        (_TAG + "# kind: meanfield\n0,1,1,,0.5\n",
         "missing column header ('time', 'island', 'strain', 'count', 'fraction')"),
        (_TAG + "# kind: meanfield\n", "missing column header ('time', 'island', 'strain', 'count', 'fraction')"),
        (_HEAD, "no data rows"),
        (_HEAD + "0,1,1,0.5\n", "malformed row ['0', '1', '1', '0.5']"),
        (_HEAD + "0,1,1,,0.5,7\n", "malformed row ['0', '1', '1', '', '0.5', '7']"),
        (_HEAD + "0,1,1,,0.5\n\n1,1,1,,0.5\n", "malformed row []"),
        (_HEAD + "0,1,1,,half\n", "malformed row ['0', '1', '1', '', 'half']"),
        (_HEAD + "0,1.5,1,,0.5\n", "malformed row ['0', '1.5', '1', '', '0.5']"),
        (_HEAD + "inf,1,1,,0.5\n", "row ['inf', '1', '1', '', '0.5'] needs a finite time >= 0 and 1-based indices"),
        (_HEAD + "nan,1,1,,0.5\n", "row ['nan', '1', '1', '', '0.5'] needs a finite time >= 0 and 1-based indices"),
        (_HEAD + "-1,1,1,,0.5\n", "row ['-1', '1', '1', '', '0.5'] needs a finite time >= 0 and 1-based indices"),
        (_HEAD + "0,0,1,,0.5\n", "row ['0', '0', '1', '', '0.5'] needs a finite time >= 0 and 1-based indices"),
        (_HEAD + "0,1,0,,0.5\n", "row ['0', '1', '0', '', '0.5'] needs a finite time >= 0 and 1-based indices"),
        # the first faulty row is the one named, whatever its fault
        (_HEAD + "0,1,1,,0.5\n-1,1,1,,0.5\n0,1\n", "row ['-1', '1', '1', '', '0.5'] needs a finite time >= 0 "
         "and 1-based indices"),
        (_HEAD + "0,1,1,,0.5\n0,1\n-1,1,1,,0.5\n", "malformed row ['0', '1']"),
        (_HEAD + "0,1,1,,x\n-1,1,1,,0.5\n", "malformed row ['0', '1', '1', '', 'x']"),
        (_HEAD + "0,1,1,,0.5\n0,2,1,,0.5\n1,1,1,,0.5\n",
         "sparse rows; every (time, island, strain) cell is required"),
        (_HEAD + "0,1,1,,0.5\n0,1,1,,0.5\n",
         "2 rows for 1 cells; each (time, island, strain) cell must appear once"),
    ], ids=["no-format-tag", "no-header", "no-header-no-body", "no-data-rows", "four-fields", "six-fields",
            "blank-line", "non-numeric", "non-integer-island", "inf-time", "nan-time", "negative-time",
            "island-0", "strain-0", "range-before-malformed", "malformed-before-range",
            "malformed-before-range-same-columns", "missing-cell", "repeated-cell"])
    def test_refusal_messages(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_trajectory(path)
        assert str(info.value) == f"{path}: {message}"

    def test_failed_manifest_write_keeps_the_previous_one(self, tmp_path, monkeypatch):
        path = tmp_path / "manifest.json"
        write_manifest(path, {"files": ["a.csv"]})
        before = path.read_bytes()
        # json.dumps fails on the set before any file is opened
        with pytest.raises(TypeError):
            write_manifest(path, {"files": ["b.csv"], "z": {1, 2}})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

        def no_rename(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(trajio.os, "replace", no_rename)
        with pytest.raises(OSError, match="rename failed"):
            write_manifest(path, {"files": ["c.csv"]})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


    @pytest.mark.parametrize("writer", ["micro", "ode", "plotdata"])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch, writer):
        net = bipartite_supernetwork(7, 5)
        params = MeanFieldParams.symmetric(bipartite_supernetwork(1, 1), 2.0)
        grid = np.linspace(0, 2, 5)
        src = tmp_path / "ode.csv"
        write_ode_trajectory(src, integrate(params, np.array([[0.3], [0.7]]), 2.0, t_eval=grid))

        def write(path, n):  # n = 0, 1 write different bytes
            if writer == "micro":
                traj = simulate(MacroCounts(((3,), (1,)), (7, 5)), net,
                                StrainParams.uniform(net, 2.0), 2.0, n, grid)
                write_micro_trajectory(path, traj)
            elif writer == "ode":
                traj = integrate(params, np.array([[0.3], [0.1 * n]]), 2.0, t_eval=grid)
                write_ode_trajectory(path, traj, times=grid)
            else:
                emit_plot_data([src] * n, "series", path)

        path = tmp_path / "out" / "file.csv"
        path.parent.mkdir()
        write(path, 0)
        before = path.read_bytes()

        def no_rename(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(trajio.os, "replace", no_rename)
        with pytest.raises(OSError, match="rename failed"):
            write(path, 1)
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == ["file.csv"]

        # a write that fails after its first chunk has gone into the temporary file
        monkeypatch.undo()
        write_atomic, written = trajio._write_atomic, []

        def fail_after_first_chunk(target, chunks):
            def stream():
                chunk = next(iter(chunks))
                written.append(chunk)
                yield chunk
                raise OSError("disk full")

            write_atomic(target, stream())

        monkeypatch.setattr(trajio, "_write_atomic", fail_after_first_chunk)
        with pytest.raises(OSError, match="disk full"):
            write(path, 1)
        assert len(written) == 1 and path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == ["file.csv"]

    @pytest.mark.parametrize("row, message", [
        ("0,1,1,3,inf", "needs a finite fraction"),
        ("0,1,1,3,nan", "needs a finite fraction"),
        ("0,1,1,,0.5", "needs a count from 0 to 2**63 - 1, as the file's rows carry counts"),
        ("0,1,1,-4,0.5", "needs a count from 0 to 2**63 - 1, as the file's rows carry counts"),
        (f"0,1,1,{2**63},0.5", "needs a count from 0 to 2**63 - 1, as the file's rows carry counts"),
    ], ids=["fraction-inf", "fraction-nan", "count-missing", "count-negative", "count-beyond-int64"])
    def test_refuses_a_cell_compare_would_misread(self, tmp_path, row, message):
        path = tmp_path / "t.csv"
        path.write_text(f"{_HEAD}0,1,2,1,0.25\n{row}\n1,1,1,3,0.5\n1,1,2,1,0.25\n")
        with pytest.raises(ValueError) as info:
            read_trajectory(path)
        assert str(info.value) == f"{path}: row {row.split(',')} {message}"

    def test_an_island_beyond_the_rows_is_a_missing_cell(self, tmp_path):
        # refused before any array is sized by the index
        path = tmp_path / "t.csv"
        path.write_text(f"{_HEAD}0,{2**70},1,,0.5\n")
        with pytest.raises(ValueError) as info:
            read_trajectory(path)
        assert str(info.value) == f"{path}: sparse rows; every (time, island, strain) cell is required"

    def test_fractions_just_outside_the_unit_interval_read_back(self, tmp_path):
        # the integrator's simplex guard lets states sit a little below 0 or above 1
        path = tmp_path / "t.csv"
        path.write_text(f"{_HEAD}0,1,1,,-1e-12\n0,1,2,,1.000000000001\n")
        assert read_trajectory(path).fractions.tolist() == [[[-1e-12, 1.000000000001]]]

    def test_crlf_line_ends_read_back(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes((_HEAD + "0,1,1,,0.5\n1,1,1,,0.25\n").replace("\n", "\r\n").encode())
        back = read_trajectory(path)
        assert back.metadata == {"kind": "meanfield"}
        assert back.times.tolist() == [0.0, 1.0] and back.fractions.ravel().tolist() == [0.5, 0.25]

    @given(_trajectories())
    @example(("ode", [-0.0, 5e-324], np.array(
        [-0.0, 0.0, 5e-324, 2.2250738585072009e-308, 1e-310, 1.0, 1 - 2**-53, 1 + 2**-52]).reshape(2, 2, 2), None))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_write_then_read_is_exact(self, tmp_path_factory, case):
        kind, times, values, sizes = case
        path = tmp_path_factory.mktemp("roundtrip") / "t.csv"
        times = np.asarray(times, dtype=float)
        if kind == "ode":
            traj = OdeTrajectory(times, values, StepControl(), 0, 0)
            write_ode_trajectory(path, traj, extra_meta={"params_hash": "h: 1"})
            meta = {"kind": "meanfield", **{f"integrator_{k}": str(v)
                                            for k, v in traj.integrator_metadata().items()}}
            fractions, counts = values, None
        else:
            traj = MicroTrajectory(times, values, sizes, seed=3, rep=1, event_totals={("infect", 1, 1): 2})
            write_micro_trajectory(path, traj, extra_meta={"params_hash": "h: 1"})
            meta = {"kind": "micro", "simulator": "count-level", "seed": "3", "rep": "1",
                    "rng": RNG_ALGORITHM, "n_events": "2", "sizes": " ".join(map(str, sizes))}
            fractions, counts = traj.fractions(), values
        back = read_trajectory(path)
        assert back.metadata == {**meta, "params_hash": "h: 1"}
        assert back.times.view(np.uint64).tolist() == times.view(np.uint64).tolist()
        assert back.fractions.shape == fractions.shape
        assert back.fractions.view(np.uint64).tolist() == fractions.view(np.uint64).tolist()
        if counts is None:
            assert back.counts is None
        else:
            assert back.counts.dtype == np.int64 and back.counts.tolist() == counts.tolist()

    def test_writing_streams_one_sample_time_at_a_time(self, tmp_path):
        # 101 x 1000 x 2, the shape of the meanfield-cycle1000 benchmark: about 8.4 MB on disk
        states = np.random.default_rng(0).random((101, 1000, 2))
        traj = OdeTrajectory(np.linspace(0.0, 20.0, 101), states, StepControl(), 0, 0)
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            write_ode_trajectory(path, traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4, (peak, path.stat().st_size)


# sha256 of plotdata outputs of `_pin_inputs`' files (two islands, two strains), pinned
# before plot rows were rendered through the trajectory writer's per-time chunks
PINNED_PLOT_SHA256 = {
    "series": "486f2f2488a6fc420d657c732e543cf0796eef9257ac0d6eebb86ba7b94c7fb9",
    "overlay": "9381953dd4c38e278bfd5dfcaa9787fdefdc299f6cb9877af51c86a4c3ab2478",
    "overlay-one-micro": "67e9d0660c2f5b52c2271ff10976141b5659708141f904682e2855fcf9405175",
    "series-quoted-stem": "9c760bae3bc9229024e0bd6c810e4644f77e526f72a295888d3cd50dfe982f9e",
}


class TestPlotData:
    def _write_ode(self, path, y0=((0.3,), (0.7,))):
        params = MeanFieldParams.symmetric(bipartite_supernetwork(1, 1), 2.0)
        traj = integrate(params, np.asarray(y0), 2.0, t_eval=np.linspace(0, 2, 5))
        write_ode_trajectory(path, traj)

    def _pin_inputs(self, tmp_path):
        """Three micro replications and one ODE trajectory on one grid."""
        net = bipartite_supernetwork(20, 20)
        params = StrainParams.uniform(net, [2.0, 1.5])
        grid = np.linspace(0, 2, 5)
        micro = []
        for rep in range(3):
            micro.append(tmp_path / f"m{rep}.csv")
            write_micro_trajectory(
                micro[-1], simulate(MacroCounts(((3, 2), (2, 3)), (20, 20)), net, params, 2.0, 7, grid, rep))
        ode = tmp_path / "ode.csv"
        mf = MeanFieldParams.symmetric(bipartite_supernetwork(1, 1), [2.0, 1.5])
        write_ode_trajectory(ode, integrate(mf, np.array([[0.15, 0.1], [0.1, 0.15]]), 2.0, t_eval=grid))
        return micro, ode

    @pytest.mark.parametrize("case", list(PINNED_PLOT_SHA256))
    def test_output_bytes_are_pinned(self, tmp_path, case):
        micro, ode = self._pin_inputs(tmp_path)
        quoted = tmp_path / 'a,b"c\nd.csv'  # a stem csv quotes: a comma, a quote and a newline
        quoted.write_bytes(ode.read_bytes())
        inputs, mode, rows = {
            "series": (micro + [ode], "series", 4 * 5 * 2 * 2),
            "overlay": (micro + [ode], "overlay", 3 * 5 * 2 * 2),
            "overlay-one-micro": (micro[:1], "overlay", 2 * 5 * 2 * 2),
            "series-quoted-stem": ([micro[0], quoted], "series", 2 * 5 * 2 * 2),
        }[case]
        out = tmp_path / "plot.csv"
        assert emit_plot_data(inputs, mode, out) == rows
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_PLOT_SHA256[case]

    def test_a_stem_with_a_carriage_return_reads_back_one_row_per_value(self, tmp_path):
        src = tmp_path / "a\rb.csv"
        self._write_ode(src)
        out = tmp_path / "plot.csv"
        rows = emit_plot_data([src], "series", out)
        with open(out, newline="") as handle:
            read = list(csv.reader(handle))
        assert read[0] == ["time", "series", "value"] and len(read) == rows + 1 == 11
        assert {row[1] for row in read[1:]} == {"a\rb:island1:strain1", "a\rb:island2:strain1"}

    def test_rendering_streams_one_sample_time_at_a_time(self, tmp_path, monkeypatch):
        # 101 x 1000 x 2, the shape of the meanfield-cycle1000 benchmark; the input is read
        # beforehand so that the peak is the render's alone
        states = np.random.default_rng(0).random((101, 1000, 2))
        src = tmp_path / "big.csv"
        write_ode_trajectory(src, OdeTrajectory(np.linspace(0.0, 20.0, 101), states, StepControl(), 0, 0))
        data = read_trajectory(src)
        monkeypatch.setattr(trajio, "read_trajectory", lambda path: data)
        out = tmp_path / "plot.csv"
        tracemalloc.start()
        try:
            rows = emit_plot_data([src], "series", out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == states.size
        assert peak < out.stat().st_size / 4, (peak, out.stat().st_size)

    def test_series_refuses_a_repeated_file_stem(self, tmp_path):
        # every simulate run names its files traj_rep0000.csv, ...: two runs' rep 0 share a stem
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a, b = tmp_path / "a" / "x.csv", tmp_path / "b" / "x.csv"
        self._write_ode(a)
        self._write_ode(b, y0=((0.2,), (0.6,)))
        out = tmp_path / "plot.csv"
        with pytest.raises(ValueError, match="'x'"):
            emit_plot_data([a, b], "series", out)
        assert not out.exists()

    def test_overlay_refuses_an_input_of_unknown_kind(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write_ode(a)
        b.write_text("".join(line for line in a.read_text().splitlines(keepends=True)
                             if line != "# kind: meanfield\n"))
        assert read_trajectory(b).kind == "unknown"
        out = tmp_path / "plot.csv"
        for inputs in ([b], [a, b]):
            with pytest.raises(ValueError, match=f"^{re.escape(str(b))}: "):
                emit_plot_data(inputs, "overlay", out)
        assert not out.exists()

    def test_empty_inputs_header_only(self, tmp_path):
        out = tmp_path / "plot.csv"
        assert emit_plot_data([], "series", out) == 0
        assert out.read_text() == "time,series,value\n"

    def test_one_ode_one_series_per_cell(self, tmp_path):
        src = tmp_path / "ode.csv"
        self._write_ode(src)
        out = tmp_path / "plot.csv"
        rows = emit_plot_data([src], "series", out)
        lines = out.read_text().strip().splitlines()
        assert rows == 5 * 2 * 1 == len(lines) - 1
        labels = {line.split(",")[1] for line in lines[1:]}
        assert labels == {"ode:island1:strain1", "ode:island2:strain1"}

    def test_overlay_three_series_per_cell(self, tmp_path):
        net = bipartite_supernetwork(20, 20)
        params = StrainParams.uniform(net, 2.0)
        grid = np.linspace(0, 2, 5)
        micro_paths = []
        for rep in range(3):
            traj = simulate(MacroCounts(((4,), (4,)), (20, 20)), net, params, 2.0, 3, grid, rep)
            p = tmp_path / f"m{rep}.csv"
            write_micro_trajectory(p, traj)
            micro_paths.append(p)
        ode = tmp_path / "ode.csv"
        self._write_ode(ode, y0=((0.2,), (0.2,)))
        out = tmp_path / "plot.csv"
        emit_plot_data(micro_paths + [ode], "overlay", out)
        labels = {line.split(",")[1] for line in out.read_text().strip().splitlines()[1:]}
        assert labels == {
            f"{kind}:island{i}:strain1" for kind in ("mean", "stderr", "ode") for i in (1, 2)
        }

    def test_mismatched_grids_rejected(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write_ode(a)
        params = MeanFieldParams.symmetric(bipartite_supernetwork(1, 1), 2.0)
        # another point count, and the same 5 times stretched by a relative 5e-6: within
        # np.allclose, yet another grid (files carry 17 digits, so equal grids read back equal)
        stretch = 1 + 5e-6
        for t_end, t_eval in ((2.0, np.linspace(0, 2, 9)),
                              (2.0 * stretch, np.linspace(0, 2, 5) * stretch)):
            write_ode_trajectory(b, integrate(params, np.array([[0.3], [0.7]]), t_end, t_eval=t_eval))
            with pytest.raises(ValueError, match="time grid"):
                emit_plot_data([a, b], "series", tmp_path / "p.csv")


class TestRunSimulate:
    def test_outputs_and_manifest(self, tmp_path):
        manifest = run_simulate(cfg_with(), tmp_path)
        assert manifest["replications"] == 3
        assert manifest["rng_algorithm"] == "philox4x64"
        assert (tmp_path / "manifest.json").exists()
        for name in manifest["files"]:
            data = read_trajectory(tmp_path / name)
            assert data.counts[0].sum() == 2 * round(0.2 * 30)
        stored = read_manifest(tmp_path / "manifest.json")
        assert stored["config_hash"] == canonical_hash(cfg_with().resolved())

    def test_manifest_stats_count_each_replications_events(self, tmp_path):
        manifest = run_simulate(cfg_with(), tmp_path)
        per_file = [int(read_trajectory(tmp_path / name).metadata["n_events"])
                    for name in manifest["files"]]
        assert read_manifest(tmp_path / "manifest.json")["stats"] == {"n_events": per_file}
        assert len(per_file) == 3 and min(per_file) > 0

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_simulate(cfg_with(), a)
        run_simulate(cfg_with(), b)
        for name in ("traj_rep0000.csv", "traj_rep0002.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        ma, mb = read_manifest(a / "manifest.json"), read_manifest(b / "manifest.json")
        ma.pop("created_at"), mb.pop("created_at")
        assert ma == mb

    def test_worker_pool_matches_serial(self, tmp_path):
        serial, pooled = tmp_path / "s", tmp_path / "p"
        run_simulate(cfg_with(), serial)
        run_simulate(cfg_with(workers=2), pooled)
        for name in read_manifest(serial / "manifest.json")["files"]:
            assert (serial / name).read_bytes() == (pooled / name).read_bytes()

    def test_zero_initial_zero_everywhere(self, tmp_path):
        run_simulate(cfg_with(initial={"kind": "uniform", "fraction": 0.0}), tmp_path)
        data = read_trajectory(tmp_path / "traj_rep0000.csv")
        assert data.counts.sum() == 0

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_simulate(cfg_with(seed=1), a)
        run_simulate(cfg_with(seed=2), b)
        assert (a / "traj_rep0000.csv").read_bytes() != (b / "traj_rep0000.csv").read_bytes()

    def test_mean_final_fraction_tracks_ode(self, tmp_path):
        # N=500 per island, gamma=2, initial fraction 0.1: the mean final
        # fraction should sit within the sampling band of the ODE value.
        cfg = cfg_with(
            sizes=500,
            replications=6,
            t_end=10.0,
            grid=6,
            initial={"kind": "uniform", "fraction": 0.1},
        )
        run_simulate(cfg, tmp_path)
        finals = []
        for name in read_manifest(tmp_path / "manifest.json")["files"]:
            finals.append(read_trajectory(tmp_path / name).fractions[-1])
        net = bipartite_supernetwork(500, 500)
        ode = integrate(
            MeanFieldParams.symmetric(net, 2.0), np.full((2, 1), 0.1), 10.0
        ).final
        assert np.abs(np.mean(finals, axis=0) - ode).max() < 0.05


class TestMeanfieldRun:
    def test_writes_trajectory(self, tmp_path):
        run_meanfield(cfg_with(), tmp_path)
        data = read_trajectory(tmp_path / "meanfield.csv")
        assert data.kind == "meanfield"
        assert data.metadata["regime"] == "symmetric"
        assert data.fractions[0, 0, 0] == 0.2

    def test_healing_rate_rescaling(self, tmp_path):
        # gamma=4, mu=2 in micro units equals normalized gamma=2 at time mu*t
        fast = cfg_with(strains=[{"gamma": 4.0, "mu": 2.0}], t_end=3.0, grid=4)
        run_meanfield(fast, tmp_path)
        data = read_trajectory(tmp_path / "meanfield.csv")
        params = MeanFieldParams.symmetric(bipartite_supernetwork(1, 1), 2.0)
        direct = integrate(
            params, np.full((2, 1), 0.2), 6.0, t_eval=2.0 * data.times
        )
        assert np.abs(direct.states - data.fractions).max() < 1e-12
        assert np.array_equal(data.times, np.linspace(0, 3, 4))


class TestConverge:
    def test_self_comparison_is_zero(self):
        states = np.linspace(0, 1, 24).reshape(4, 3, 2)
        dev, idx = sup_deviation(states, states)
        assert dev == 0.0 and len(idx) == 3

    def test_small_schedule_report(self, tmp_path):
        cfg = cfg_with(size_schedule=[40, 80, 160], replications=6, t_end=2.0, grid=5)
        report = run_converge(cfg, tmp_path)
        assert [r.size for r in report.records] == [40, 80, 160]
        assert all(r.deviation >= 0 for r in report.records)
        assert all(r.replications == 6 for r in report.records)
        stored = read_manifest(tmp_path / "convergence_report.json")
        assert stored["records"][0]["size"] == 40
        assert "heuristic" in stored["tolerance_heuristic"]

    def test_schedule_required(self, tmp_path):
        with pytest.raises(ConfigError, match="size_schedule"):
            run_converge(cfg_with(), tmp_path)


class TestCompare:
    def test_compare_after_simulate(self, tmp_path):
        cfg = cfg_with(sizes=400, replications=4, t_end=2.0, grid=5)
        run_simulate(cfg, tmp_path)
        report = run_compare(cfg, tmp_path)
        assert report["replications"] == 4
        assert 0 <= report["sup_deviation"] < 0.2
        assert "passed" not in report

    def test_threshold_verdict(self, tmp_path):
        cfg = cfg_with(sizes=400, replications=4, t_end=2.0, grid=5)
        run_simulate(cfg, tmp_path)
        cfg.raw["compare"] = {"max_deviation": 1e-12}
        assert run_compare(cfg, tmp_path)["passed"] is False
        cfg.raw["compare"] = {"max_deviation": 0.5}
        assert run_compare(cfg, tmp_path)["passed"] is True

    def test_requires_manifest(self, tmp_path):
        with pytest.raises(ConfigError, match="manifest"):
            run_compare(cfg_with(), tmp_path)

    def test_shared_out_dir_with_meanfield(self, tmp_path):
        # a meanfield run into the same directory must not confuse compare
        cfg = cfg_with(sizes=200, replications=3, t_end=2.0, grid=5)
        run_simulate(cfg, tmp_path)
        run_meanfield(cfg, tmp_path)
        assert (tmp_path / "meanfield_manifest.json").exists()
        report = run_compare(cfg, tmp_path)
        assert report["replications"] == 3


def test_unknown_suite_name():
    with pytest.raises(ValueError, match="unknown suite"):
        run_theorem_suite("not-a-suite")


class _Recorded(Exception):
    pass


@pytest.mark.parametrize("name", ["bipartite-single", "bipartite-bivirus", "regular-single",
                                  "regular-multivirus"])
def test_suite_dominance_pairs_hold_in_one_stacked_check(name, monkeypatch):
    # The suite's own seeded draws, stopped at its dominance check, then checked stacked
    from islandsis.analysis import check_dominance
    from islandsis.harness import suites

    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        raise _Recorded

    monkeypatch.setattr(suites, "check_dominance", record)
    with pytest.raises(_Recorded):
        run_theorem_suite(name)
    (params, lows, highs, t_end), kwargs = calls[0]
    assert lows.shape == highs.shape == (20, params.net.num_islands, params.num_strains)
    assert check_dominance(params, lows, highs, t_end, **kwargs) is None


_UNION_BLOCKS = (  # (network, rates of strains 1 and 2), each rate used by one block only
    (cycle_supernetwork(3, 1), (1.5, 0.7)),
    (complete_supernetwork(4, 1), (0.9, 0.4)),
    (cycle_supernetwork(5, 1), (2.5, 1.25)),
)


def _union_of_blocks():
    blocks = [MeanFieldParams.symmetric(net, gammas) for net, gammas in _UNION_BLOCKS]
    return blocks, disjoint_union(blocks)


def test_disjoint_union_keeps_each_block_on_its_own_edges():
    blocks, union = _union_of_blocks()
    first = np.cumsum([0] + [p.net.num_islands for p in blocks])  # 0-based first island per block
    assert union.net.sizes == (1,) * first[-1]
    owner = np.searchsorted(first, np.arange(first[-1]), side="right") - 1
    for (j, i), rates in zip(union.net.in_edge_pairs, union.w.T):
        assert owner[j - 1] == owner[i - 1]
        assert tuple(rates) == _UNION_BLOCKS[owner[i - 1]][1]
    assert union.w.shape[1] == sum(p.w.shape[1] for p in blocks)


def test_disjoint_union_blocks_evolve_as_if_alone():
    blocks, union = _union_of_blocks()
    starts = [np.full((3, 2), 0.2), np.array([[0.1, 0.3]] * 4), np.zeros((5, 2))]
    final = integrate(union, np.vstack(starts), 50.0).final
    row = 0
    for p, y0 in zip(blocks, starts):
        m = p.net.num_islands
        alone = integrate(p, y0, 50.0).final
        assert np.abs(final[row:row + m] - alone).max() <= 1e-8
        row += m
    assert np.all(final[7:] == 0.0)
    assert final[:3].max() > 0.1 and final[3:7].max() > 0.1


def test_gap_profile_batch_matches_each_start_alone(monkeypatch):
    # The suite's own five starts, stopped at its gap-contraction call
    from islandsis.harness import suites

    calls = []

    def record(*args):
        calls.append(args)
        raise _Recorded

    monkeypatch.setattr(suites, "gap_derivative_profile", record)
    with pytest.raises(_Recorded):
        run_theorem_suite("bipartite-single")
    monkeypatch.undo()
    params, starts = calls[0]
    assert starts.shape == (5, 2, 1)

    w, dw, predicted = suites.gap_derivative_profile(params, starts)
    worst_inc, worst_fd = 0.0, 0.0
    for b, y0 in enumerate(starts):
        w1, dw1, predicted1 = suites.gap_derivative_profile(params, y0)
        assert np.abs(w[:, b] - w1).max() <= 1e-12
        worst_inc = max(worst_inc, float(np.max(np.diff(w1))))
        worst_fd = max(worst_fd, float(np.abs(dw1 - predicted1).max()))
    assert max(0.0, float(np.max(np.diff(w, axis=0)))) == worst_inc
    assert float(np.abs(dw - predicted).max()) == worst_fd
