"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench/selftest.py -q

Not named test_*.py, so the repository's test run does not collect it.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import verify  # noqa: E402
from islandsis import micro  # noqa: E402
from islandsis.harness.trajio import read_trajectory, write_ode_trajectory  # noqa: E402
from islandsis.meanfield import MeanFieldParams, integrate  # noqa: E402
from islandsis.topology import bipartite_supernetwork, cycle_supernetwork  # noqa: E402
from spans import Boundary, Span, Tracer, self_times  # noqa: E402
from workloads import SelfcheckC9  # noqa: E402


# -- spans --------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("a.inner", 2.0, 3.0, 1, "r"),
        Span("b", 5.0, 9.0, 0, "r"),
        Span("c", 8.0, 11.0, 0, "r"),  # overlaps b and runs past its parent
        Span("other-root", 20.0, 21.5, None, "r"),
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 5, 3 - 1, 1, 4, 3, 1.5])


def test_tracer_nests_spans_and_restores_the_originals():
    lower = types.SimpleNamespace(leaf=lambda x: x + 1)
    upper = types.SimpleNamespace(middle=lambda x: lower.leaf(x) * 2)
    originals = (lower.leaf, upper.middle)
    tracer = Tracer()
    tracer.run = "run-1"
    restore = tracer.install([
        Boundary(upper, "middle", "upper.middle"),
        Boundary(lower, "leaf", "lower.leaf", observe=lambda a, kw, r: {"result": r}, keep=True),
    ])
    try:
        assert tracer.span("root", upper.middle, 3) == 8
    finally:
        restore()
    assert (lower.leaf, upper.middle) == originals
    assert [(s.name, s.parent, s.run) for s in tracer.spans] == [
        ("root", None, "run-1"), ("upper.middle", 0, "run-1"), ("lower.leaf", 1, "run-1")]
    assert tracer.spans[2].counts == {"result": 4}
    assert tracer.kept["lower.leaf"] == [((3,), {})]
    own = self_times(tracer.spans)
    assert all(t >= 0 for t in own) and sum(own) == pytest.approx(tracer.spans[0].duration)


def test_tracer_wraps_a_classmethod_as_a_classmethod():
    class Owner:
        @classmethod
        def make(cls, x):
            return cls, x

    raw = Owner.__dict__["make"]
    tracer = Tracer()
    restore = tracer.install([Boundary(Owner, "make", "owner.make")])
    try:
        assert Owner.make(2) == (Owner, 2)
    finally:
        restore()
    assert Owner.__dict__["make"] is raw
    assert [s.name for s in tracer.spans] == ["owner.make"]


# -- checks pass on good output and fail on corrupted output -------------------

GOOD_C8 = {"records": [{"deviation": 0.05}, {"deviation": 0.02}, {"deviation": 0.01}],
           "monotone_trend": True}


@pytest.mark.parametrize("corrupt", [
    lambda r: r["records"][1].update(deviation=0.06),  # not decreasing
    lambda r: [rec.update(deviation=d) for rec, d in zip(r["records"], (0.2, 0.1, 0.04))],  # last too big
    lambda r: r.update(monotone_trend=False),
    lambda r: r["records"].pop(),
])
def test_converge_check(corrupt):
    good = {"records": [dict(x) for x in GOOD_C8["records"]], "monotone_trend": True}
    assert verify.converge_problems(good) == []
    corrupt(good)
    assert verify.converge_problems(good)


def test_a_statistical_miss_fails_the_run_only_when_it_repeats():
    assert not verify.two_sample_verdict([False, True, False])
    assert verify.two_sample_verdict([True, False, True])


@pytest.fixture(scope="module")
def selfcheck_rows(tmp_path_factory):
    wl = SelfcheckC9(11, tmp_path_factory.mktemp("selfcheck"))
    wl.replications = 3000
    wl.build()
    return wl, wl.call(0)


def test_selfcheck_bookkeeping_check(selfcheck_rows):
    wl, rec = selfcheck_rows
    initial, size = (1, 0), wl.net.sizes[0]
    for kind in ("count", "node"):
        assert verify.selfcheck_invariant_problems(rec[kind], initial, size) == []
    for col, delta in ((0, 1), (2, 1), (6, 1)):  # a final count, an infection total, n_events
        bad = rec["node"].copy()
        bad[7, col] += delta
        assert verify.selfcheck_invariant_problems(bad, initial, size)


def _sample(*chunks):
    sample = verify.C9Sample()
    for rows in chunks:
        sample.add(rows)
    return sample


def test_selfcheck_z_check(selfcheck_rows):
    _, rec = selfcheck_rows
    assert verify.worst_z(_sample(rec["count"]), _sample(rec["node"])) <= verify.Z_LIMIT
    bad = rec["node"].copy()
    bad[: len(bad) // 10, 0:2] = 0  # a tenth of the node-level runs end healthy
    assert verify.worst_z(_sample(rec["count"]), _sample(bad)) > verify.Z_LIMIT


def test_c9_sample_totals_do_not_depend_on_how_rows_arrive(selfcheck_rows):
    _, rec = selfcheck_rows
    rows = rec["node"]
    whole, pieces = _sample(rows), _sample(rows[:1000], rows[1000:1001], rows[1001:])
    assert (whole.n, whole.finals, whole.sums, whole.squares) == \
        (pieces.n, pieces.finals, pieces.sums, pieces.squares)
    for j, col in enumerate((2, 3)):
        assert whole.mean(j) == pytest.approx(rows[:, col].mean(), rel=1e-12)
        assert whole.var(j) == pytest.approx(rows[:, col].astype(float).var(ddof=1), rel=1e-12)


def _small_cycle_run(tmp_path):
    net = cycle_supernetwork(6, 10)
    y0 = np.zeros((6, 2))
    y0[2, 0] = 0.5
    grid = np.linspace(0.0, 5.0, 11)
    traj = integrate(MeanFieldParams.symmetric(net, (0.9, 0.7)), y0, 5.0, t_eval=grid)
    path = tmp_path / "ode.csv"
    write_ode_trajectory(path, traj, times=grid)
    return path, traj, grid, y0


def test_meanfield_readback_check(tmp_path):
    path, traj, grid, _ = _small_cycle_run(tmp_path)
    assert verify.readback_problems(read_trajectory(path), traj.states, grid) == []
    lines = path.read_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("2.5,3,1,"))
    head, frac = lines[row].rsplit(",", 1)
    lines[row] = f"{head},{float(frac) * (1 + 1e-15)!r}"
    path.write_text("\n".join(lines) + "\n")
    assert verify.readback_problems(read_trajectory(path), traj.states, grid)


def test_meanfield_reference_check(tmp_path):
    _, traj, grid, y0 = _small_cycle_run(tmp_path)
    reference = verify.cycle_reference((0.9, 0.7), y0, grid)
    assert verify.reference_gap(traj.states, reference) <= verify.REFERENCE_TOL
    shifted = traj.states.copy()
    shifted[5, 3, 0] += 1e-6
    assert verify.reference_gap(shifted, reference) > verify.REFERENCE_TOL


GOOD_SUITE = {"passed": True, "suites": [
    {"suite": "s1", "checks": [{"name": "a", "passed": True}, {"name": "b", "passed": True}]},
    {"suite": "s2", "checks": [{"name": "c", "passed": True}]},
]}


def test_suite_check():
    assert verify.suite_problems(0, GOOD_SUITE, 3) == []
    assert verify.suite_problems(1, GOOD_SUITE, 3)
    assert verify.suite_problems(0, GOOD_SUITE, 27)
    bad = {"passed": False, "suites": [dict(GOOD_SUITE["suites"][0]),
                                       {"suite": "s2", "checks": [{"name": "c", "passed": False}]}]}
    assert verify.suite_problems(0, bad, 3)


def test_selfcheck_inputs_equal_c9s(tmp_path):
    # Built through harness.config, the workload's inputs are C9's.
    wl = SelfcheckC9(11, tmp_path)
    wl.build()
    net = bipartite_supernetwork(3, 3)
    assert wl.net == net
    assert dict(wl.params.gamma) == dict(micro.StrainParams.uniform(net, 2.0, 1.0).gamma)
    assert wl.counts0 == micro.MacroCounts(((1,), (0,)), (3, 3))
    assert wl.initial_nodes == [[1, 0, 0], [0, 0, 0]]
