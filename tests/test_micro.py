import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islandsis import micro
from islandsis.harness.config import ConfigError, ExperimentConfig
from islandsis.meanfield import MeanFieldParams, integrate
from islandsis.micro import (
    HEAL,
    INFECT,
    MacroCounts,
    StrainParams,
    event_rates,
    node_level_simulate,
    replication_rng,
    simulate,
)
from islandsis.topology import bipartite_supernetwork, build_supernetwork, cycle_supernetwork

BIP33 = bipartite_supernetwork(3, 3)


def unit_rates(net=BIP33):
    # gamma = mu = 1 as exact rationals, so rate arithmetic stays rational
    return StrainParams.uniform(net, Fraction(1), Fraction(1))


def run_simulator(simulator, counts0, net, params, t_end, seed, grid, rep=0):
    """`simulate`, or `node_level_simulate` from node states with the same counts."""
    if simulator == "count":
        return simulate(counts0, net, params, t_end, seed, grid, rep=rep)
    initial = [[k + 1 for k, c in enumerate(row) for _ in range(c)] + [0] * (n - sum(row))
               for row, n in zip(counts0.y, counts0.sizes)]
    return node_level_simulate(net, params, initial, t_end, seed, grid, rep=rep)


class TestEventRates:
    def test_one_and_two_infected(self):
        # Y = (1, 2): pressure into island 1 is 2*gamma on 2/3 healthy targets
        table = event_rates(MacroCounts(((1,), (2,)), (3, 3)), BIP33, unit_rates())
        assert table.get((INFECT, 1, 1), 0) == Fraction(4, 3)
        assert table.get((INFECT, 2, 1), 0) == Fraction(1, 3)
        infect_total = sum(r for (kind, _, _), r in table.items() if kind == INFECT)
        assert infect_total == Fraction(5, 3)
        assert table.get((HEAL, 1, 1), 0) == 1
        assert table.get((HEAL, 2, 1), 0) == 2

    def test_fully_infected_island(self):
        table = event_rates(MacroCounts(((0,), (3,)), (3, 3)), BIP33, unit_rates())
        assert table.get((INFECT, 1, 1), 0) == 3
        assert table.get((INFECT, 2, 1), 0) == 0
        assert sum(r for (kind, _, _), r in table.items() if kind == INFECT) == 3

    def test_all_zero_is_absorbing(self):
        table = event_rates(MacroCounts(((0,), (0,)), (3, 3)), BIP33, unit_rates())
        assert list(table.items()) == []
        assert sum(table.values()) == 0

    def test_scales_linearly_in_gamma(self):
        g = Fraction(7, 2)
        table = event_rates(
            MacroCounts(((1,), (2,)), (3, 3)), BIP33, StrainParams.uniform(BIP33, g, Fraction(1))
        )
        assert table.get((INFECT, 1, 1), 0) == g * Fraction(4, 3)

    def test_dimension_mismatch_rejected(self):
        other = bipartite_supernetwork(4, 4)
        with pytest.raises(ValueError):
            event_rates(MacroCounts(((1,), (2,)), (3, 3)), other, unit_rates(other))
        with pytest.raises(ValueError):
            event_rates(MacroCounts(((1, 0), (2, 0)), (3, 3)), BIP33, unit_rates())


class TestMacroCounts:
    def test_exclusion_enforced_at_construction(self):
        with pytest.raises(ValueError):
            MacroCounts(((2, 2),), (3,))
        with pytest.raises(ValueError):
            MacroCounts(((-1,), (0,)), (3, 3))

    @pytest.mark.parametrize("y, message", [
        (((1.5,), (0,)), "integers"),
        (((True,), (0,)), "integers"),
        (((1, 0), (0,)), "one count per strain"),
        (((0,), (0,), (0,)), "disagree on the number of islands"),
    ], ids=["fraction", "bool", "ragged", "extra-island"])
    def test_non_integer_or_ragged_counts_refused(self, y, message):
        with pytest.raises(ValueError, match=message):
            MacroCounts(y, (3, 3))

    def test_numpy_integer_counts_accepted(self):
        counts = MacroCounts(((np.int64(1),), (np.int32(0),)), (3, 3))
        assert simulate(counts, BIP33, unit_rates(), 1.0, 0, [0.0]).counts[0, 0, 0] == 1

    def test_from_fractions_rounds(self):
        counts = MacroCounts.from_fractions(BIP33, [[0.34], [0.5]])
        assert counts.y == ((1,), (2,))

    def test_from_fractions_never_overfills(self):
        # 0.5 * 3 rounds to 2 for both strains, 4 > 3: largest remainder
        # gives the tied leftover seat to the lower strain index
        counts = MacroCounts.from_fractions(BIP33, [[0.5, 0.5], [0.2, 0.7]])
        assert counts.y == ((2, 1), (1, 2))
        assert MacroCounts.from_fractions(BIP33, [[0.2, 0.7], [0.5, 0.5]]).y == ((1, 2), (2, 1))

    def test_from_fractions_keeps_rows_that_fit(self):
        # every row whose per-strain rounding fits keeps exactly that rounding
        net = bipartite_supernetwork(7, 10)
        fractions = [[0.5, 0.21, 0.29], [0.25, 0.35, 0.05]]
        counts = MacroCounts.from_fractions(net, fractions)
        assert counts.y == ((4, 1, 2), (2, 4, 0))
        assert counts.y == tuple(
            tuple(int(round(f * n)) for f in row) for row, n in zip(fractions, net.sizes)
        )

    def test_from_fractions_still_rejects_overfull_input(self):
        with pytest.raises(ValueError):
            MacroCounts.from_fractions(BIP33, [[0.7, 0.7], [0.0, 0.0]])

    @pytest.mark.parametrize("fractions", [[[0.1], [0.2], [0.3]], [0.1, 0.2, 0.9], [[0.1]],
                                           [[[0.1]], [[0.2]]]],
                             ids=["extra-row", "extra-entry", "missing-row", "3-d"])
    def test_from_fractions_refuses_a_shape_other_than_one_row_per_island(self, fractions):
        with pytest.raises(ValueError, match=r"shape \(M,\) or \(M, K\) with M = 2"):
            MacroCounts.from_fractions(bipartite_supernetwork(10, 10), fractions)


class TestSimulate:
    def test_zero_initial_stays_zero(self):
        traj = simulate(
            MacroCounts(((0,), (0,)), (3, 3)), BIP33, unit_rates(), 5.0, 1, np.linspace(0, 5, 11)
        )
        assert traj.counts.sum() == 0 and traj.n_events == 0

    @pytest.mark.parametrize("simulator", ["count", "node"])
    def test_same_seed_bit_identical(self, simulator):
        args = (simulator, MacroCounts(((2,), (1,)), (3, 3)), BIP33, StrainParams.uniform(BIP33, 2.0))
        a = run_simulator(*args, 4.0, 99, np.linspace(0, 4, 9), rep=3)
        b = run_simulator(*args, 4.0, 99, np.linspace(0, 4, 9), rep=3)
        assert np.array_equal(a.counts, b.counts)
        assert a.event_totals == b.event_totals
        c = run_simulator(*args, 4.0, 99, np.linspace(0, 4, 9), rep=4)
        assert not np.array_equal(a.counts, c.counts)

    @pytest.mark.parametrize("simulator", ["count", "node"])
    def test_grid_validation(self, simulator):
        counts = MacroCounts(((0,), (0,)), (3, 3))
        with pytest.raises(ValueError):
            run_simulator(simulator, counts, BIP33, unit_rates(), 1.0, 0, [0.0, 2.0])
        with pytest.raises(ValueError):
            run_simulator(simulator, counts, BIP33, unit_rates(), 1.0, 0, [0.5, 0.5])
        with pytest.raises(ValueError):
            run_simulator(simulator, counts, BIP33, unit_rates(), -1.0, 0, [0.0])
        with pytest.raises(ValueError, match="t_end"):
            run_simulator(simulator, counts, BIP33, unit_rates(), math.inf, 0, [0.0, 1.0])
        for grid in ([math.nan, 0.5], [0.0, math.nan, 1.0], [0.0, math.nan]):
            with pytest.raises(ValueError, match="sample grid"):
                run_simulator(simulator, counts, BIP33, unit_rates(), 1.0, 0, grid)

    def test_tracks_ode_at_large_sizes(self):
        # One replication at N=2000 per island should sit near the stable
        # point 1 - 1/gamma = 0.5, within the O(1/sqrt(N)) band.
        net = bipartite_supernetwork(2000, 2000)
        traj = simulate(
            MacroCounts(((1000,), (1000,)), (2000, 2000)),
            net,
            StrainParams.uniform(net, 2.0),
            10.0,
            5,
            [0.0, 10.0],
        )
        ode = integrate(MeanFieldParams.symmetric(net, 2.0), np.full((2, 1), 0.5), 10.0)
        assert np.abs(traj.fractions()[-1] - ode.final).max() < 0.05

    @pytest.mark.parametrize("simulator", ["count", "node"])
    def test_event_bookkeeping_on_a_two_strain_path(self, simulator):
        # Counts move only by the recorded events, and never leave [0, N]
        net = build_supernetwork([2, 3, 2], [(1, 2), (2, 3)])
        params = StrainParams.uniform(net, (1.5, 0.7), (1.0, 1.3))
        counts0 = MacroCounts(((1, 0), (0, 1), (1, 1)), (2, 3, 2))
        for rep in range(5):
            traj = run_simulator(simulator, counts0, net, params, 4.0, 11, np.linspace(0, 4, 17),
                                 rep=rep)
            assert traj.n_events > 0
            assert traj.n_events == sum(traj.event_totals.values())
            for i in range(3):
                for k in range(2):
                    moved = traj.counts[-1, i, k] - counts0.y[i][k]
                    infections = traj.event_totals.get((INFECT, i + 1, k + 1), 0)
                    heals = traj.event_totals.get((HEAL, i + 1, k + 1), 0)
                    assert moved == infections - heals
            assert traj.counts.min() >= 0
            assert np.all(traj.counts.sum(axis=2) <= np.asarray(net.sizes))


_INCREASING = "sample grid times must be strictly increasing and >= 0"
_BEYOND = "sample grid extends beyond t_end"
_SHAPE = "sample grid must be a non-empty 1-d sequence of times"
_NOT_FINITE = "expected a finite number"


@pytest.mark.parametrize("grid, message, config_message", [
    ([0.0, math.nan, 1.0], _INCREASING, _NOT_FINITE),
    ([0.0, 0.5, 0.5], _INCREASING, _INCREASING),
    ([0.0, 0.7, 0.4], _INCREASING, _INCREASING),
    ([-1.0, 0.5], _INCREASING, _INCREASING),
    ([0.0, math.inf], _BEYOND, _NOT_FINITE),
    ([0.0, 0.5, 1.5], _BEYOND, _BEYOND),
    ([], _SHAPE, _SHAPE),
    ([[0.0, 0.5]], _SHAPE, _NOT_FINITE),
], ids=["nan", "repeated", "decreasing", "negative", "inf", "past-t-end", "empty", "2-d"])
def test_one_grid_rule_refuses_with_its_message(grid, message, config_message):
    # simulate, integrate and the config reader share micro._prepare_grid; the config's
    # number reader refuses a non-finite or nested time first, naming its entry
    with pytest.raises(ValueError, match=f"^{message}$"):
        simulate(MacroCounts(((1,), (0,)), (3, 3)), BIP33, unit_rates(), 1.0, 0, grid)
    with pytest.raises(ValueError, match=f"^{message}$"):
        integrate(MeanFieldParams.symmetric(BIP33, 2.0), np.full((2, 1), 0.1), 1.0, t_eval=grid)
    cfg = ExperimentConfig.from_dict({"t_end": 1.0, "grid": grid})
    with pytest.raises(ConfigError, match=f"^grid(\\[\\d\\])?: {config_message}") as refused:
        cfg.grid_times()
    assert refused.value.field.startswith("grid")


def test_one_grid_rule_accepts_negative_zero():
    grid = [-0.0, 1.0]
    traj = simulate(MacroCounts(((1,), (0,)), (3, 3)), BIP33, unit_rates(), 1.0, 0, grid)
    assert traj.times.tolist() == grid
    ode = integrate(MeanFieldParams.symmetric(BIP33, 2.0), np.full((2, 1), 0.1), 1.0, t_eval=grid)
    assert ode.times.tolist() == grid
    assert ExperimentConfig.from_dict({"t_end": 1.0, "grid": grid}).grid_times().tolist() == grid


def _watch_events(monkeypatch, watch):
    """Call watch(net, params, state, rates, index) before the first event of `_gillespie`
    (index None) and after every event (the index of the move fired)."""
    loop = micro._gillespie

    def watched(net, params, t_end, grid, rng, state, rates, fire):
        def fire_and_watch(index):
            lo = fire(index)
            watch(net, params, state, rates, index)
            return lo

        watch(net, params, state, rates, None)
        return loop(net, params, t_end, grid, rng, state, rates, fire_and_watch)

    monkeypatch.setattr(micro, "_gillespie", watched)


class _Enough(Exception):
    pass


@st.composite
def slot_table_cases(draw):
    """A network of unequal sizes, K = 1-3, a distinct float rate per edge and strain, and counts."""
    m = draw(st.integers(2, 5))
    sizes = draw(st.lists(st.integers(1, 12), min_size=m, max_size=m, unique=True))
    pairs = [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    net = build_supernetwork(sizes, edges)
    kk = draw(st.integers(1, 3))
    rates = draw(st.lists(st.floats(0.2, 6.0), min_size=kk * (len(net.in_edge_pairs) + 1),
                          max_size=kk * (len(net.in_edge_pairs) + 1), unique=True))
    gamma = tuple(tuple(rates[k * len(net.in_edge_pairs):(k + 1) * len(net.in_edge_pairs)])
                  for k in range(kk))
    params = StrainParams(net, gamma, tuple(rates[-kk:]))
    rows = []
    for n in sizes:
        row = []
        for _ in range(kk):
            row.append(draw(st.integers(0, n - sum(row))))
        rows.append(row)
    if not any(map(sum, rows)):
        rows[0][0] = 1  # at least one infected node
    return net, params, MacroCounts(tuple(map(tuple, rows)), net.sizes), draw(st.integers(0, 2**32))


class TestSlotTable:
    @settings(max_examples=40, deadline=None)
    @given(case=slot_table_cases())
    def test_slots_equal_event_rates_after_every_event(self, case):
        # The slots are updated in place and event_rates recomputes every rate; both use
        # the one rate formula on the same float params, so they agree exactly.
        net, params, counts0, seed = case
        left = []  # the moves at the start and after each event

        def check(net, params, state, rates, index):
            table = event_rates(MacroCounts(tuple(map(tuple, state)), net.sizes), net, params)
            nonzero = [(s, r) for s, r in enumerate(rates) if r != 0]
            assert [micro._slot_key(s, params.num_strains) for s, _ in nonzero] == list(table)
            assert [r for _, r in nonzero] == list(table.values())
            left.append(table)
            if len(left) > 50:
                raise _Enough

        with pytest.MonkeyPatch.context() as mp:
            _watch_events(mp, check)
            try:
                traj = simulate(counts0, net, params, 1e6, seed, [0.0])
            except _Enough:
                return
        # fewer than 50 events: the chain reached the all-healthy state
        assert traj.n_events == len(left) - 1 and left[-1] == {}

    def test_an_event_recomputes_only_the_slots_it_changes(self, monkeypatch):
        # 64-island cycle, K = 2: an event at island i recomputes at most K + 1 + deg(i) = 5
        # of the 2 * M * K = 256 slots, whatever M is
        net = cycle_supernetwork(64, 20)
        params = StrainParams.uniform(net, (1.6, 1.3), (1.0, 1.2))
        counts0 = MacroCounts(tuple(((i * 7) % 5, (i * 3) % 4) for i in range(64)), net.sizes)
        calls = []
        slot_rate = micro._slot_rate
        monkeypatch.setattr(micro, "_slot_rate", lambda *args: calls.append(args[-1]) or slot_rate(*args))
        per_event = []

        def count(net, params, state, rates, index):
            if index is None:  # the table built before the first event
                assert len(calls) == len(rates) == 256
                calls.clear()
                return
            i = (index >> 1) // params.num_strains
            per_event.append((len(calls), params.num_strains + 1 + len(net.neighbors[i])))
            calls.clear()

        _watch_events(monkeypatch, count)
        traj = simulate(counts0, net, params, 0.5, 3, [0.0, 0.5])
        assert traj.n_events == len(per_event) > 100
        assert all(n <= bound == 5 for n, bound in per_event)

    def test_fraction_params_give_the_float_params_trajectory(self, monkeypatch):
        # simulate converts rates to float on entry; no rate here is exact in binary, so
        # rates formed in exact arithmetic would differ from these in their last bits
        net = build_supernetwork([3, 5, 4], [(1, 2), (2, 3)])
        exact = StrainParams(net, tuple(tuple(Fraction(10 + 3 * e + k, 3) for e in range(4))
                                        for k in range(2)), (Fraction(11, 10), Fraction(4, 3)))
        as_float = StrainParams(net, tuple(tuple(map(float, row)) for row in exact.gamma),
                                tuple(map(float, exact.mu)))
        counts0 = MacroCounts(((1, 1), (0, 2), (2, 0)), net.sizes)
        tables = []
        _watch_events(monkeypatch, lambda net, params, state, rates, index: tables.append(list(rates)))
        for rep in range(3):
            a = simulate(counts0, net, exact, 3.0, 17, np.linspace(0, 3, 31), rep=rep)
            exact_tables, tables[:] = tables[:], []
            b = simulate(counts0, net, as_float, 3.0, 17, np.linspace(0, 3, 31), rep=rep)
            assert a.n_events > 0
            assert np.array_equal(a.counts, b.counts) and a.event_totals == b.event_totals
            assert exact_tables == tables and all(type(r) is float for t in tables for r in t)
            tables.clear()


class TestNodeLevel:
    def test_all_healthy_stays_zero(self):
        traj = node_level_simulate(
            BIP33, unit_rates(), [[0, 0, 0], [0, 0, 0]], 3.0, 0, [0.0, 3.0]
        )
        assert traj.counts.sum() == 0

    def test_initial_state_validation(self):
        with pytest.raises(ValueError):
            node_level_simulate(BIP33, unit_rates(), [[0, 0], [0, 0, 0]], 1.0, 0, [0.0])
        with pytest.raises(ValueError):
            node_level_simulate(BIP33, unit_rates(), [[2, 0, 0], [0, 0, 0]], 1.0, 0, [0.0])

    @pytest.mark.parametrize("state", [1.7, True], ids=["fraction", "bool"])
    def test_non_integer_node_state_refused(self, state):
        with pytest.raises(ValueError, match="integers"):
            node_level_simulate(BIP33, unit_rates(), [[state, 0, 0], [0, 0, 0]], 1.0, 0, [0.0])

    def test_numpy_integer_node_states_accepted(self):
        initial = np.array([[1, 0, 0], [0, 0, 0]])
        traj = node_level_simulate(BIP33, unit_rates(), initial, 1.0, 0, [0.0])
        assert traj.counts[0, 0, 0] == 1

    def test_mean_trajectory_matches_count_level(self):
        # Same law: empirical means over 200 replications agree within 3 SE.
        params = StrainParams.uniform(BIP33, 1.5, 1.0)
        grid = np.linspace(0.0, 2.0, 5)
        reps = 200
        count_frac = np.stack(
            [
                simulate(
                    MacroCounts(((1,), (0,)), (3, 3)), BIP33, params, 2.0, 31, grid, rep=r
                ).fractions()
                for r in range(reps)
            ]
        )
        node_frac = np.stack(
            [
                node_level_simulate(
                    BIP33, params, [[1, 0, 0], [0, 0, 0]], 2.0, 47, grid, rep=r
                ).fractions()
                for r in range(reps)
            ]
        )
        gap = np.abs(count_frac.mean(axis=0) - node_frac.mean(axis=0))
        se = np.sqrt(
            count_frac.var(axis=0, ddof=1) / reps + node_frac.var(axis=0, ddof=1) / reps
        )
        assert np.all(gap <= 3 * se + 1e-12)


@pytest.mark.parametrize("simulator", ["count", "node"])
def test_without_healing_counts_never_drop(simulator):
    # With negligible healing the only events that fire are infections
    params = StrainParams.uniform(BIP33, 2.0, 1e-12)
    traj = run_simulator(simulator, MacroCounts(((1,), (0,)), (3, 3)), BIP33, params, 6.0, 8,
                         np.linspace(0, 6, 25))
    totals = traj.counts.sum(axis=(1, 2))
    assert np.all(np.diff(totals) >= 0)
    assert traj.n_events > 0 and {kind for kind, _, _ in traj.event_totals} == {INFECT}


def test_replication_rng_streams_are_stable():
    a = replication_rng(123, 0).random(4)
    b = replication_rng(123, 0).random(4)
    c = replication_rng(123, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # Philox keeps 64 bits per key word; a larger seed would alias a smaller one's stream
    replication_rng(2**64 - 1, 2**64 - 1).random()
    for seed, rep in ((-1, 0), (5, -1), (2**64 + 5, 0), (2**64, 0), (0, 2**64)):
        with pytest.raises(ValueError, match=r"2\*\*64"):
            replication_rng(seed, rep)


def _state_equal(a, b):
    """Whether two bit-generator state dicts hold the same values, arrays compared by value."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_state_equal(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


_KEYS = [(0, 0), (11, 5), (2**64 - 1, 2**64 - 1)] + [
    tuple(int(w) for w in pair)
    for pair in np.random.default_rng(2027).integers(0, 2**64, size=(5, 2), dtype=np.uint64)]


@pytest.mark.parametrize("seed, rep", _KEYS)
def test_a_rekeyed_generator_starts_replication_rngs_stream(seed, rep):
    # The simulators re-key one generator per thread; numpy owns the state layout, so a
    # change to it fails here instead of changing every stream
    fresh = np.random.Philox(key=seed | rep << 64).state
    rng = micro._rekeyed_rng(7, 3)
    rng.integers(5)  # a small draw leaves a half-used buffer and a cached 32-bit half
    assert rng.bit_generator.state["buffer_pos"] < 4 and rng.bit_generator.state["has_uint32"]
    for _ in range(2):
        rng = micro._rekeyed_rng(seed, rep)
        assert _state_equal(rng.bit_generator.state, fresh)
        ref = replication_rng(seed, rep)
        for draw in (lambda g: g.random(5), lambda g: g.exponential(0.3, 5),
                     lambda g: g.integers(7, size=9), lambda g: g.integers(2**40, size=3),
                     lambda g: g.random(3)):
            assert np.array_equal(draw(rng), draw(ref))


@pytest.mark.parametrize("seed, rep", [(-1, 0), (5, -1), (2**64 + 5, 0), (2**64, 0), (0, 2**64)])
def test_rekeying_refuses_an_out_of_range_key(seed, rep):
    with pytest.raises(ValueError, match=r"^seed and replication index must lie in \[0, 2\*\*64\)$"):
        micro._rekeyed_rng(seed, rep)


def test_threads_sharing_params_draw_their_own_streams():
    # Two threads at once on disjoint reps and one params whose set-up neither has built yet;
    # each simulator call re-keys its own thread's generator, so both match a serial run
    net = build_supernetwork([3, 4, 2], [(1, 2), (2, 3)])
    initial = [[1, 0, 0], [0, 2, 0, 0], [0, 0]]
    counts0 = MacroCounts(((1, 0), (0, 1), (0, 0)), net.sizes)
    grid = np.linspace(0.0, 3.0, 7)

    def run(params, reps):
        return [(simulate(counts0, net, params, 3.0, 5, grid, rep=rep),
                 node_level_simulate(net, params, initial, 3.0, 6, grid, rep=rep)) for rep in reps]

    def rates():
        return StrainParams.uniform(net, (1.7, 1.2), (1.0, 0.8))

    halves = (range(0, 150), range(150, 300))
    serial = [run(rates(), reps) for reps in halves]
    shared, start = rates(), threading.Barrier(2, timeout=60)
    threaded = [None, None]

    def work(half):
        start.wait()
        threaded[half] = run(shared, halves[half])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(half,)) for half in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for ours, theirs in zip(threaded, serial):
        assert len(ours) == len(theirs) == 150
        for pair, reference in zip(ours, theirs):
            for traj, ref in zip(pair, reference):
                assert np.array_equal(traj.counts, ref.counts)
                assert traj.event_totals == ref.event_totals


def test_params_refuse_another_network_of_the_same_shape():
    # Same sizes and edge count, so the rate rows have the right length for both
    built_for = build_supernetwork([2, 2, 2, 2], [(1, 2), (3, 4)])
    other = build_supernetwork([2, 2, 2, 2], [(1, 3), (2, 4)])
    params = StrainParams.uniform(built_for, 1.5)
    counts = MacroCounts(((1,), (0,), (1,), (0,)), other.sizes)
    grid = [0.0, 1.0]
    with pytest.raises(ValueError, match="different island network"):
        event_rates(counts, other, params)
    with pytest.raises(ValueError, match="different island network"):
        simulate(counts, other, params, 1.0, 0, grid)
    with pytest.raises(ValueError, match="different island network"):
        node_level_simulate(other, params, [[1, 0], [0, 0], [1, 0], [0, 0]], 1.0, 0, grid)
    with pytest.raises(ValueError, match="different island network"):
        MeanFieldParams.from_micro(other, params)
    # an equal network built separately is accepted
    twin = build_supernetwork([2, 2, 2, 2], [(2, 1), (4, 3)])
    assert sum(event_rates(counts, twin, params).values()) == sum(event_rates(counts, built_for, params).values())


def test_params_refuse_a_non_finite_rate():
    with pytest.raises(ValueError, match="strictly positive"):
        StrainParams.uniform(BIP33, math.inf)
    with pytest.raises(ValueError, match="strictly positive"):
        StrainParams.uniform(BIP33, 1.0, math.inf)
    # an exact rate beyond the float range is kept, and the simulators refuse it
    assert StrainParams.uniform(BIP33, Fraction(10) ** 400, Fraction(1)).overflows
    assert not unit_rates().overflows


@pytest.mark.parametrize("build, message", [
    (lambda: StrainParams(BIP33, ((1.0, 1.0),), (1.0, 1.0)), "one rate row per healing rate"),
    (lambda: StrainParams(BIP33, ((1.0, 1.0, 1.0),), (1.0,)), "one rate per directed island edge"),
    (lambda: StrainParams.uniform(BIP33, [1.0, 2.0], [1.0, 1.0, 1.0]), "matching strain counts"),
], ids=["rows-short-of-mus", "row-length", "uniform-strain-counts"])
def test_params_refuse_rate_rows_of_the_wrong_shape(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_a_pick_rounding_past_the_last_partial_sum_fires_the_last_positive_rate(monkeypatch):
    # u * total < total for every u <= 1 - 2**-53 unless the total is subnormal: only then
    # can the pick round up to the total itself and bisect_right run past the partial sums
    class Stub:
        waits = iter([0.0, math.inf])

        def exponential(self, scale):
            return next(self.waits)

        def random(self):
            return 1.0 - 2.0 ** -53

    picks, bisect_right = [], micro.bisect_right

    def recording_bisect_right(acc, x):
        picks.append((bisect_right(acc, x), len(acc)))
        return picks[-1][0]

    monkeypatch.setattr(micro, "_rekeyed_rng", lambda seed, rep: Stub())
    monkeypatch.setattr(micro, "bisect_right", recording_bisect_right)
    params = StrainParams.uniform(BIP33, 1e-308, 1e-308)
    traj = simulate(MacroCounts(((1,), (0,)), BIP33.sizes), BIP33, params, 1.0, 0, [1.0])
    assert picks == [(4, 4)]
    assert traj.event_totals == {("infect", 2, 1): 1}
    assert traj.counts[-1].tolist() == [[1], [1]]


def test_simulators_refuse_rates_that_overflow():
    # gamma * N_j * N_i is 1e310, beyond the float range; without the refusal
    # the total rate is inf and the last event fires forever at zero wait
    net = bipartite_supernetwork(10, 10)
    params = StrainParams.uniform(net, 1e308)
    assert params.overflows and not StrainParams.uniform(net, 1e30).overflows
    grid = [0.0, 1.0]
    with pytest.raises(ValueError, match="overflow"):
        simulate(MacroCounts(((2,), (2,)), net.sizes), net, params, 1.0, 0, grid)
    with pytest.raises(ValueError, match="overflow"):
        node_level_simulate(net, params, [[1] + [0] * 9, [0] * 10], 1.0, 0, grid)
