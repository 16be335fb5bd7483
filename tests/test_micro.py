import math
from fractions import Fraction

import numpy as np
import pytest

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
from islandsis.topology import bipartite_supernetwork, build_supernetwork

BIP33 = bipartite_supernetwork(3, 3)


def unit_rates(net=BIP33):
    # gamma = mu = 1 as exact rationals, so rate arithmetic stays rational
    return StrainParams.uniform(net, Fraction(1), Fraction(1))


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
        table = event_rates(MacroCounts.zeros(BIP33, 1), BIP33, unit_rates())
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


class TestSimulate:
    def test_zero_initial_stays_zero(self):
        traj = simulate(
            MacroCounts.zeros(BIP33, 1), BIP33, unit_rates(), 5.0, 1, np.linspace(0, 5, 11)
        )
        assert traj.counts.sum() == 0 and traj.n_events == 0

    def test_same_seed_bit_identical(self):
        args = (MacroCounts(((2,), (1,)), (3, 3)), BIP33, StrainParams.uniform(BIP33, 2.0))
        a = simulate(*args, 4.0, 99, np.linspace(0, 4, 9), rep=3)
        b = simulate(*args, 4.0, 99, np.linspace(0, 4, 9), rep=3)
        assert np.array_equal(a.counts, b.counts)
        assert a.event_totals == b.event_totals
        c = simulate(*args, 4.0, 99, np.linspace(0, 4, 9), rep=4)
        assert not np.array_equal(a.counts, c.counts)

    def test_grid_validation(self):
        counts = MacroCounts.zeros(BIP33, 1)
        with pytest.raises(ValueError):
            simulate(counts, BIP33, unit_rates(), 1.0, 0, [0.0, 2.0])
        with pytest.raises(ValueError):
            simulate(counts, BIP33, unit_rates(), 1.0, 0, [0.5, 0.5])
        with pytest.raises(ValueError):
            simulate(counts, BIP33, unit_rates(), -1.0, 0, [0.0])

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

    def test_event_bookkeeping_on_a_two_strain_path(self):
        # Counts move only by the recorded events, and never leave [0, N]
        net = build_supernetwork([2, 3, 2], [(1, 2), (2, 3)])
        params = StrainParams.uniform(net, (1.5, 0.7), (1.0, 1.3))
        counts0 = MacroCounts(((1, 0), (0, 1), (1, 1)), (2, 3, 2))
        for rep in range(5):
            traj = simulate(counts0, net, params, 4.0, 11, np.linspace(0, 4, 17), rep=rep)
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
    grid = np.linspace(0, 6, 25)
    if simulator == "count":
        traj = simulate(MacroCounts(((1,), (0,)), (3, 3)), BIP33, params, 6.0, 8, grid)
    else:
        traj = node_level_simulate(BIP33, params, [[1, 0, 0], [0, 0, 0]], 6.0, 8, grid)
    totals = traj.counts.sum(axis=(1, 2))
    assert np.all(np.diff(totals) >= 0)
    assert traj.n_events > 0 and {kind for kind, _, _ in traj.event_totals} == {INFECT}


def test_replication_rng_streams_are_stable():
    a = replication_rng(123, 0).random(4)
    b = replication_rng(123, 0).random(4)
    c = replication_rng(123, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        replication_rng(-1)


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
