import math

import numpy as np
import pytest

from islandsis.analysis import (
    EXTINCTION,
    PERSISTENCE,
    LocalSign,
    UnmetHypothesisError,
    check_dominance,
    classify_multi,
    classify_single,
    equilibrium_fraction,
    first_grid_violation,
    lyapunov_error,
    sign_probe,
    taylor_coefficients,
)
from islandsis.meanfield import MeanFieldParams, StepControl, integrate, rhs
from islandsis.topology import (
    bipartite_supernetwork,
    build_supernetwork,
    cycle_supernetwork,
    hop_distances,
    star_supernetwork,
)

BIP = bipartite_supernetwork(1, 1)


class TestEquilibriumFraction:
    def test_values(self):
        assert equilibrium_fraction(1, 2.0) == 0.5
        assert equilibrium_fraction(3, 1.0) == pytest.approx(2 / 3)
        assert equilibrium_fraction(2, 0.4) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            equilibrium_fraction(0, 1.0)
        with pytest.raises(ValueError):
            equilibrium_fraction(1, 0.0)


class TestClassifySingle:
    def test_bipartite_persistence(self):
        cls = classify_single(BIP, 2.0)
        assert cls.verdict == PERSISTENCE and cls.level == 0.5 and cls.strain == 1

    def test_bipartite_threshold_extinction(self):
        cls = classify_single(BIP, 1.0)
        assert cls.verdict == EXTINCTION and cls.level == 0.0

    def test_six_cycle_level_and_long_run(self):
        net = cycle_supernetwork(6, 1)
        cls = classify_single(net, 0.6)
        assert cls.verdict == PERSISTENCE
        assert cls.level == pytest.approx(1 - 1 / 1.2)
        rng = np.random.default_rng(4)
        traj = integrate(
            MeanFieldParams.symmetric(net, 0.6), rng.uniform(0.05, 0.9, (6, 1)), 500.0
        )
        assert np.abs(traj.final - cls.level).max() < 1e-4

    def test_refusals(self):
        with pytest.raises(UnmetHypothesisError):
            classify_single(star_supernetwork(4, 1), 2.0)
        with pytest.raises(UnmetHypothesisError):
            classify_single(build_supernetwork([1, 1, 1, 1], [(1, 2), (3, 4)]), 2.0)


class TestClassifyMulti:
    def test_winner_on_bipartite(self):
        cls = classify_multi(BIP, (3.0, 2.0))
        assert cls.verdict == PERSISTENCE and cls.strain == 1
        assert cls.level == pytest.approx(2 / 3)

    def test_subthreshold_extinction(self):
        cls = classify_multi(cycle_supernetwork(4, 1), (0.45, 0.3))
        assert cls.verdict == EXTINCTION
        assert cls.threshold == pytest.approx(0.9)

    def test_tie_refused(self):
        with pytest.raises(UnmetHypothesisError, match="tie"):
            classify_multi(BIP, (2.0, 2.0))

    def test_nan_rate_refused(self):
        with pytest.raises(ValueError, match="positive"):
            classify_multi(BIP, [float("nan")])

    def test_winner_need_not_be_first(self):
        cls = classify_multi(BIP, (1.5, 4.0, 2.0))
        assert cls.strain == 2 and cls.level == pytest.approx(0.75)


class TestDominance:
    def test_equal_states_hold(self):
        params = MeanFieldParams.symmetric(BIP, 2.0)
        z = np.array([[0.2], [0.4]])
        assert check_dominance(params, z, z, 10.0) is None

    def test_single_strain_pair_holds(self):
        params = MeanFieldParams.symmetric(BIP, 2.0)
        rep = check_dominance(params, np.array([[0.1], [0.2]]), np.array([[0.3], [0.2]]), 50.0)
        assert rep is None

    def test_two_strain_pair_holds(self):
        params = MeanFieldParams.symmetric(BIP, (2.5, 1.5))
        lo = np.array([[0.1, 0.4], [0.2, 0.3]])
        hi = np.array([[0.2, 0.3], [0.2, 0.1]])
        assert check_dominance(params, lo, hi, 100.0) is None

    def test_hypothesis_violation_refused(self):
        params = MeanFieldParams.symmetric(BIP, 2.0)
        with pytest.raises(UnmetHypothesisError):
            check_dominance(params, np.array([[0.4], [0.2]]), np.array([[0.3], [0.2]]), 10.0)

    def test_three_strains_refused(self):
        params = MeanFieldParams.symmetric(BIP, (1.0, 2.0, 3.0))
        z = np.zeros((2, 3))
        with pytest.raises(UnmetHypothesisError):
            check_dominance(params, z, z, 1.0)

    def test_violation_detector_reports_earliest(self):
        times = np.array([0.0, 1.0, 2.0])
        lows = np.zeros((3, 2, 1))
        highs = np.zeros((3, 2, 1))
        lows[1, 1, 0] = 5e-4  # low exceeds high at t=1, island 2
        lows[2, 0, 0] = 2e-3
        v = first_grid_violation(times, lows, highs, np.array([1.0]), tol=1e-9)
        assert v is not None
        assert (v.time, v.island, v.strain) == (1.0, 2, 1)
        assert v.magnitude == pytest.approx(5e-4)

    def test_stacked_violations_report_the_earliest_time_then_c_order(self):
        times = np.array([0.0, 1.0, 2.0, 3.0])
        lows = np.zeros((4, 3, 2, 2))  # (T, P, M, K)
        highs = np.zeros((4, 3, 2, 2))
        lows[2, 0, 0, 0] = 1e-3  # later, though first in C order
        lows[1, 2, 0, 1] = 4e-4  # pair 3 ties with pair 2 at t=1 but comes later
        lows[1, 1, 1, 0] = 3e-4  # pair 2, island 2, strain 1
        lows[1, 1, 1, 1] = 5e-4  # same pair and island, strain 2 comes later
        v = first_grid_violation(times, lows, highs, np.array([1.0, 1.0]), tol=1e-9)
        assert (v.time, v.pair, v.island, v.strain) == (1.0, 1, 2, 1)
        assert v.magnitude == pytest.approx(3e-4)
        assert first_grid_violation(times, highs, highs, np.array([1.0, 1.0]), tol=1e-9) is None

    def test_unstacked_violation_is_pair_zero(self):
        lows = np.zeros((2, 2, 1))
        lows[1, 1, 0] = 1e-3
        v = first_grid_violation(np.array([0.0, 1.0]), lows, np.zeros((2, 2, 1)),
                                 np.array([1.0]), tol=1e-9)
        assert (v.time, v.pair, v.island, v.strain) == (1.0, 0, 2, 1)

    def test_stacked_pairs_hold(self):
        params = MeanFieldParams.symmetric(BIP, (2.5, 1.5))
        lo = np.array([[[0.1, 0.4], [0.2, 0.3]], [[0.0, 0.5], [0.1, 0.6]]])
        hi = np.array([[[0.2, 0.3], [0.2, 0.1]], [[0.3, 0.2], [0.4, 0.1]]])
        assert check_dominance(params, lo, hi, 50.0) is None

    def test_stacked_pair_out_of_order_refused(self):
        params = MeanFieldParams.symmetric(BIP, 2.0)
        lo = np.array([[[0.1], [0.2]], [[0.4], [0.2]], [[0.0], [0.0]]])
        hi = np.array([[[0.3], [0.2]], [[0.3], [0.2]], [[0.1], [0.1]]])
        with pytest.raises(UnmetHypothesisError):
            check_dominance(params, lo, hi, 10.0)

    def test_pairs_of_different_shapes_refused(self):
        params = MeanFieldParams.symmetric(BIP, 2.0)
        z = np.array([[0.1], [0.2]])
        with pytest.raises(ValueError, match="shape"):
            check_dominance(params, z, np.stack([z, z]), 10.0)

    @pytest.mark.parametrize("grid", [1, 0, True, False, np.int64(1)])
    def test_grid_count_below_two_refused(self, grid):
        # one sample time is t = 0, where the ordering holds by hypothesis
        params = MeanFieldParams.symmetric(BIP, 2.0)
        z = np.array([[0.1], [0.2]])
        with pytest.raises(ValueError, match="grid"):
            check_dominance(params, z, z, 10.0, grid=grid)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_bad_tolerance_refused(self, tol):
        # nan and inf would hide any violation; -1 would flag an ordered pair at t = 0
        params = MeanFieldParams.symmetric(BIP, 2.0)
        lo, hi = np.array([[0.1], [0.2]]), np.array([[0.3], [0.2]])
        with pytest.raises(ValueError, match="tol"):
            check_dominance(params, lo, hi, 10.0, tol=tol)

    def test_numpy_integer_grid_count_accepted(self):
        params = MeanFieldParams.symmetric(BIP, 2.0)
        lo, hi = np.array([[0.1], [0.2]]), np.array([[0.3], [0.2]])
        assert check_dominance(params, lo, hi, 50.0, grid=np.int64(101)) is None
        assert check_dominance(params, lo, hi, 50.0, grid=np.int32(2)) is None

    def test_randomized_pairs_hold(self):
        params = MeanFieldParams.symmetric(cycle_supernetwork(6, 1), 1.0)
        rng = np.random.default_rng(12)
        for _ in range(10):
            hi = rng.uniform(0, 1, (6, 1))
            lo = hi * rng.uniform(0, 1, (6, 1))
            assert check_dominance(params, lo, hi, 40.0, tol=1e-9) is None


class TestTaylor:
    def setup_method(self):
        self.net = cycle_supernetwork(8, 1)
        self.params = MeanFieldParams.symmetric(self.net, 2.0)
        self.y0 = np.zeros((8, 1))
        self.y0[0, 0] = 0.5

    def test_disease_free_all_zero(self):
        table = taylor_coefficients(self.params, np.zeros((8, 1)), 6)
        assert np.all(table.coeff[1:] == 0.0)

    def test_order_zero_and_one(self):
        table = taylor_coefficients(self.params, self.y0, 5)
        assert np.array_equal(table.coeff[0], self.y0)
        assert np.array_equal(table.coeff[1], rhs(self.y0, self.params))

    def test_hop_order_structure(self):
        table = taylor_coefficients(self.params, self.y0, 6)
        hops = hop_distances(self.net, 1)
        for j in range(2, 9):
            n = hops[j]
            col = table.coeff[:, j - 1, 0]
            assert np.all(col[:n] == 0.0), f"island {j}"
            assert col[n] > 1e-12, f"island {j}"
            assert sign_probe(col[1:]) is LocalSign.LOCALLY_POSITIVE

    def test_zero_ball_gives_zero_orders(self):
        # no infection on island 1 or within two hops: orders 1..2 vanish
        y0 = np.zeros((8, 1))
        for j in (4, 5, 6):
            y0[j - 1, 0] = 0.4
        table = taylor_coefficients(self.params, y0, 4)
        assert np.all(table.coeff[1:3, 0, 0] == 0.0)
        assert table.coeff[3, 0, 0] > 1e-12

    def test_rows_scale_by_powers_of_the_healing_rate(self):
        # the recursion runs in units of mu; row n is y^(n)(0)/n! in the caller's time
        healing = MeanFieldParams(self.net, self.params.w, 2.5)
        unit = taylor_coefficients(self.params, self.y0, 5).coeff
        scaled = taylor_coefficients(healing, self.y0, 5).coeff
        assert np.array_equal(scaled, unit * (2.5 ** np.arange(6.0))[:, None, None])

    def test_polynomial_truncation_order(self):
        # halving the evaluation time cuts a degree-n polynomial's error by
        # at least 2^n / 1.5 (the next term dominates)
        table = taylor_coefficients(self.params, self.y0, 6)
        tight = StepControl(rtol=1e-12, atol=1e-14)
        h = 0.05
        for n in range(1, 5):
            errs = []
            for hh in (h, h / 2):
                ref = integrate(self.params, self.y0, hh, control=tight).final
                errs.append(np.abs(table.polynomial(hh, order=n) - ref).max())
            assert errs[0] / errs[1] >= 2**n / 1.5, n

    @pytest.mark.parametrize("order", [-1, 7])
    def test_polynomial_refuses_an_order_outside_the_table(self, order):
        table = taylor_coefficients(self.params, self.y0, 6)
        with pytest.raises(ValueError, match=r"^order must be within 0\.\.6$"):
            table.polynomial(0.1, order=order)

    def test_equal_within_ball_equal_derivatives(self):
        # two-strain states equal on island 1 and both shells within 2 hops;
        # island 4 (hop 3) differs, so orders through 2 coincide exactly
        net = cycle_supernetwork(6, 1)
        params = MeanFieldParams.symmetric(net, (2.0, 1.5))
        base = np.full((6, 2), 0.15)
        bumped = base.copy()
        bumped[3, 0] += 0.2
        ta = taylor_coefficients(params, bumped, 4)
        tb = taylor_coefficients(params, base, 4)
        assert np.array_equal(ta.coeff[:3, 0, :], tb.coeff[:3, 0, :])
        assert ta.coeff[3, 0, 0] > tb.coeff[3, 0, 0]

    def test_order_limit_enforced(self):
        with pytest.raises(ValueError):
            taylor_coefficients(self.params, self.y0, 13)
        with pytest.raises(ValueError):
            taylor_coefficients(self.params, self.y0, -1)

    def test_batched_start_refused_naming_the_state_shape(self):
        shapes = r"one state of shape \(M, K\) = \(8, 1\), got shape \(3, 8, 1\)"
        with pytest.raises(ValueError, match=shapes):
            taylor_coefficients(self.params, np.stack([self.y0] * 3), 4)


class TestSignProbe:
    def test_documented_cases(self):
        assert sign_probe((0.0, 0.0, 3.2)) is LocalSign.LOCALLY_POSITIVE
        assert sign_probe((0.0, 0.0, 0.0)) is LocalSign.ZERO
        assert sign_probe((0.0, -0.5, 1.0)) is LocalSign.LOCALLY_NEGATIVE

    def test_subthreshold_noise_inconclusive(self):
        assert sign_probe((0.0, 5e-13, -2e-13)) is LocalSign.INCONCLUSIVE
        assert sign_probe((0.0, 2e-12)) is LocalSign.LOCALLY_POSITIVE

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sign_probe(())

    def test_non_finite_coefficient_refused(self):
        # a NaN is not skipped in favour of the next coefficient
        with pytest.raises(ValueError, match="coefficients must be finite"):
            sign_probe([math.nan, 1.0])


class TestLyapunovError:
    def test_values(self):
        assert lyapunov_error(np.array([0.5, 0.5])) == 0.0
        assert lyapunov_error(np.array([[0.8], [0.2]])) == pytest.approx(0.18)

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            lyapunov_error(np.array([0.1, 0.2, 0.3]))

    def test_batched_states(self):
        states = np.random.default_rng(3).uniform(0.0, 1.0, (4, 3, 2, 1))
        w = lyapunov_error(states)
        assert w.shape == (4, 3)
        assert w.tolist() == [[lyapunov_error(s) for s in row] for row in states]
        for two_strain in (np.full((2, 2), 0.1), np.full((4, 2, 2), 0.1)):
            with pytest.raises(ValueError):
                lyapunov_error(two_strain)

    def test_decreases_along_flow_with_known_rate(self):
        gamma = 2.0
        params = MeanFieldParams.symmetric(BIP, gamma)
        grid = np.linspace(0.0, 3.0, 601)
        traj = integrate(
            params, np.array([[0.9], [0.15]]), 3.0, t_eval=grid,
            control=StepControl(rtol=1e-12, atol=1e-14),
        )
        w = np.array([lyapunov_error(state) for state in traj.states])
        assert np.all(np.diff(w) <= 1e-12)
        dw = (-w[4:] + 8 * w[3:-1] - 8 * w[1:-3] + w[:-4]) / (12 * 0.005)
        diff = traj.states[2:-2, 0, 0] - traj.states[2:-2, 1, 0]
        assert np.abs(dw + diff**2 * (gamma + 1)).max() < 1e-6
