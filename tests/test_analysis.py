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
            assert table.first_nonzero_order(j) == n
            assert sign_probe(col[1:]) is LocalSign.LOCALLY_POSITIVE

    def test_zero_ball_gives_zero_orders(self):
        # no infection on island 1 or within two hops: orders 1..2 vanish
        y0 = np.zeros((8, 1))
        for j in (4, 5, 6):
            y0[j - 1, 0] = 0.4
        table = taylor_coefficients(self.params, y0, 4)
        assert np.all(table.coeff[1:3, 0, 0] == 0.0)
        assert table.coeff[3, 0, 0] > 1e-12

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


class TestLyapunovError:
    def test_values(self):
        assert lyapunov_error(np.array([0.5, 0.5])) == 0.0
        assert lyapunov_error(np.array([[0.8], [0.2]])) == pytest.approx(0.18)

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            lyapunov_error(np.array([0.1, 0.2, 0.3]))

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
