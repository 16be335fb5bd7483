import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from islandsis.meanfield import (
    _DP_A,
    _DP_C,
    _DP_ERR,
    IntegrationError,
    MeanFieldParams,
    StepControl,
    _dp_attempt,
    integrate,
    integrate_field,
    reduced_scalar_solution,
    rhs,
    validate_state,
)
from islandsis.micro import StrainParams
from islandsis.topology import (bipartite_supernetwork, complete_supernetwork, cycle_supernetwork,
                                superdegree)

BIP = bipartite_supernetwork(1, 1)


def edge_rates(params):
    """{(strain, source j, target i): rate}, 1-based, read back from the edge list."""
    src, dst = params.net.in_edges
    return {
        (k + 1, j + 1, i + 1): params.w[k, e]
        for k in range(params.num_strains)
        for e, (j, i) in enumerate(zip(src.tolist(), dst.tolist()))
    }


class TestParams:
    def test_off_adjacency_rate_rejected(self):
        rates = {(1, 1, 2): 1.0, (1, 2, 1): 1.0, (1, 1, 1): 1.0}  # (1, 1, 1) is not an edge
        with pytest.raises(ValueError):
            MeanFieldParams.from_rates(BIP, 1, rates)

    def test_from_micro_applies_size_ratios(self):
        net = bipartite_supernetwork(2, 4)
        params = MeanFieldParams.from_micro(net, StrainParams.uniform(net, 3.0))
        rate = edge_rates(params)
        # into island 2 from island 1: alpha = N1/N2 = 1/2; the reverse is 2
        assert rate[(1, 1, 2)] == pytest.approx(1.5)
        assert rate[(1, 2, 1)] == pytest.approx(6.0)
        # size-ratio factors cancel in opposite directions
        assert rate[(1, 1, 2)] * rate[(1, 2, 1)] == pytest.approx(9.0)
        assert not params.is_symmetric_configuration

    def test_from_micro_requires_normalized_healing(self):
        with pytest.raises(ValueError, match=r"\bmu\b"):
            MeanFieldParams.from_micro(BIP, StrainParams.uniform(BIP, (2.0, 1.0), (0.5, 1.0)))

    def test_from_micro_divides_by_the_common_mu(self):
        net = bipartite_supernetwork(2, 4)
        params = MeanFieldParams.from_micro(net, StrainParams.uniform(net, (3.0, 1.0), 2.5))
        assert params.mu == 2.5
        assert edge_rates(params)[(1, 1, 2)] == 3.0 / 2.5 * 2 / 4
        assert edge_rates(params)[(2, 2, 1)] == 1.0 / 2.5 * 4 / 2

    def test_from_micro_reaches_a_finite_rate_past_an_overflowing_product(self):
        # gamma * N_j = 4e308 overflows, but the effective rate gamma * 4 / 4 is 1e308
        net = bipartite_supernetwork(4, 4)
        params = MeanFieldParams.from_micro(net, StrainParams.uniform(net, 1e308))
        assert np.all(params.w == 1e308)
        # into island 1 of 1+4 the rate itself, 1e308 * 4 / 1, overflows
        net = bipartite_supernetwork(1, 4)
        with pytest.raises(ValueError, match="strictly positive and finite"):
            MeanFieldParams.from_micro(net, StrainParams.uniform(net, 1e308))

    @pytest.mark.parametrize("mu", [0.0, -1.0, np.inf, np.nan])
    def test_healing_rate_must_be_positive_and_finite(self, mu):
        with pytest.raises(ValueError, match=r"\bmu\b"):
            MeanFieldParams(BIP, [[1.0, 2.0]], mu)

    def test_symmetric_detection(self):
        assert MeanFieldParams.symmetric(BIP, 2.0).is_symmetric_configuration
        mixed = MeanFieldParams.from_rates(
            cycle_supernetwork(3, 1), 1,
            {(1, 1, 2): 1.0, (1, 2, 1): 1.0, (1, 2, 3): 2.0,
             (1, 3, 2): 2.0, (1, 3, 1): 1.0, (1, 1, 3): 1.0},
        )
        assert not mixed.is_symmetric_configuration
        assert MeanFieldParams.symmetric(BIP, 2.0).uniform_rate() == 2.0

    def test_non_finite_rate_refused(self):
        with pytest.raises(ValueError, match="strictly positive"):
            MeanFieldParams.symmetric(BIP, np.inf)
        with pytest.raises(ValueError, match="strictly positive"):
            MeanFieldParams(BIP, [[1.0, np.inf]])

    def test_uniform_rate_rejects_unknown_strain(self):
        params = MeanFieldParams.symmetric(BIP, (2.0, 0.5))
        assert params.uniform_rate(2) == 0.5
        for strain in (0, 3):
            with pytest.raises(ValueError, match="out of range"):
                params.uniform_rate(strain)


class TestRhs:
    def test_zero_state_is_equilibrium(self):
        params = MeanFieldParams.symmetric(cycle_supernetwork(5, 1), 1.7)
        assert np.all(rhs(np.zeros((5, 1)), params) == 0.0)

    def test_bipartite_balanced_point(self):
        params = MeanFieldParams.symmetric(BIP, 2.0)
        assert np.abs(rhs(np.full((2, 1), 0.5), params)).max() < 1e-15

    def test_four_cycle_balanced_point(self):
        net = cycle_supernetwork(4, 1)
        params = MeanFieldParams.symmetric(net, 1.0)  # d*gamma = 2, level 0.5
        assert np.abs(rhs(np.full((4, 1), 0.5), params)).max() < 1e-12

    def test_dimension_mismatch(self):
        params = MeanFieldParams.symmetric(BIP, 2.0)
        with pytest.raises(ValueError):
            validate_state(np.zeros((3, 1)), params)

    def test_nan_state_rejected(self):
        params = MeanFieldParams.symmetric(BIP, 2.0)
        with pytest.raises(ValueError, match="NaN"):
            validate_state(np.array([[np.nan], [0.1]]), params)

    def test_batched_equals_loop(self):
        params = MeanFieldParams.symmetric(cycle_supernetwork(4, 1), (1.2, 0.5))
        rng = np.random.default_rng(0)
        batch = rng.uniform(0, 0.5, (7, 4, 2))
        stacked = rhs(batch, params)
        for b in range(7):
            assert np.array_equal(stacked[b], rhs(batch[b], params))


class TestIntegrate:
    def test_zero_stays_zero(self):
        params = MeanFieldParams.symmetric(BIP, 2.0)
        traj = integrate(params, np.zeros((2, 1)), 5.0, t_eval=np.linspace(0, 5, 6))
        assert np.all(traj.states == 0.0)

    def test_supercritical_endpoint(self):
        params = MeanFieldParams.symmetric(BIP, 2.0)
        traj = integrate(params, np.array([[0.3], [0.7]]), 50.0)
        assert np.abs(traj.final - 0.5).max() < 1e-6

    def test_subcritical_endpoint(self):
        params = MeanFieldParams.symmetric(BIP, 0.8)
        traj = integrate(params, np.array([[0.9], [0.9]]), 100.0)
        assert np.abs(traj.final).max() < 1e-6

    def test_against_independent_solver(self):
        net = cycle_supernetwork(5, 1)
        params = MeanFieldParams.symmetric(net, (1.4, 0.9))
        rng = np.random.default_rng(3)
        y0 = rng.uniform(0, 0.4, (5, 2))
        mine = integrate(params, y0, 3.0, t_eval=[0.0, 1.5, 3.0])
        ref = solve_ivp(
            lambda t, y: rhs(y.reshape(5, 2), params).ravel(),
            (0, 3.0),
            y0.ravel(),
            t_eval=[0.0, 1.5, 3.0],
            rtol=1e-11,
            atol=1e-13,
        )
        assert np.abs(mine.states.reshape(3, -1) - ref.y.T).max() < 1e-8

    def test_t_eval_hit_exactly(self):
        params = MeanFieldParams.symmetric(BIP, 2.0)
        grid = np.array([0.0, 0.73, 1.1, 2.0])
        traj = integrate(params, np.array([[0.2], [0.1]]), 2.0, t_eval=grid)
        assert np.array_equal(traj.times, grid)

    def test_default_samples_the_endpoint(self):
        params = MeanFieldParams.symmetric(BIP, 2.0)
        y0 = np.array([[0.2], [0.1]])
        traj = integrate(params, y0, 2.0)
        ref = integrate(params, y0, 2.0, t_eval=[2.0])
        assert np.array_equal(traj.times, [2.0]) and traj.states.shape == (1, 2, 1)
        assert np.array_equal(traj.final, ref.final)
        assert (traj.n_steps, traj.n_rejected) == (ref.n_steps, ref.n_rejected)

    def test_uniform_start_stays_uniform(self):
        params = MeanFieldParams.symmetric(cycle_supernetwork(6, 1), 1.0)
        traj = integrate(params, np.full((6, 1), 0.2), 30.0, t_eval=np.linspace(0, 30, 31))
        spread = traj.states.max(axis=1) - traj.states.min(axis=1)
        assert spread.max() < 1e-12

    def test_batch_close_to_single(self):
        params = MeanFieldParams.symmetric(BIP, 2.0)
        y0s = np.array([[[0.3], [0.7]], [[0.1], [0.05]]])
        batch = integrate(params, y0s, 10.0, t_eval=[0.0, 5.0, 10.0])
        for b in range(2):
            single = integrate(params, y0s[b], 10.0, t_eval=[0.0, 5.0, 10.0])
            assert np.abs(batch.states[:, b] - single.states).max() < 1e-9

    @pytest.mark.parametrize("t_eval", [[math.nan, 1.0, 2.0], [0.0, math.nan, 2.0],
                                        [0.0, 1.0, math.nan]])
    def test_nan_sample_time_refused(self, t_eval):
        params = MeanFieldParams.symmetric(BIP, 2.0)
        with pytest.raises(ValueError, match="sample grid"):
            integrate(params, np.array([[0.2], [0.1]]), 2.0, t_eval=t_eval)

    def test_infinite_horizon_refused(self):
        params = MeanFieldParams.symmetric(BIP, 2.0)
        with pytest.raises(ValueError, match="finite"):
            integrate(params, np.array([[0.2], [0.1]]), math.inf)

    def test_healing_rate_runs_the_unit_field_in_scaled_time(self):
        # the field at mu over t is, bit for bit, the same rates at mu = 1 over mu * t
        net = cycle_supernetwork(4, 1)
        unit = MeanFieldParams.from_rates(net, 2, {(k, j, i): 0.5 + 0.3 * k + 0.1 * j
                                                   for k in (1, 2) for j, i in net.in_edge_pairs})
        healing = MeanFieldParams(net, unit.w, 2.5)
        y0 = np.random.default_rng(2).uniform(0, 0.4, (4, 2))
        control = StepControl()
        grid = np.linspace(0.0, 1.2, 7)
        mine = integrate(healing, y0, 1.2, control=control, t_eval=grid)
        ref = integrate(unit, y0, 2.5 * 1.2, control=control, t_eval=2.5 * grid)
        assert np.array_equal(mine.states, ref.states) and np.array_equal(mine.times, grid)
        assert (mine.n_steps, mine.n_rejected) == (ref.n_steps, ref.n_rejected)
        end = integrate(healing, y0, 1.2, control=control)
        end_ref = integrate(unit, y0, 2.5 * 1.2, control=control)
        assert np.array_equal(end.states, end_ref.states) and np.array_equal(end.times, [1.2])
        assert (end.n_steps, end.n_rejected) == (end_ref.n_steps, end_ref.n_rejected)

    def test_invalid_start_rejected(self):
        params = MeanFieldParams.symmetric(BIP, 2.0)
        with pytest.raises(ValueError):
            integrate(params, np.array([[0.8], [1.2]]), 1.0)
        with pytest.raises(ValueError, match="fraction -1.000e-01 below 0"):
            integrate(params, np.array([[-0.1], [0.2]]), 1.0)
        with pytest.raises(ValueError):
            integrate(params, np.array([[0.5], [0.5]]), -1.0)

    def test_steps_past_the_last_sample_do_not_count_against_the_budget(self):
        # both runs start at step min(0.05, t_end / 10) = 0.05, so they take the same steps to t = 1
        params = MeanFieldParams.symmetric(BIP, 2.0)
        y0 = np.array([[0.3], [0.1]])
        short = integrate(params, y0, 1.0)
        needed = short.n_steps + short.n_rejected
        traj = integrate(params, y0, 100.0, control=StepControl(max_steps=needed), t_eval=[0.0, 1.0])
        assert (traj.n_steps, traj.n_rejected) == (short.n_steps, short.n_rejected)
        assert np.array_equal(traj.final, short.final) and np.array_equal(traj.times, [0.0, 1.0])
        with pytest.raises(IntegrationError, match=f"step budget {needed - 1} exhausted"):
            integrate(params, y0, 100.0, control=StepControl(max_steps=needed - 1), t_eval=[0.0, 1.0])

    def test_step_underflow_reported(self):
        # stiff decay inside the simplex: stability needs steps far below h_min
        with pytest.raises(IntegrationError, match="underflow"):
            integrate_field(
                lambda t, y: -1e12 * (y - 0.25), np.array([0.5]), 1.0,
                control=StepControl(rtol=1e-10, h_min=1e-10, max_steps=200_000),
            )

    def test_domain_guard_fails_run(self):
        # a field that walks out of the simplex must abort, not be projected
        with pytest.raises(IntegrationError, match="domain violation"):
            integrate_field(lambda t, y: np.ones_like(y), np.array([[0.5]]), 2.0)

    def test_domain_guard_refuses_nan(self):
        # a NaN trial state makes the error norm NaN, so every attempt is rejected
        with pytest.raises(IntegrationError, match="underflow"):
            integrate_field(lambda t, y: np.full_like(y, np.nan), np.array([[0.5]]), 1.0)


BIP_3_4 = bipartite_supernetwork(3, 4)


@pytest.mark.parametrize("call, error, message", [
    (lambda: MeanFieldParams(BIP, np.ones((1, 3))), ValueError,
     r"rates must have shape \(num_strains, number of directed edges\)"),
    (lambda: MeanFieldParams.from_micro(BIP_3_4, StrainParams.uniform(BIP_3_4, 2.0)).uniform_rate(),
     ValueError, "configuration is not symmetric; no single rate exists"),
    (lambda: MeanFieldParams.symmetric(BIP_3_4, 2.0), ValueError,
     r"a symmetric configuration needs equal island sizes, got \(3, 4\)"),
    (lambda: integrate(MeanFieldParams.symmetric(BIP, 2.0), np.full((2, 1), 0.3), 10.0,
                       control=StepControl(max_steps=3)), IntegrationError, "step budget 3 exhausted"),
], ids=["rates-other-edge-count", "uniform-rate-unequal-sizes", "symmetric-unequal-sizes",
        "rk45-step-budget"])
def test_refusals(call, error, message):
    with pytest.raises(error, match=f"^{message}"):
        call()


@pytest.mark.parametrize("kwargs", [
    {"rtol": -1.0}, {"rtol": np.nan}, {"atol": 0.0}, {"h_min": np.inf}, {"max_steps": 0},
], ids=["rtol-negative", "rtol-nan", "atol-zero", "h_min-inf", "max_steps-zero"])
def test_step_control_refuses_bad_values(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        StepControl(**kwargs)


@given(
    gamma=st.floats(0.2, 4.0),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=25, deadline=None)
def test_forward_invariance(gamma, seed):
    net = cycle_supernetwork(4, 1)
    params = MeanFieldParams.symmetric(net, (gamma, gamma / 2))
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 1, (4, 1))
    y0 = np.hstack([a, rng.uniform(0, 1, (4, 1)) * (1 - a)])
    control = StepControl()
    traj = integrate(params, y0, 25.0, control=control, t_eval=np.linspace(0, 25, 26))
    slack = 10 * control.tolerance
    assert traj.states.min() >= -slack
    assert traj.states.sum(axis=-1).max() <= 1 + slack


class TestReducedScalar:
    def test_zero_start(self):
        assert reduced_scalar_solution(2, 1.5, 0.0, 7.3) == 0.0

    def test_fixed_point_is_exact(self):
        for t in (0.0, 1.0, 55.0):
            assert reduced_scalar_solution(1, 2.0, 0.5, t) == pytest.approx(0.5, abs=1e-15)

    def test_frozen_oracle_value(self):
        # independent high-accuracy integration of dy/dt = 3y(1-y) - y from 0.1
        assert reduced_scalar_solution(2, 1.5, 0.1, 5.0) == pytest.approx(
            0.6664951999334904, abs=1e-8
        )

    def test_matches_tight_integration_every_regime(self):
        grid = np.linspace(0.0, 12.0, 25)
        for d, gamma, y0 in [(2, 1.5, 0.1), (1, 0.6, 0.8), (2, 0.5, 0.9), (3, 1.0, 0.02)]:
            closed = reduced_scalar_solution(d, gamma, y0, grid)
            ref = solve_ivp(
                lambda t, y: d * gamma * y * (1 - y) - y,
                (0, 12.0), [y0], t_eval=grid, rtol=1e-12, atol=1e-14,
            )
            assert np.abs(closed - ref.y[0]).max() < 1e-9, (d, gamma, y0)

    def test_satisfies_the_ode(self):
        # five-point stencil derivative against the field, residual < 1e-10
        h = 1e-3
        for d, gamma, y0 in [(2, 1.5, 0.1), (1, 2.0, 0.85), (2, 0.5, 0.6)]:
            t = np.linspace(5 * h, 3.0, 40)
            y = reduced_scalar_solution(d, gamma, y0, t)
            stencil = (
                -reduced_scalar_solution(d, gamma, y0, t + 2 * h)
                + 8 * reduced_scalar_solution(d, gamma, y0, t + h)
                - 8 * reduced_scalar_solution(d, gamma, y0, t - h)
                + reduced_scalar_solution(d, gamma, y0, t - 2 * h)
            ) / (12 * h)
            residual = stencil - (d * gamma * y * (1 - y) - y)
            assert np.abs(residual).max() < 1e-10, (d, gamma, y0)

    @pytest.mark.parametrize("net", [bipartite_supernetwork(1, 1), cycle_supernetwork(5, 1),
                                     complete_supernetwork(4, 1)], ids=["d1", "d2", "d3"])
    def test_dp45_at_default_control_matches_closed_form(self, net):
        # below (0.5), at (1) and above (2) the critical coupling d*gamma = 1
        d = superdegree(net, 1)
        grid = np.linspace(0.0, 20.0, 81)
        for d_gamma in (0.5, 1.0, 2.0):
            params = MeanFieldParams.symmetric(net, d_gamma / d)
            for y0 in (0.05, 0.5, 0.95):
                traj = integrate(params, np.full((net.num_islands, 1), y0), 20.0, t_eval=grid)
                closed = reduced_scalar_solution(d, d_gamma / d, y0, grid)
                gap = np.abs(traj.states[:, :, 0] - closed[:, None]).max()
                assert gap <= 1e-8, (d, d_gamma, y0, gap)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            reduced_scalar_solution(0, 1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            reduced_scalar_solution(1, -1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            reduced_scalar_solution(1, 1.0, 1.5, 1.0)
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            reduced_scalar_solution(1, math.inf, 0.3, 1.0)


def reduced_bivirus(d, gamma_x, gamma_y, x0, y0, t_end):
    """The uniform two-strain reduction on a d-regular symmetric configuration,
    integrated as the field on bipartite 1+1 at rates d*gamma and sampled at
    101 evenly spaced times; states are (x, y) on island 1."""
    params = MeanFieldParams.symmetric(BIP, (d * gamma_x, d * gamma_y))
    grid = np.linspace(0.0, t_end, 101)
    traj = integrate(params, np.full((2, 2), (x0, y0)), t_end, t_eval=grid)
    traj.states = traj.states[:, 0]
    return traj


class TestReducedBivirus:
    def test_extinct_strain_stays_zero(self):
        traj = reduced_bivirus(1, 3.0, 2.0, 0.0, 0.4, 30.0)
        assert traj.times.size == 101 and np.all(traj.states[:, 0] == 0.0)
        assert np.all(traj.states[1:, 1] > 0.0)

    def test_winner_limit(self):
        traj = reduced_bivirus(1, 3.0, 2.0, 0.2, 0.2, 200.0)
        assert abs(traj.final[0] - 2 / 3) < 1e-4
        assert abs(traj.final[1]) < 1e-4

    def test_subthreshold_dies(self):
        traj = reduced_bivirus(2, 0.4, 0.3, 0.2, 0.2, 200.0)
        assert np.abs(traj.final).max() < 1e-4

    def test_simplex_validation(self):
        with pytest.raises(ValueError):
            reduced_bivirus(1, 1.0, 1.0, 0.7, 0.5, 1.0)

    def test_nan_input_refused(self):
        with pytest.raises(ValueError, match="rates"):
            reduced_bivirus(1, np.nan, 2.0, 0.2, 0.2, 1.0)
        with pytest.raises(ValueError, match="simplex"):
            reduced_bivirus(1, 3.0, 2.0, np.nan, 0.2, 1.0)

    @pytest.mark.parametrize("net", [BIP, cycle_supernetwork(5, 1), complete_supernetwork(4, 1)],
                             ids=["bipartite", "cycle5", "complete4"])
    def test_integrate_matches_an_independent_solver(self, net):
        # The scalar pair, written out and solved by scipy, against the full
        # field from a uniform start on a d-regular network: every island
        # stays equal bit for bit and within the envelope check's slack.
        d = superdegree(net, 1)
        grid = np.linspace(0.0, 60.0, 121)
        for gx, gy in ((3.0, 2.0), (0.8, 1.7), (0.4, 0.3)):
            def pair(t, z):
                free = 1.0 - z[0] - z[1]
                return [d * gx * z[0] * free - z[0], d * gy * z[1] * free - z[1]]

            params = MeanFieldParams.symmetric(net, (gx, gy))
            for x0, y0 in ((0.2, 0.3), (0.05, 0.9), (0.6, 0.01)):
                traj = integrate(params, np.full((net.num_islands, 2), (x0, y0)), 60.0, t_eval=grid)
                assert np.all(traj.states == traj.states[:, :1]), (d, gx, gy, x0, y0)
                ref = solve_ivp(pair, (0.0, 60.0), [x0, y0], method="DOP853", t_eval=grid,
                                rtol=1e-12, atol=1e-14)
                gap = np.abs(traj.states[:, 0] - ref.y.T).max()
                assert gap <= 1e-7, (d, gx, gy, x0, y0, gap)


def _frozen_dp_step(f, t, y, h):
    """The Dormand-Prince step as it stood before first-same-as-last, kept as the reference."""
    with np.errstate(over="ignore", invalid="ignore"):
        k = [f(t, y)]
        for s in range(1, 7):
            ys = y + h * sum(a * ki for a, ki in zip(_DP_A[s], k))
            k.append(f(t + _DP_C[s] * h, ys))
        err = h * sum(e * ki for e, ki in zip(_DP_ERR, k) if e != 0.0)
    return ys, err


def _same_bits(a, b):
    """Equal shapes, NaN in the same places, and every other entry equal bit for bit."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    return a[~np.isnan(a)].tobytes() == b[~np.isnan(b)].tobytes()


def _random_state(rng, shape):
    """Strain fractions in the simplex, a third of them exact zeros of either sign."""
    y = rng.uniform(0.0, 1.0, shape) / shape[-1]
    zeros = rng.uniform(size=shape) < 1 / 3
    y[zeros] = np.where(rng.uniform(size=shape) < 0.5, 0.0, -0.0)[zeros]
    return y


class TestLeanStep:
    NETS = (bipartite_supernetwork(1, 1), cycle_supernetwork(4, 1), complete_supernetwork(3, 1))

    def _cases(self, rng):
        """(field, state, step, start time) drawn at random, 2400 in all."""
        for i in range(2400):
            net = self.NETS[i % 3]
            kk = 1 + i % 2
            shape = (net.num_islands, kk) if i % 4 < 2 else (3, 2, net.num_islands, kk)
            y = _random_state(rng, shape)
            t = float(rng.uniform(0.0, 5.0))
            kind = i % 6
            h = float(rng.uniform(0.01, 1.0))
            if kind == 0:  # a field that maps exact zeros to -0.0
                yield (lambda t, y: -y), y, h, t
                continue
            if kind == 3:  # infinite only at the second stage, whose error weight is 0
                yield (lambda s, y, spike=t + _DP_C[1] * h:
                       np.full(y.shape, np.inf if s == spike else math.cos(s))), y, h, t
                continue
            params = MeanFieldParams.symmetric(net, rng.uniform(0.2, 4.0, kk))
            if kind == 1:  # time-dependent
                yield (lambda t, y, p=params: (1.5 + np.sin(3 * t)) * rhs(y, p)), y, \
                    float(rng.uniform(1e-3, 2.0)), t
            elif kind == 2:  # overflowing trial steps
                huge = MeanFieldParams.symmetric(net, rng.uniform(1e150, 1e300, kk))
                yield (lambda t, y, p=huge: rhs(y, p)), y, float(10.0 ** rng.uniform(0, 200)), t
            else:
                yield (lambda t, y, p=params: rhs(y, p)), y, float(10.0 ** rng.uniform(-4, 0.5)), t

    def test_attempt_matches_the_frozen_step_bit_for_bit(self):
        rng = np.random.default_rng(20261019)
        overflowed = 0
        for f, y, h, t in self._cases(rng):
            want_y, want_err = _frozen_dp_step(f, t, y, h)
            with np.errstate(over="ignore", invalid="ignore"):
                got_y, got_err, last = _dp_attempt(f, t, y, h, f(t, y))
                assert _same_bits(last, f(t + h, want_y))
            assert _same_bits(got_y, want_y) and _same_bits(got_err, want_err), (y, h, t)
            overflowed += not np.all(np.isfinite(want_err))
        assert overflowed > 100

    def test_attempt_calls_the_field_at_the_frozen_step_times(self):
        f_times, g_times = [], []
        params = MeanFieldParams.symmetric(BIP, 2.0)
        y = np.array([[0.3], [0.1]])
        _frozen_dp_step(lambda t, y: f_times.append(t) or rhs(y, params), 0.7, y, 0.03)
        _dp_attempt(lambda t, y: g_times.append(t) or rhs(y, params), 0.7, y, 0.03,
                    rhs(y, params))
        assert f_times[1:] == g_times and g_times[-1] == 0.7 + 0.03

    @pytest.mark.parametrize("gamma,t_eval", [(2.0, None), (40.0, None), (3.0, [0.5, 1.0, 4.0]),
                                              (3.0, [0.5, 1.0, 2.0])])
    def test_integration_makes_one_field_call_plus_six_per_attempt(self, gamma, t_eval):
        params = MeanFieldParams.symmetric(cycle_supernetwork(5, 1), (gamma, gamma / 2))
        calls = []

        def counting(t, y):
            calls.append(t)
            return rhs(y, params)

        y0 = np.random.default_rng(5).uniform(0.0, 0.5, (2, 5, 2))
        traj = integrate_field(counting, y0, 4.0, t_eval=t_eval)
        assert len(calls) == 1 + 6 * (traj.n_steps + traj.n_rejected)
        assert max(calls) <= traj.times[-1]  # the integration stops at its last sample
        if gamma == 40.0:
            assert traj.n_rejected > 0
