import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from islandsis.meanfield import (
    IntegrationError,
    MeanFieldParams,
    StepControl,
    integrate,
    integrate_field,
    reduced_bivirus_trajectory,
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
        with pytest.raises(ValueError):
            MeanFieldParams.from_micro(BIP, StrainParams.uniform(BIP, 2.0, 0.5))

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
            MeanFieldParams(BIP, 1, [[1.0, np.inf]])

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

    def test_default_records_every_step(self):
        params = MeanFieldParams.symmetric(BIP, 2.0)
        traj = integrate(params, np.array([[0.2], [0.1]]), 2.0)
        assert traj.times[0] == 0.0 and traj.times[-1] == 2.0
        assert np.all(np.diff(traj.times) > 0)
        assert traj.n_steps == traj.times.size - 1

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

    def test_invalid_start_rejected(self):
        params = MeanFieldParams.symmetric(BIP, 2.0)
        with pytest.raises(ValueError):
            integrate(params, np.array([[0.8], [1.2]]), 1.0)
        with pytest.raises(ValueError):
            integrate(params, np.array([[0.5], [0.5]]), -1.0)

    def test_rk4_mode_matches_adaptive(self):
        params = MeanFieldParams.symmetric(BIP, 2.0)
        grid = np.linspace(0, 5, 6)
        fixed = integrate(
            params, np.array([[0.3], [0.7]]), 5.0,
            control=StepControl(method="rk4", fixed_step=1e-3), t_eval=grid,
        )
        adaptive = integrate(params, np.array([[0.3], [0.7]]), 5.0, t_eval=grid)
        assert fixed.method == "rk4" and fixed.n_rejected == 0
        assert np.abs(fixed.states - adaptive.states).max() < 1e-9
        again = integrate(
            params, np.array([[0.3], [0.7]]), 5.0,
            control=StepControl(method="rk4", fixed_step=1e-3), t_eval=grid,
        )
        assert np.array_equal(fixed.states, again.states)

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
        # rk4 has no error estimate to reject a NaN step, so the guard must
        with pytest.raises(IntegrationError, match="NaN"):
            integrate_field(
                lambda t, y: np.full_like(y, np.nan), np.array([[0.5]]), 1.0,
                control=StepControl(method="rk4", fixed_step=0.1),
            )


@pytest.mark.parametrize("kwargs", [
    {"method": "euler"}, {"rtol": -1.0}, {"rtol": np.nan}, {"atol": 0.0}, {"h_min": np.inf},
    {"fixed_step": -1e-3}, {"max_steps": 0},
], ids=["method", "rtol-negative", "rtol-nan", "atol-zero", "h_min-inf", "fixed_step-negative",
        "max_steps-zero"])
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


class TestReducedBivirus:
    def test_extinct_strain_stays_zero(self):
        traj = reduced_bivirus_trajectory(1, 3.0, 2.0, 0.0, 0.4, 30.0)
        assert np.all(traj.states[:, 0] == 0.0)

    def test_winner_limit(self):
        traj = reduced_bivirus_trajectory(1, 3.0, 2.0, 0.2, 0.2, 200.0)
        assert abs(traj.final[0] - 2 / 3) < 1e-4
        assert abs(traj.final[1]) < 1e-4

    def test_subthreshold_dies(self):
        traj = reduced_bivirus_trajectory(2, 0.4, 0.3, 0.2, 0.2, 200.0)
        assert np.abs(traj.final).max() < 1e-4

    def test_simplex_validation(self):
        with pytest.raises(ValueError):
            reduced_bivirus_trajectory(1, 1.0, 1.0, 0.7, 0.5, 1.0)

    def test_nan_input_refused(self):
        with pytest.raises(ValueError, match="rates"):
            reduced_bivirus_trajectory(1, np.nan, 2.0, 0.2, 0.2, 1.0)
        with pytest.raises(ValueError, match="simplex"):
            reduced_bivirus_trajectory(1, 3.0, 2.0, np.nan, 0.2, 1.0)
