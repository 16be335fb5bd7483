"""The edge-list rate form against an independent dense oracle.

Every oracle here is built inside the test from the rate dictionary alone: a
(K, M, M) tensor W[k-1, i-1, j-1] holding the rate of strain k from island j
into island i, zero off the adjacency.  The edge-list sums run in another
order than the dense ones, so values are compared within a bound fixed from
the float64 epsilon and the size of the summed terms; structural zeros and
sums of at most two terms must match exactly.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from islandsis.analysis import taylor_coefficients
from islandsis.meanfield import MeanFieldParams, StepControl, integrate, rhs
from islandsis.micro import StrainParams
from islandsis.topology import (
    build_supernetwork,
    complete_supernetwork,
    cycle_supernetwork,
    hop_distances,
    star_supernetwork,
)

EPS = np.finfo(float).eps

# Island 5 of the custom network has no neighbor; sizes are unequal.
CUSTOM = build_supernetwork([2, 5, 1, 3, 4, 6], [(1, 2), (2, 3), (1, 3), (3, 4), (4, 6)])
NETWORKS = {
    "cycle": cycle_supernetwork(6, 1),
    "star": star_supernetwork(5, 1),
    "complete": complete_supernetwork(5, 1),
    "custom": CUSTOM,
}


def random_rates(net, num_strains, seed):
    """A positive effective rate for every strain and ordered adjacent pair."""
    rng = np.random.default_rng(seed)
    return {
        (k, j, i): float(rng.uniform(0.2, 3.0))
        for k in range(1, num_strains + 1)
        for a, b in sorted(net.edges)
        for j, i in ((a, b), (b, a))
    }


def dense_oracle(net, num_strains, rates):
    w = np.zeros((num_strains, net.num_islands, net.num_islands))
    for (k, j, i), g in rates.items():
        w[k - 1, i - 1, j - 1] = g
    return w


def dense_pressure(w, y):
    return np.einsum("kij,...jk->...ik", w, y)


def dense_rhs(w, y):
    return dense_pressure(w, y) * (1.0 - y.sum(axis=-1, keepdims=True)) - y


def summation_bound(w, y):
    """Largest rounding gap two summation orders of the pressure can show."""
    return y.shape[-2] * EPS * dense_pressure(np.abs(w), np.abs(y))


def cases():
    for name in NETWORKS:
        for num_strains in (1, 2, 3):
            for batch in ((), (3,), (2, 3)):
                yield pytest.param(name, num_strains, batch, id=f"{name}-K{num_strains}-{batch}")


@pytest.mark.parametrize("name, num_strains, batch", cases())
def test_pressure_and_rhs_match_dense_oracle(name, num_strains, batch):
    net = NETWORKS[name]
    rates = random_rates(net, num_strains, seed=num_strains)
    params = MeanFieldParams.from_rates(net, num_strains, rates)
    w = dense_oracle(net, num_strains, rates)
    rng = np.random.default_rng(len(batch))
    y = rng.uniform(0.0, 1.0 / num_strains, batch + (net.num_islands, num_strains))

    got, want = params.pressure(y), dense_pressure(w, y)
    assert got.shape == y.shape
    assert np.all(np.abs(got - want) <= summation_bound(w, y))
    got_rhs, want_rhs = rhs(y, params), dense_rhs(w, y)
    assert np.all(np.abs(got_rhs - want_rhs) <= 2 * summation_bound(w, y) + 4 * EPS * np.abs(y))


@pytest.mark.parametrize("num_strains", (1, 2, 3))
def test_cycle_pressure_is_exact(num_strains):
    # two terms per island: the summation order cannot change the result
    net = NETWORKS["cycle"]
    rates = random_rates(net, num_strains, seed=7)
    params = MeanFieldParams.from_rates(net, num_strains, rates)
    y = np.random.default_rng(1).uniform(0.0, 1.0 / num_strains, (4, 6, num_strains))
    w = dense_oracle(net, num_strains, rates)
    assert np.array_equal(params.pressure(y), dense_pressure(w, y))
    assert np.array_equal(rhs(y, params), dense_rhs(w, y))


def test_isolated_island_gets_zero_pressure():
    params = MeanFieldParams.from_rates(CUSTOM, 2, random_rates(CUSTOM, 2, seed=2))
    y = np.full((3, 6, 2), 0.3)
    assert np.all(params.pressure(y)[..., 4, :] == 0.0)
    assert np.array_equal(rhs(y, params)[..., 4, :], -y[..., 4, :])


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_from_micro_matches_size_scaled_oracle(name):
    net = NETWORKS[name]
    micro = StrainParams.uniform(net, (1.3, 0.6))
    params = MeanFieldParams.from_micro(net, micro)
    n = net.sizes
    rates = {
        (k, j, i): g * n[j - 1] / n[i - 1]
        for k, row in enumerate(micro.gamma, start=1)
        for (j, i), g in zip(net.in_edge_pairs, row)
    }
    assert np.array_equal(params.w, np.stack([
        [rates[(k, j + 1, i + 1)] for j, i in zip(*(a.tolist() for a in net.in_edges))]
        for k in (1, 2)
    ]))
    y = np.random.default_rng(5).uniform(0.0, 0.5, (net.num_islands, 2))
    w = dense_oracle(net, 2, rates)
    assert np.all(np.abs(params.pressure(y) - dense_pressure(w, y)) <= summation_bound(w, y))


def test_missing_or_nonpositive_edge_rate_rejected():
    rates = random_rates(CUSTOM, 1, seed=0)
    del rates[(1, 1, 2)]
    with pytest.raises(ValueError, match="strictly positive"):
        MeanFieldParams.from_rates(CUSTOM, 1, rates)
    rates[(1, 1, 2)] = 0.0
    with pytest.raises(ValueError, match="strictly positive"):
        MeanFieldParams.from_rates(CUSTOM, 1, rates)
    with pytest.raises(ValueError, match="off the island adjacency"):
        MeanFieldParams.from_rates(CUSTOM, 1, {(2, 1, 2): 1.0})


def test_taylor_keeps_structural_zeros_and_first_row():
    # path 1-2-3-4-6 plus the chord 1-3 and the isolated island 5, unequal
    # rates: island i first responds at the order of its hop distance from 1
    params = MeanFieldParams.from_rates(CUSTOM, 2, random_rates(CUSTOM, 2, seed=4))
    y0 = np.zeros((6, 2))
    y0[0] = (0.3, 0.2)
    table = taylor_coefficients(params, y0, 6)
    assert np.array_equal(table.coeff[1], rhs(y0, params))
    hops = hop_distances(CUSTOM, 1)
    for island in (2, 3, 4, 6):
        col = table.coeff[:, island - 1, :]
        assert np.all(col[: hops[island]] == 0.0), island
        assert np.all(col[hops[island]] > 0.0), island
    assert np.all(table.coeff[:, 4, :] == 0.0)


def test_asymmetric_dp45_matches_dop853():
    net = build_supernetwork([2, 5, 1, 3, 4], [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (2, 5)])
    rates = random_rates(net, 2, seed=11)
    params = MeanFieldParams.from_rates(net, 2, rates)
    w = dense_oracle(net, 2, rates)
    y0 = np.random.default_rng(11).uniform(0.0, 0.4, (5, 2))
    grid = np.linspace(0.0, 8.0, 17)
    mine = integrate(params, y0, 8.0, control=StepControl(), t_eval=grid)
    ref = solve_ivp(
        lambda t, flat: dense_rhs(w, flat.reshape(5, 2)).ravel(),
        (0.0, 8.0), y0.ravel(), method="DOP853", t_eval=grid, rtol=1e-12, atol=1e-14,
    )
    assert ref.success
    assert np.abs(mine.states.reshape(len(grid), -1) - ref.y.T).max() < 1e-7
