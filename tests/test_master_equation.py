"""Both simulators against the exact law of the count-level chain.

On a small state space the generator Q of the count-level Markov chain is
built from `event_rates` over every state, and the distribution at time t is
p(t) = p0 expm(Q t).  The final states of 10 000 replications of each
simulator are tested against p(t) with a chi-square test; cells are pooled
until each expects at least 5.  Seeds are fixed, one per simulator and case.
"""

import itertools

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import expm

from islandsis.micro import (INFECT, MacroCounts, StrainParams, event_rates, node_level_simulate,
                             simulate)
from islandsis.topology import bipartite_supernetwork

REPLICATIONS = 10_000
P_FLOOR = 1e-3


def count_states(sizes, num_strains):
    """Every count matrix with row sums within the island sizes, as tuples of rows."""
    rows = [[r for r in itertools.product(range(n + 1), repeat=num_strains) if sum(r) <= n]
            for n in sizes]
    return list(itertools.product(*rows))


def generator(net, params):
    """The states and the generator Q of the count-level chain on net."""
    states = count_states(net.sizes, params.num_strains)
    index = {s: a for a, s in enumerate(states)}
    q = np.zeros((len(states), len(states)))
    for a, s in enumerate(states):
        for (kind, i, k), rate in event_rates(MacroCounts(s, net.sizes), net, params).items():
            rows = [list(r) for r in s]
            rows[i - 1][k - 1] += 1 if kind == INFECT else -1
            q[a, index[tuple(map(tuple, rows))]] += float(rate)
        q[a, a] = -q[a].sum()
    return states, q


def pooled_chi_square(observed, expected, min_expected=5.0):
    """Chi-square p-value after pooling the smallest cells until each expects min_expected."""
    # Walk the cells from the least expected up; a bin closes once it expects enough.
    obs, exp = [0.0], [0.0]
    for a in np.argsort(expected):
        if exp[-1] >= min_expected:
            obs.append(0.0)
            exp.append(0.0)
        obs[-1] += observed[a]
        exp[-1] += expected[a]
    if exp[-1] < min_expected and len(exp) > 1:  # a short last bin joins the one before
        obs[-2] += obs.pop()
        exp[-2] += exp.pop()
    obs, exp = np.asarray(obs), np.asarray(exp)
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    return float(stats.chi2.sf(chi2, len(exp) - 1))


def node_states(counts, sizes):
    """Node labels of an island holding counts[k] nodes of strain k + 1, the rest healthy."""
    out = []
    for row, n in zip(counts, sizes):
        nodes = [k + 1 for k, c in enumerate(row) for _ in range(c)]
        out.append(nodes + [0] * (n - len(nodes)))
    return out


CASES = {
    # bipartite 3+3, one strain, gamma 2, mu 1, from (1, 0): 16 states
    "bip33-k1": (bipartite_supernetwork(3, 3), 2.0, 1.0, ((1,), (0,)), 2.0,
                 {"count": 101, "node": 102}),
    # bipartite 2+2, two strains, from one node of each: 36 states
    "bip22-k2": (bipartite_supernetwork(2, 2), (2.0, 1.2), (1.0, 1.5), ((1, 0), (0, 1)), 2.0,
                 {"count": 201, "node": 202}),
}


def final_states(simulator, net, params, counts0, t_end, seed):
    grid = [0.0, t_end]
    start, nodes = MacroCounts(counts0, net.sizes), node_states(counts0, net.sizes)
    finals = []
    for rep in range(REPLICATIONS):
        if simulator == "count":
            traj = simulate(start, net, params, t_end, seed, grid, rep=rep)
        else:
            traj = node_level_simulate(net, params, nodes, t_end, seed, grid, rep=rep)
        finals.append(tuple(map(tuple, traj.counts[-1].tolist())))
    return finals


@pytest.mark.parametrize("simulator", ["count", "node"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_final_states_follow_the_master_equation(case, simulator):
    net, gammas, mus, counts0, t_end, seeds = CASES[case]
    params = StrainParams.uniform(net, gammas, mus)
    states, q = generator(net, params)
    p0 = np.zeros(len(states))
    p0[states.index(counts0)] = 1.0
    pt = p0 @ expm(q * t_end)
    assert abs(pt.sum() - 1.0) < 1e-9

    index = {s: a for a, s in enumerate(states)}
    observed = np.zeros(len(states))
    for s in final_states(simulator, net, params, counts0, t_end, seeds[simulator]):
        observed[index[s]] += 1
    p = pooled_chi_square(observed, REPLICATIONS * pt)
    assert p >= P_FLOOR, f"{simulator}-level final states off the master equation: p = {p:.2e}"

