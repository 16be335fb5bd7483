"""Exact event-driven simulation of multi-strain SIS contagion on island networks.

Each node is healthy or carries exactly one strain (a node already infected
cannot be infected again until it heals; an infection attempt on an infected
target is consumed with no effect).  An infected node of strain k in island U
heals at rate mu_k and, for every adjacent island V, fires infection attempts
at rate gamma_k(U,V), each aimed at a uniformly random node of V.

Whether the blocked attempt restarts any clock is immaterial: all clocks are
exponential, hence memoryless.

Because inter-island connections are all-to-all, the per-island per-strain
infected counts form a Markov process of their own, with

    infect rate into (i, k) = sum_{j ~ i} gamma_k(j, i) * Y[j, k] * (N_i - tot_i) / N_i
    heal  rate  at  (i, k) = mu_k * Y[i, k]

where tot_i is the total number of infected nodes in island i.  Both a
count-level simulator (`simulate`) and a full node-level one
(`node_level_simulate`, used as a cross-check of the count reduction) are
provided.  They induce the same law on count trajectories.

`event_rates` is the exact (Fraction-valued) specification of the chain, a
`{(kind, island, strain): rate}` dict;
`simulate` is one event loop that steps plain per-island counts in place on
the same rate formula, checking its inputs once.

Rates are stored as one row per strain over the directed island edges
`SuperNetwork.in_edges`, the layout `meanfield` uses for its effective rates.
A (strain, source, target)-keyed map exists only as input, turned into rows
by :func:`edge_rows`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .topology import SuperNetwork

INFECT = "infect"
HEAL = "heal"

RNG_ALGORITHM = "philox4x64"


@dataclass(frozen=True)
class StrainParams:
    """Per-strain infection and healing rates on one island network.

    gamma[k-1][e] is the attempt rate gamma_k(j, i) of strain k along the
    directed edge (j, i) = net.in_edge_pairs[e], the layout of
    `MeanFieldParams.w`; mu[k-1] is the healing rate of strain k.  Rates keep
    their numeric type, so Fraction-valued rates stay exact.  Two strains with
    identical (gamma, mu) profiles are behaviorally indistinguishable.
    """

    net: SuperNetwork
    gamma: tuple[tuple[float, ...], ...]
    mu: tuple[float, ...]

    def __post_init__(self):
        if not self.mu or len(self.gamma) != len(self.mu):
            raise ValueError("need at least one strain, and one rate row per healing rate")
        if any(len(row) != len(self.net.in_edge_pairs) for row in self.gamma):
            raise ValueError("each strain needs one rate per directed island edge")
        if any(not 0 < m < math.inf for m in self.mu):
            raise ValueError("healing rates must be strictly positive and finite")
        if any(not 0 < g < math.inf for row in self.gamma for g in row):
            raise ValueError("infection rates must be strictly positive and finite")

    @property
    def num_strains(self) -> int:
        return len(self.mu)

    @cached_property
    def overflows(self) -> bool:
        """Whether an event rate the simulators form, or their total, can exceed the float range.

        Its bound: the sum over directed edges (j, i) of max_k gamma_k(j, i) * N_j * N_i,
        plus max_k mu_k * sum N, in the rates' own arithmetic (exact for Fraction rates).
        """
        n = self.net.sizes
        bound = sum(max(rates) * n[j - 1] * n[i - 1]
                    for rates, (j, i) in zip(zip(*self.gamma), self.net.in_edge_pairs))
        return not bound + max(self.mu) * sum(n) <= sys.float_info.max

    @classmethod
    def uniform(
        cls,
        net: SuperNetwork,
        gammas: float | Sequence[float],
        mus: float | Sequence[float] = 1.0,
    ) -> "StrainParams":
        """One rate per strain, applied to every ordered adjacent island pair."""
        gseq = _per_strain(gammas)
        mseq = _per_strain(mus)
        if len(mseq) == 1 and len(gseq) > 1:
            mseq = mseq * len(gseq)
        if len(gseq) != len(mseq):
            raise ValueError("gammas and mus must have matching strain counts")
        return cls(net, tuple((g,) * len(net.in_edge_pairs) for g in gseq), tuple(mseq))

    def validate_for(self, net: SuperNetwork) -> None:
        """Check the rates were built for net."""
        if self.net is not net and self.net != net:
            raise ValueError("rates were built for a different island network")


def edge_rows(
    net: SuperNetwork, rates: Mapping[tuple[int, int, int], float], strains: Sequence[int]
) -> tuple[tuple[float, ...], ...]:
    """Rates keyed (strain k, source j, target i) as one row per k in strains over net.in_edges.

    Raises ValueError on a key whose strain is not listed or whose (j, i) is
    not a directed island edge, and on a listed strain and edge with no rate.
    """
    keys = {(k, j, i) for k in strains for j, i in net.in_edge_pairs}
    for key in rates:
        if key not in keys:
            raise ValueError(f"rate keyed {key} is off the island adjacency")
    try:
        return tuple(tuple(rates[(k, j, i)] for j, i in net.in_edge_pairs) for k in strains)
    except KeyError as exc:
        raise ValueError(f"no rate keyed {exc.args[0]}; every directed island edge "
                         "needs a strictly positive rate") from None


def _per_strain(value) -> list:
    if isinstance(value, (list, tuple, np.ndarray)):
        return list(value)
    return [value]


@dataclass(frozen=True)
class MacroCounts:
    """Per-island, per-strain infected counts; the Markov macrostate.

    y[i-1][k-1] is the number of k-infected nodes in island i.  Row sums may
    not exceed the island size (one strain per node).
    """

    y: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.y) != len(self.sizes):
            raise ValueError("counts and sizes disagree on the number of islands")
        for row, n in zip(self.y, self.sizes):
            if any(c < 0 for c in row):
                raise ValueError(f"negative count in {row}")
            if sum(row) > n:
                raise ValueError(f"island holds {sum(row)} infected nodes but only {n} nodes")

    @property
    def num_strains(self) -> int:
        return len(self.y[0])

    @classmethod
    def zeros(cls, net: SuperNetwork, num_strains: int) -> "MacroCounts":
        return cls(tuple((0,) * num_strains for _ in net.sizes), net.sizes)

    @classmethod
    def from_fractions(cls, net: SuperNetwork, fractions) -> "MacroCounts":
        """Round per-island fractions (M x K array-like, or length-M for one strain).

        Each count is round(f * N).  A row whose counts would then exceed its
        island size N is rounded by largest remainder instead: each strain
        gets floor(f * N), and the round(sum f * N) - sum floor left over go
        one each to the largest remainders, ties to the lower strain index.
        """
        arr = np.asarray(fractions, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        rows = []
        for frac_row, n in zip(arr, net.sizes):
            quotas = (frac_row * n).tolist()
            row = [round(q) for q in quotas]
            if sum(row) > n:
                row = [math.floor(q) for q in quotas]
                left = round(sum(quotas)) - sum(row)
                for k in sorted(range(len(row)), key=lambda k: (row[k] - quotas[k], k))[:left]:
                    row[k] += 1
            rows.append(tuple(row))
        return cls(tuple(rows), net.sizes)

    def fractions(self) -> np.ndarray:
        return np.array(self.y, dtype=float) / np.asarray(self.sizes, dtype=float)[:, None]


def _in_edge_groups(net: SuperNetwork, gamma) -> list:
    """Per island: its 0-based in-edge sources, and per strain the rates along those edges."""
    groups, stop = [], 0
    for sources in net.neighbors:
        start, stop = stop, stop + len(sources)
        groups.append((tuple(j - 1 for j in sources), tuple(rates[start:stop] for rates in gamma)))
    return groups


def _events(y, sizes, groups, mu) -> list:
    """(island, strain, +1 infect | -1 heal, rate) for each event with positive rate at counts y.

    The one copy of the rate formula.  Islands and strains are 0-based, in
    table order: by island, then by strain, infection before healing.
    """
    events = []
    for i, ((sources, strain_rates), row, n_i) in enumerate(zip(groups, y, sizes)):
        healthy = n_i - sum(row)
        for k, rates in enumerate(strain_rates):
            if healthy > 0:
                pressure = sum(g * y[j][k] for g, j in zip(rates, sources))
                if pressure > 0:
                    events.append((i, k, 1, pressure * healthy / n_i))
            c = row[k]
            if c > 0:
                events.append((i, k, -1, mu[k] * c))
    return events


def _check_counts(counts: MacroCounts, net: SuperNetwork, params: StrainParams) -> None:
    if counts.sizes != net.sizes:
        raise ValueError("counts were built for a different island size vector")
    if counts.num_strains != params.num_strains:
        raise ValueError("counts and params disagree on the number of strains")


def event_rates(counts: MacroCounts, net: SuperNetwork, params: StrainParams) -> dict:
    """Rates of the count-level Markov chain at `counts`.

    Args:
        counts: current macrostate (validated against net).
        net: island network.
        params: per-strain rates built for net.

    Returns:
        {(kind, island, strain): rate} for every INFECT/HEAL event with
        positive rate; islands and strains are 1-based.  Rates keep the
        numeric type of the inputs, so Fraction-valued parameters yield exact
        rational rates.

    Raises:
        ValueError: on island/strain dimension mismatch, or params built for
            another network.
    """
    _check_counts(counts, net, params)
    params.validate_for(net)
    events = _events(counts.y, counts.sizes, _in_edge_groups(net, params.gamma), params.mu)
    return {(INFECT if d > 0 else HEAL, i + 1, k + 1): r for i, k, d, r in events}


def replication_rng(master_seed: int, rep: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (master seed, replication index).

    Philox keys are 128-bit: the low word carries the master seed, the high
    word the replication index, so replications are independent streams and
    reproducible in any execution order.
    """
    if master_seed < 0 or rep < 0:
        raise ValueError("seed and replication index must be non-negative")
    key = (master_seed & 0xFFFFFFFFFFFFFFFF) | (rep << 64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class MicroTrajectory:
    """Counts sampled on a time grid (last value carried forward), plus provenance."""

    times: np.ndarray  # (T,)
    counts: np.ndarray  # (T, M, K) int64
    sizes: tuple[int, ...]
    seed: int
    rep: int
    event_totals: dict[tuple[str, int, int], int]
    rng_algorithm: str = RNG_ALGORITHM
    simulator: str = "count-level"

    @property
    def n_events(self) -> int:
        return sum(self.event_totals.values())

    def fractions(self) -> np.ndarray:
        return self.counts / np.asarray(self.sizes, dtype=float)[None, :, None]


def _prepare_grid(sample_grid, t_end: float) -> np.ndarray:
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    grid = np.asarray(sample_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("sample grid must be a non-empty 1-d sequence of times")
    if grid[0] < 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("sample grid times must be strictly increasing and >= 0")
    if grid[-1] > t_end:
        raise ValueError("sample grid extends beyond t_end")
    return grid


def simulate(
    counts0: MacroCounts,
    net: SuperNetwork,
    params: StrainParams,
    t_end: float,
    seed: int,
    sample_grid,
    rep: int = 0,
) -> MicroTrajectory:
    """Run one replication of the count-level chain and sample it on a grid.

    The trajectory is piecewise constant; grid times take the value that was
    current just before any event occurring exactly at that instant.  Output
    is a deterministic function of (seed, rep).  Raises ValueError if `params.overflows`.

    Args:
        counts0: initial macrostate.
        net: island network.
        params: strain rates.
        t_end: simulation horizon (> 0).
        seed: master seed.
        sample_grid: strictly increasing times in [0, t_end].
        rep: replication index mixed into the RNG key.
    """
    params.validate_for(net)
    if params.overflows:
        raise ValueError("event rates can overflow the float range")
    grid = _prepare_grid(sample_grid, t_end)
    _check_counts(counts0, net, params)
    rng = replication_rng(seed, rep)

    groups = _in_edge_groups(net, params.gamma)
    y = [list(row) for row in counts0.y]  # stepped in place; an event fires only if it fits
    times = grid.tolist()
    sampled = np.empty((grid.size, net.num_islands, params.num_strains), dtype=np.int64)
    gi = 0
    t = 0.0
    totals: dict[tuple[int, int, int], int] = {}
    while True:
        events = _events(y, net.sizes, groups, params.mu)
        total = float(sum(r for *_, r in events))
        t_next = t + rng.exponential(1.0 / total) if total > 0.0 else math.inf
        while gi < grid.size and times[gi] < t_next:
            sampled[gi] = y
            gi += 1
        if t_next > t_end:
            break
        u = rng.random() * total
        acc = 0.0
        chosen = events[-1]
        for ev in events:
            acc += float(ev[3])
            if u < acc:
                chosen = ev
                break
        i, k, delta, _ = chosen
        y[i][k] += delta
        t = t_next
        totals[chosen[:3]] = totals.get(chosen[:3], 0) + 1
    # the last wait ran past t_end (or is infinite), so every grid time has its sample
    return MicroTrajectory(
        times=grid,
        counts=sampled,
        sizes=net.sizes,
        seed=seed,
        rep=rep,
        event_totals={(INFECT if d > 0 else HEAL, i + 1, k + 1): n
                      for (i, k, d), n in totals.items()},
    )


def node_level_simulate(
    net: SuperNetwork,
    params: StrainParams,
    initial: Sequence[Sequence[int]],
    t_end: float,
    seed: int,
    sample_grid,
    rep: int = 0,
) -> MicroTrajectory:
    """Full node-resolution simulation; counts are derived by summing nodes.

    `initial[i-1][n]` is the state of node n of island i: 0 for healthy, or a
    strain label 1..K.  Infection attempts against already-infected targets
    advance time but change nothing.  Only effective events (actual state
    changes) enter `event_totals`, making them comparable with `simulate`.
    """
    params.validate_for(net)
    if params.overflows:
        raise ValueError("event rates can overflow the float range")
    grid = _prepare_grid(sample_grid, t_end)
    rng = replication_rng(seed, rep)

    m = net.num_islands
    kk = params.num_strains
    states = [list(map(int, row)) for row in initial]
    if len(states) != m or any(len(row) != n for row, n in zip(states, net.sizes)):
        raise ValueError("initial node states do not match island sizes")
    if any(s < 0 or s > kk for row in states for s in row):
        raise ValueError("node states must be 0 (healthy) or a strain label")

    counts = np.zeros((m, kk), dtype=np.int64)
    for i, row in enumerate(states):
        for s in row:
            if s:
                counts[i, s - 1] += 1

    # Per infected node: healing plus one attempt clock per neighbor island.
    # Targets ascend per source, since in_edges groups edges by ascending target.
    attempt = {(k, u): [] for k in range(1, kk + 1) for u in range(1, m + 1)}
    for k, rates in enumerate(params.gamma, start=1):
        for (u, v), g in zip(net.in_edge_pairs, rates):
            attempt[(k, u)].append((v, g))

    sampled = np.empty((grid.size, m, kk), dtype=np.int64)
    gi = 0
    t = 0.0
    totals: dict[tuple[str, int, int], int] = {}
    while True:
        choices = []  # (island0, node, strain, target_island or 0 for heal, rate)
        total = 0.0
        for i0 in range(m):
            row = states[i0]
            for node, s in enumerate(row):
                if not s:
                    continue
                r = params.mu[s - 1]
                choices.append((i0, node, s, 0, r))
                total += r
                for v, g in attempt[(s, i0 + 1)]:
                    choices.append((i0, node, s, v, g))
                    total += g
        t_next = t + (rng.exponential(1.0 / total) if total > 0 else math.inf)
        while gi < grid.size and grid[gi] < t_next:
            sampled[gi] = counts
            gi += 1
        if total <= 0 or t_next > t_end:
            break
        t = t_next
        u = rng.random() * total
        acc = 0.0
        picked = choices[-1]
        for c in choices:
            acc += c[4]
            if u < acc:
                picked = c
                break
        i0, node, s, target, _ = picked
        if target == 0:
            states[i0][node] = 0
            counts[i0, s - 1] -= 1
            key = (HEAL, i0 + 1, s)
            totals[key] = totals.get(key, 0) + 1
        else:
            v0 = target - 1
            victim = int(rng.integers(net.sizes[v0]))
            if states[v0][victim] == 0:
                states[v0][victim] = s
                counts[v0, s - 1] += 1
                key = (INFECT, target, s)
                totals[key] = totals.get(key, 0) + 1
            # else: blocked attempt, state unchanged
    # the last wait ran past t_end (or is infinite), so every grid time has its sample
    return MicroTrajectory(
        times=grid,
        counts=sampled,
        sizes=net.sizes,
        seed=seed,
        rep=rep,
        event_totals=totals,
        simulator="node-level",
    )
