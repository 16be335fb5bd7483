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
`{(kind, island, strain): rate}` dict built from `_slot_rate`, the one copy
of the rate formula.  Both simulators run one exact event loop, `_gillespie`,
which checks the rates and the grid, draws the waits and the choices and
samples the grid.  Each supplies only its state, its list of move rates and
how a move changes them.  `simulate` keeps one rate slot per (island,
strain, infect | heal) and, after an event at (i, k), recomputes only the
slots it changes: the healing of (i, k), island i's infections by every
strain, and the strain-k infection of every island i feeds.  Its cost per
event is then a few rate evaluations plus one C-level pass over the partial
sums, not a rebuild of the whole table.  `node_level_simulate` steps node
states, draws the target of each infection attempt and lists its moves
again after each effective event.  Set-up that depends on the rates alone
is cached on `StrainParams`.  Each thread keeps one Philox generator that a
call re-keys to (seed, rep): it draws exactly `replication_rng(seed, rep)`'s stream.

Rates are stored as one row per strain over the directed island edges
`SuperNetwork.in_edges`, the layout `meanfield` uses for its effective rates.
A (strain, source, target)-keyed map exists only as input, turned into rows
by :func:`edge_rows`.
"""

from __future__ import annotations

import math
import operator
import sys
import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
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

    # The simulators' set-up, built on first use; callers check validate_for(net) first.
    @cached_property
    def _float_rates(self) -> tuple[list, list[float]]:
        """`_in_edge_groups` of the rates as floats, and mu as floats."""
        return (_in_edge_groups(self.net, [[float(g) for g in row] for row in self.gamma]),
                [float(m) for m in self.mu])

    @cached_property
    def _touched(self) -> list[list[int]]:
        """Per (island i, strain k), ascending: the slots an event there changes (its healing,
        island i's infections by every strain, the strain-k infection of each island i feeds)."""
        kk = self.num_strains
        return [sorted([2 * (i * kk + k) + 1, *(2 * (i * kk + h) for h in range(kk)),
                        *(2 * ((v - 1) * kk + k) for v in self.net.neighbors[i])])
                for i in range(self.net.num_islands) for k in range(kk)]

    @cached_property
    def _attempt(self) -> dict[tuple[int, int], list[tuple[int, float]]]:
        """Per (strain k, source island u): (target, float rate) of each attempt, by target."""
        attempt = {(k, u): [] for k in range(1, self.num_strains + 1)
                   for u in range(1, self.net.num_islands + 1)}
        for k, rates in enumerate(self.gamma, start=1):
            for (u, v), g in zip(self.net.in_edge_pairs, rates):  # in_edges ascend by target
                attempt[(k, u)].append((v, float(g)))
        return attempt

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


def _is_count(value) -> bool:
    """Whether value is an integer, numpy's included, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _per_strain(value) -> list:
    if isinstance(value, (list, tuple, np.ndarray)):
        return list(value)
    return [value]


@dataclass(frozen=True)
class MacroCounts:
    """Per-island, per-strain infected counts; the Markov macrostate.

    y[i-1][k-1] is the number of k-infected nodes in island i, an integer.
    Every island has one count per strain, and row sums may not exceed the
    island size (one strain per node).
    """

    y: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.y) != len(self.sizes):
            raise ValueError("counts and sizes disagree on the number of islands")
        if len({len(row) for row in self.y}) > 1:
            raise ValueError("every island needs one count per strain")
        for row, n in zip(self.y, self.sizes):
            if not all(_is_count(c) for c in row):
                raise ValueError(f"counts must be integers, got {row}")
            if any(c < 0 for c in row):
                raise ValueError(f"negative count in {row}")
            if sum(row) > n:
                raise ValueError(f"island holds {sum(row)} infected nodes but only {n} nodes")

    @property
    def num_strains(self) -> int:
        return len(self.y[0])

    @classmethod
    def from_fractions(cls, net: SuperNetwork, fractions) -> "MacroCounts":
        """Round per-island fractions (M x K array-like, or length-M for one strain).

        Each count is round(f * N).  A row whose counts would then exceed its
        island size N is rounded by largest remainder instead: each strain
        gets floor(f * N), and the round(sum f * N) - sum floor left over go
        one each to the largest remainders, ties to the lower strain index.
        """
        arr = np.asarray(fractions, dtype=float)
        if arr.ndim not in (1, 2) or arr.shape[0] != net.num_islands:
            raise ValueError(f"fractions must have shape (M,) or (M, K) with M = "
                             f"{net.num_islands}, got shape {arr.shape}")
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


def _slot_rate(y, sizes, groups, mu, s):
    """Rate of slot s at counts y: the one copy of the rate formula.

    Slot 2 * (i * K + k) is the infection of island i by strain k, the slot
    after it its healing (0-based, K = len(mu)); a slot with no move has rate
    0.  The pressure adds the in-edges left to right.  Rates keep the numeric
    type of the inputs.
    """
    i, k = divmod(s >> 1, len(mu))
    if s & 1:
        return mu[k] * y[i][k]
    n_i = sizes[i]
    sources, strain_rates = groups[i]
    pressure = 0
    for g, j in zip(strain_rates[k], sources):
        pressure += g * y[j][k]
    return pressure * (n_i - sum(y[i])) / n_i


def _slot_key(s: int, num_strains: int) -> tuple[str, int, int]:
    """(kind, island, strain) of slot s, islands and strains 1-based."""
    i, k = divmod(s >> 1, num_strains)
    return HEAL if s & 1 else INFECT, i + 1, k + 1


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
    groups, kk = _in_edge_groups(net, params.gamma), params.num_strains
    rates = (_slot_rate(counts.y, counts.sizes, groups, params.mu, s)
             for s in range(2 * net.num_islands * kk))
    return {_slot_key(s, kk): r for s, r in enumerate(rates) if r > 0}


SEED_LIMIT = 2**64  # master seeds and replication indices lie in [0, SEED_LIMIT)
_per_thread = threading.local()  # .rng: the generator the thread's simulator calls re-key


def _philox_key(master_seed: int, rep: int) -> int:
    if not (0 <= master_seed < SEED_LIMIT and 0 <= rep < SEED_LIMIT):
        raise ValueError("seed and replication index must lie in [0, 2**64)")
    return master_seed | (rep << 64)


def replication_rng(master_seed: int, rep: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (master seed, replication index).

    Philox keys are 128-bit: the low word carries the master seed, the high
    word the replication index, so replications are independent streams and
    reproducible in any execution order.  The simulators draw exactly this
    stream from their thread's generator, re-keyed to the same key per call.
    """
    return np.random.Generator(np.random.Philox(key=_philox_key(master_seed, rep)))


def _rekeyed_rng(master_seed: int, rep: int) -> np.random.Generator:
    """This thread's generator, at the start of `replication_rng(master_seed, rep)`'s stream:
    counter 0, the same key, an empty buffer and no cached 32-bit half, as a new Philox."""
    key = _philox_key(master_seed, rep)
    rng = getattr(_per_thread, "rng", None)
    if rng is None:
        rng = _per_thread.rng = replication_rng(0)
    rng.bit_generator.state = {
        "bit_generator": "Philox", "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0,
        "uinteger": 0, "state": {"counter": [0, 0, 0, 0], "key": [key % SEED_LIMIT, key >> 64]}}
    return rng


@dataclass
class MicroTrajectory:
    """Counts sampled on a time grid (last value carried forward), plus provenance."""

    times: np.ndarray  # (T,)
    counts: np.ndarray  # (T, M, K) int64
    sizes: tuple[int, ...]
    seed: int
    rep: int
    event_totals: dict[tuple[str, int, int], int]
    simulator: str = "count-level"

    @property
    def n_events(self) -> int:
        return sum(self.event_totals.values())

    def fractions(self) -> np.ndarray:
        return self.counts / np.asarray(self.sizes, dtype=float)[None, :, None]


def _prepare_grid(sample_grid, t_end: float) -> np.ndarray:
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    grid = np.asarray(sample_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("sample grid must be a non-empty 1-d sequence of times")
    times = grid.tolist()
    # Written so that a NaN time fails each comparison.
    if not times[0] >= 0 or not all(map(operator.lt, times, times[1:])):
        raise ValueError("sample grid times must be strictly increasing and >= 0")
    if not times[-1] <= t_end:
        raise ValueError("sample grid extends beyond t_end")
    return grid


def _gillespie(net, params, t_end: float, sample_grid, rng, state, rates, fire):
    """Gillespie's direct method, the one event loop of both simulators; returns (grid, samples).

    `rates` holds the float rates of the moves at `state` in a fixed order;
    `fire(index)` applies the move at that index, updates `rates` in place
    and returns the first index whose rate it may have changed.  Draws per
    event: the wait, then a uniform u times the total picking the move whose
    partial sum is the first above u (the last move with a positive rate if
    rounding overruns), then whatever `fire` draws.  The partial sums add
    left to right, so a zero rate is never picked; after a move only those
    from the first changed index on are added again.  A grid time takes the
    (M, K) `state` current just before any event at that instant; the loop
    ends once the next event falls past t_end.  The caller checks
    `params.validate_for(net)`.
    """
    if params.overflows:
        raise ValueError("event rates can overflow the float range")
    grid = _prepare_grid(sample_grid, t_end)
    times = grid.tolist()
    sampled = np.empty((grid.size, net.num_islands, params.num_strains), dtype=np.int64)
    gi = 0
    t = 0.0
    acc = list(accumulate(rates))
    while True:
        total = acc[-1] if acc else 0.0
        t_next = t + rng.exponential(1.0 / total) if total > 0.0 else math.inf
        while gi < len(times) and times[gi] < t_next:
            sampled[gi] = state
            gi += 1
        if t_next > t_end:  # so every grid time has its sample
            return grid, sampled
        chosen = bisect_right(acc, rng.random() * total)
        if chosen == len(acc):
            chosen = max(index for index, rate in enumerate(rates) if rate > 0.0)
        lo = fire(chosen)
        if lo:  # acc[lo - 1] is kept: accumulate yields its initial value first
            acc[lo - 1:] = accumulate(rates[lo:], initial=acc[lo - 1])
        else:
            acc = list(accumulate(rates))
        t = t_next


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
    Rates are converted to float on entry, so Fraction-valued params give
    the same trajectory as the same params as floats.

    Args:
        counts0: initial macrostate.
        net: island network.
        params: strain rates.
        t_end: simulation horizon (> 0).
        seed: master seed.
        sample_grid: strictly increasing times in [0, t_end].
        rep: replication index mixed into the RNG key.
    """
    _check_counts(counts0, net, params)
    params.validate_for(net)
    kk = params.num_strains
    groups, mu = params._float_rates
    touched = params._touched
    y = [list(row) for row in counts0.y]  # stepped in place; an event fires only if it fits
    slots = [_slot_rate(y, net.sizes, groups, mu, s) for s in range(2 * net.num_islands * kk)]
    fired = [0] * len(slots)

    def fire(s):
        i, k = divmod(s >> 1, kk)
        y[i][k] += -1 if s & 1 else 1
        fired[s] += 1
        for d in touched[s >> 1]:
            slots[d] = _slot_rate(y, net.sizes, groups, mu, d)
        return touched[s >> 1][0]

    grid, sampled = _gillespie(net, params, t_end, sample_grid, _rekeyed_rng(seed, rep),
                               y, slots, fire)
    return MicroTrajectory(grid, sampled, net.sizes, seed, rep,
                           {_slot_key(s, kk): n for s, n in enumerate(fired) if n})


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
    m = net.num_islands
    kk = params.num_strains
    if any(not _is_count(s) or not 0 <= s <= kk for row in initial for s in row):
        raise ValueError("node states must be integers: 0 (healthy) or a strain label")
    states = [list(map(int, row)) for row in initial]
    if len(states) != m or any(len(row) != n for row, n in zip(states, net.sizes)):
        raise ValueError("initial node states do not match island sizes")

    params.validate_for(net)
    counts = [[row.count(k) for k in range(1, kk + 1)] for row in states]
    # Per infected node: healing plus one attempt clock per neighbor island.
    attempt, mu = params._attempt, params._float_rates[1]
    rng = _rekeyed_rng(seed, rep)
    totals: dict[tuple[str, int, int], int] = {}
    choices, rates = [], []  # (island0, node, strain, target island or 0 for heal), and its rate

    def moves():
        choices.clear()
        rates.clear()
        for i0, row in enumerate(states):
            for node, s in enumerate(row):
                if not s:
                    continue
                choices.append((i0, node, s, 0))
                rates.append(mu[s - 1])
                for v, g in attempt[(s, i0 + 1)]:
                    choices.append((i0, node, s, v))
                    rates.append(g)

    def fire(index):
        i0, node, s, target = choices[index]
        if target == 0:
            states[i0][node] = 0
            counts[i0][s - 1] -= 1
            key = (HEAL, i0 + 1, s)
        else:
            victim = int(rng.integers(net.sizes[target - 1]))
            if states[target - 1][victim]:
                return len(rates)  # blocked attempt: time advanced, state unchanged
            states[target - 1][victim] = s
            counts[target - 1][s - 1] += 1
            key = (INFECT, target, s)
        totals[key] = totals.get(key, 0) + 1
        moves()
        return 0

    moves()
    grid, sampled = _gillespie(net, params, t_end, sample_grid, rng, counts, rates, fire)
    return MicroTrajectory(grid, sampled, net.sizes, seed, rep, totals, simulator="node-level")
