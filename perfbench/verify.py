"""Output checks for the benchmark's workloads.

Each function takes plain data (a report dict, arrays, a parsed trajectory)
and returns what is wrong with it, or the statistic a check compares with its
limit.  Nothing here imports the program under test.

Two of the checks are statistical.  On a correct program they still fail now
and then: the C8 criteria on one 10-replication sample about 1.8% of the time
(bootstrap from 680 replications), and the C9 worst z-score <= 3 about 5% of
the time (18 comparisons, sampled from the exact master-equation law).  A run
therefore counts a statistical criterion as failed only when it fails on two
independent samples of that run; see `two_sample_verdict`.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

Z_LIMIT = 3.0
C8_FINAL_LIMIT = 0.03


def converge_problems(report: dict) -> list[str]:
    """C8: deviations strictly decrease, the last is below 0.03, monotone_trend holds."""
    problems = []
    devs = [r["deviation"] for r in report.get("records", [])]
    if len(devs) < 3:
        problems.append(f"expected 3 size records, got {len(devs)}")
        return problems
    if not all(b < a for a, b in zip(devs, devs[1:])):
        problems.append(f"deviations {devs} do not strictly decrease")
    if not devs[-1] < C8_FINAL_LIMIT:
        problems.append(f"final deviation {devs[-1]} not below {C8_FINAL_LIMIT}")
    if report.get("monotone_trend") is not True:
        problems.append("monotone_trend is false")
    return problems


def selfcheck_invariant_problems(rows: np.ndarray, initial: tuple[int, int], size: int) -> list[str]:
    """Exact per-replication bookkeeping of one simulator's outputs.

    `rows` has one row per replication: final count of islands 1 and 2,
    infections into each, heals in each, and n_events.  Final counts
    stay in [0, size], each island's final count equals its initial count
    plus infections minus heals, and n_events is the sum of both.
    """
    final, infect, heal, n_events = rows[:, 0:2], rows[:, 2:4], rows[:, 4:6], rows[:, 6]
    problems = []
    if np.any(final < 0) or np.any(final > size):
        problems.append("final counts outside [0, island size]")
    bad = np.any(final != np.asarray(initial) + infect - heal, axis=1)
    if bad.any():
        problems.append(f"{int(bad.sum())} replications whose counts do not match their event totals")
    bad = n_events != infect.sum(axis=1) + heal.sum(axis=1)
    if bad.any():
        problems.append(f"{int(bad.sum())} replications whose n_events is not the sum of event totals")
    return problems


class C9Sample:
    """Running totals of one simulator's C9 rows, of a size that does not grow with them.

    Holds the count of replications, how many ended in each final state, and
    the sum and sum of squares of the infections into islands 1 and 2 (row
    columns 2 and 3), as exact integers.
    """

    def __init__(self):
        self.n = 0
        self.finals: Counter = Counter()
        self.sums = [0, 0]
        self.squares = [0, 0]

    def add(self, rows: np.ndarray) -> None:
        self.n += len(rows)
        self.finals.update(map(tuple, rows[:, 0:2].tolist()))
        for j, col in enumerate((2, 3)):
            x = rows[:, col].astype(np.int64)
            self.sums[j] += int(x.sum())
            self.squares[j] += int((x * x).sum())

    def mean(self, j: int) -> float:
        return self.sums[j] / self.n

    def var(self, j: int) -> float:
        """Sample variance (ddof 1), from exact integer totals."""
        return (self.n * self.squares[j] - self.sums[j] ** 2) / (self.n * (self.n - 1))


def worst_z(count: C9Sample, node: C9Sample) -> float:
    """The C9 statistic: worst two-sample z over final-state cells and mean infections."""
    n1, n2 = count.n, node.n
    worst = 0.0
    for state in set(count.finals) | set(node.finals):
        p1, p2 = count.finals[state] / n1, node.finals[state] / n2
        se = np.sqrt(p1 * (1 - p1) / n1 + p2 * (1 - p2) / n2)
        if se > 0:
            worst = max(worst, abs(p1 - p2) / se)
    for j in (0, 1):
        se = np.sqrt(count.var(j) / n1 + node.var(j) / n2)
        if se > 0:
            worst = max(worst, abs(count.mean(j) - node.mean(j)) / se)
    return float(worst)


def two_sample_verdict(misses: list[bool]) -> bool:
    """True (failed) when a statistical criterion missed on two independent samples.

    A defect misses on every sample.  Sampling noise at the rates above
    misses on two samples of one run about once in 1 000 runs (three C8
    calls) or 400 runs (two C9 halves).
    """
    return sum(misses) >= 2


def readback_problems(data, states: np.ndarray, times: np.ndarray) -> list[str]:
    """The CSV parsed by read_trajectory equals the integrator's output bit for bit."""
    problems = []
    if data.kind != "meanfield":
        problems.append(f"trajectory kind {data.kind!r}, expected 'meanfield'")
    if data.times.shape != times.shape or not np.array_equal(data.times, times):
        problems.append("read-back times differ from the grid")
    if data.fractions.shape != states.shape or not np.array_equal(data.fractions, states):
        problems.append("read-back fractions differ from the integrated states")
    return problems


def cycle_reference(gammas, y0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Independent solution of the mean-field ODE on a cycle with equal island sizes.

    dy[i,k]/dt = g_k (y[i-1,k] + y[i+1,k]) (1 - sum_l y[i,l]) - y[i,k], solved
    by scipy's DOP853 at rtol 1e-12; returns states on `times`, shape (T, M, K).
    """
    from scipy.integrate import solve_ivp

    g = np.asarray(gammas, dtype=float)
    shape = y0.shape

    def field(_t, flat):
        y = flat.reshape(shape)
        pressure = g * (np.roll(y, 1, axis=0) + np.roll(y, -1, axis=0))
        return (pressure * (1.0 - y.sum(axis=1, keepdims=True)) - y).ravel()

    sol = solve_ivp(field, (0.0, float(times[-1])), y0.ravel(), method="DOP853",
                    t_eval=times, rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"reference solver failed: {sol.message}")
    return sol.y.T.reshape((len(times),) + shape)


REFERENCE_TOL = 1e-7  # DP5(4) at rtol 1e-9 against DOP853 at rtol 1e-12


def reference_gap(states: np.ndarray, reference: np.ndarray) -> float:
    """Largest |ODE - reference| over all samples; the check is gap <= REFERENCE_TOL."""
    if states.shape != reference.shape:
        return float("inf")
    return float(np.abs(states - reference).max())


def suite_problems(exit_code: int, report: dict, expected_checks: int) -> list[str]:
    """Every check of every suite passed, the report says so, and the CLI exited 0."""
    problems = []
    if exit_code != 0:
        problems.append(f"suite exit code {exit_code}")
    checks = [(s["suite"], c) for s in report.get("suites", []) for c in s["checks"]]
    if len(checks) != expected_checks:
        problems.append(f"{len(checks)} checks reported, expected {expected_checks}")
    failed = [f"{suite}:{c['name']}" for suite, c in checks if not c["passed"]]
    if failed:
        problems.append(f"failed checks {failed}")
    if report.get("passed") is not True:
        problems.append("report does not say passed")
    return problems
