"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a `[ACCEPT] ...` line (visible with `pytest -s`, and in the
failure report otherwise) including the measured quantity, the pinned
tolerance, and the elapsed wall time against the criterion's budget.

Criterion 2's second branch (C2b) checks extinction at the critical coupling
(degree times rate equal to one).  There the uniform reduction is y' = -y^2,
whose exact solution y0 / (1 + y0 t) decays algebraically, not exponentially:
at t=200 it is still about 5e-3 from any order-one start, so no correct solver
can be within 1e-6 of zero that early.  C2b therefore asserts the 1e-6 bound
at a horizon solved from y0 / (1 + y0 t), and asserts the decay law itself at
t=200, where every island must lie between the closed forms started from the
smallest and the largest initial fraction (the flow preserves order, C5).
"""

import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from islandsis.analysis import (
    LocalSign,
    classify_multi,
    first_grid_violation,
    sign_probe,
    taylor_coefficients,
)
from islandsis.harness.config import ExperimentConfig
from islandsis.harness.experiments import run_converge
from islandsis.meanfield import MeanFieldParams, StepControl, integrate, reduced_scalar_solution
from islandsis.micro import (
    INFECT,
    MacroCounts,
    StrainParams,
    event_rates,
    node_level_simulate,
    simulate,
)
from islandsis.topology import bipartite_supernetwork, cycle_supernetwork, hop_distances

BIP_UNIT = bipartite_supernetwork(1, 1)


def report(name: str, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPT] {name}: {status} ({elapsed:.2f}s / budget {budget:.0f}s) {detail}")


def test_c1_exact_event_rates():
    t0 = time.perf_counter()
    ok = True
    for gamma in (Fraction(1), Fraction(7, 3)):
        net = bipartite_supernetwork(3, 3)
        params = StrainParams.uniform(net, gamma, Fraction(1))
        table = event_rates(MacroCounts(((1,), (2,)), (3, 3)), net, params)
        infect = [table.get((INFECT, 1, 1), 0), table.get((INFECT, 2, 1), 0)]
        ok &= infect == [gamma * Fraction(4, 3), gamma * Fraction(1, 3)]
        ok &= sum(infect) == gamma * Fraction(5, 3)
        full = event_rates(MacroCounts(((0,), (3,)), (3, 3)), net, params)
        ok &= sum(r for (kind, _, _), r in full.items() if kind == INFECT) == 3 * gamma
    elapsed = time.perf_counter() - t0
    report("C1 exact-event-rates", ok, elapsed, 1, "rational arithmetic, zero tolerance")
    assert ok and elapsed < 1


def test_c2a_bipartite_attractor_supercritical():
    t0 = time.perf_counter()
    traj = integrate(MeanFieldParams.symmetric(BIP_UNIT, 2.0), np.array([[0.3], [0.7]]), 50.0)
    err = float(np.abs(traj.final - 0.5).max())
    elapsed = time.perf_counter() - t0
    report("C2a attractor gamma=2", err <= 1e-6, elapsed, 1, f"|y(50)-0.5| = {err:.2e} <= 1e-6")
    assert err <= 1e-6 and elapsed < 1


def test_c2b_bipartite_extinction_at_critical_coupling():
    t0 = time.perf_counter()
    params = MeanFieldParams.symmetric(BIP_UNIT, 1.0)
    y0 = np.array([[0.3], [0.7]])
    low, high = float(y0.min()), float(y0.max())
    bound = 1e-6
    # At d*gamma = 1 each island stays below y(t) = high / (1 + high*t), the
    # closed form from the largest start.  Solving high / (1 + high*T) = bound/2
    # gives T = 2/bound - 1/high, about 2e6; the other half of the bound is
    # left for integrator error.  At t=200 the same law gives ~5e-3.
    horizon = 2 / bound - 1 / high
    err = float(np.abs(integrate(params, y0, horizon).final).max())

    # The decay law at t=200: between the closed forms from either start.
    mid = integrate(params, y0, 200.0).final
    floor = reduced_scalar_solution(1, 1.0, low, 200.0) - bound
    ceil = reduced_scalar_solution(1, 1.0, high, 200.0) + bound
    in_law = bool(np.all((floor <= mid) & (mid <= ceil)))
    elapsed = time.perf_counter() - t0
    ok = err <= bound and in_law
    report(
        "C2b extinction gamma=1", ok, elapsed, 1,
        f"|y({horizon:.4g})| = {err:.3e} <= {bound:.0e}; "
        f"y(200) in [{float(mid.min()):.4e}, {float(mid.max()):.4e}] "
        f"within [{floor:.4e}, {ceil:.4e}] (algebraic y0/(1+y0*t) decay)",
    )
    assert err <= bound, f"critical endpoint {err:.3e} at t={horizon:.4g} exceeds {bound:.0e}"
    assert in_law, (
        f"y(200) = {mid.ravel()} outside the algebraic-decay bounds [{floor:.4e}, {ceil:.4e}]"
    )
    assert elapsed < 1


def test_c3_regular_multipartite_attractor():
    t0 = time.perf_counter()
    net = cycle_supernetwork(6, 1)
    rng = np.random.default_rng(61)
    y0 = rng.uniform(0.02, 0.95, (6, 1))
    traj = integrate(MeanFieldParams.symmetric(net, 1.0), y0, 200.0)
    err = float(np.abs(traj.final - 0.5).max())
    elapsed = time.perf_counter() - t0
    report("C3 six-cycle attractor", err <= 1e-4, elapsed, 1,
           f"|y(200) - (1 - 1/(d*gamma))| = {err:.2e} <= 1e-4")
    assert err <= 1e-4 and elapsed < 1


def test_c4_survival_of_the_fittest():
    t0 = time.perf_counter()
    params = MeanFieldParams.symmetric(BIP_UNIT, (3.0, 2.0))
    traj = integrate(params, np.array([[0.2, 0.3], [0.25, 0.15]]), 300.0)
    win_err = float(np.abs(traj.final[:, 0] - 2 / 3).max())
    lose_err = float(np.abs(traj.final[:, 1]).max())
    ok = win_err <= 1e-4 and lose_err <= 1e-4

    net4 = cycle_supernetwork(4, 1)
    details = []
    for gammas in ((0.8, 0.6, 0.4), (0.4, 0.3, 0.2)):
        verdict = classify_multi(net4, gammas)
        end = integrate(MeanFieldParams.symmetric(net4, gammas), np.full((4, 3), 0.1), 300.0).final
        target = np.zeros(3)
        if verdict.verdict == "persistence":
            target[verdict.strain - 1] = verdict.level
        gap = float(np.abs(end - target[None, :]).max())
        ok &= gap <= 1e-4
        details.append(f"{verdict.verdict}@{gammas[0]}:{gap:.1e}")
    elapsed = time.perf_counter() - t0
    report("C4 survival-of-the-fittest", ok, elapsed, 5,
           f"winner err {win_err:.1e}, loser {lose_err:.1e}; K=3 {details}")
    assert ok and elapsed < 5


def _ordered_pairs_hold(params, lows, highs, t_end, signs, tol=1e-9):
    grid = np.linspace(0.0, t_end, 101)
    traj = integrate(params, np.stack([lows, highs]), t_end, t_eval=grid)
    excess = (traj.states[:, 0] - traj.states[:, 1]) * signs - tol
    return float(excess.max()) <= 0.0, float(excess.max() + tol)


def test_c5_monotone_dominance_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    n_pairs = 100
    results = []

    # single strain, two islands
    hi = rng.uniform(0.0, 1.0, (n_pairs, 2, 1))
    lo = hi * rng.uniform(0.0, 1.0, (n_pairs, 2, 1))
    ok1, worst1 = _ordered_pairs_hold(
        MeanFieldParams.symmetric(BIP_UNIT, 2.0), lo, hi, 50.0, np.array([1.0])
    )
    results.append((ok1, worst1))

    # two strains: strain 1 ordered up, strain 2 ordered down
    def two_strain_pairs(m):
        s1_hi = rng.uniform(0.0, 1.0, (n_pairs, m, 1))
        s2_hi = rng.uniform(0.0, 1.0, (n_pairs, m, 1)) * (1.0 - s1_hi)
        s1_lo = s1_hi * rng.uniform(0.0, 1.0, (n_pairs, m, 1))
        s2_lo = s2_hi + rng.uniform(0.0, 1.0, (n_pairs, m, 1)) * (1.0 - s2_hi - s1_lo)
        return np.concatenate([s1_lo, s2_lo], axis=2), np.concatenate([s1_hi, s2_hi], axis=2)

    lo2, hi2 = two_strain_pairs(2)
    results.append(_ordered_pairs_hold(
        MeanFieldParams.symmetric(BIP_UNIT, (2.5, 1.5)), lo2, hi2, 100.0, np.array([1.0, -1.0])
    ))
    lo6, hi6 = two_strain_pairs(6)
    results.append(_ordered_pairs_hold(
        MeanFieldParams.symmetric(cycle_supernetwork(6, 1), (2.5, 1.5)),
        lo6, hi6, 100.0, np.array([1.0, -1.0]),
    ))

    ok = all(r[0] for r in results)
    worst = max(r[1] for r in results)
    elapsed = time.perf_counter() - t0
    report("C5 dominance x300 pairs", ok, elapsed, 30,
           f"largest ordering excess {worst:.2e} <= 1e-9")
    assert ok and elapsed < 30


def test_c6_derivative_order_structure():
    t0 = time.perf_counter()
    net = cycle_supernetwork(8, 1)
    params = MeanFieldParams.symmetric(net, 2.0)
    y0 = np.zeros((8, 1))
    y0[0, 0] = 0.5
    table = taylor_coefficients(params, y0, 6)
    hops = hop_distances(net, 1)
    ok = True
    for j in range(2, 9):
        n = hops[j]
        if n > 4:
            continue
        col = table.coeff[:, j - 1, 0]
        ok &= bool(np.all(col[:n] == 0.0)) and col[n] > 1e-12
        ok &= sign_probe(col[1:]) is LocalSign.LOCALLY_POSITIVE

    ratios = []
    tight = StepControl(rtol=1e-12, atol=1e-14)
    for n in range(1, 5):
        errs = [
            float(np.abs(table.polynomial(h, order=n)
                         - integrate(params, y0, h, control=tight).final).max())
            for h in (0.05, 0.025)
        ]
        ratio = errs[0] / errs[1]
        ratios.append(round(ratio, 1))
        ok &= ratio >= 2**n / 1.5
    elapsed = time.perf_counter() - t0
    report("C6 derivative-order", ok, elapsed, 5,
           f"structural zeros + positive first response; halving ratios {ratios}")
    assert ok and elapsed < 5


def test_c7_lyapunov_decrease():
    t0 = time.perf_counter()
    gamma = 2.0
    params = MeanFieldParams.symmetric(BIP_UNIT, gamma)
    rng = np.random.default_rng(77)
    starts = rng.uniform(0.02, 0.98, (20, 2, 1))
    h = 3.0 / 600
    grid = np.linspace(0.0, 3.0, 601)
    traj = integrate(params, starts, 3.0, t_eval=grid,
                     control=StepControl(rtol=1e-12, atol=1e-14))
    y = traj.states[..., 0]  # (T, 20, 2)
    diff = y[:, :, 0] - y[:, :, 1]
    w = 0.5 * diff**2
    max_increase = float(np.diff(w, axis=0).max())
    dw = (-w[4:] + 8 * w[3:-1] - 8 * w[1:-3] + w[:-4]) / (12 * h)
    mismatch = float(np.abs(dw + diff[2:-2] ** 2 * (gamma + 1)).max())
    ok = max_increase <= 1e-12 and mismatch <= 1e-6
    elapsed = time.perf_counter() - t0
    report("C7 lyapunov-decrease", ok, elapsed, 5,
           f"max increase {max_increase:.1e}, dw/dt mismatch {mismatch:.2e} <= 1e-6")
    assert ok and elapsed < 5


def test_c8_micro_to_macro_convergence(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig.from_dict({
        "topology": {"generator": "bipartite"},
        "sizes": 100,
        "size_schedule": [100, 400, 1600],
        "strains": [{"gamma": 2.0, "mu": 1.0}],
        "initial": {"kind": "uniform", "fraction": 0.1},
        "t_end": 10.0,
        "grid": 21,
        "replications": 50,
        "seed": 2025,
    })
    rep = run_converge(cfg, tmp_path)
    devs = [r.deviation for r in rep.records]
    decreasing = all(b < a for a, b in zip(devs, devs[1:]))
    ok = decreasing and devs[-1] < 0.03 and rep.monotone_trend
    elapsed = time.perf_counter() - t0
    report("C8 micro-to-macro", ok, elapsed, 120,
           f"deviations {[round(d, 4) for d in devs]} decreasing, final < 0.03")
    assert ok and elapsed < 120


def test_c9_simulator_self_consistency():
    t0 = time.perf_counter()
    net = bipartite_supernetwork(3, 3)
    params = StrainParams.uniform(net, 2.0, 1.0)
    counts0 = MacroCounts(((1,), (0,)), (3, 3))
    init_nodes = [[1, 0, 0], [0, 0, 0]]
    grid = [0.0, 2.0]
    n = 100_000

    final_count, final_node = Counter(), Counter()
    infect_count, infect_node = np.zeros((n, 2)), np.zeros((n, 2))
    for rep in range(n):
        tr = simulate(counts0, net, params, 2.0, 11, grid, rep=rep)
        final_count[tuple(int(c) for c in tr.counts[-1].ravel())] += 1
        infect_count[rep] = [tr.event_totals.get((INFECT, i, 1), 0) for i in (1, 2)]
    for rep in range(n):
        tr = node_level_simulate(net, params, init_nodes, 2.0, 13, grid, rep=rep)
        final_node[tuple(int(c) for c in tr.counts[-1].ravel())] += 1
        infect_node[rep] = [tr.event_totals.get((INFECT, i, 1), 0) for i in (1, 2)]

    worst_z = 0.0
    for state in set(final_count) | set(final_node):
        p1, p2 = final_count[state] / n, final_node[state] / n
        se = np.sqrt(p1 * (1 - p1) / n + p2 * (1 - p2) / n)
        if se > 0:
            worst_z = max(worst_z, abs(p1 - p2) / se)
    for i in range(2):
        se = np.sqrt(infect_count[:, i].var(ddof=1) / n + infect_node[:, i].var(ddof=1) / n)
        worst_z = max(worst_z, abs(infect_count[:, i].mean() - infect_node[:, i].mean()) / se)

    ok = worst_z <= 3.0
    elapsed = time.perf_counter() - t0
    report("C9 simulator-self-consistency", ok, elapsed, 120,
           f"worst z-score {worst_z:.2f} <= 3 over final-state cells and event means")
    assert ok and elapsed < 120


def test_first_grid_violation_is_sound():
    # guard for the comparison machinery the dominance criterion relies on
    times = np.array([0.0, 0.5])
    lows = np.array([[[0.0]], [[0.2]]])
    highs = np.array([[[0.0]], [[0.1]]])
    v = first_grid_violation(times, lows, highs, np.array([1.0]), tol=1e-9)
    assert v is not None and v.time == 0.5 and v.magnitude == pytest.approx(0.1)
