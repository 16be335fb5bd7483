"""Named suites of qualitative-behavior checks with pinned tolerances.

Each suite drives the analysis module on fixed configurations and reports one
record per check.  A refusal that a check expects (tied rates, non-regular or
disconnected networks) counts as a pass for that check.  Suites are
deterministic: randomized initial conditions come from a fixed seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..analysis import (
    PERSISTENCE,
    LocalSign,
    UnmetHypothesisError,
    check_dominance,
    classify_multi,
    classify_single,
    equilibrium_fraction,
    lyapunov_error,
    sign_probe,
    taylor_coefficients,
)
from ..meanfield import (
    MeanFieldParams,
    StepControl,
    integrate,
    reduced_scalar_solution,
    rhs,
)
from ..topology import (
    build_supernetwork,
    complete_supernetwork,
    cycle_supernetwork,
    hop_distances,
    star_supernetwork,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass
class SuiteReport:
    suite: str
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }


def _bipartite_params(gammas) -> MeanFieldParams:
    return MeanFieldParams.symmetric(build_supernetwork((1, 1), [(1, 2)]), gammas)


def _cycle_params(m: int, gammas) -> MeanFieldParams:
    return MeanFieldParams.symmetric(cycle_supernetwork(m, 1), gammas)


def _single_strain_pairs(rng, m: int, count: int):
    for _ in range(count):
        hi = rng.uniform(0.0, 1.0, (m, 1))
        lo = hi * rng.uniform(0.0, 1.0, (m, 1))
        yield lo, hi


def _two_strain_pairs(rng, m: int, count: int):
    # Strain 1 ordered low <= high, strain 2 the other way, both in-simplex.
    for _ in range(count):
        s1_hi = rng.uniform(0.0, 1.0, (m, 1))
        s2_hi = rng.uniform(0.0, 1.0, (m, 1)) * (1.0 - s1_hi)
        s1_lo = s1_hi * rng.uniform(0.0, 1.0, (m, 1))
        s2_lo = s2_hi + rng.uniform(0.0, 1.0, (m, 1)) * (1.0 - s2_hi - s1_lo)
        yield np.hstack([s1_lo, s2_lo]), np.hstack([s1_hi, s2_hi])


def _dominance_check(name, params, pairs, t_end) -> CheckResult:
    """Every (low, high) pair drawn, in order, then checked in one stacked integration."""
    lows, highs = (np.stack(side) for side in zip(*pairs))
    tol = 1e-9
    violation = check_dominance(params, lows, highs, t_end, grid=101, tol=tol)
    detail = {"pairs": len(lows), "t_end": t_end, "tolerance": tol}
    if violation is not None:
        detail["violation"] = asdict(violation)
    return CheckResult(name, violation is None, detail)


def gap_derivative_profile(params: MeanFieldParams, y0):
    """Sampled gap functional w = (y1-y2)^2/2 and its five-point derivative.

    w is sampled at 601 evenly spread times on [0, 3].  y0 is one (2, 1)
    start or a batch of them; the batch shares one integration.  Returns
    (w values, finite-difference dw/dt, predicted -(y1-y2)^2 (g+1)) on the
    interior grid points, time along the first axis.
    """
    gamma = params.uniform_rate()
    t_end, n = 3.0, 600
    grid = np.linspace(0.0, t_end, n + 1)
    h = t_end / n
    traj = integrate(params, np.asarray(y0, float), t_end, t_eval=grid,
                     control=StepControl(rtol=1e-12, atol=1e-14))
    w = lyapunov_error(traj.states)  # (T, ...) with any batch dims of y0
    dw = (-w[4:] + 8 * w[3:-1] - 8 * w[1:-3] + w[:-4]) / (12 * h)
    predicted = -2.0 * w[2:-2] * (gamma + 1.0)  # -(y1-y2)^2 (g+1), since 2w = (y1-y2)^2 exactly
    return w, dw, predicted


def _suite_bipartite_single() -> SuiteReport:
    rng = np.random.default_rng(20240601)
    checks = []

    params = _bipartite_params(2.0)
    traj = integrate(params, np.array([[0.3], [0.7]]), 50.0)
    err = float(np.abs(traj.final - 0.5).max())
    checks.append(
        CheckResult("supercritical_attractor", err <= 1e-6,
                    {"gamma": 2.0, "endpoint_error": err, "tolerance": 1e-6})
    )

    sub = integrate(_bipartite_params(0.8), np.array([[0.9], [0.9]]), 100.0)
    err = float(np.abs(sub.final).max())
    checks.append(
        CheckResult("subcritical_extinction", err <= 1e-6,
                    {"gamma": 0.8, "endpoint_error": err, "tolerance": 1e-6})
    )

    resid = float(np.abs(rhs(np.full((2, 1), 0.5), params)).max())
    checks.append(
        CheckResult("uniform_equilibrium_residual", resid <= 1e-12,
                    {"level": 0.5, "residual": resid, "tolerance": 1e-12})
    )

    checks.append(
        _dominance_check("ordering_preserved", params,
                         _single_strain_pairs(rng, 2, 20), t_end=50.0)
    )

    starts = np.stack([rng.uniform(0.05, 0.95, (2, 1)) for _ in range(5)])
    w, dw, predicted = gap_derivative_profile(params, starts)
    worst_inc = max(0.0, float(np.max(np.diff(w, axis=0))))
    worst_fd = float(np.abs(dw - predicted).max())
    ok = worst_inc <= 1e-12 and worst_fd <= 1e-6
    checks.append(
        CheckResult("gap_contraction", ok,
                    {"max_increase": worst_inc, "max_derivative_mismatch": worst_fd,
                     "tolerances": [1e-12, 1e-6]})
    )
    return SuiteReport("bipartite-single", checks)


def _suite_bipartite_bivirus() -> SuiteReport:
    rng = np.random.default_rng(20240602)
    checks = []
    params = _bipartite_params((3.0, 2.0))

    y0 = np.array([[0.2, 0.3], [0.25, 0.15]])
    traj = integrate(params, y0, 200.0)
    win_err = float(np.abs(traj.final[:, 0] - (1 - 1 / 3.0)).max())
    lose = float(np.abs(traj.final[:, 1]).max())
    checks.append(
        CheckResult("fittest_takes_over", win_err <= 1e-4 and lose <= 1e-4,
                    {"winner_error": win_err, "loser_level": lose, "tolerance": 1e-4})
    )

    checks.append(
        _dominance_check("ordering_preserved_two_strains", params,
                         _two_strain_pairs(rng, 2, 20), t_end=100.0)
    )

    # The uniform two-strain reduction on a d-regular configuration is the
    # field on bipartite 1+1 at rates d*gamma, started uniform; here d = 1, so
    # the bounding solutions are params itself from the extreme uniform starts.
    (x_lo, y_lo), (x_hi, y_hi) = y0.min(axis=0), y0.max(axis=0)
    starts = np.stack([y0, np.full((2, 2), (x_hi, y_lo)), np.full((2, 2), (x_lo, y_hi))])
    grid = np.linspace(0.0, 60.0, 121)
    full, upper, lower = np.moveaxis(integrate(params, starts, 60.0, t_eval=grid).states, 1, 0)
    slack = 1e-7
    env_ok = (
        np.all(full[..., 0] <= upper[..., 0] + slack)
        and np.all(full[..., 1] >= upper[..., 1] - slack)
        and np.all(full[..., 0] >= lower[..., 0] - slack)
        and np.all(full[..., 1] <= lower[..., 1] + slack)
    )
    checks.append(
        CheckResult("uniform_reduction_envelope", bool(env_ok), {"slack": slack})
    )

    z0 = np.array([[0.0, 0.4], [0.0, 0.2]])
    traj = integrate(params, z0, 50.0, t_eval=np.linspace(0.0, 50.0, 101))
    stays = float(np.abs(traj.states[:, :, 0]).max())
    checks.append(
        CheckResult("extinct_strain_stays_extinct", stays == 0.0, {"max_seen": stays})
    )
    return SuiteReport("bipartite-bivirus", checks)


def _classification_cases():
    # every generator-family member up to eight islands
    for m in range(3, 9):
        yield cycle_supernetwork(m, 1)
    for m in range(2, 9):
        yield complete_supernetwork(m, 1)


def disjoint_union(blocks) -> MeanFieldParams:
    """The blocks' networks side by side as one, with no edge between two blocks.

    Block b's islands follow those of the blocks before it.  The union's
    in_edges, grouped by target island, are then the blocks' in_edges in
    block order, so its rates are the blocks' rates side by side.  The
    blocks must share one healing rate mu.
    """
    if len({p.mu for p in blocks}) > 1:
        raise ValueError("blocks with different healing rates have no common time unit")
    sizes, edges = [], []
    for p in blocks:
        edges += [(a + len(sizes), b + len(sizes)) for a, b in p.net.edges]
        sizes += p.net.sizes
    net = build_supernetwork(sizes, edges)
    return MeanFieldParams(net, np.hstack([p.w for p in blocks]), blocks[0].mu)


def _classification_check(rate_cases, start) -> CheckResult:
    """The t = 400 state of every case against its verdict; start(M, K) gives the initial state.

    The cases with one strain count are integrated together, as the blocks of
    one disjoint union: no block couples to another, and the error control's
    max norm holds each block to at least its own tolerance.
    """
    groups = {}  # strain count -> [(params, start, target)] in case order
    for net in _classification_cases():
        for gammas in rate_cases:
            cls = classify_multi(net, gammas)
            kk = len(gammas)
            target = np.zeros((net.num_islands, kk))
            if cls.verdict == PERSISTENCE:
                target[:, cls.strain - 1] = cls.level
            groups.setdefault(kk, []).append(
                (MeanFieldParams.symmetric(net, gammas), start(net.num_islands, kk), target))
    worst = 0.0
    for group in groups.values():
        blocks, starts, targets = zip(*group)
        traj = integrate(disjoint_union(blocks), np.vstack(starts), 400.0)
        worst = max(worst, float(np.abs(traj.final - np.vstack(targets)).max()))
    cases = sum(len(group) for group in groups.values())
    return CheckResult("classification_matches_long_run", worst <= 1e-3,
                       {"cases": cases, "worst_endpoint_error": worst, "tolerance": 1e-3})


def _refused(classify, *args) -> bool:
    """Whether classify(*args) refuses with UnmetHypothesisError, as the check expects."""
    try:
        classify(*args)
    except UnmetHypothesisError:
        return True
    return False


def _suite_regular_single() -> SuiteReport:
    rng = np.random.default_rng(20240603)
    checks = []

    checks.append(_classification_check(
        [(0.3,), (0.6,), (1.2,)], lambda m, kk: rng.uniform(0.1, 0.6, (m, kk))))

    params6 = _cycle_params(6, 1.0)
    grid = np.linspace(0.0, 30.0, 61)
    traj = integrate(params6, np.full((6, 1), 0.2), 30.0, t_eval=grid)
    spread = float((traj.states.max(axis=1) - traj.states.min(axis=1)).max())
    checks.append(
        CheckResult("uniform_state_stays_uniform", spread <= 1e-12, {"max_spread": spread})
    )

    resid = float(np.abs(rhs(np.full((6, 1), equilibrium_fraction(2, 1.0)), params6)).max())
    checks.append(
        CheckResult("uniform_equilibrium_residual", resid <= 1e-12,
                    {"residual": resid, "tolerance": 1e-12})
    )

    checks.append(
        _dominance_check("ordering_preserved", params6,
                         _single_strain_pairs(rng, 6, 20), t_end=50.0)
    )

    refused = (_refused(classify_single, star_supernetwork(4, 1), 2.0)
               + _refused(classify_single, build_supernetwork((1, 1, 1, 1), [(1, 2), (3, 4)]), 2.0))
    checks.append(
        CheckResult("nonregular_or_disconnected_refused", refused == 2, {"refusals": refused})
    )

    grid = np.linspace(0.0, 20.0, 81)
    traj = integrate(_cycle_params(6, 0.75), np.full((6, 1), 0.3), 20.0, t_eval=grid)
    closed = reduced_scalar_solution(2, 0.75, 0.3, grid)
    gap = float(np.abs(traj.states[:, :, 0] - closed[:, None]).max())
    checks.append(
        CheckResult("uniform_start_matches_reduction", gap <= 1e-8,
                    {"max_gap": gap, "tolerance": 1e-8})
    )
    return SuiteReport("regular-single", checks)


def _suite_regular_multivirus() -> SuiteReport:
    rng = np.random.default_rng(20240604)
    checks = []
    net4 = cycle_supernetwork(4, 1)

    gammas = (0.8, 0.6, 0.4)
    cls = classify_multi(net4, gammas)
    traj = integrate(MeanFieldParams.symmetric(net4, gammas), np.full((4, 3), 0.1), 300.0)
    win_err = float(np.abs(traj.final[:, cls.strain - 1] - cls.level).max())
    lose = float(
        np.abs(np.delete(traj.final, cls.strain - 1, axis=1)).max()
    )
    checks.append(
        CheckResult("strongest_strain_survives",
                    cls.verdict == "persistence" and win_err <= 1e-4 and lose <= 1e-4,
                    {"winner": cls.strain, "level": cls.level,
                     "winner_error": win_err, "loser_level": lose, "tolerance": 1e-4})
    )

    weak = (0.4, 0.3, 0.2)
    cls_w = classify_multi(net4, weak)
    traj = integrate(MeanFieldParams.symmetric(net4, weak), np.full((4, 3), 0.1), 300.0)
    level = float(np.abs(traj.final).max())
    checks.append(
        CheckResult("all_strains_die_below_threshold",
                    cls_w.verdict == "extinction" and level <= 1e-4,
                    {"threshold": cls_w.threshold, "remaining": level, "tolerance": 1e-4})
    )

    checks.append(_classification_check(
        [(1.2, 0.5), (0.9, 0.7, 0.2)], lambda m, kk: np.full((m, kk), 0.5 / kk)))

    checks.append(CheckResult("tie_refused", _refused(classify_multi, net4, (2.0, 2.0)),
                              {"gammas": [2.0, 2.0]}))

    checks.append(
        _dominance_check("ordering_preserved_two_strains", _cycle_params(6, (2.5, 1.5)),
                         _two_strain_pairs(rng, 6, 20), t_end=100.0)
    )
    return SuiteReport("regular-multivirus", checks)


def _seeded_cycle8():
    """Params, y0 and order-6 table of the 8-island cycle at gamma = 2, island 1 at 0.5."""
    params = MeanFieldParams.symmetric(cycle_supernetwork(8, 1), 2.0)
    y0 = np.zeros((8, 1))
    y0[0, 0] = 0.5
    return params, y0, taylor_coefficients(params, y0, 6)


def _suite_taylor() -> SuiteReport:
    checks = []
    params, y0, table = _seeded_cycle8()

    exact_first = bool(np.array_equal(table.coeff[1], rhs(y0, params)))
    checks.append(CheckResult("first_order_equals_field", exact_first, {}))

    hops = hop_distances(params.net, 1)
    hop_ok = True
    probe_ok = True
    detail = {}
    for j in range(2, 9):
        n = hops[j]
        col = table.coeff[:, j - 1, 0]
        if np.any(col[:n] != 0.0) or not col[n] > 1e-12:
            hop_ok = False
        if sign_probe(col[1:]) is not LocalSign.LOCALLY_POSITIVE:
            probe_ok = False
        detail[f"island{j}"] = {"hop": n, "first_order_coeff": float(col[n])}
    checks.append(CheckResult("hop_structure_single_seed", hop_ok and probe_ok, detail))

    quiet = np.zeros((8, 1))
    for j in (4, 5, 6):  # three or more hops away from island 1
        quiet[j - 1, 0] = 0.4
    t2 = taylor_coefficients(params, quiet, 4)
    col = t2.coeff[:, 0, 0]
    checks.append(
        CheckResult("quiet_ball_zero_derivatives",
                    bool(np.all(col[1:3] == 0.0) and col[3] > 1e-12),
                    {"orders_1_2": col[1:3].tolist(), "order_3": float(col[3])})
    )

    tight = StepControl(rtol=1e-12, atol=1e-14)
    decay_ok = True
    ratios = {}
    h = 0.05
    for n in range(1, 5):
        errs = []
        for hh in (h, h / 2):
            ref = integrate(params, y0, hh, control=tight).final
            errs.append(float(np.abs(table.polynomial(hh, order=n) - ref).max()))
        ratio = errs[0] / errs[1] if errs[1] > 0 else np.inf
        ratios[f"order{n}"] = ratio
        if ratio < 2**n / 1.5:
            decay_ok = False
    checks.append(
        CheckResult("truncation_error_order", decay_ok,
                    {"step": h, "halving_ratios": ratios, "required": "2^n / 1.5"})
    )

    # Two-strain copies equal on islands within 2 hops of island 1; the copy
    # with more strain-1 mass at hop 3 pulls island 1's order-3 coefficient up.
    net6 = cycle_supernetwork(6, 1)
    p6 = MeanFieldParams.symmetric(net6, (2.0, 1.5))
    base = np.full((6, 2), 0.15)
    bumped = base.copy()
    bumped[3, 0] += 0.2  # island 4, three hops from island 1
    ta = taylor_coefficients(p6, bumped, 4)
    tb = taylor_coefficients(p6, base, 4)
    equal_low = bool(np.all(ta.coeff[:3, 0, :] == tb.coeff[:3, 0, :]))
    strict_at_3 = bool(ta.coeff[3, 0, 0] > tb.coeff[3, 0, 0])
    checks.append(
        CheckResult("remote_bump_first_moves_hop_order",
                    equal_low and strict_at_3,
                    {"equal_through_order": 2,
                     "order3_gap": float(ta.coeff[3, 0, 0] - tb.coeff[3, 0, 0])})
    )
    return SuiteReport("taylor", checks)


def _suite_appendix() -> SuiteReport:
    checks = []
    cases = [
        ((0.0, 0.0, 3.2), LocalSign.LOCALLY_POSITIVE),
        ((0.0, 0.0, 0.0), LocalSign.ZERO),
        ((0.0, -0.5, 1.0), LocalSign.LOCALLY_NEGATIVE),
        ((0.0, 5e-13, -3e-13), LocalSign.INCONCLUSIVE),
        ((0.0, 9e-13), LocalSign.INCONCLUSIVE),
        ((0.0, 2e-12), LocalSign.LOCALLY_POSITIVE),
    ]
    bad = [
        {"coeffs": list(c), "got": sign_probe(c).value, "want": want.value}
        for c, want in cases
        if sign_probe(c) is not want
    ]
    checks.append(CheckResult("first_nonzero_sign_rules", not bad, {"mismatches": bad}))

    params, y0, table = _seeded_cycle8()
    col = table.coeff[1:, 3, 0]  # island 4, three hops out
    probe = sign_probe(col)
    traj = integrate(params, y0, 0.05, control=StepControl(rtol=1e-12, atol=1e-14))
    small_t_positive = bool(traj.final[3, 0] > 0.0)
    checks.append(
        CheckResult("probe_agrees_with_flow",
                    probe is LocalSign.LOCALLY_POSITIVE and small_t_positive,
                    {"probe": probe.value, "value_at_t0.05": float(traj.final[3, 0])})
    )
    return SuiteReport("appendix", checks)


_SUITES = {  # suite name -> suite, in the order a run without a `suite` key reports them
    "bipartite-single": _suite_bipartite_single,
    "bipartite-bivirus": _suite_bipartite_bivirus,
    "regular-single": _suite_regular_single,
    "regular-multivirus": _suite_regular_multivirus,
    "taylor": _suite_taylor,
    "appendix": _suite_appendix,
}
SUITE_NAMES = tuple(_SUITES)


def run_theorem_suite(name: str) -> SuiteReport:
    """Run one named suite of qualitative checks.

    Raises:
        ValueError: unknown suite name.
    """
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(_SUITES)}")
    return _SUITES[name]()
