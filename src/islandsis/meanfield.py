"""Large-island limit dynamics of the multi-strain contagion.

As island sizes grow, the per-island infected fractions y[i, k] follow

    dy[i,k]/dt = (sum_{j ~ i} w_k(j, i) * y[j,k]) * (1 - sum_l y[i,l]) - y[i,k]

in the time unit of the strains' common healing rate mu, with effective
rates w_k(j, i) = gamma_k(j, i) / mu * N_j / N_i.  :class:`MeanFieldParams`
carries mu, and :func:`integrate` runs the field to mu * t_end and reports
its samples in the caller's time t.  The rates are one weight per strain and
directed island edge, so a call of :func:`rhs` costs O(K*E) for E directed
edges, not O(K*M^2).

States are plain float arrays of shape (M, K); any number of leading batch
dimensions is accepted by :func:`rhs` and :func:`integrate`, in which case all
batched trajectories share one adaptive step sequence.  The adaptive
Dormand-Prince pair reuses its last stage as the next attempt's first, so an
attempt costs 6 evaluations of the field.  The state space (each
island's strain fractions in a simplex) is forward invariant for the exact
flow; the integrator itself checks every accepted step against it instead
of projecting, so a violation surfaces as an error rather than being masked.
One rule, `_simplex_violation`, checks both a start (:func:`validate_state`)
and every accepted step, and it refuses a NaN fraction.  The horizon and
sample times are checked by the same rule as the simulators' sample grids,
and a :class:`StepControl` refuses a bad tolerance, step or step budget when
it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .micro import StrainParams, _prepare_grid, edge_rows
from .topology import SuperNetwork


class IntegrationError(RuntimeError):
    """Step-size underflow or an excursion out of the invariant domain."""


@dataclass(frozen=True)
class MeanFieldParams:
    """Effective rates of the limiting dynamics on a given supernetwork.

    Rates live on the directed island edges (src, dst) = net.in_edges: w has
    shape (K, E) and w[k-1, e] is the effective rate of strain k from island
    src[e] into island dst[e], in units of the common healing rate mu.  Every
    edge carries a strictly positive, finite rate, and mu is positive and finite.
    """

    net: SuperNetwork
    w: np.ndarray
    mu: float = 1.0

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 2 or w.shape[1] != self.net.in_edges[0].size:
            raise ValueError("rates must have shape (num_strains, number of directed edges)")
        if not np.all((w > 0) & (w < np.inf)):
            raise ValueError("effective rates on edges must be strictly positive and finite")
        if not 0 < self.mu < math.inf:
            raise ValueError(f"healing rate mu must be positive and finite, got {self.mu!r}")
        # Stored edge-major, so w.T, the layout `pressure` multiplies by, is contiguous.
        w = w.T.copy().T
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "mu", float(self.mu))

    @property
    def num_strains(self) -> int:
        return self.w.shape[0]

    @classmethod
    def symmetric(cls, net: SuperNetwork, gammas: float | Sequence[float]) -> "MeanFieldParams":
        """One uniform rate per strain on islands of equal size; unequal sizes are refused."""
        if len(set(net.sizes)) > 1:
            raise ValueError(f"a symmetric configuration needs equal island sizes, got {net.sizes}")
        return cls(net, StrainParams.uniform(net, [float(g) for g in np.atleast_1d(gammas)]).gamma)

    @classmethod
    def from_micro(cls, net: SuperNetwork, params: StrainParams) -> "MeanFieldParams":
        """Microscopic rates over their common healing rate mu, times size ratios N_j / N_i.

        Strains that heal at different rates have no common time unit and are refused.
        """
        if len(set(params.mu)) > 1:
            raise ValueError(f"strain-dependent healing rates mu = {sorted(set(params.mu))} "
                             "have no common time unit")
        params.validate_for(net)
        mu, n = params.mu[0], net.sizes

        def rate(g, j, i):
            # g * N_j can overflow where the ratio N_j / N_i brings it back into range.
            w = g / mu * n[j - 1] / n[i - 1]
            return w if w < math.inf else g / mu * (n[j - 1] / n[i - 1])

        return cls(net, [[rate(g, j, i) for g, (j, i) in zip(row, net.in_edge_pairs)]
                         for row in params.gamma], mu)

    @classmethod
    def from_rates(
        cls, net: SuperNetwork, num_strains: int, gamma_eff: Mapping[tuple[int, int, int], float]
    ) -> "MeanFieldParams":
        """Directly supplied effective rates keyed (strain, source j, target i)."""
        return cls(net, edge_rows(net, gamma_eff, range(1, num_strains + 1)))

    def pressure(self, y: np.ndarray) -> np.ndarray:
        """sum_{j ~ i} w_k(j, i) * y[..., j, k] as an array shaped like y, in O(K*E).

        A gather along the edges, then one segment sum per target island that
        has neighbors; islands without any get exactly 0.
        """
        targets, starts = self.net.in_edge_groups
        summed = np.add.reduceat(y.take(self.net.in_edges[0], axis=-2) * self.w.T, starts, axis=-2)
        if not self.net.degenerate:
            return summed
        out = np.zeros(y.shape)
        out[..., targets, :] = summed
        return out

    @cached_property
    def is_symmetric_configuration(self) -> bool:
        """Equal island sizes and one uniform effective rate per strain."""
        return len(set(self.net.sizes)) == 1 and bool(np.all(self.w == self.w[:, :1]))

    def uniform_rate(self, strain: int = 1) -> float:
        """The single effective rate of a symmetric configuration."""
        if not self.is_symmetric_configuration:
            raise ValueError("configuration is not symmetric; no single rate exists")
        if not 1 <= strain <= self.num_strains:
            raise ValueError(f"strain {strain} out of range 1..{self.num_strains}")
        return float(self.w[strain - 1, 0])


def _simplex_violation(y: np.ndarray, slack: float) -> str | None:
    """Why y leaves the product of per-island strain simplices by more than slack, or None."""
    low = float(y.min())  # NaN when any fraction is NaN
    high = float(y.sum(axis=-1).max())
    if math.isnan(low):
        return "fraction is NaN"
    if low < -slack:
        return f"fraction {low:.3e} below 0 beyond slack {slack:.1e}"
    if high > 1 + slack:
        return f"island total {high:.6f} above 1 beyond slack {slack:.1e}"
    return None


def validate_state(y: np.ndarray, params: MeanFieldParams, tol: float = 0.0) -> np.ndarray:
    """Check fractions lie in the product of simplices, within slack tol."""
    y = np.asarray(y, dtype=float)
    m = params.net.num_islands
    if y.shape[-2:] != (m, params.num_strains):
        raise ValueError(f"state must have trailing shape ({m}, {params.num_strains})")
    violation = _simplex_violation(y, tol)
    if violation:
        raise ValueError(f"state outside the per-island strain simplex: {violation}")
    return y


def rhs(y: np.ndarray, params: MeanFieldParams) -> np.ndarray:
    """Time derivative of the infected fractions; batch dims pass through."""
    y = np.asarray(y, dtype=float)
    return params.pressure(y) * (1.0 - y.sum(axis=-1, keepdims=True)) - y


@dataclass(frozen=True)
class StepControl:
    """Error control of the adaptive Dormand-Prince 5(4) pair.

    Tolerances and the smallest step are positive and finite.
    """

    rtol: float = 1e-9
    atol: float = 1e-12
    h_min: float = 1e-13
    max_steps: int = 5_000_000

    def __post_init__(self):
        for name in ("rtol", "atol", "h_min"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not self.max_steps >= 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps!r}")

    @property
    def tolerance(self) -> float:
        return max(self.rtol, self.atol)


@dataclass
class OdeTrajectory:
    """States on strictly increasing times, plus the step control that made them."""

    times: np.ndarray  # (T,)
    states: np.ndarray  # (T, ...) matching the initial state's shape
    control: StepControl
    n_steps: int
    n_rejected: int

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    method = "rk45"  # the one scheme, named in CSV headers and manifests

    def integrator_metadata(self) -> dict:
        return {"method": self.method, "rtol": self.control.rtol, "atol": self.control.atol}


# Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math. 6 (1980)).
# Row 7 is the 5th-order weights, so the 7th stage's input is the 5th-order solution.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
]
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_ERR = np.append(_DP_A[6], 0.0) - _DP_B4
# The error sum skips the stage whose weight is 0.
_DP_ERR_STAGES = tuple(np.flatnonzero(_DP_ERR).tolist())
_DP_ERR_WEIGHTS = tuple(_DP_ERR[list(_DP_ERR_STAGES)].tolist())


def _weighted_sum(weights, stages):
    """sum(w * k for w, k in zip(weights, stages)), built in place and bit for bit.

    Added left to right from Python's int 0, so `+ 0.0` turns a leading -0.0
    into +0.0 exactly as `sum` does.
    """
    out = stages[0] * weights[0]
    out += 0.0
    for w, k in zip(weights[1:], stages[1:]):
        out += k * w
    return out


def _dp_attempt(f, t, y, h, k0):
    """One Dormand-Prince attempt from its first stage k0 = f(t, y).

    Returns (5th-order y, error estimate, f(t + h, 5th-order y)).  The 7th
    stage is evaluated at the 5th-order solution, so it is the next attempt's
    first stage (first same as last) and an attempt costs 6 calls of f.
    """
    k = [k0]
    for s in range(1, 7):
        ys = _weighted_sum(_DP_A[s], k)
        ys *= h
        ys += y
        k.append(f(t + _DP_C[s] * h, ys))
    err = _weighted_sum(_DP_ERR_WEIGHTS, [k[s] for s in _DP_ERR_STAGES])
    err *= h
    return ys, err, k[6]


def integrate_field(
    f: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t_end: float,
    control: StepControl | None = None,
    t_eval: Sequence[float] | None = None,
) -> OdeTrajectory:
    """Integrate a smooth field dy/dt = f(t, y) on [0, t_end] whose states are strain fractions.

    The field must keep the product of per-island strain simplices (the last
    axis of y indexes strains) forward invariant: every accepted state is
    checked to stay within 10x the control tolerance of it.  Samples are
    taken at t_eval, by default t_end alone, and land exactly on those times:
    steps are clipped to them, never interpolated.  Sample t_eval[i] takes
    the state at t = 0 or after an accepted step once
    t >= t_eval[i] - 1e-14 * max(1, t), and the integration stops once the
    last sample is taken.  t_end bounds the grid and sets the first step,
    min(0.05, t_end / 10); t_end and t_eval are checked by the simulators'
    grid rule.  A call evaluates f 1 + 6 * (n_steps + n_rejected) times.

    Raises:
        IntegrationError: when the adaptive step underflows control.h_min,
            the step budget is exhausted, or an accepted state leaves the
            simplices.
    """
    control = control or StepControl()
    t_eval = _prepare_grid((t_end,) if t_eval is None else t_eval, t_end)
    y = np.array(y0, dtype=float)
    states = []
    ei = 0
    slack = 10 * control.tolerance
    t = 0.0
    n_steps = 0
    n_rejected = 0
    h = min(0.05, t_end / 10)
    # Overflow in a trial step is expected near rejection; it surfaces as a
    # non-finite error norm and the step is retried smaller.
    with np.errstate(over="ignore", invalid="ignore"):
        k0 = f(t, y)
        while True:
            while ei < t_eval.size and t >= t_eval[ei] - 1e-14 * max(1.0, t):
                states.append(y.copy())
                ei += 1
            if ei == t_eval.size:
                break
            if n_steps + n_rejected >= control.max_steps:
                raise IntegrationError(f"step budget {control.max_steps} exhausted at t={t:g}")
            h_try = min(h, t_eval[ei] - t)
            y_new, err, k_new = _dp_attempt(f, t, y, h_try, k0)
            scale = control.atol + control.rtol * np.maximum(np.abs(y), np.abs(y_new))
            err_norm = float((np.abs(err) / scale).max()) if err.size else 0.0
            if not math.isfinite(err_norm) or err_norm > 1.0:
                n_rejected += 1
                shrink = 0.2 if not math.isfinite(err_norm) else max(0.2, 0.9 * err_norm**-0.2)
                h = h_try * shrink
                if h < control.h_min:
                    raise IntegrationError(f"step size underflow at t={t:g} (h={h:.3e})")
                continue
            grow = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm**-0.2))
            h = h_try * grow
            k0 = k_new
            t = t + h_try
            y = y_new
            n_steps += 1
            msg = _simplex_violation(y, slack)
            if msg:
                raise IntegrationError(f"domain violation at t={t:g}: {msg}")
    return OdeTrajectory(
        times=t_eval.copy(),
        states=np.asarray(states),
        control=control,
        n_steps=n_steps,
        n_rejected=n_rejected,
    )


def integrate(
    params: MeanFieldParams,
    y0: np.ndarray,
    t_end: float,
    control: StepControl | None = None,
    t_eval: Sequence[float] | None = None,
) -> OdeTrajectory:
    """Integrate the limiting dynamics from y0 over [0, t_end] in the caller's time.

    Samples are taken at t_eval, by default t_end alone, and the trajectory
    reports t_eval as its times.  The field runs in units of params.mu, to
    mu * t_end and sampled at mu * t_eval.  y0 may carry leading batch
    dimensions over trailing (M, K); batched trajectories share a single step
    sequence and error control.  Every accepted state is asserted to stay
    within 10x the control tolerance of the invariant domain.
    """
    control = control or StepControl()
    y0 = validate_state(y0, params, tol=10 * control.tolerance)
    t_eval = _prepare_grid((t_end,) if t_eval is None else t_eval, t_end)
    with np.errstate(over="ignore"):  # integrate_field refuses an overflowing horizon
        scaled = params.mu * t_eval
    traj = integrate_field(lambda t, y: rhs(y, params), y0, params.mu * t_end, control, scaled)
    traj.times = t_eval.copy()
    return traj


def reduced_scalar_solution(d: int, gamma: float, y0: float, t):
    """Closed-form solution of the uniform reduction  dy/dt = d*g*y*(1-y) - y.

    This is the dynamics of every island of a d-regular symmetric
    configuration started from a uniform state, and the bounding solution
    for non-uniform starts.  With several strains the reduction has no closed
    form; it is the field on bipartite 1+1 at rates d*gamma_k, started
    uniform, so :func:`integrate` runs it.  Accepts scalar or array t.

    At a := d*gamma - 1 = 0 the decay is algebraic, y = y0 / (1 + d*g*y0*t);
    otherwise y = a*y0 / (d*g*y0 + (a - d*g*y0) e^{-a t}), written with the
    decaying exponential for either sign of a.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    if not 0.0 <= y0 <= 1.0:
        raise ValueError("y0 must lie in [0, 1]")
    t = np.asarray(t, dtype=float)
    dg = d * gamma
    a = dg - 1.0
    if y0 == 0.0:
        out = np.zeros_like(t)
    elif a == 0.0:
        out = y0 / (1.0 + dg * y0 * t)
    elif a > 0:
        out = a * y0 / (dg * y0 + (a - dg * y0) * np.exp(-a * t))
    else:
        e = np.exp(a * t)
        out = a * y0 * e / (a + dg * y0 * (e - 1.0))
    return out if out.ndim else float(out)

