"""Large-island limit dynamics of the multi-strain contagion.

As island sizes grow, the per-island infected fractions y[i, k] follow

    dy[i,k]/dt = (sum_{j ~ i} w_k(j, i) * y[j,k]) * (1 - sum_l y[i,l]) - y[i,k]

with effective rates w_k(j, i) = gamma_k(j, i) * N_j / N_i and the healing
rate normalized to one.  Callers with healing rate mu != 1 must rescale
(gamma -> gamma/mu, t -> mu*t) before building :class:`MeanFieldParams`.
The rates are one weight per strain and directed island edge, so a call of
:func:`rhs` costs O(K*E) for E directed edges, not O(K*M^2).

States are plain float arrays of shape (M, K); any number of leading batch
dimensions is accepted by :func:`rhs` and :func:`integrate`, in which case all
batched trajectories share one adaptive step sequence.  The state space (each
island's strain fractions in a simplex) is forward invariant for the exact
flow; the integrator itself checks every accepted step against it instead
of projecting, so a violation surfaces as an error rather than being masked.
One rule, `_simplex_violation`, checks both a start (:func:`validate_state`)
and every accepted step, and it refuses a NaN fraction.  Sample times are
checked by the same rule as the simulators' sample grids, and a
:class:`StepControl` refuses a bad method, tolerance or step when it is built.
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
    src[e] into island dst[e].  Every edge carries a strictly positive, finite rate.
    """

    net: SuperNetwork
    num_strains: int
    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.shape != (self.num_strains, self.net.in_edges[0].size):
            raise ValueError("rates must have shape (num_strains, number of directed edges)")
        if not np.all((w > 0) & (w < np.inf)):
            raise ValueError("effective rates on edges must be strictly positive and finite")
        # Stored edge-major, so w.T, the layout `pressure` multiplies by, is contiguous.
        w = w.T.copy().T
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @classmethod
    def symmetric(cls, net: SuperNetwork, gammas: float | Sequence[float]) -> "MeanFieldParams":
        """Equal island sizes assumed; one uniform rate per strain."""
        w = StrainParams.uniform(net, [float(g) for g in np.atleast_1d(gammas)]).gamma
        return cls(net=net, num_strains=len(w), w=w)

    @classmethod
    def from_micro(cls, net: SuperNetwork, params: StrainParams) -> "MeanFieldParams":
        """Scale microscopic rates by island size ratios N_j / N_i.

        Requires all healing rates already normalized to 1.
        """
        if any(mu != 1.0 for mu in params.mu):
            raise ValueError("healing rates must be normalized to 1 (rescale gamma and time)")
        params.validate_for(net)
        n = net.sizes
        w = [[g * n[j - 1] / n[i - 1] for g, (j, i) in zip(row, net.in_edge_pairs)]
             for row in params.gamma]
        return cls(net=net, num_strains=params.num_strains, w=w)

    @classmethod
    def from_rates(
        cls, net: SuperNetwork, num_strains: int, gamma_eff: Mapping[tuple[int, int, int], float]
    ) -> "MeanFieldParams":
        """Directly supplied effective rates keyed (strain, source j, target i)."""
        w = edge_rows(net, gamma_eff, range(1, num_strains + 1))
        return cls(net=net, num_strains=num_strains, w=w)

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
    """Integrator configuration.

    method "rk45" is an explicit embedded Dormand-Prince 5(4) pair with
    adaptive steps; "rk4" is the classical fixed-step fourth-order scheme for
    deterministic regression output.  Steps and tolerances are positive and finite.
    """

    method: str = "rk45"
    rtol: float = 1e-9
    atol: float = 1e-12
    h_min: float = 1e-13
    fixed_step: float = 1e-3
    max_steps: int = 5_000_000

    def __post_init__(self):
        if self.method not in ("rk45", "rk4"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        for name in ("rtol", "atol", "h_min", "fixed_step"):
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

    @property
    def method(self) -> str:
        return self.control.method

    def integrator_metadata(self) -> dict:
        meta = {"method": self.method, "rtol": self.control.rtol, "atol": self.control.atol}
        if self.method == "rk4":
            meta["fixed_step"] = self.control.fixed_step
        return meta


# Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math. 6 (1980)).
# Row 7 is the 5th-order weights, so the 7th stage's input is the 5th-order solution.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_ERR = np.append(_DP_A[6], 0.0) - _DP_B4


def _dp_step(f, t, y, h):
    """One Dormand-Prince step: returns (5th-order y, error estimate).

    Overflow in a trial step is expected near rejection; it surfaces as a
    non-finite error norm and the step is retried smaller.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        k = [f(t, y)]
        for s in range(1, 7):
            ys = y + h * sum(a * ki for a, ki in zip(_DP_A[s], k))
            k.append(f(t + _DP_C[s] * h, ys))
        err = h * sum(e * ki for e, ki in zip(_DP_ERR, k) if e != 0.0)
    return ys, err


def _rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + h / 2, y + h / 2 * k1)
    k3 = f(t + h / 2, y + h / 2 * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


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
    checked to stay within 10x the control tolerance of it.  With t_eval
    given, samples land exactly on those times (steps are clipped to them,
    never interpolated); otherwise every accepted step is recorded.

    Raises:
        IntegrationError: when the adaptive step underflows control.h_min,
            the step budget is exhausted, or an accepted state leaves the
            simplices.
    """
    control = control or StepControl()
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    y = np.array(y0, dtype=float)
    if t_eval is not None:
        t_eval = _prepare_grid(t_eval, t_end)

    times = [0.0]
    states = [y.copy()]
    record_all = t_eval is None
    ei = 0
    if not record_all:
        times, states = [], []
        if t_eval[0] == 0.0:
            times.append(0.0)
            states.append(y.copy())
            ei = 1

    slack = 10 * control.tolerance
    t = 0.0
    n_steps = 0
    n_rejected = 0
    h = control.fixed_step if control.method == "rk4" else min(0.05, t_end / 10)
    while t < t_end:
        if n_steps + n_rejected >= control.max_steps:
            raise IntegrationError(f"step budget {control.max_steps} exhausted at t={t:g}")
        target = t_eval[ei] if (not record_all and ei < t_eval.size) else t_end
        h_try = min(h, target - t, t_end - t)
        if control.method == "rk4":
            y_new = _rk4_step(f, t, y, h_try)
        else:
            y_new, err = _dp_step(f, t, y, h_try)
            scale = control.atol + control.rtol * np.maximum(np.abs(y), np.abs(y_new))
            with np.errstate(invalid="ignore", over="ignore"):
                err_norm = float(np.max(np.abs(err) / scale)) if err.size else 0.0
            if not np.isfinite(err_norm) or err_norm > 1.0:
                n_rejected += 1
                shrink = 0.2 if not np.isfinite(err_norm) else max(0.2, 0.9 * err_norm**-0.2)
                h = h_try * shrink
                if h < control.h_min:
                    raise IntegrationError(f"step size underflow at t={t:g} (h={h:.3e})")
                continue
            grow = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm**-0.2))
            h = h_try * grow
        t = t + h_try
        y = y_new
        n_steps += 1
        msg = _simplex_violation(y, slack)
        if msg:
            raise IntegrationError(f"domain violation at t={t:g}: {msg}")
        if record_all:
            times.append(t)
            states.append(y.copy())
        else:
            while ei < t_eval.size and t >= t_eval[ei] - 1e-14 * max(1.0, t):
                times.append(float(t_eval[ei]))
                states.append(y.copy())
                ei += 1
    return OdeTrajectory(
        times=np.asarray(times),
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
    """Integrate the limiting dynamics from y0 over [0, t_end].

    y0 may carry leading batch dimensions over trailing (M, K); batched
    trajectories share a single step sequence and error control.  Every
    accepted state is asserted to stay within 10x the control tolerance of
    the invariant domain.
    """
    control = control or StepControl()
    y0 = validate_state(y0, params, tol=10 * control.tolerance)
    return integrate_field(lambda t, y: rhs(y, params), y0, t_end, control=control, t_eval=t_eval)


def reduced_scalar_solution(d: int, gamma: float, y0: float, t):
    """Closed-form solution of the uniform reduction  dy/dt = d*g*y*(1-y) - y.

    This is the dynamics of every island of a d-regular symmetric
    configuration started from a uniform state, and the bounding solution
    for non-uniform starts.  Accepts scalar or array t.

    At a := d*gamma - 1 = 0 the decay is algebraic, y = y0 / (1 + d*g*y0*t);
    otherwise y = a*y0 / (d*g*y0 + (a - d*g*y0) e^{-a t}), written with the
    decaying exponential for either sign of a.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if not gamma > 0:
        raise ValueError("gamma must be positive")
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


def reduced_bivirus_trajectory(
    d: int,
    gamma_x: float,
    gamma_y: float,
    x0: float,
    y0: float,
    t_end: float,
    control: StepControl | None = None,
    t_eval: Sequence[float] | None = None,
) -> OdeTrajectory:
    """Uniform two-strain reduction on a d-regular symmetric configuration.

    Integrates the scalar pair
        dx/dt = d*gx*x*(1-x-y) - x
        dy/dt = d*gy*y*(1-x-y) - y
    whose trajectories sandwich the per-island fractions of the full system
    for suitably ordered initial conditions.  States have shape (2,) = (x, y).
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if not (gamma_x > 0 and gamma_y > 0):
        raise ValueError("rates must be positive")
    z0 = np.array([x0, y0], dtype=float)
    if _simplex_violation(z0, 0.0):
        raise ValueError("(x0, y0) must lie in the simplex")

    def f(t, z):
        free = 1.0 - z[..., 0] - z[..., 1]
        return np.stack(
            [d * gamma_x * z[..., 0] * free - z[..., 0], d * gamma_y * z[..., 1] * free - z[..., 1]],
            axis=-1,
        )

    return integrate_field(f, z0, t_end, control=control, t_eval=t_eval)
