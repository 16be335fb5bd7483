"""Qualitative behavior of the limiting dynamics, checked mechanically.

Covers the threshold classification (a strain persists on a d-regular
symmetric configuration iff d*gamma > 1, at level 1 - 1/(d*gamma), and with
several strains only the strictly fastest one can persist; one verdict,
:func:`classify_multi`, of which :func:`classify_single` is the one-strain
case), order preservation of the flow between comparably ordered initial
conditions (:func:`check_dominance` returns the earliest violation, or None),
the hop-distance structure of Taylor coefficients (an island only responds
to a perturbation n hops away through its nth and higher derivatives), and
the sign of a function near a point where its first nonzero derivative is
known.

Operations whose hypotheses are not met refuse with
:class:`UnmetHypothesisError` rather than guessing; so does a Taylor table
whose coefficients overflow the float range.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .meanfield import MeanFieldParams, StepControl, integrate, rhs, validate_state
from .topology import SuperNetwork, is_regular, superdegree


class UnmetHypothesisError(ValueError):
    """The inputs fall outside the hypotheses of the property being checked."""


def equilibrium_fraction(d: int, gamma: float) -> float:
    """Persistent infected fraction on a d-regular symmetric configuration.

    max(0, 1 - 1/(d*gamma)): zero at or below the threshold d*gamma = 1.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    return max(0.0, 1.0 - 1.0 / (d * gamma))


EXTINCTION = "extinction"
PERSISTENCE = "persistence"


@dataclass(frozen=True)
class Classification:
    """Long-run verdict for a symmetric configuration on a regular network."""

    verdict: str  # EXTINCTION or PERSISTENCE
    threshold: float  # d * gamma of the deciding strain
    strain: int | None = None  # surviving strain label (persistence only)
    level: float = 0.0  # limiting infected fraction per island


def _require_regular_connected(net: SuperNetwork) -> int:
    if not is_regular(net):
        raise UnmetHypothesisError("supernetwork is not regular (unequal superdegrees)")
    if not net.is_connected:
        raise UnmetHypothesisError("supernetwork is not connected")
    return superdegree(net, 1)


def classify_single(net: SuperNetwork, gamma: float) -> Classification:
    """Single-strain verdict: persistence at 1 - 1/(d*gamma) iff d*gamma > 1.

    The one-strain case of :func:`classify_multi`: it holds for any nonzero
    initial state on a connected regular supernetwork; other networks are
    refused.
    """
    return classify_multi(net, [gamma])


def classify_multi(net: SuperNetwork, gammas: Sequence[float]) -> Classification:
    """Multi-strain verdict assuming every strain starts present.

    The strain with the strictly largest rate wins if above threshold, at
    level 1 - 1/(d*gamma); all others die out.  Tied maxima fall outside the
    strict-ordering hypothesis and are refused.
    """
    gam = [float(g) for g in gammas]
    if not gam or any(not g > 0 for g in gam):
        raise ValueError("all strain rates must be positive")
    d = _require_regular_connected(net)
    best = max(gam)
    winners = [k for k, g in enumerate(gam, start=1) if g == best]
    if len(winners) > 1:
        raise UnmetHypothesisError(
            f"strains {winners} tie at the maximal rate; strict ordering is required"
        )
    k_star = winners[0]
    th = d * best
    if th > 1:
        return Classification(PERSISTENCE, th, strain=k_star, level=equilibrium_fraction(d, best))
    return Classification(EXTINCTION, th)


@dataclass(frozen=True)
class DominanceViolation:
    """Where the ordering of two trajectories first fails on the grid, and by how much."""

    time: float
    island: int
    strain: int
    magnitude: float


def _ordering_signs(num_strains: int) -> np.ndarray:
    # Strain 1 is ordered low <= high; with two strains, strain 2 is ordered
    # the opposite way (the competing strain trades places).
    if num_strains == 1:
        return np.array([1.0])
    if num_strains == 2:
        return np.array([1.0, -1.0])
    raise UnmetHypothesisError("ordering preservation is only checked for 1 or 2 strains")


def first_grid_violation(
    times: np.ndarray, lows: np.ndarray, highs: np.ndarray, signs: np.ndarray, tol: float
) -> DominanceViolation | None:
    """Earliest (time, island, strain) where sign*(low - high) exceeds tol."""
    excess = (lows - highs) * signs[None, None, :] - tol
    bad = np.argwhere(excess > 0)
    if bad.size == 0:
        return None
    t_idx, i_idx, k_idx = bad[np.argmin(bad[:, 0])]
    return DominanceViolation(
        time=float(times[t_idx]),
        island=int(i_idx) + 1,
        strain=int(k_idx) + 1,
        magnitude=float(excess[t_idx, i_idx, k_idx] + tol),
    )


def check_dominance(
    params: MeanFieldParams,
    z_low: np.ndarray,
    z_high: np.ndarray,
    t_end: float,
    grid: int | Sequence[float] = 201,
    tol: float = 1e-9,
    control: StepControl | None = None,
) -> DominanceViolation | None:
    """Integrate two ordered initial states together; the earliest ordering violation, or None.

    For one strain the hypothesis is z_low <= z_high componentwise; for two
    strains, strain-1 components of z_low sit below z_high while strain-2
    components sit above (see :func:`_ordering_signs`).  Both states are
    advanced by one shared integrator configuration and compared at every
    grid time within tol.

    Raises:
        UnmetHypothesisError: initial states violate the required ordering.
    """
    signs = _ordering_signs(params.num_strains)
    lo = validate_state(z_low, params)
    hi = validate_state(z_high, params)
    if np.any((lo - hi) * signs[None, :] > 0):
        raise UnmetHypothesisError("initial states do not satisfy the ordering hypothesis")
    t_eval = np.linspace(0.0, t_end, grid) if isinstance(grid, int) else np.asarray(grid, float)
    traj = integrate(params, np.stack([lo, hi]), t_end, control=control, t_eval=t_eval)
    return first_grid_violation(traj.times, traj.states[:, 0], traj.states[:, 1], signs, tol)


MAX_TAYLOR_ORDER = 12  # conditioning degrades quickly beyond this


@dataclass(frozen=True)
class TaylorTable:
    """Normalized Taylor coefficients y^{(n)}(0)/n! of every island and strain.

    coeff has shape (n_max + 1, M, K); row 0 is the initial state.  The
    recursion only multiplies and adds existing values, so coefficients that
    are zero for structural reasons come out as exact 0.0.  Every coefficient
    is finite: a table with an order that overflows the float range is
    refused.
    """

    coeff: np.ndarray

    def __post_init__(self):
        finite = np.isfinite(self.coeff).reshape(len(self.coeff), -1).all(axis=1)
        if not finite.all():
            raise UnmetHypothesisError(
                f"Taylor coefficients of order {int(np.argmin(finite))} are not finite; "
                "the rates are too large for the float range"
            )

    @property
    def n_max(self) -> int:
        return self.coeff.shape[0] - 1

    def polynomial(self, t: float, order: int | None = None) -> np.ndarray:
        """Evaluate the degree-`order` Taylor polynomial at time t."""
        order = self.n_max if order is None else order
        if not 0 <= order <= self.n_max:
            raise ValueError(f"order must be within 0..{self.n_max}")
        out = self.coeff[order].copy()
        for n in range(order - 1, -1, -1):
            out = out * t + self.coeff[n]
        return out

    def first_nonzero_order(self, island: int, strain: int = 1, threshold: float = 1e-12):
        """Smallest n >= 1 with |coeff[n, island, strain]| above threshold, or None."""
        col = self.coeff[1:, island - 1, strain - 1]
        hits = np.nonzero(np.abs(col) > threshold)[0]
        return int(hits[0]) + 1 if hits.size else None


def taylor_coefficients(params: MeanFieldParams, y0: np.ndarray, n_max: int) -> TaylorTable:
    """Taylor-expand the solution at t = 0 by recursion on the polynomial field.

    Writing y[i,k](t) = sum_n c_n[i,k] t^n, the quadratic right-hand side
    gives the Cauchy-product recursion

        (n+1) c_{n+1} = S_n * (1 - T_0) - sum_{m=1..n} T_m * S_{n-m} - c_n

    with S_n[i,k] the neighbor-weighted sum of c_n and T_m[i] the per-island
    strain total of c_m.  Row 1 therefore equals rhs(y0) exactly.
    """
    if not 0 <= n_max <= MAX_TAYLOR_ORDER:
        raise ValueError(f"n_max must be within 0..{MAX_TAYLOR_ORDER}")
    y0 = validate_state(y0, params)
    m, kk = y0.shape
    c = np.zeros((n_max + 1, m, kk))
    c[0] = y0
    s = np.zeros_like(c)  # s[n] = neighbor-weighted sums of c[n]
    t = np.zeros((n_max + 1, m))  # t[n] = per-island strain totals of c[n]
    # Large rates overflow at some order; TaylorTable refuses the result.
    with np.errstate(over="ignore", invalid="ignore"):
        if n_max >= 1:
            c[1] = rhs(y0, params)
        s[0] = params.pressure(c[0])
        t[0] = c[0].sum(axis=-1)
        for n in range(1, n_max):
            s[n] = params.pressure(c[n])
            t[n] = c[n].sum(axis=-1)
            cross = np.zeros((m, kk))
            for mm in range(1, n + 1):
                cross += t[mm][:, None] * s[n - mm]
            c[n + 1] = (s[n] * (1.0 - t[0][:, None]) - cross - c[n]) / (n + 1)
    return TaylorTable(coeff=c)


class LocalSign(enum.Enum):
    """Sign of a smooth function just after a point, from its Taylor coefficients."""

    LOCALLY_POSITIVE = "locally-positive"
    LOCALLY_NEGATIVE = "locally-negative"
    ZERO = "zero"
    INCONCLUSIVE = "inconclusive"


def sign_probe(coeffs: Sequence[float], threshold: float = 1e-12) -> LocalSign:
    """Sign of the first coefficient exceeding threshold in magnitude.

    An analytic function whose derivatives at T vanish through order k-1
    while the kth is positive is positive on (T, T+eps); the probe reads that
    off numerically.  All-exact-zero input is ZERO; input that never clears
    the threshold but is not exactly zero is INCONCLUSIVE (noise).
    """
    coeffs = list(coeffs)
    if not coeffs:
        raise ValueError("need at least one coefficient")
    for cval in coeffs:
        if abs(cval) > threshold:
            return LocalSign.LOCALLY_POSITIVE if cval > 0 else LocalSign.LOCALLY_NEGATIVE
    if all(cval == 0.0 for cval in coeffs):
        return LocalSign.ZERO
    return LocalSign.INCONCLUSIVE


def lyapunov_error(y: np.ndarray) -> float:
    """Half the squared gap between the two island fractions, w = (y1-y2)^2 / 2.

    Defined for a two-island single-strain state.  Along any solution of the
    symmetric two-island system with rate g, dw/dt = -(y1-y2)^2 (g+1) <= 0,
    so w certifies collapse onto the evenly infected diagonal.
    """
    y = np.asarray(y, dtype=float)
    if y.size != 2:
        raise ValueError("expected a two-island, single-strain state")
    y = y.reshape(2)
    return 0.5 * float(y[0] - y[1]) ** 2
