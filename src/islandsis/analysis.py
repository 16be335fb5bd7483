"""Qualitative behavior of the limiting dynamics, checked mechanically.

Covers the threshold classification (a strain persists on a d-regular
symmetric configuration iff d*gamma > 1, at level 1 - 1/(d*gamma), and with
several strains only the strictly fastest one can persist; one verdict,
:func:`classify_multi`, of which :func:`classify_single` is the one-strain
case), order preservation of the flow between comparably ordered initial
conditions (:func:`check_dominance` integrates one pair or a stack of pairs
at once and returns the earliest violation, or None),
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
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .meanfield import MeanFieldParams, integrate, validate_state
from .topology import SuperNetwork, _is_count, is_regular, superdegree


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
    """Where the ordering of two trajectories first fails on the grid, and by how much.

    pair is the 0-based index of the failing pair in a stack of pairs, 0 for a single pair.
    """

    time: float
    island: int
    strain: int
    magnitude: float
    pair: int = 0


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
    """Earliest grid time where sign*(low - high) exceeds tol, or None.

    lows and highs have shape (T, M, K), or (T, P, M, K) for P stacked pairs;
    ties at the earliest time go to the first (pair, island, strain) in C order.
    """
    excess = (lows - highs) * signs - tol
    bad = excess > 0
    if not bad.any():
        return None
    index = np.unravel_index(np.argmax(bad), bad.shape)
    t_idx, *pair, i_idx, k_idx = (int(i) for i in index)
    return DominanceViolation(
        time=float(times[t_idx]),
        island=i_idx + 1,
        strain=k_idx + 1,
        magnitude=float(excess[index] + tol),
        pair=pair[0] if pair else 0,
    )


def check_dominance(
    params: MeanFieldParams,
    z_low: np.ndarray,
    z_high: np.ndarray,
    t_end: float,
    grid: int | Sequence[float] = 201,
    tol: float = 1e-9,
) -> DominanceViolation | None:
    """Integrate ordered initial states together; the earliest ordering violation, or None.

    z_low and z_high are one pair of (M, K) states, or P pairs stacked as
    (P, M, K).  For one strain the hypothesis is z_low <= z_high
    componentwise; for two strains, strain-1 components of z_low sit below
    z_high while strain-2 components sit above (see :func:`_ordering_signs`).
    Every state is advanced in one integration, with one shared step
    sequence, and each pair is compared at every grid time within tol.  grid
    is a count of at least 2 evenly spread times or a sequence of times.

    Raises:
        UnmetHypothesisError: initial states violate the required ordering.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be non-negative and finite, got {tol!r}")
    signs = _ordering_signs(params.num_strains)
    lo = validate_state(z_low, params)
    hi = validate_state(z_high, params)
    if lo.shape != hi.shape or lo.ndim > 3:
        raise ValueError(f"z_low and z_high must share a shape (M, K) or (P, M, K), "
                         f"got {lo.shape} and {hi.shape}")
    if np.any((lo - hi) * signs > 0):
        raise UnmetHypothesisError("initial states do not satisfy the ordering hypothesis")
    if isinstance(grid, (int, np.integer)):
        if not _is_count(grid) or grid < 2:  # a bool, or no sample time past t = 0
            raise ValueError(f"grid must count at least 2 sample times, got {grid!r}")
        grid = np.linspace(0.0, t_end, grid)
    traj = integrate(params, np.stack([lo, hi], axis=-3), t_end, t_eval=grid)
    states = traj.states
    return first_grid_violation(traj.times, states[..., 0, :, :], states[..., 1, :, :], signs, tol)


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


def taylor_coefficients(params: MeanFieldParams, y0: np.ndarray, n_max: int) -> TaylorTable:
    """Taylor-expand the solution at t = 0 by recursion on the polynomial field.

    Writing y[i,k](t) = sum_n c_n[i,k] t^n, the quadratic right-hand side
    gives the Cauchy-product recursion

        (n+1) c_{n+1} = S_n * (1 - T_0) - sum_{m=1..n} T_m * S_{n-m} - c_n

    with S_n[i,k] the neighbor-weighted sum of c_n and T_m[i] the per-island
    strain total of c_m, in the time unit of params.mu.  Row n is then scaled
    by mu**n, so the table is in the caller's time; at mu = 1, row 1 equals
    rhs(y0) exactly.
    """
    if not 0 <= n_max <= MAX_TAYLOR_ORDER:
        raise ValueError(f"n_max must be within 0..{MAX_TAYLOR_ORDER}")
    y0 = validate_state(y0, params)
    if y0.ndim != 2:
        raise ValueError(f"y0 must be one state of shape (M, K) = {y0.shape[-2:]}, "
                         f"got shape {y0.shape}")
    m, kk = y0.shape
    c = np.zeros((n_max + 1, m, kk))
    c[0] = y0
    s = np.zeros_like(c)  # s[n] = neighbor-weighted sums of c[n]
    t = np.zeros((n_max + 1, m))  # t[n] = per-island strain totals of c[n]
    # Large rates overflow at some order; TaylorTable refuses the result.
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_max):
            s[n] = params.pressure(c[n])
            t[n] = c[n].sum(axis=-1)
            cross = np.zeros((m, kk))
            for mm in range(1, n + 1):
                cross += t[mm][:, None] * s[n - mm]
            c[n + 1] = (s[n] * (1.0 - t[0][:, None]) - cross - c[n]) / (n + 1)
        c = c * (params.mu ** np.arange(n_max + 1.0))[:, None, None]
    return TaylorTable(coeff=c)


class LocalSign(enum.Enum):
    """Sign of a smooth function just after a point, from its Taylor coefficients."""

    LOCALLY_POSITIVE = "locally-positive"
    LOCALLY_NEGATIVE = "locally-negative"
    ZERO = "zero"
    INCONCLUSIVE = "inconclusive"


SIGN_THRESHOLD = 1e-12  # magnitude a coefficient must exceed to count as nonzero


def sign_probe(coeffs: Sequence[float]) -> LocalSign:
    """Sign of the first coefficient exceeding SIGN_THRESHOLD in magnitude.

    An analytic function whose derivatives at T vanish through order k-1
    while the kth is positive is positive on (T, T+eps); the probe reads that
    off numerically.  All-exact-zero input is ZERO; input that never clears
    the threshold but is not exactly zero is INCONCLUSIVE (noise).  A
    non-finite coefficient is refused.
    """
    coeffs = list(coeffs)
    if not coeffs:
        raise ValueError("need at least one coefficient")
    if not all(map(math.isfinite, coeffs)):
        raise ValueError(f"coefficients must be finite, got {coeffs}")
    for cval in coeffs:
        if abs(cval) > SIGN_THRESHOLD:
            return LocalSign.LOCALLY_POSITIVE if cval > 0 else LocalSign.LOCALLY_NEGATIVE
    if all(cval == 0.0 for cval in coeffs):
        return LocalSign.ZERO
    return LocalSign.INCONCLUSIVE


def lyapunov_error(y: np.ndarray) -> float | np.ndarray:
    """Half the squared gap between the two island fractions, w = (y1-y2)^2 / 2.

    Defined for a two-island single-strain state, shaped (2,) or (2, 1), or
    for states (..., 2, 1) batched in leading dimensions, which give an array
    of w over the batch.  Along any solution of the symmetric two-island
    system with rate g, dw/dt = -(y1-y2)^2 (g+1) <= 0, so w certifies
    collapse onto the evenly infected diagonal.
    """
    y = np.asarray(y, dtype=float)
    if y.shape == (2,):
        y = y[:, None]
    if y.shape[-2:] != (2, 1):
        raise ValueError("expected a two-island, single-strain state")
    w = 0.5 * (y[..., 0, 0] - y[..., 1, 0]) ** 2
    return float(w) if w.ndim == 0 else w
