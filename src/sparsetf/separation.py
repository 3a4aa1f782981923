"""Slow-variation metrics, pairwise frequency separation and norm/cross-term bounds.

A mode ``a*cos(theta)`` is admissible at separation factor ``eps`` when the
measured ratios ``sup|a'/theta'|`` and ``sup|theta''/theta'^2|`` both stay
below ``eps`` and ``theta' > 0`` throughout.  For admissible periodic modes
the squared norm of ``a*cos(theta)`` is pinned near ``||a||^2/2`` and the
inner product of two modes with separated frequencies is O(eps); both facts
are verified here with bounds computed from the *measured* metrics, so every
check is falsifiable on concrete data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .signal import PhasePair, differentiate

__all__ = [
    "SeparationReport",
    "NormEquivalenceResult",
    "CrossTermResult",
    "OscillationBoundResult",
    "check_scale_separation",
    "check_well_separated",
    "verify_norm_equivalence",
    "verify_cross_term_bound",
    "verify_oscillatory_cancellation",
]

#: Relative endpoint mismatch of a and theta' above which a pair is treated
#: as non-periodic for the whole-period norm/cross-term checks.
PERIODICITY_RTOL = 1e-6

#: Round-off slack (relative to the compared magnitudes) in inequality checks.
ROUNDOFF_SLACK = 1e-10


@dataclass(frozen=True)
class SeparationReport:
    """Measured slow-variation metrics for one (envelope, phase) pair."""

    eps_envelope: float      # sup |a'(t) / theta'(t)|
    eps_frequency: float     # sup |theta''(t) / theta'(t)^2|
    m_prime: float           # sup theta' / inf theta'
    in_dictionary: bool      # both metrics <= target eps and theta' > 0

    @property
    def eps_measured(self) -> float:
        return max(self.eps_envelope, self.eps_frequency)


@dataclass(frozen=True)
class NormEquivalenceResult:
    """Check of (1/2 - 3*eps)||a||^2 <= ||a cos theta||^2 <= (1/2 + 3*eps)||a||^2."""

    lhs: float
    mid: float
    rhs: float
    holds: bool
    eps_hat: float


@dataclass(frozen=True)
class CrossTermResult:
    """Check of |<a cos theta, a~ cos theta~>| < 4 eps (1 + 1/(1-beta^-1)^2) int(a a~)."""

    value: float
    bound: float
    holds: bool
    beta: float
    eps_hat: float


@dataclass(frozen=True)
class OscillationBoundResult:
    """Cancellation of ``int g(t) cos(t) dt`` over whole periods of the carrier.

    ``bound_proof`` uses the constant 4*eps with eps = sup|g'/g|;
    ``bound_stated`` uses 2*pi*eps.  Both are reported because the data can
    separate them.
    """

    value: float
    bound_proof: float
    bound_stated: float
    eps: float
    holds_proof: bool
    holds_stated: bool


def check_scale_separation(pair: PhasePair, eps: float) -> SeparationReport:
    """Measure the slow-variation metrics of a pair with discrete derivatives."""
    dt = pair.dt
    theta_p = differentiate(pair.theta, dt)
    theta_pp = differentiate(theta_p, dt)
    a_p = differentiate(pair.a, dt)
    positive = bool(np.all(theta_p > 0))
    # one-sided boundary stencils can undershoot; metrics are still reported
    safe = np.where(theta_p > 0, theta_p, np.inf)
    eps_env = float(np.max(np.abs(a_p) / safe))
    eps_freq = float(np.max(np.abs(theta_pp) / safe**2))
    m_prime = float(np.max(theta_p) / np.min(theta_p)) if positive else float("inf")
    in_dict = positive and eps_env <= eps and eps_freq <= eps
    return SeparationReport(eps_env, eps_freq, m_prime, in_dict)


def check_well_separated(pairs: Sequence[PhasePair]) -> float:
    """``d_min``, the least ``theta_hi'(t) / theta_lo'(t)`` of modes adjacent in mean frequency."""
    if len(pairs) < 2:
        raise InvalidInputError("need at least two pairs")
    first = pairs[0]
    for p in pairs[1:]:
        if not p.same_grid(first):
            raise InvalidInputError("pairs must share one grid")
    freqs = [p.theta_prime() for p in pairs]
    order = np.argsort([float(np.mean(fp)) for fp in freqs])
    d_min = min(float(np.min(freqs[hi] / freqs[lo])) for lo, hi in zip(order[:-1], order[1:]))
    if not d_min > 0:
        raise InvalidInputError("d_min must be positive")
    return d_min


def _warn_if_not_periodic(pair: PhasePair):
    # the message depends only on the pair, so Python's once-per-message
    # filter warns once per pair however many checks include it
    theta_p = pair.theta_prime()
    rel_a = abs(pair.a[0] - pair.a[-1]) / max(abs(pair.a[0]), abs(pair.a[-1]))
    rel_f = abs(theta_p[0] - theta_p[-1]) / max(abs(theta_p[0]), abs(theta_p[-1]))
    if rel_a > PERIODICITY_RTOL or rel_f > PERIODICITY_RTOL:
        warnings.warn(
            f"endpoint mismatch (a: {rel_a:.2e}, theta': {rel_f:.2e}) exceeds "
            f"{PERIODICITY_RTOL:.0e}; the whole-period bound is heuristic here",
            RuntimeWarning,
        )


def verify_norm_equivalence(pair: PhasePair) -> NormEquivalenceResult:
    """Bracket ||a cos theta||^2 between (1/2 -+ 3*eps_hat)||a||^2.

    ``eps_hat`` is the measured slow-variation metric.  The pair should be
    periodic over its span; a mismatch raises a warning but the check is
    still computed.
    """
    _warn_if_not_periodic(pair)
    report = check_scale_separation(pair, eps=1.0)
    eps_hat = report.eps_measured
    dt = pair.dt
    norm_a_sq = float(np.trapezoid(pair.a**2, dx=dt))
    mid = float(np.trapezoid((pair.a * np.cos(pair.theta)) ** 2, dx=dt))
    lhs = (0.5 - 3.0 * eps_hat) * norm_a_sq
    rhs = (0.5 + 3.0 * eps_hat) * norm_a_sq
    slack = ROUNDOFF_SLACK * norm_a_sq
    holds = (lhs - slack <= mid) and (mid <= rhs + slack)
    return NormEquivalenceResult(lhs, mid, rhs, holds, eps_hat)


def verify_cross_term_bound(x: PhasePair, y: PhasePair) -> CrossTermResult:
    """Check the cross-mode inner product against its measured slow-variation bound.

    ``y`` must oscillate faster than ``x`` pointwise: beta = min theta_y'/theta_x'
    must exceed 1.  ``eps_hat`` is the larger of the two pairs' measured metrics.
    """
    if not x.same_grid(y):
        raise InvalidInputError("pairs must share one grid")
    _warn_if_not_periodic(x)
    _warn_if_not_periodic(y)
    beta = float(np.min(y.theta_prime() / x.theta_prime()))
    if beta <= 1.0:
        raise InvalidInputError(
            f"hypothesis violated: min theta_y'/theta_x' = {beta:.6g} must exceed 1"
        )
    eps_hat = max(
        check_scale_separation(x, eps=1.0).eps_measured,
        check_scale_separation(y, eps=1.0).eps_measured,
    )
    dt = x.dt
    value = abs(float(np.trapezoid(x.a * np.cos(x.theta) * y.a * np.cos(y.theta), dx=dt)))
    envelope_overlap = float(np.trapezoid(x.a * y.a, dx=dt))
    bound = 4.0 * eps_hat * (1.0 + 1.0 / (1.0 - 1.0 / beta) ** 2) * envelope_overlap
    holds = value < bound + ROUNDOFF_SLACK * envelope_overlap
    return CrossTermResult(value, bound, holds, beta, eps_hat)


def verify_oscillatory_cancellation(g: np.ndarray, t: np.ndarray) -> OscillationBoundResult:
    """Bound ``|int g cos t dt|`` by multiples of ``eps * int g dt``.

    ``g`` must be positive on a grid ``t`` spanning a whole number of 2*pi
    periods of the unit-frequency carrier; ``eps = sup|g'/g|`` is measured
    discretely.  Two candidate constants (4 and 2*pi) are evaluated.
    """
    g = np.asarray(g, dtype=float)
    t = np.asarray(t, dtype=float)
    if g.shape != t.shape or g.ndim != 1 or g.size < 3:
        raise InvalidInputError("g and t must be matching 1-d arrays of length >= 3")
    if np.any(g <= 0):
        raise InvalidInputError("g must be strictly positive")
    cycles = (t[-1] - t[0]) / (2.0 * np.pi)
    if abs(cycles - round(cycles)) > 1e-6 * max(cycles, 1.0):
        warnings.warn("window does not span whole carrier periods; bound is heuristic",
                      RuntimeWarning)
    dt = t[1] - t[0]
    eps = float(np.max(np.abs(differentiate(g, dt)) / g))
    value = abs(float(np.trapezoid(g * np.cos(t), dx=dt)))
    total = float(np.trapezoid(g, dx=dt))
    bound_proof = 4.0 * eps * total
    bound_stated = 2.0 * np.pi * eps * total
    slack = ROUNDOFF_SLACK * total
    return OscillationBoundResult(
        value, bound_proof, bound_stated, eps,
        value < bound_proof + slack, value < bound_stated + slack,
    )
