"""Greedy mode extraction: outer pursuit loop, inner demodulation solver,
and the sqrt(d) time-domain partitioner.

The inner solver fits one mode ``a*cos(theta)`` to the current residual by
alternating demodulation: resample onto a uniform phase grid, split the
signal into in-phase/quadrature envelopes with a sharp low-pass filter in the
phase domain, convert the quadrature part into a phase correction, then
smooth and re-integrate the frequency under a positivity floor.  The outer
loop seeds from the transform ridges of the residual, the strongest first,
carries the seeding's remaining ridge phases into the next extraction, and
subtracts accepted modes until the residual norm falls below the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .ridge import recover_components
from .separation import check_scale_separation
from .signal import (Decomposition, DictionaryParams, PhasePair, SampledSignal,
                     cumulative_integral, differentiate, extend_span, moving_average,
                     smoother_extension, spectral_filter)
from .wavelet import make_wavelet

__all__ = [
    "PursuitConfig",
    "P2Result",
    "p2_objective",
    "solve_p2",
    "matching_pursuit",
    "partition_domain",
]

#: Inner-solver iterates may exceed the target separation factor by this
#: multiple before being rejected (residual carry-over inflates the measured
#: metrics of otherwise sound candidates).
ADMISSIBILITY_MARGIN = 3.0
#: Inner-solver iteration cap.
INNER_MAX_ITER = 50
#: Inner-solver stop, in cycles of phase correction (see ``solve_p2``).
INNER_TOL = 1e-4
#: Sharp spectral cutoff for envelope extraction, relative to the carrier
#: frequency in phase coordinates (lower for d < 2; see ``solve_p2``).
LOWPASS_FRACTION = 0.5


@dataclass(frozen=True)
class PursuitConfig:
    """Knobs for the pursuit and its inner solver.

    ``delta`` is the wavelet half-bandwidth used for ridge seeding and as the
    frequency floor factor.  The pursuit is seeded from the transform ridges
    of the residual (see ``matching_pursuit``).
    """

    params: DictionaryParams
    max_components: int = 8
    delta: float = 0.2
    voices: int = 32

    def __post_init__(self):
        if self.max_components < 1:
            raise InvalidInputError("max_components must be >= 1")
        if not 0 < self.delta < 1:
            raise InvalidInputError("delta must lie in (0,1)")


@dataclass(frozen=True)
class P2Result:
    """Outcome of one inner solve.

    ``history`` starts with the empty-fit objective ``||r||^2`` and then
    lists the objective after each accepted iteration; it is non-increasing.
    ``pair`` is None when no iterate was admissible, and ``objective`` is then
    ``||r||^2``.
    """

    pair: PhasePair | None
    objective: float
    iterations: int
    converged: bool
    history: tuple = field(default_factory=tuple)


def p2_objective(f: SampledSignal, pair: PhasePair) -> float:
    """Squared misfit ||f - a cos theta||^2 by trapezoidal quadrature."""
    if not pair.same_grid(f):
        raise InvalidInputError("pair and signal must share one grid")
    diff = f.values - pair.a * np.cos(pair.theta)
    return float(np.trapezoid(diff**2, dx=f.dt))


def _fast_len(n: int) -> int:
    """Smallest 2-3-5-7-11-smooth integer >= n, a length pocketfft transforms
    fast (``scipy.fft.next_fast_len``'s rule for complex input)."""
    m = max(n, 1)
    while True:
        k = m
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def _resample(theta: np.ndarray, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Local cubic r(theta) at s in [theta[0], theta[-1]], with no linear system.

    theta and r share a uniform time grid, so the slope at a knot is
    dr/dtheta = (dr/di)/(dtheta/di), each a fourth-order five-point difference
    in the sample index i (one-sided at the two samples nearest each end), or
    both centred where a kink makes the five-point dtheta/di not positive.
    Each interval is the cubic Hermite piece through its knots' values and
    slopes.  theta: finite, strictly increasing, at least five samples.
    """
    y = np.stack([theta, r])
    d = np.empty_like(y)
    d[:, 2:-2] = (y[:, :-4] - 8.0 * y[:, 1:-3] + 8.0 * y[:, 3:-1] - y[:, 4:]) / 12.0
    ends = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0], [-3.0, -10.0, 18.0, -6.0, 1.0]]) / 12.0
    d[:, :2], d[:, :-3:-1] = y[:, :5] @ ends.T, -(y[:, :-6:-1] @ ends.T)  # mirrored at t1
    kink = d[0] <= 0
    if kink.any():
        d[:, kink] = np.gradient(y, axis=1)[:, kink]
    slope = d[1] / d[0]
    h = np.diff(theta)
    m = np.diff(r) / h
    t = (slope[:-1] + slope[1:] - 2.0 * m) / h
    c0, c1 = t / h, (m - slope[:-1]) / h - t
    i = np.clip(np.searchsorted(theta, s, side="right") - 1, 0, theta.size - 2)
    x = s - theta[i]
    return ((c0[i] * x + c1[i]) * x + slope[i]) * x + r[i]


def _demodulate(r_values: np.ndarray, theta: np.ndarray, eta: float,
                extension: str = "periodic"):
    """In-phase/quadrature envelopes of r against the carrier cos(theta).

    Interpolates r, as a function of the monotone phase, onto a uniform phase
    grid whose period has a fast FFT length (n-1 itself is often prime, e.g.
    8191), low-passes 2*r*exp(i*s) below ``eta`` times the carrier frequency
    and maps the slow complex envelope back to the time grid: its real part
    is the in-phase envelope, its imaginary part the quadrature one.  For
    r = A*cos(theta + phi) with slow A, phi this returns (A*cos(phi),
    -A*sin(phi)).  theta: finite and strictly increasing, as ``solve_p2``
    checks on entry and every ``PhasePair`` is.
    """
    s = np.linspace(theta[0], theta[-1], _fast_len(theta.size - 1) + 1)
    two_r = 2.0 * _resample(theta, r_values, s)
    cycles = (theta[-1] - theta[0]) / (2.0 * np.pi)
    z = np.empty(s.size, dtype=complex)  # 2*r*exp(i*s), written part by part
    np.multiply(two_r, np.cos(s), out=z.real)
    np.multiply(two_r, np.sin(s), out=z.imag)
    z = spectral_filter(z, lambda c: c < eta * cycles, extension)
    ab = np.interp(theta, s, z)
    return ab.real, ab.imag


def _project_phase(theta_raw: np.ndarray, theta_cur: np.ndarray, h: float,
                   delta: float, extension: str) -> np.ndarray:
    """Smooth the implied frequency over one carrier period, clamp it positive,
    re-integrate.

    One path for both extensions: the frequency is averaged over one mean
    carrier period with the span extended as ``extension``, floored at
    ``(1-delta) * min(diff(theta_cur))/h`` > 0, integrated (so strictly
    increasing) and anchored at the span midpoint.  Under ``periodic`` the
    frequency is ``adv/T`` (``adv`` the advance across the span) plus the
    derivative of the detrended phase ``theta - adv*t/T`` across the wrap of
    its ``extend_span``, and the result keeps ``max(1, round(adv/(2*pi)))``
    whole cycles.  Under ``mirror`` the derivative is one-sided at the span
    ends and the advance is left free.
    """
    n = theta_raw.size
    adv = theta_raw[-1] - theta_raw[0]
    if extension == "periodic":
        q = extend_span(theta_raw - adv * np.linspace(0.0, 1.0, n), extension).around(1, 1)
        om = (q[2:] - q[:-2]) / (2.0 * h) + adv / ((n - 1) * h)
    else:
        om = differentiate(theta_raw, h)
    window = int(round(2.0 * np.pi / max(float(np.mean(om)), 1e-300) / h))
    floor = (1.0 - delta) * float(np.min(np.diff(theta_cur))) / h
    theta = cumulative_integral(np.maximum(moving_average(om, window, extension), floor), h)
    if extension == "periodic":
        theta *= 2.0 * np.pi * max(1.0, np.round(adv / (2.0 * np.pi))) / theta[-1]
    return theta - theta[n // 2] + theta_raw[n // 2]


def solve_p2(r: SampledSignal, theta_init, cfg: PursuitConfig,
             extension: str = "periodic") -> P2Result:
    """Fit one admissible positive-envelope mode to r by alternating demodulation.

    Iterates phase corrections ``theta <- theta + arctan2(-b, a)`` where
    (a, b) are the low-passed in-phase/quadrature envelopes, followed by
    smoothing and a positivity projection of the frequency.  A candidate is
    accepted only if its objective does not increase and its measured
    slow-variation metrics stay within ``ADMISSIBILITY_MARGIN *
    params.epsilon`` (the constraint set of the fit); on a rejection the step
    is halved and retried, and two consecutive rejections return the best
    admissible iterate with ``converged=False``, as does ``INNER_MAX_ITER``.
    With no admissible iterate there is no pair (``pair=None``, objective
    ``||r||^2``, ``converged=False``), so every pair returned passes that
    gate.  A candidate whose objective lies within ``(2*pi*INNER_TOL)**2 *
    ||r||^2`` of the last accepted one, above or below, is a flat step: near
    the optimum that is the most a phase step of ``INNER_TOL`` cycles can
    move it.  The full envelope cutoff is ``min(LOWPASS_FRACTION, 1 -
    1/params.d)`` of the carrier; the solve opens at half of it, and an
    accepted step there, or a flat step that is not accepted, opens it.  At
    full bandwidth the solve converges on a flat step or once the largest
    phase correction is below ``INNER_TOL`` cycles.  ``extension``: see ``extend_span``.
    """
    if r.n < 5:
        raise InvalidInputError("solve_p2 needs at least 5 samples")
    theta = np.asarray(theta_init, dtype=float).copy()
    if theta.ndim != 1 or theta.size != r.n:
        raise InvalidInputError("theta_init must match the signal grid")
    if not np.all(np.isfinite(theta)):
        raise InvalidInputError("theta_init must be finite")
    if np.any(np.diff(theta) <= 0):
        raise InvalidInputError("theta_init must be strictly increasing")
    h = r.dt
    a_floor = max(1e-12 * float(np.max(np.abs(r.values))), np.finfo(float).tiny)

    history = [float(np.trapezoid(r.values**2, dx=h))]
    slack = 1e-12 * max(history[0], np.finfo(float).tiny)
    stall = (2.0 * np.pi * INNER_TOL) ** 2 * history[0]
    best_pair, best_obj = None, np.inf
    converged = False
    iterations = 0
    rejections = 0  # rejections in a row; each halves the step
    # cutoff continuation: a stiff first stage at half the full cutoff locks
    # the phase onto the smooth minimizer before the full envelope bandwidth
    # opens up.  A neighbour at phase ratio d demodulates to 1 - 1/d cycles
    # per carrier cycle, so the full cutoff stays below it
    full = min(LOWPASS_FRACTION, 1.0 - 1.0 / cfg.params.d)
    eta = full / 2.0
    for _ in range(INNER_MAX_ITER):
        iterations += 1
        at_full_bandwidth = eta == full
        if rejections == 0:  # a rejection keeps theta and eta, so the demodulation stands
            a_t, b_t = _demodulate(r.values, theta, eta, extension)
            amp = np.hypot(a_t, b_t)
            phi = np.arctan2(-b_t, a_t)
            if not np.all(np.abs(np.diff(phi)) < np.pi):  # with no jump, unwrap returns phi
                phi = np.unwrap(phi)  # correction can exceed one cycle
            rel_update = float(np.max(np.abs(phi))) / (2.0 * np.pi)
        theta_new = _project_phase(theta + 0.5**rejections * phi, theta, h, cfg.delta, extension)
        # project onto (a margin around) the constraint set: tame the envelope
        # until the pair is admissible; candidates whose advantage lives in
        # inadmissible wiggles lose it here and fail the objective gate below
        pair = _tame_envelope(amp, theta_new, eta, r, cfg, a_floor, extension)
        obj = np.inf if pair is None else p2_objective(r, pair)
        flat = abs(obj - history[-1]) <= stall
        accept = obj <= history[-1] + slack
        if accept:
            history.append(obj)
            if obj < best_obj:
                best_pair, best_obj = pair, obj
            theta = theta_new
        if accept or (flat and not at_full_bandwidth):  # a flat step opens full bandwidth
            rejections = 0
            eta = full
        else:
            rejections += 1
        if at_full_bandwidth and (rel_update < INNER_TOL or flat) and best_pair is not None:
            converged = True
            break
        if rejections >= 2:
            break
    if best_pair is None:  # no admissible iterate: no pair, and the empty fit
        best_obj = history[0]
    return P2Result(best_pair, float(best_obj), iterations, converged, tuple(history))


def _tame_envelope(amp: np.ndarray, theta: np.ndarray, eta: float, r: SampledSignal,
                   cfg: PursuitConfig, a_floor: float, extension: str) -> PhasePair | None:
    """Low-pass the envelope until the candidate pair is admissible.

    The gate sits at ADMISSIBILITY_MARGIN times the target separation factor
    (iterates carry residual junk).  Returns None, unfiltered, when the phase
    itself fails it (theta' not positive or the frequency metric too large),
    which no envelope filter changes, or when six halvings of the cutoff fail.
    """
    eps_cap = ADMISSIBILITY_MARGIN * cfg.params.epsilon
    cycles = (theta[-1] - theta[0]) / (2.0 * np.pi)
    cutoff = eta * cycles
    cur = amp
    for _ in range(7):
        pair = PhasePair(r.t0, r.t1, np.maximum(cur, a_floor), theta)
        report = check_scale_separation(pair, eps_cap)
        if report.in_dictionary:
            return pair
        if report.m_prime == np.inf or not report.eps_frequency <= eps_cap:  # the phase fails
            return None
        cutoff *= 0.5
        cur = spectral_filter(amp, lambda c: c < cutoff, extension)
    return None


def partition_domain(theta_prime, d: float) -> np.ndarray:
    """Greedy partition of the grid into segments with sup/inf ratio < sqrt(d).

    Scans left to right and emits a breakpoint (the start index of a new
    segment) whenever including the next sample would push the running
    sup/inf ratio of theta' to sqrt(d) or beyond.
    """
    tp = np.asarray(theta_prime, dtype=float)
    if np.any(tp <= 0):
        raise InvalidInputError("theta_prime must be positive")
    if not d > 1:
        raise InvalidInputError("d must exceed 1")
    root = np.sqrt(d)
    breakpoints, start, width = [], 0, 64
    while start + 1 < tp.size:
        # running extrema from the segment start; the window doubles on a miss
        rest = tp[start : start + width]
        hit = np.maximum.accumulate(rest)[1:] / np.minimum.accumulate(rest)[1:] >= root
        if hit.any():
            start += 1 + int(np.argmax(hit))
            breakpoints.append(start)
        elif start + width >= tp.size:
            break
        else:
            width *= 2
    return np.asarray(breakpoints, dtype=int)


def _seed_phases(residual: SampledSignal, cfg: PursuitConfig, extension: str) -> list:
    """Initial phases from the transform ridges of the residual, largest mode norm first."""
    if residual.n < 5:  # too short for solve_p2
        return []
    w = make_wavelet(cfg.delta)
    try:
        pairs = recover_components(residual, w, voices=cfg.voices, extension=extension)
    except InvalidInputError:
        return []
    return [p.theta for p in sorted(pairs, key=lambda p: p.mode().norm(), reverse=True)]


def matching_pursuit(f: SampledSignal, cfg: PursuitConfig) -> Decomposition:
    """Decompose a signal by greedy extraction of one mode at a time.

    A fresh seeding solves from its ridge phases in turn, largest mode norm
    first, until a solve returns a pair, and carries the phases after it:
    subtracting a mode concentrated on its own ridge (criterion 05) leaves
    the seeding's other ridges in place, up to O(epsilon).  The next
    extraction solves from the first carried phase, and seeds afresh unless
    that solve is accepted: a pair, a lower objective and a mode norm of at
    least ``params.epsilon0``.  Stops when the residual norm drops below
    ``epsilon0``, when ``max_components`` is reached, or with the
    ``no_progress`` flag set when a fresh seeding gives no accepted fit.
    Components are returned ordered by increasing mean frequency, with the
    extraction order recorded.  Spans extend as ``smoother_extension(f)``.
    """
    extension = smoother_extension(f.values)
    residual = f
    extracted: list[PhasePair] = []
    no_progress = False
    eps0 = cfg.params.epsilon0

    def accepted(res):  # history[0] is ||residual||^2; a mode below eps0 is not significant
        return (res.pair is not None and res.objective < res.history[0] * (1.0 - 1e-12)
                and res.pair.mode().norm() >= eps0)

    phases: list = []  # carried: the last fresh seeding's phases after the last one solved from
    for _ in range(cfg.max_components):
        if residual.norm() < eps0:
            break
        res = solve_p2(residual, phases.pop(0), cfg, extension) if phases else None
        if res is None or not accepted(res):
            phases = _seed_phases(residual, cfg, extension)
            while phases:
                res = solve_p2(residual, phases.pop(0), cfg, extension)
                if res.pair is not None:
                    break
            else:  # no ridge, or no admissible fit from any of them
                no_progress = True
                break
            if not accepted(res):
                no_progress = True
                break
        pair = res.pair
        extracted.append(pair)
        residual = SampledSignal(f.t0, f.t1, residual.values - pair.a * np.cos(pair.theta))

    order = sorted(range(len(extracted)),
                   key=lambda i: float(np.mean(extracted[i].theta_prime())))
    return Decomposition(
        components=tuple(extracted[i] for i in order),
        residual=residual,
        extraction_order=tuple(order),
        no_progress=no_progress,
    )
