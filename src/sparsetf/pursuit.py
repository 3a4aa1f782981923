"""Greedy mode extraction: outer pursuit loop, inner demodulation solver,
and the sqrt(d) time-domain partitioner.

The inner solver fits one mode ``a*cos(theta)`` to the current residual by
alternating demodulation: resample onto a uniform phase grid, split the
signal into in-phase/quadrature envelopes with a sharp low-pass filter in the
phase domain, convert the quadrature part into a phase correction, then
smooth and re-integrate the frequency under a positivity floor.  The outer
loop seeds each extraction from the transform ridges of the residual, the
strongest first, and subtracts accepted modes until the residual norm falls
below the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .ridge import recover_components
from .separation import check_scale_separation
from .signal import (Decomposition, DictionaryParams, PhasePair, SampledSignal,
                     cumulative_integral, differentiate, extend_span, moving_average,
                     smoother_extension)
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
#: Sharp spectral cutoff for envelope extraction, relative to the carrier
#: frequency in phase coordinates.
LOWPASS_FRACTION = 0.5


@dataclass(frozen=True)
class PursuitConfig:
    """Knobs for the pursuit and its inner solver.

    ``inner_tol`` ends the inner solve once the largest phase correction is
    below it (in cycles) or a step moves the objective by at most
    ``(2*pi*inner_tol)**2 * ||r||^2`` (see ``solve_p2``); ``delta`` is the
    wavelet half-bandwidth used for ridge seeding and as the frequency floor
    factor.  Every extraction is seeded from the transform ridges of the
    residual (see ``matching_pursuit``).
    """

    params: DictionaryParams
    max_components: int = 8
    inner_tol: float = 1e-4
    delta: float = 0.2
    voices: int = 32

    def __post_init__(self):
        if self.max_components < 1:
            raise InvalidInputError("max_components must be >= 1")
        if not self.inner_tol > 0:
            raise InvalidInputError("inner_tol must be positive")
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


def _lowpass_sharp(x: np.ndarray, cutoff_cycles: float, extension: str) -> np.ndarray:
    """Zero all Fourier modes at or above the cutoff (cycles per span).

    The input covers one span sampled at n points including the right
    endpoint.  Periodic mode treats it as one period; mirror mode reflects
    it evenly first, which removes the wrap-around jump for non-periodic
    spans.  Complex input keeps the signed bins with |k| below the cutoff.
    """
    ext = extend_span(x, extension)
    size = ext.base.size
    real = not np.iscomplexobj(x)
    X = np.fft.rfft(ext.base) if real else np.fft.fft(ext.base)
    k = np.arange(X.size)
    X[np.minimum(k, size - k) >= ext.spans * cutoff_cycles] = 0.0
    return ext.restrict(np.fft.irfft(X, size) if real else np.fft.ifft(X))


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


def _cyclic_reduction(lo, di, up, b):
    """Solve a diagonally dominant tridiagonal system (``lo[0] = up[-1] = 0``).

    Odd-even cyclic reduction: the even rows absorb their odd neighbours,
    which leaves a system of half the size whose off-diagonals shrink about
    quadratically; it recurses until they are below round-off next to the
    diagonal, then solves the odd rows from their neighbours on the way back.
    """
    if np.all(np.abs(lo) + np.abs(up) <= np.finfo(float).eps * np.abs(di)):
        return b / di
    k = di.size
    # an identity row at each end gives every kept row two neighbours
    lo, di, up, b = (np.concatenate(([c], v, [c]))
                     for v, c in ((lo, 0.0), (di, 1.0), (up, 0.0), (b, 0.0)))
    keep, prev, nxt, odd = slice(1, k + 1, 2), slice(0, k, 2), slice(2, k + 2, 2), slice(2, k + 1, 2)
    alpha, gamma = lo[keep] / di[prev], up[keep] / di[nxt]
    x = np.zeros(k + 2)
    x[keep] = _cyclic_reduction(-alpha * lo[prev], di[keep] - alpha * up[prev] - gamma * lo[nxt],
                                -gamma * up[nxt], b[keep] - alpha * b[prev] - gamma * b[nxt])
    x[odd] = (b[odd] - lo[odd] * x[1:k:2] - up[odd] * x[3 : k + 2 : 2]) / di[odd]
    return x[1:-1]


def _spline(x: np.ndarray, y: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Not-a-knot cubic spline through (x, y), evaluated at xs in [x[0], x[-1]].

    The interpolant of ``scipy.interpolate.CubicSpline(x, y)``: with three
    points it is the parabola through them.  With more, the slopes solve
    CubicSpline's tridiagonal system; its first and last (not-a-knot) rows are
    eliminated into their neighbours, which leaves a diagonally dominant
    system for the inner slopes (see ``_cyclic_reduction``).  x must be
    finite and strictly increasing.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    if x.size == 3:
        c = (m[1] - m[0]) / (h[0] + h[1])
        s = np.array([m[0] - c * h[0], m[0] + c * h[0], m[1] + c * h[1]])
    else:
        # rows 1..n-2, h[i] s[i-1] + 2 (h[i-1] + h[i]) s[i] + h[i-1] s[i+1] = b[i],
        # less the not-a-knot rows h[1] s[0] + d0 s[1] = b0 and d1 s[-2] + h[-2] s[-1] = b1
        lo, di, up = h[1:].copy(), 2.0 * (h[:-1] + h[1:]), h[:-1].copy()
        b = 3.0 * (h[1:] * m[:-1] + h[:-1] * m[1:])
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        b0 = ((h[0] + 2.0 * d0) * h[1] * m[0] + h[0] ** 2 * m[1]) / d0
        b1 = (h[-1] ** 2 * m[-2] + (2.0 * d1 + h[-1]) * h[-2] * m[-1]) / d1
        di[0] -= d0
        b[0] -= b0
        di[-1] -= d1
        b[-1] -= b1
        lo[0] = up[-1] = 0.0
        inner = _cyclic_reduction(lo, di, up, b)
        s = np.concatenate([[(b0 - d0 * inner[0]) / h[1]], inner,
                            [(b1 - d1 * inner[-1]) / h[-2]]])
    t = (s[:-1] + s[1:] - 2.0 * m) / h
    c0, c1 = t / h, (m - s[:-1]) / h - t
    i = np.clip(np.searchsorted(x, xs, side="right") - 1, 0, x.size - 2)
    d = xs - x[i]
    return ((c0[i] * d + c1[i]) * d + s[i]) * d + y[i]


def _demodulate(r_values: np.ndarray, theta: np.ndarray, eta: float,
                extension: str = "periodic"):
    """In-phase/quadrature envelopes of r against the carrier cos(theta).

    Interpolates r, as a function of the monotone phase, onto a uniform phase
    grid whose period has a fast FFT length (n-1 itself is often prime, e.g.
    8191), low-passes 2*r*exp(i*s) below ``eta`` times the carrier frequency
    and maps the slow complex envelope back to the time grid: its real part
    is the in-phase envelope, its imaginary part the quadrature one.  For
    r = A*cos(theta + phi) with slow A, phi this returns (A*cos(phi),
    -A*sin(phi)).  Raises ``NumericalFailureError`` unless theta is finite and
    strictly increasing, as a cubic spline in the phase needs.
    """
    if not np.all(np.isfinite(theta)) or np.any(np.diff(theta) <= 0):
        raise NumericalFailureError("the phase is not finite and strictly increasing", np.nan)
    s = np.linspace(theta[0], theta[-1], _fast_len(theta.size - 1) + 1)
    r_of_s = _spline(theta, r_values, s)
    cycles = (theta[-1] - theta[0]) / (2.0 * np.pi)
    z = _lowpass_sharp(2.0 * r_of_s * np.exp(1j * s), eta * cycles, extension)
    ab = np.interp(theta, s, z)
    return ab.real, ab.imag


def _project_phase(theta_raw: np.ndarray, theta_cur: np.ndarray, h: float,
                   delta: float, extension: str) -> np.ndarray:
    """Smooth the implied frequency over one carrier period, clamp it positive,
    re-integrate.

    Under ``periodic`` the span is one period: the detrended phase
    ``theta - adv*t/T`` (``adv`` the advance across the span) is
    differentiated and smoothed across the wrap, and the result keeps a whole
    number of cycles, ``2*pi*max(1, round(adv/(2*pi)))``.  Under ``mirror``
    the derivative is one-sided and the average reflects evenly at the span
    ends, and the advance is left free.  The frequency floor is
    ``(1-delta) * min(theta_cur')``; the phase value at the span midpoint is
    preserved.
    """
    n = theta_raw.size
    if extension == "periodic":
        adv = theta_raw[-1] - theta_raw[0]
        window = min(int(round(2.0 * np.pi * (n - 1) / max(adv, 1e-300))), n)
        pad = window // 2 + 1
        wrapped = np.pad((theta_raw - adv * np.linspace(0.0, 1.0, n))[:-1], pad, mode="wrap")
        om = moving_average(differentiate(wrapped, h), window)[pad : pad + n] + adv / ((n - 1) * h)
    else:
        om = differentiate(theta_raw, h)
        window = int(round(2.0 * np.pi / max(float(np.mean(om)), 1e-300) / h))
        om = moving_average(om, window)
    floor = (1.0 - delta) * float(np.min(differentiate(theta_cur, h)))
    om = np.maximum(om, floor)
    theta = cumulative_integral(om, h)
    if extension == "periodic":
        theta *= 2.0 * np.pi * max(1.0, np.round(adv / (2.0 * np.pi))) / theta[-1]
    mid = n // 2
    return theta - theta[mid] + theta_raw[mid]


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
    gate.  A candidate whose objective lies within ``(2*pi*inner_tol)**2 *
    ||r||^2`` of the last accepted one, above or below, is a flat step: near
    the optimum that is the most a phase step of ``inner_tol`` cycles can
    move it.  Below full bandwidth every accepted step opens the next cutoff
    stage, and so does a flat step that is not accepted.  At full bandwidth
    the solve converges on a flat step or once the largest phase correction
    is below ``inner_tol`` cycles.  ``extension``: see ``extend_span``.
    """
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
    stall = (2.0 * np.pi * cfg.inner_tol) ** 2 * history[0]
    best_pair, best_obj = None, np.inf
    converged = False
    iterations = 0
    damp = 1.0
    consecutive_bad = 0
    # cutoff continuation: stiff first passes lock the phase onto the smooth
    # minimizer before the full envelope bandwidth opens up
    stages = [LOWPASS_FRACTION / 2.0**k for k in (3, 2, 1, 0)]
    stage = 0
    for _ in range(INNER_MAX_ITER):
        iterations += 1
        eta = stages[stage]
        at_full_bandwidth = stage == len(stages) - 1
        if consecutive_bad == 0:  # a rejection keeps theta and eta, so the demodulation stands
            a_t, b_t = _demodulate(r.values, theta, eta, extension)
            amp = np.hypot(a_t, b_t)
            phi = np.unwrap(np.arctan2(-b_t, a_t))  # correction can exceed one cycle
            rel_update = float(np.max(np.abs(phi))) / (2.0 * np.pi)
        theta_new = _project_phase(theta + damp * phi, theta, h, cfg.delta, extension)
        # project onto (a margin around) the constraint set: tame the envelope
        # until the pair is admissible; candidates whose advantage lives in
        # inadmissible wiggles lose it here and fail the objective gate below
        tamed = _tame_envelope(amp, theta_new, eta, r, cfg, a_floor, extension)
        if tamed is not None:
            pair = tamed
            obj = p2_objective(r, pair)
        flat = tamed is not None and abs(obj - history[-1]) <= stall
        if tamed is not None and obj <= history[-1] + slack:
            history.append(obj)
            if obj < best_obj:
                best_pair, best_obj = pair, obj
            theta = theta_new
            damp = 1.0
            consecutive_bad = 0
            if not at_full_bandwidth:
                stage += 1
        elif flat and not at_full_bandwidth:  # a flat step opens the next stage unaccepted
            damp = 1.0
            consecutive_bad = 0
            stage += 1
        else:
            consecutive_bad += 1
            damp *= 0.5
        if at_full_bandwidth and (rel_update < cfg.inner_tol or flat) and best_pair is not None:
            converged = True
            break
        if consecutive_bad >= 2:
            break
    if best_pair is None:  # no admissible iterate: no pair, and the empty fit
        best_obj = history[0]
    return P2Result(best_pair, float(best_obj), iterations, converged, tuple(history))


def _tame_envelope(amp: np.ndarray, theta: np.ndarray, eta: float, r: SampledSignal,
                   cfg: PursuitConfig, a_floor: float, extension: str) -> PhasePair | None:
    """Low-pass the envelope until the candidate pair is admissible.

    The gate sits at ADMISSIBILITY_MARGIN times the target separation factor
    (iterates carry residual junk).  Returns None when no amount of envelope
    smoothing helps, i.e. the phase itself violates the metrics.
    """
    eps_cap = ADMISSIBILITY_MARGIN * cfg.params.epsilon
    cycles = (theta[-1] - theta[0]) / (2.0 * np.pi)
    cutoff = eta * cycles
    cur = amp
    for _ in range(7):
        pair = PhasePair(r.t0, r.t1, np.maximum(cur, a_floor), theta)
        if check_scale_separation(pair, eps_cap).in_dictionary:
            return pair
        cutoff *= 0.5
        cur = _lowpass_sharp(amp, cutoff, extension)
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
    w = make_wavelet(cfg.delta)
    try:
        pairs = recover_components(residual, w, voices=cfg.voices, extension=extension)
    except InvalidInputError:
        return []
    return [p.theta for p in sorted(pairs, key=lambda p: p.mode().norm(), reverse=True)]


def matching_pursuit(f: SampledSignal, cfg: PursuitConfig) -> Decomposition:
    """Decompose a signal by greedy extraction of one mode at a time.

    Each extraction solves from the seeding's ridge phases in turn, largest
    mode norm first, until a solve returns a pair.  Stops when the residual
    norm drops below ``params.epsilon0``, when ``max_components`` is reached,
    or with the ``no_progress`` flag set when no ridge gives an admissible
    fit, the fit does not reduce the residual, or the fitted mode's norm is
    below ``epsilon0`` (not significant).  Components are returned ordered by increasing mean frequency,
    with the extraction order recorded.  Spans extend as ``smoother_extension(f)``.
    """
    extension = smoother_extension(f.values)
    residual = f
    extracted: list[PhasePair] = []
    no_progress = False
    eps0 = cfg.params.epsilon0
    for _ in range(cfg.max_components):
        if residual.norm() < eps0:
            break
        for theta_init in _seed_phases(residual, cfg, extension):
            res = solve_p2(residual, theta_init, cfg, extension)
            if res.pair is not None:
                break
        else:  # no ridge, or no admissible fit from any of them
            no_progress = True
            break
        pair = res.pair
        # history[0] is ||residual||^2; a mode below epsilon0 is not significant
        if res.objective >= res.history[0] * (1.0 - 1e-12) or pair.mode().norm() < eps0:
            no_progress = True
            break
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
