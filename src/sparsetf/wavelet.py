"""Frequency-domain B-spline wavelet, its transform, and concentration checks.

The analysis wavelet is defined in the frequency domain as a scaled cardinal
quartic B-spline bump::

    psi_hat(xi) = B5((xi - 1) * 5/(2*delta) + 5/2) / B5(5/2)

so that psi_hat is supported exactly on ``[1-delta, 1+delta]``, peaks at
``psi_hat(1) = 1`` and is symmetric about ``xi = 1``.  The Fourier convention
is ``psi_hat(xi) = integral psi(z) exp(-i xi z) dz``, which gives the closed
time-domain form

    psi(tau) = K * exp(i tau) * sinc(delta*tau/5)**5,
    K = delta / (5*pi*B5(5/2)),    sinc(x) = sin(x)/x.

A mode with instantaneous frequency theta' produces a transform magnitude
concentrated on the scale band ``omega * theta'(t) in [1-delta, 1+delta]``.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .separation import check_scale_separation
from .signal import PhasePair, SampledSignal, extend_span, spectral_band

__all__ = [
    "BSplineWavelet",
    "Scalogram",
    "WaveletMoments",
    "bspline5",
    "make_wavelet",
    "moments",
    "cwt",
    "concentration_error",
    "default_scales",
]

#: Central value B5(5/2) of the cardinal quartic B-spline (support [0, 5]).
B5_CENTER = 115.0 / 192.0

#: ``cwt`` warns about, and ``concentration_error`` refuses, a scale with
#: fewer oscillation samples than this; the seeding transform needs only the
#: Nyquist rate of each band (``_folded_cwt``).
MIN_SAMPLES_PER_CYCLE = 8

#: Relative tolerance to which ``moments`` converges its quadrature.
MOMENTS_RTOL = 1e-6


#: Pieces of B5 on [p, p+1], p = 0, 1, 2, one column each: row k holds the t^(4-k) coefficient,
#: over 24, of t^4, -4t^4 + 4t^3 + 6t^2 + 4t + 1 and 6t^4 - 12t^3 - 6t^2 + 12t + 11, t = x - p.
_B5_PIECES = np.array([[1.0, -4.0, 6.0], [0.0, 4.0, -12.0], [0.0, 6.0, -6.0],
                       [0.0, 4.0, 12.0], [0.0, 1.0, 11.0]]) / 24.0


def bspline5(x) -> np.ndarray:
    """Cardinal B-spline of order 5 (degree 4), supported on [0, 5].

    B5 is symmetric about 5/2, so it is evaluated at ``u = min(x, 5 - x)``,
    clipped at 0, by one Horner pass over the quartic piece (``_B5_PIECES``)
    that holds u.  The result is exactly 0 at and beyond both ends.
    """
    x = np.asarray(x, dtype=float)
    u = np.maximum(np.minimum(x, 5.0 - x), 0.0)
    p = np.add(u >= 1.0, u >= 2.0, dtype=np.intp)  # min(floor(u), 2); NaN stays NaN
    t = u - p
    out = _B5_PIECES[0][p]
    for row in _B5_PIECES[1:]:
        out *= t
        out += row[p]
    return out


@dataclass(frozen=True)
class BSplineWavelet:
    """Analysis wavelet with frequency support ``[1-delta, 1+delta]``."""

    delta: float

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise InvalidInputError(f"delta must lie in (0,1), got {self.delta}")

    @property
    def peak_amplitude(self) -> float:
        """psi(0) = delta / (5*pi*B5(5/2)), the time-domain peak."""
        return self.delta / (5.0 * np.pi * B5_CENTER)

    def freq_response(self, xi) -> np.ndarray:
        """psi_hat(xi), a quartic piecewise polynomial bump on the support."""
        xi = np.asarray(xi, dtype=float)
        return bspline5((xi - 1.0) * (5.0 / (2.0 * self.delta)) + 2.5) / B5_CENTER

    def time_domain(self, tau) -> np.ndarray:
        """psi(tau) in closed form: modulated dilated sinc^5 kernel."""
        tau = np.asarray(tau, dtype=float)
        if not np.all(np.isfinite(tau)):
            raise InvalidInputError("tau must be finite")
        return self.peak_amplitude * np.exp(1j * tau) * np.sinc(self.delta * tau / 5.0 / np.pi) ** 5


def make_wavelet(delta: float) -> BSplineWavelet:
    """Construct the wavelet for half-bandwidth delta in (0, 1)."""
    return BSplineWavelet(float(delta))


@dataclass(frozen=True)
class WaveletMoments:
    """The absolute moments i1 = int|psi|, i2 = int|tau psi'|, i3 = int|tau^2 psi''|.

    They are moments of the implemented psi, normalised to psi_hat(1) = 1, so
    psi(0) = delta/(5*pi*B5(5/2)) is proportional to delta and the moments
    have half-bandwidth orders delta^0, delta^-1 and delta^-2.  The orders
    delta^-1, delta^-2 and delta^-3 hold for the same wavelet rescaled to
    psi(0) = 1, i.e. for ``i_k / psi(0)``.
    """

    i1: float
    i2: float
    i3: float


def _moment_integrands(w: BSplineWavelet, tau: np.ndarray):
    """|psi|, |tau psi'| and tau^2 |psi''| at tau, from psi = K e^{i tau} S, S = sinc(c tau)^5.

    sinc u, sinc' u = (cos u - sinc u)/u and sinc'' u = -sinc u - 2 sinc' u/u
    come from one sine and one cosine of u = c*tau; below |u| = 1e-3 their
    Taylor series replace the cancelling quotients.
    """
    c = w.delta / 5.0
    u = c * tau
    small = np.abs(u) < 1e-3
    us = u[small]
    u[small] = 1.0  # the series below replace the quotients there
    s = np.sin(u) / u
    sp = (np.cos(u) - s) / u
    spp = -s - 2.0 * sp / u
    del u  # each temporary goes once spent, which bounds a cold moments' peak memory
    u2 = us * us
    s[small] = 1.0 - u2 * (1.0 / 6.0 - u2 / 120.0)
    sp[small] = us * (u2 / 30.0 - 1.0 / 3.0)
    spp[small] = u2 * (0.1 - u2 / 168.0) - 1.0 / 3.0
    s3 = s * s * s
    S = s3 * s * s
    S1 = s3 * s * sp * (5.0 * c)  # S'
    S2 = (4.0 * sp * sp + s * spp) * s3 * (5.0 * c * c)  # S''
    del s, sp, spp, s3
    K = w.peak_amplitude
    S2 -= S
    d2psi = np.hypot(S2, 2.0 * S1, out=S2)  # |-S + 2i S' + S''|
    d2psi *= K * tau * tau
    dpsi = np.hypot(S, S1, out=S1)  # |i*S + S'|
    dpsi *= K * np.abs(tau)
    return K * np.abs(S), dpsi, d2psi


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1] (Golub & Welsch, 1969): the nodes, increasing,
    are the eigenvalues of the Legendre Jacobi matrix, the weights 2*(first eigenvector row)^2."""
    k = np.arange(1.0, n)
    x, v = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    return x, v[0] ** 2 * (2.0 / np.sum(v[0] ** 2))  # the row has unit norm up to round-off


@lru_cache(maxsize=64)
def moments(w: BSplineWavelet) -> WaveletMoments:
    """Absolute moments by lobe-wise Gauss-Legendre quadrature with verified tail truncation.

    The moments are those of psi as implemented (psi_hat(1) = 1, so
    psi(0) = delta/(5*pi*B5(5/2))), which are the ones the bound of
    ``concentration_error`` needs; their orders in delta are (0, -1, -2).
    Divided by psi(0) they have the orders (-1, -2, -3) of the wavelet
    normalised to psi(0) = 1.

    The integrands are even, carrier-free envelopes, so integration runs on
    [0, T].  Each sinc lobe ``[k*pi/c, (k+1)*pi/c]``, c = delta/5, gets its
    own Gauss-Legendre rule: the integrands are smooth inside a lobe and
    only kink where sinc vanishes.  The nodes per lobe are doubled, then the
    number of lobes, until each change falls below ``MOMENTS_RTOL/2`` relative;
    otherwise a numerical-failure error reports the tolerance actually
    achieved.
    """
    c = w.delta / 5.0
    width = np.pi / c
    lobes = 256  # T = 256*pi/c ~ 800/c, so the |tau|^-5 envelope tail is < MOMENTS_RTOL for i3
    nodes = 8
    rule = lru_cache(_gauss_legendre)  # built once per node count

    def compute(k0, k1, nodes):
        x, wt = rule(nodes)
        tau = (np.arange(k0, k1)[:, None] + 0.5 * (x + 1.0)) * width
        return np.array([np.sum(f @ wt) * width for f in _moment_integrands(w, tau)])

    def reldiff(a, b):
        return float(np.max(np.abs(a - b) / np.abs(b)))

    vals = compute(0, lobes, nodes)
    step_err = np.inf
    for _ in range(6):  # double the nodes per lobe until stable
        finer = compute(0, lobes, 2 * nodes)
        step_err = reldiff(vals, finer)
        vals, nodes = finer, 2 * nodes
        if step_err < 0.5 * MOMENTS_RTOL:
            break
    else:
        raise NumericalFailureError("moment quadrature did not converge in step", step_err)
    tail_err = np.inf
    for _ in range(6):  # double the lobes at fixed nodes until the tail is negligible
        longer = vals + compute(lobes, 2 * lobes, nodes)
        tail_err = reldiff(longer, vals)
        vals, lobes = longer, 2 * lobes
        if tail_err < 0.5 * MOMENTS_RTOL:
            out = WaveletMoments(*map(float, vals))
            if not all(v > 0 and np.isfinite(v) for v in (out.i1, out.i2, out.i3)):
                raise NumericalFailureError(
                    "moment quadrature produced non-finite values", max(step_err, tail_err))
            return out
    raise NumericalFailureError("moment quadrature tail did not converge", tail_err)


@dataclass(frozen=True)
class Scalogram:
    """Wavelet transform values W(t, omega) on a (time x scale) grid.

    ``coeffs[i, j]`` is W at time ``times[i]`` and scale ``scales[j]``, the
    quadrature of the signal's ``extension`` against psi at that scale.  The
    ridge of a mode with frequency theta' sits near ``omega = 1/theta'``.
    ``unresolved_scales`` lists scales whose oscillation is sampled by fewer
    than 8 points per cycle on this grid.  ``times`` must hold at least two
    strictly increasing samples.

    The scalogram takes ownership of ``coeffs``: a complex array is stored
    without a copy and made read-only in place.
    """

    times: np.ndarray
    scales: np.ndarray
    coeffs: np.ndarray
    wavelet: BSplineWavelet
    extension: str = "periodic"
    unresolved_scales: tuple = ()

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        s = np.array(self.scales, dtype=float)
        c = np.asarray(self.coeffs, dtype=complex)
        for arr in (t, s, c):
            arr.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "scales", s)
        object.__setattr__(self, "coeffs", c)
        if t.ndim != 1 or t.size < 2 or not np.all(np.diff(t) > 0):
            raise InvalidInputError("times must be at least 2 strictly increasing samples")
        if np.any(s <= 0) or np.any(np.diff(s) <= 0):
            raise InvalidInputError("scales must be positive and strictly increasing")
        if c.shape != (t.size, s.size):
            raise InvalidInputError("coeffs must have shape (n_times, n_scales)")
        if not np.all(np.isfinite(c)):
            raise InvalidInputError("coefficients must be finite")

    def magnitude(self) -> np.ndarray:
        return np.abs(self.coeffs)


def _alias_bands(w: BSplineWavelet, omega: float, h: float, P: int, shift: float):
    """Per alias l of ``_periodised_responses`` with a non-empty band at omega: the bins k,
    increasing, with l - (k - shift)/P in h/(2*pi*omega) * [1-delta, 1+delta], and xi there."""
    c = h / (2.0 * math.pi * omega)
    lo, hi = (1.0 - w.delta) * c, (1.0 + w.delta) * c
    for l in range(math.ceil(lo - shift / P), math.floor(hi + 1.0 - shift / P) + 1):
        k = np.arange(max(math.ceil(P * (l - hi) + shift), 0),
                      min(math.floor(P * (l - lo) + shift), P - 1) + 1)
        if k.size:
            yield k, (l - (k - shift) / P) / c


def _periodised_responses(w: BSplineWavelet, scales, h: float, P: int,
                          shift: float = 0.0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per omega in ``scales``, the bins k where H[k] != 0, increasing, and H there, for

    ``H[k] = sum_l psi_hat(omega*(2*pi*l - 2*pi*(k - shift)/P)/h)``, k = 0..P-1.

    By Poisson summation, (omega/h)*H is the exact length-P DFT of
    ``g[m] = sum_q psi((m + q*P)*h/omega) * exp(-2*pi*i*shift*(m + q*P)/P)``
    evaluated at -k.  psi_hat vanishes outside [1-delta, 1+delta], so only
    the aliases l of ``_alias_bands`` contribute.  One psi_hat call covers
    the bands of all scales.
    """
    # per alias l with a non-empty band: its bins, and psi_hat's argument there;
    # scales[j] owns ks[first[j]:first[j + 1]], whose values are H[edge[i]:edge[i + 1]]
    ks, xi, first, edge = [], [], [0], [0]
    for omega in np.asarray(scales, dtype=float).tolist():
        for k, x in _alias_bands(w, omega, h, P, shift):
            ks.append(k)
            xi.append(x)
            edge.append(edge[-1] + k.size)
        first.append(len(ks))
    H = w.freq_response(np.concatenate([np.zeros(0), *xi]))
    out = []
    for a, b in zip(first, first[1:]):
        Hj = H[edge[a]:edge[b]]
        if b - a == 1:
            k = ks[a]
        else:  # none, or (below two samples per cycle) aliases l of one bin that add up
            k, inv = np.unique(np.concatenate([np.zeros(0, dtype=int), *ks[a:b]]),
                               return_inverse=True)
            Hj = np.bincount(inv, weights=Hj)
        keep = np.flatnonzero(Hj)
        out.append((k[keep], Hj[keep]))
    return out


def cwt(f: SampledSignal, w: BSplineWavelet, scales, extension: str = "periodic") -> Scalogram:
    """Continuous wavelet transform on a grid of scales.

    ``W(t_i, w_j) = w_j^{-1/2} * sum_m f(tau_m) psi((tau_m - t_i)/w_j) * dt``
    with the untruncated sum running over all samples of the periodic (or
    mirror) extension of the signal.  Since psi_hat is compactly supported,
    the periodised kernel has a closed-form DFT (``_periodised_responses``),
    so each scale is one spectral multiply and one inverse FFT of the
    extension's period (the FFT-domain transform of Torrence & Compo, 1998),
    exact up to round-off.
    """
    sg = _folded_cwt(f, w, scales, extension, math.inf)
    if sg.unresolved_scales:
        warnings.warn(f"{len(sg.unresolved_scales)} scale(s) sampled below {MIN_SAMPLES_PER_CYCLE} "
                      "points per oscillation cycle; magnitudes there are unreliable", RuntimeWarning)
    return sg


def _folded_cwt(f: SampledSignal, w: BSplineWavelet, scales, extension: str = "periodic",
                L: float | None = None) -> Scalogram:
    """W at ``L`` equally spaced times per extension period, ``linspace(t0, t1, L/spans + 1)``.

    Each scale's spectral product, folded modulo L at its signed frequencies
    (bin k > P/2 stands for k - P), gives W at those times exactly by one
    inverse FFT of length L (README, "Seeding transform").  ``L=None`` takes
    the smallest power of two whose step samples the highest frequency
    (1+delta)/omega of the smallest scale's band above its Nyquist rate, so
    the ridge phase advances by less than pi per step at every scale; such
    an L also covers every band.  L >= P gives the full grid, ``cwt``.
    """
    scales = np.asarray(scales, dtype=float)
    if scales.ndim != 1 or scales.size == 0:
        raise InvalidInputError("scales must be a non-empty 1-d array")
    if np.any(scales <= 0):
        raise InvalidInputError("all scales must be positive")
    if np.any(np.diff(scales) <= 0):
        raise InvalidInputError("scales must be strictly increasing")
    ext = extend_span(f.values, extension)
    P = ext.base.size
    h = f.dt
    F = np.fft.fft(ext.base)
    responses = _periodised_responses(w, scales, h, P)
    signed = [np.where(k > P // 2, k - P, k) for k, _ in responses]

    def step(L):  # the coarse grid's time step
        return (f.t1 - f.t0) / (L // ext.spans)

    if L is None:
        L = 2
        while L < P and 2 * np.pi * scales[0] < 2 * (1 + w.delta) * step(L):
            L *= 2
    L = P if L >= P else int(L)

    unresolved = tuple(float(s) for s in scales
                       if 2 * np.pi * s < MIN_SAMPLES_PER_CYCLE * step(L))

    # the coarse grid is a span of L/spans + 1 samples whose extension has period L
    index = extend_span(np.zeros(L // ext.spans + 1), extension).index
    coeffs = np.empty((index.size, scales.size), dtype=complex)
    for j, omega in enumerate(scales):
        k, H = responses[j]
        Z = np.zeros(L, dtype=complex)
        np.add.at(Z, signed[j] % L, F[k] * H)
        coeffs[:, j] = np.fft.ifft(Z)[index] * (np.sqrt(omega) * (L / P))
    return Scalogram(np.linspace(f.t0, f.t1, index.size), scales, coeffs, w, extension,
                     unresolved)


#: ``(pair, basis)`` of the pair probed last, the one pair held; a frozen
#: ``PhasePair`` over read-only copies cannot make its basis stale.
_last_probe_basis: tuple = (None, None)


def _probe_basis(pair: PhasePair) -> tuple:
    """What the probes of ``pair`` share: ``(report, theta', max a, alpha, Y)``."""
    global _last_probe_basis
    last = _last_probe_basis  # one read: a concurrent caller may replace it
    if last[0] is pair:
        return last[1]
    alpha = float(pair.theta[-1] - pair.theta[0]) / (pair.n - 1)
    phase = alpha * np.arange(pair.n) - pair.theta
    y = np.empty(pair.n, dtype=complex)  # a*exp(i*phase), written part by part
    np.multiply(pair.a, np.cos(phase), out=y.real)
    np.multiply(pair.a, np.sin(phase), out=y.imag)
    Y = np.fft.fft(extend_span(y, "periodic").base)
    basis = (check_scale_separation(pair, eps=1.0), pair.theta_prime(), float(np.max(pair.a)),
             alpha, Y)
    _last_probe_basis = (pair, basis)
    return basis


def _probe_terms(pair: PhasePair, basis: tuple, w: BSplineWavelet, it: int,
                 omega: float) -> tuple:
    """``(W, psi_hat(omega*theta'(t)))`` at grid index ``it``, from one psi_hat call.

    ``W = (1/sqrt(omega)) * integral a(tau) e^{-i theta(tau)} psi((tau-t)/omega) dtau``
    runs over the periodic extension of the pair, ``z[m] = y[m mod P] * exp(-i*alpha*m)``
    with ``alpha = theta_span/P`` and ``y[r] = a[r] exp(-i(theta[r] - alpha*r))``.  So W
    is one inverse-DFT coefficient of ``fft(y)`` times the periodised response
    shifted by ``alpha*P/(2*pi)`` bins, summed band by band.  ``basis`` is
    ``_probe_basis(pair)``.
    """
    P = pair.n - 1
    _, theta_p, _, alpha, Y = basis
    bands = list(_alias_bands(w, omega, pair.dt, P, alpha * P / (2.0 * math.pi)))
    k = np.concatenate([np.zeros(0, dtype=int), *(k for k, _ in bands)])
    H = w.freq_response(np.concatenate([*(x for _, x in bands), [omega * theta_p[it]]]))
    carrier = np.exp(2j * np.pi * ((k * it) % P) / P)
    total = np.dot(Y[k] * H[:-1], carrier) / P
    return cmath.exp(-1j * alpha * it) * complex(total) * math.sqrt(omega), float(H[-1])


def concentration_error(pair: PhasePair, w: BSplineWavelet, t: float, omega: float):
    """Deviation of the transform from its single-mode principal term.

    Returns ``(error, bound)`` where::

        error = | W(a e^{-i theta})(t, omega)/sqrt(omega)
                 - a(t) e^{-i theta(t)} psi_hat(omega * theta'(t)) |
        bound = C * eps_hat
        C = (A + 4|a(t)| + 1) i1 + (M' + (M'+1)|a(t)|) i2 + M' |a(t)| i3

    with ``eps_hat`` and ``M'`` the slow-variation metrics measured from the
    pair and ``A = sup|a|``.  The probe time snaps to the nearest grid point
    and must lie within half a step of ``[t0, t1]``.  Probes of one pair in a
    row share one FFT of the span and its metrics (``_probe_basis``).
    ``t`` and ``omega`` must be finite, and ``omega`` must be resolved on the
    pair's grid (at least ``MIN_SAMPLES_PER_CYCLE`` samples per oscillation
    cycle, as in ``cwt``): below that the sampled transform is dominated by
    aliases, not by the analytic deviation the bound is about.
    """
    if not (math.isfinite(t) and math.isfinite(omega)):
        raise InvalidInputError("t and omega must be finite")
    if omega <= 0:
        raise InvalidInputError("omega must be positive")
    dt = pair.dt
    if 2 * math.pi * omega < MIN_SAMPLES_PER_CYCLE * dt:
        raise InvalidInputError(
            f"omega={omega} is sampled below {MIN_SAMPLES_PER_CYCLE} points per cycle")
    if not pair.t0 - dt / 2 <= t <= pair.t1 + dt / 2:
        raise InvalidInputError(f"t={t} lies outside the pair's span [{pair.t0}, {pair.t1}]")
    basis = _probe_basis(pair)
    report, _, A, *_ = basis
    it = min(max(int(round((t - pair.t0) / dt)), 0), pair.n - 1)

    W, psi_main = _probe_terms(pair, basis, w, it, omega)
    at = float(pair.a[it])
    error = abs(W / math.sqrt(omega) - at * cmath.exp(-1j * float(pair.theta[it])) * psi_main)

    mom = moments(w)
    mp = report.m_prime
    C = (A + 4.0 * at + 1.0) * mom.i1 + (mp + (mp + 1.0) * at) * mom.i2 + mp * at * mom.i3
    return error, float(C * report.eps_measured)


def default_scales(f: SampledSignal, w: BSplineWavelet, voices: int = 32,
                   fmin: float | None = None, fmax: float | None = None) -> np.ndarray:
    """Logarithmic scale grid covering [1/(2*pi*fmax), 1/(2*pi*fmin)].

    When the frequency band is not supplied it is estimated from the
    amplitude spectrum (``spectral_band``: bins within 2% of the peak), widened
    to 0.75 times its lowest and 1.35 times its highest frequency.
    """
    if voices < 1:
        raise InvalidInputError("voices must be >= 1")
    if fmin is None or fmax is None:
        ext = extend_span(f.values - np.mean(f.values), "periodic")
        band = spectral_band(np.abs(np.fft.rfft(ext.base)))
        if band.size == 0:
            raise InvalidInputError("signal has no spectral content to size scales from")
        est_lo, est_hi = band[[0, -1]] * (1.0 / ((f.n - 1) * f.dt))  # in Hz, as np.fft.rfftfreq
        if fmin is None:
            fmin = est_lo * 0.75
        if fmax is None:
            fmax = est_hi * 1.35
    if not 0 < fmin < fmax:
        raise InvalidInputError("need 0 < fmin < fmax")
    lo = 1.0 / (2.0 * np.pi * fmax)
    hi = 1.0 / (2.0 * np.pi * fmin)
    n = int(np.ceil(voices * np.log2(hi / lo))) + 1
    return lo * (hi / lo) ** (np.arange(n) / (n - 1))
