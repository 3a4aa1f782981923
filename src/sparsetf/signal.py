"""Core signal types and calculus on uniform time grids.

Everything downstream works with real-valued samples on a uniform grid
``t_i = t0 + i*(t1-t0)/(N-1)``.  Integrals are composite trapezoidal
quadrature, derivatives are second-order finite differences, and phases are
stored unwrapped (monotone), never modulo 2*pi.  ``extend_span`` is the one
place that extends a span to a period; every span operation (``spectral_filter``,
``moving_average``) reads its end rule from it, and ``smoother_extension`` picks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "SampledSignal",
    "PhasePair",
    "DictionaryParams",
    "Decomposition",
    "differentiate",
    "cumulative_integral",
    "reconstruct",
]

#: Relative tolerance for deciding that two signals share a grid.
GRID_RTOL = 1e-9

#: Ways to extend a finite span to a periodic sequence (see ``extend_span``).
EXTENSIONS = ("periodic", "mirror")


def _as_readonly_f64(x) -> np.ndarray:
    arr = np.array(x, dtype=float, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class _UniformGrid:
    """The uniform grid over a finite span ``[t0, t1]``, ``t1 > t0``.

    Subclasses add their samples and define ``n``, the number of grid points.
    """

    t0: float
    t1: float

    def __post_init__(self):
        if not (np.isfinite(self.t0) and np.isfinite(self.t1) and self.t1 > self.t0):
            raise InvalidInputError(f"need finite t0 < t1, got [{self.t0}, {self.t1}]")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / (self.n - 1)

    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.n)

    def same_grid(self, other) -> bool:
        scale = max(abs(self.t0), abs(self.t1), 1.0)
        return (
            self.n == other.n
            and abs(self.t0 - other.t0) <= GRID_RTOL * scale
            and abs(self.t1 - other.t1) <= GRID_RTOL * scale
        )


@dataclass(frozen=True)
class SampledSignal(_UniformGrid):
    """A real signal sampled on the uniform grid over ``[t0, t1]``.

    Attributes
    ----------
    t0, t1 : float
        Time span in seconds, finite, ``t1 > t0``.
    values : np.ndarray
        Samples at ``t_i = t0 + i*(t1-t0)/(N-1)``, ``N >= 2``, all finite.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly_f64(self.values))
        if self.values.ndim != 1 or self.values.size < 2:
            raise InvalidInputError("signal needs at least 2 samples on a 1-d grid")
        super().__post_init__()
        if not np.all(np.isfinite(self.values)):
            raise InvalidInputError("signal values must be finite")

    @property
    def n(self) -> int:
        return self.values.size

    def norm(self) -> float:
        """L2 norm by trapezoidal quadrature over the span; where the squares over- or
        underflow, of the samples scaled exactly by a power of two to a peak in [1/2, 1)."""
        with np.errstate(over="ignore"):
            out = float(np.sqrt(np.trapezoid(self.values**2, dx=self.dt)))
        if 1e-150 < out < np.inf:
            return out
        e = np.frexp(np.max(np.abs(self.values)))[1]
        return float(np.ldexp(np.sqrt(np.trapezoid(np.ldexp(self.values, -e)**2, dx=self.dt)), e))


@dataclass(frozen=True)
class PhasePair(_UniformGrid):
    """An (envelope, phase) pair parameterizing one candidate mode a*cos(theta).

    ``a`` must be strictly positive and ``theta`` strictly increasing on the
    grid; ``theta`` is the unwrapped phase in radians.
    """

    a: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _as_readonly_f64(self.a))
        object.__setattr__(self, "theta", _as_readonly_f64(self.theta))
        if self.a.shape != self.theta.shape or self.a.ndim != 1 or self.a.size < 2:
            raise InvalidInputError("a and theta must be 1-d arrays of equal length >= 2")
        super().__post_init__()
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.theta))):
            raise InvalidInputError("envelope and phase must be finite")
        if np.any(self.a <= 0):
            raise InvalidInputError("envelope must be strictly positive")
        if np.any(np.diff(self.theta) <= 0):
            raise InvalidInputError("phase must be strictly increasing")

    @property
    def n(self) -> int:
        return self.a.size

    def theta_prime(self) -> np.ndarray:
        """Instantaneous frequency theta'(t) by finite differences."""
        return differentiate(self.theta, self.dt)

    def mode(self) -> SampledSignal:
        """The mode a(t)*cos(theta(t)) as a signal."""
        return SampledSignal(self.t0, self.t1, self.a * np.cos(self.theta))


@dataclass(frozen=True)
class DictionaryParams:
    """Admissibility parameters for candidate modes.

    epsilon
        Separation factor bounding ``|a'/theta'|`` and ``|theta''/theta'^2|``.
    d
        Minimum pointwise frequency ratio between adjacent components.
    epsilon0
        Residual threshold (in signal units) that stops the pursuit.
    """

    epsilon: float
    d: float
    epsilon0: float = 1e-2

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise InvalidInputError(f"epsilon must be in (0,1), got {self.epsilon}")
        if not self.d > 1:
            raise InvalidInputError(f"d must exceed 1, got {self.d}")
        if not self.epsilon0 > 0:
            raise InvalidInputError(f"epsilon0 must be positive, got {self.epsilon0}")


@dataclass(frozen=True)
class Decomposition:
    """An ordered mode decomposition plus residual.

    Components are ordered by increasing mean instantaneous frequency.
    ``reconstruct(components) + residual`` equals the decomposed signal to
    grid round-off.  ``extraction_order[i]`` is the position of component
    ``i`` in the greedy extraction sequence.
    """

    components: tuple
    residual: SampledSignal
    extraction_order: tuple = ()
    no_progress: bool = False

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "extraction_order", tuple(self.extraction_order))
        for c in self.components:
            if not c.same_grid(self.residual):
                raise InvalidInputError("component grid differs from residual grid")

    @property
    def n_components(self) -> int:
        return len(self.components)

    def signal(self) -> SampledSignal:
        """The signal this decomposition represents."""
        if not self.components:
            return self.residual
        total = reconstruct(list(self.components))
        return SampledSignal(self.residual.t0, self.residual.t1,
                             total.values + self.residual.values)


def differentiate(x, dt: float) -> np.ndarray:
    """First derivative on a uniform grid.

    Central differences in the interior, second-order one-sided stencils at
    both endpoints, as ``np.gradient(x, dt, edge_order=2)``; the result has
    the same length as the input.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 3:
        raise InvalidInputError("differentiate needs a 1-d array of length >= 3")
    if dt <= 0:
        raise InvalidInputError("dt must be positive")
    out = np.empty_like(x)
    out[1:-1] = (x[2:] - x[:-2]) / (2.0 * dt)
    out[0] = (-1.5 / dt) * x[0] + (2.0 / dt) * x[1] + (-0.5 / dt) * x[2]
    out[-1] = (0.5 / dt) * x[-3] + (-2.0 / dt) * x[-2] + (1.5 / dt) * x[-1]
    return out


def cumulative_integral(x, dt: float) -> np.ndarray:
    """Cumulative trapezoidal integral anchored at 0 for the first sample.

    The sums of ``scipy.integrate.cumulative_trapezoid``, bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise InvalidInputError("cumulative_integral needs a 1-d array of length >= 2")
    return np.concatenate([[0.0], np.cumsum(dt * (x[1:] + x[:-1]) / 2.0)])


def reconstruct(pairs: Sequence[PhasePair]) -> SampledSignal:
    """Pointwise sum of a_k(t)*cos(theta_k(t)) over a shared grid."""
    if not pairs:
        raise InvalidInputError("reconstruct needs at least one pair")
    first = pairs[0]
    total = np.zeros(first.n)
    for p in pairs:
        if not p.same_grid(first):
            raise InvalidInputError("all pairs must share one grid")
        total += p.a * np.cos(p.theta)
    return SampledSignal(first.t0, first.t1, total)


@dataclass(frozen=True)
class SpanExtension:
    """One period of the periodic or mirror extension of a sampled span.

    ``base`` is one period of the extended samples; it covers ``spans``
    spans, so DFT bin k of ``base`` is ``k/spans`` cycles per span.
    ``index[i]`` is the position in ``base`` of the span's sample i.
    """

    base: np.ndarray
    spans: int
    index: np.ndarray

    def restrict(self, y: np.ndarray) -> np.ndarray:
        """The span's n samples of a period-long result."""
        return y[self.index]

    def around(self, before: int, after: int) -> np.ndarray:
        """The span's n samples with ``before`` extended samples ahead of them
        and ``after`` behind, read around the period."""
        return np.take(self.base, np.arange(-before, self.index.size + after), mode="wrap")


def extend_span(values, mode: str) -> SpanExtension:
    """Extend n samples (both endpoints included) to one period.

    periodic: the t1 sample is dropped and repeats t0, period N-1.
    mirror:   even reflection about both endpoints, period 2(N-1).
    """
    n = len(values)
    if mode == "periodic":
        return SpanExtension(values[:-1], 1, np.r_[0 : n - 1, 0])
    if mode == "mirror":
        return SpanExtension(np.concatenate([values, values[-2:0:-1]]), 2, np.arange(n))
    raise InvalidInputError(f"unknown extension mode {mode!r}; expected one of {EXTENSIONS}")


def spectral_filter(x, gain, extension: str) -> np.ndarray:
    """Multiply each DFT bin of the span's ``extend_span`` (``rfft`` for real x,
    ``fft`` for complex) by ``gain(|signed cycles per span|)``, invert, restrict."""
    ext = extend_span(x, extension)
    size, real = ext.base.size, not np.iscomplexobj(x)
    X = np.fft.rfft(ext.base) if real else np.fft.fft(ext.base)
    k = np.arange(X.size)
    X *= gain(np.minimum(k, size - k) / ext.spans)
    return ext.restrict(np.fft.irfft(X, size) if real else np.fft.ifft(X))


def spectral_band(mag: np.ndarray) -> np.ndarray:
    """The bins of an amplitude spectrum within 2% of its peak, DC (bin 0) left
    out; empty when it has no peak.  It sizes ``default_scales``' band."""
    peak = np.max(mag[1:], initial=0.0)
    return 1 + np.flatnonzero(mag[1:] >= 0.02 * peak) if peak > 0 else np.empty(0, dtype=int)


def smoother_extension(values) -> str:
    """The extension whose spectrum leaks least: ``mirror`` only when its share of
    energy beyond twice the band (the highest periodic bin of ``spectral_band``)
    is under a tenth of ``periodic``'s."""
    v = np.asarray(values, dtype=float) - np.mean(values)
    v = v / max(float(np.max(np.abs(v))), np.finfo(float).tiny)  # no overflow at 1e160
    ext = {mode: extend_span(v, mode) for mode in EXTENSIONS}
    mag = {mode: np.abs(np.fft.rfft(e.base)) for mode, e in ext.items()}
    band = spectral_band(mag["periodic"])
    if band.size == 0:
        return "periodic"
    share = {}
    for mode, m in mag.items():  # the share of energy beyond twice the band, DC left out
        cycles = np.arange(m.size) / ext[mode].spans
        share[mode] = np.sum(m[cycles > 2 * band[-1]] ** 2) / np.sum(m[1:] ** 2)
    return "mirror" if share["mirror"] < 0.1 * share["periodic"] else "periodic"


def moving_average(x: np.ndarray, window: int, extension: str) -> np.ndarray:
    """Centred moving average over an odd window, the span extended by ``extend_span``."""
    window = max(1, min(window, 2 * (x.size // 2) - 1))
    if window % 2 == 0:
        window += 1
    if window <= 1:
        return x.copy()
    mean, h = np.mean(x), window // 2  # running sums of centred samples: round-off 1e-15 max|x|
    # one extra leading sample: every window sum is then a difference of two prefix sums
    c = np.cumsum(extend_span(np.asarray(x, dtype=float) - mean, extension).around(h + 1, h))
    return (c[window:] - c[:-window]) / window + mean
