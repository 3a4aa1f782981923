"""Ridge extraction from scalograms and decomposition comparison.

A mode with instantaneous frequency theta' produces a transform magnitude
ridge along ``omega(t) = 1/theta'(t)``.  On the ridge the frequency response
peaks at 1, so for a real signal ``a = 2|W|/sqrt(omega)`` and the transform
phase tracks ``-theta``.  Ridges are followed across time by nearest
log-scale continuity; modes whose scale bands touch cannot be told apart and
are reported as ambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .signal import (Decomposition, PhasePair, SampledSignal, cumulative_integral,
                     moving_average, spectral_filter)
from .wavelet import BSplineWavelet, Scalogram, _folded_cwt, default_scales

__all__ = [
    "RidgeCurve",
    "ComparisonReport",
    "extract_ridges",
    "ridges_ambiguous",
    "recover_components",
    "compare_decompositions",
]

#: Curves shorter than this fraction of the time span are discarded.
MIN_CURVE_FRACTION = 0.05

#: Fragment-merge window: curves of one mode broken by a brief detection gap
#: are rejoined when the gap is below this fraction of the span and the
#: frequency jump below MERGE_LOG_CAP (well under any component separation).
MERGE_GAP_FRACTION = 0.02
MERGE_LOG_CAP = float(np.log(1.35))


@dataclass(frozen=True)
class RidgeCurve:
    """One linked curve of per-time magnitude maxima in the (t, omega) plane."""

    times: np.ndarray      # grid subset covered by the curve
    omega: np.ndarray      # sub-grid-refined ridge scale per time
    magnitude: np.ndarray  # refined |W| along the curve
    phase: np.ndarray      # unwrapped -arg W along the curve

    def __post_init__(self):
        for name in ("times", "omega", "magnitude", "phase"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not np.all(self.omega > 0):  # NaN too
            raise InvalidInputError("ridge scales must be positive")

    @property
    def n(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class ComparisonReport:
    """Component-wise distance between two decompositions.

    Components are matched by minimizing the summed mean ``|log(theta'/theta~')|``
    over an optimal assignment.  Phase errors are computed after removing the
    best whole-cycle (2*pi) offset, since shifted phases describe the same
    mode; ``recon_sup_errors`` / ``recon_rel_l2_errors`` compare the cosine
    reconstructions directly and are parameterization-free.
    """

    matched: tuple                 # pairs (index in x, index in y)
    amp_errors: tuple              # sup |a - a~| per matched pair
    phase_errors: tuple            # sup |theta - theta~| / theta' per matched pair
    recon_sup_errors: tuple        # sup |a cos theta - a~ cos theta~|
    recon_rel_l2_errors: tuple     # L2 of the difference over L2 of the first
    counts_equal: bool


def _refined_peaks(mags: np.ndarray, coeffs: np.ndarray, scales: np.ndarray,
                   threshold: float):
    """Per-time local maxima above the threshold, refined to sub-grid scale.

    Interior maxima of each time slice are interpolated log-parabolically
    across the three neighboring scale samples; a maximum next to an exact
    zero keeps its grid scale and magnitude.  Returns parallel arrays
    (time index, refined omega, refined magnitude, phase).
    """
    interior = mags[:, 1:-1]
    with np.errstate(divide="ignore"):
        mask = (interior > mags[:, :-2]) & (interior >= mags[:, 2:]) & (interior > threshold)
        ti, js = np.nonzero(mask)
        js = js + 1
        y0 = np.log(mags[ti, js - 1])
        y1 = np.log(mags[ti, js])
        y2 = np.log(mags[ti, js + 1])
    # psi_hat has compact support, so a neighbour can be exactly 0: no refinement
    flat = (mags[ti, js - 1] == 0) | (mags[ti, js + 1] == 0)
    y0[flat] = y2[flat] = y1[flat]
    denom = y0 - 2.0 * y1 + y2
    shift = np.where(denom < 0, 0.5 * (y0 - y2) / np.where(denom < 0, denom, 1.0), 0.0)
    shift = np.clip(shift, -0.5, 0.5)
    dlog = np.where(shift >= 0,
                    np.log(scales[np.minimum(js + 1, scales.size - 1)] / scales[js]),
                    np.log(scales[js] / scales[js - 1]))
    omega = scales[js] * np.exp(shift * dlog)
    mag = np.exp(y1 - 0.25 * (y0 - y2) * shift)
    phase = np.angle(coeffs[ti, js])
    return ti, omega, mag, phase


def _median_in_place(x: np.ndarray) -> float:
    """``np.median(x)`` of a 1-D array, partitioning x in place: the mean of
    its middle one or two order statistics (np.median would load numpy.ma)."""
    mid = x.size // 2
    kth = [mid] if x.size % 2 else [mid - 1, mid]
    x.partition(kth)
    return float(np.mean(x[kth]))


def extract_ridges(s: Scalogram, floor: float | None = None) -> list[RidgeCurve]:
    """Link per-time magnitude maxima above ``floor * max`` into curves.

    Peak detection runs on the normalized magnitude ``|W|/sqrt(omega)``,
    whose maximum sits exactly on the ridge ``omega * theta' = 1`` (the raw
    magnitude peak is biased by the sqrt(omega) prefactor).  ``floor``
    defaults to 3x the median normalized magnitude over its maximum (a
    robust noise floor), clipped to [1e-6, 0.5].  Maxima are refined to
    sub-grid scale by log-parabolic interpolation.  Each curve is a chain of
    indices into that peak table: the peaks of consecutive times are matched
    greedily, cheapest log-scale jump first, capped at one octave per 1% of
    the span per step (slowly varying frequencies cannot move faster), as in
    the ridge chaining of Carmona, Hwang & Torresani (1997).  Curves covering
    less than 5% of the span are dropped.
    """
    if s.scales.size < 3:
        raise InvalidInputError("scalogram has too few scales")
    if floor is not None and not floor > 0:
        raise InvalidInputError("floor must be positive")
    mags = s.magnitude()
    mags /= np.sqrt(s.scales)[None, :]
    gmax = float(np.max(mags))
    if gmax == 0.0:
        return []
    if floor is None:  # the median partitions mags in place, so refill it after
        floor = min(max(3.0 * _median_in_place(mags.ravel()) / gmax, 1e-6), 0.5)
        np.abs(s.coeffs, out=mags)
        mags /= np.sqrt(s.scales)[None, :]
    threshold = floor * gmax
    nt = s.times.size
    dt = s.times[1] - s.times[0]
    span = s.times[-1] - s.times[0]
    step_cap = np.log(2.0) * dt / (0.01 * span)
    grid_step = float(np.max(np.log(s.scales[1:] / s.scales[:-1])))
    cap = max(step_cap, 1.5 * grid_step)

    ti, om, mag, ph = _refined_peaks(mags, s.coeffs, s.scales, threshold)
    mag = mag * np.sqrt(om)  # back to raw |W| along the curve
    del mags  # release it before the links and curves are allocated
    t = s.times[ti]
    chains = _merge_fragments(_link(ti, om, nt, cap), t, om, MERGE_GAP_FRACTION * span)

    curves = []
    min_len = max(2, int(np.ceil(MIN_CURVE_FRACTION * nt)))
    for c in chains:
        if len(c) >= min_len:
            curves.append(RidgeCurve(t[c], om[c], mag[c], _unwrap_along(ph[c], t[c], om[c])))
    curves.sort(key=lambda c: float(np.mean(c.omega)), reverse=True)  # low frequency first
    return curves


def _link(ti: np.ndarray, om: np.ndarray, nt: int, cap: float) -> list[list]:
    """Chains of indices into the peak table (time index ``ti``, omega
    ``om``) over ``nt`` steps, in order of start, then of end (the order in
    which curves close), then of first peak."""
    starts = np.searchsorted(ti, np.arange(nt + 1))
    size = np.diff(starts)
    # The curves alive at step i end exactly at the peaks of step i-1, so
    # linking is one greedy matching per step: nxt[q] = p continues the
    # curve through peak q at peak p.  Where two steps hold as many peaks
    # (increasing in omega) and every k-th-to-k-th link is within the cap
    # and strictly cheaper than both crossings with the neighbouring pair,
    # the matching is that diagonal (README, "Ridges").
    diagonal = np.append(size[1:] == size[:-1], False)  # per step, to the next
    q = np.flatnonzero(diagonal[ti])
    p = q + size[ti[q]]
    cost = np.abs(np.log(om[p] / om[q]))
    crossing = np.minimum(np.abs(np.log(om[p[1:]] / om[q[:-1]])),
                          np.abs(np.log(om[p[:-1]] / om[q[1:]])))
    near = (ti[q[1:]] == ti[q[:-1]]) & (np.maximum(cost[1:], cost[:-1]) >= crossing)
    diagonal[ti[q[(cost > cap) | np.append(near, False) | np.append(False, near)]]] = False
    bulk = diagonal[ti[q]]
    nxt = np.full(ti.size, -1)
    nxt[q[bulk]] = p[bulk]
    linked = np.zeros(ti.size, dtype=bool)
    linked[p[bulk]] = True
    # the other steps with peaks on both sides: greedy, cheapest first
    for i in np.flatnonzero((size[:-1] > 0) & (size[1:] > 0) & ~diagonal[:-1]).tolist():
        q0, p0, p1 = starts[i], starts[i + 1], starts[i + 2]
        cost = np.abs(np.log(om[p0:p1] / om[q0:p0, None])).ravel()
        order = cost.argsort(kind="stable")
        for k in order[: np.count_nonzero(cost <= cap)].tolist():
            a, b = q0 + k // (p1 - p0), p0 + k % (p1 - p0)
            if nxt[a] < 0 and not linked[b]:
                nxt[a] = b
                linked[b] = True
    # chains: predecessors doubled to first peaks, sorted by start, length, head, time
    head = np.arange(nxt.size)
    head[nxt[nxt >= 0]] = np.flatnonzero(nxt >= 0)
    while not np.array_equal(head[head], head):
        head = head[head]
    order = np.lexsort((ti, head, np.bincount(head, minlength=head.size)[head], ti[head]))
    flat = order.tolist()
    cuts = np.flatnonzero(np.diff(head[order], prepend=-1)).tolist()
    return [flat[a:b] for a, b in zip(cuts, cuts[1:] + [len(flat)])]


def _unwrap_along(ph_raw: np.ndarray, times: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Unwrap -arg W along a curve, bridging gaps with the ridge frequency.

    Plain unwrapping assumes less than half a cycle between samples; merged
    fragments can skip many cycles, so the whole-cycle count of each step is
    taken from the expected phase advance ``theta' * dt``.
    """
    neg = -ph_raw
    d = np.diff(neg)
    expected = np.diff(times) * 0.5 * (1.0 / omega[:-1] + 1.0 / omega[1:])
    k = np.round((expected - d) / (2.0 * np.pi))
    return neg[0] + np.concatenate([[0.0], np.cumsum(d + 2.0 * np.pi * k)])


def ridges_ambiguous(curves: list[RidgeCurve], delta: float, span: tuple[float, float]) -> bool:
    """True when ridge identities cannot be resolved at half-bandwidth delta.

    Two situations are flagged: a pair of curves whose scales, at some time
    both cover, come closer than the band-overlap ratio (1+delta)/(1-delta),
    and a curve that is born or dies away from the span boundaries (a
    merge/split event).
    """
    overlap_ratio = np.log((1.0 + delta) / (1.0 - delta))
    t0, t1 = span
    margin = MIN_CURVE_FRACTION * (t1 - t0)
    for c in curves:
        if c.times[0] > t0 + margin or c.times[-1] < t1 - margin:
            return True
    for i, a in enumerate(curves):
        for b in curves[i + 1 :]:
            _, ia, ib = np.intersect1d(a.times, b.times, return_indices=True)
            if np.any(np.abs(np.log(a.omega[ia] / b.omega[ib])) < overlap_ratio):
                return True
    return False


def _merge_fragments(chains: list[list], t: np.ndarray, omega: np.ndarray,
                     max_gap: float) -> list[list]:
    """Rejoin chains of peak indices, taken in order of start, that are
    separated by a short gap and a small frequency jump."""
    out: list[list] = []
    for c in chains:
        for o in out:
            gap = t[c[0]] - t[o[-1]]
            if -max_gap <= gap <= max_gap:
                keep = 0
                if gap <= 0:  # drop the head of c up to and including o's last time
                    keep = int(np.searchsorted(t[c], t[o[-1]], side="right"))
                    if keep >= len(c):
                        continue
                if abs(np.log(omega[c[keep]] / omega[o[-1]])) <= MERGE_LOG_CAP:
                    o.extend(c[keep:])
                    break
        else:
            out.append(c)
    return out


#: Never amplify deconvolved envelope content by more than 1/this factor
#: (strong attenuation cannot be undone without also amplifying noise).
ENVELOPE_GAIN_FLOOR = 0.5


def _deconvolve_envelope(amp: np.ndarray, mean_freq: float, w: BSplineWavelet,
                         extension: str) -> np.ndarray:
    """Undo the analysis-band attenuation of envelope harmonics.

    Envelope content at nu cycles/span rides at relative frequency offsets
    +-nu/f from the carrier and is picked up attenuated by the symmetric band
    response H(nu) = (psi_hat(1+nu/f) + psi_hat(1-nu/f))/2.  Dividing the
    envelope spectrum by H (gain-limited) restores it.
    """
    def gain(cycles):
        nu = cycles / mean_freq  # relative frequency offset nu/f
        # psi_hat(1 +- nu) is exactly 0 from the first bin past nu = delta on
        band = nu[: np.searchsorted(nu, w.delta) + 1]
        H = np.zeros(nu.size)
        H[: band.size] = 0.5 * (w.freq_response(1.0 + band) + w.freq_response(1.0 - band))
        return 1.0 / np.maximum(H, ENVELOPE_GAIN_FLOOR)

    return spectral_filter(amp, gain, extension)


def _pair_from_curve(f: SampledSignal, curve: RidgeCurve, w: BSplineWavelet,
                     extension: str) -> PhasePair:
    """Envelope and phase for one curve, extended to the full grid.

    theta' = 1/omega along the ridge, held constant beyond the curve ends,
    smoothed over one mean carrier period and integrated.  The integrated
    phase is then anchored to the unwrapped transform phase along the curve
    (a correction smoothed over one carrier period, held constant beyond the
    ends): the transform phase tracks the true phase pointwise even where the
    magnitude peak lags a fast frequency sweep.  The envelope is
    2|W|/sqrt(omega) (the factor 2 restores the analytic-signal convention
    for real input), deconvolved by the known band response.
    """
    times = f.times()
    h = f.dt
    theta_p_r = 1.0 / curve.omega
    theta_p = np.interp(times, curve.times, theta_p_r)
    window = int(round(2.0 * np.pi / float(np.mean(theta_p)) / h))
    theta_p = moving_average(theta_p, window, "mirror")
    theta = cumulative_integral(theta_p, h)
    drift = curve.phase - np.interp(curve.times, times, theta)
    # one carrier period in the curve's own step, the smallest (merged curves have gaps)
    window_c = max(1, int(round(window * h / float(np.min(np.diff(curve.times))))))
    correction = np.interp(times, curve.times, moving_average(drift, window_c, "mirror"))
    candidate = theta + correction
    if np.all(np.diff(candidate) > 0):
        theta = candidate
    else:  # correction too aggressive (noisy curve); keep the midpoint anchor
        mid = f.n // 2
        anchor = float(np.interp(times[mid], curve.times, curve.phase))
        theta = theta - theta[mid] + anchor
    amp_r = 2.0 * curve.magnitude / np.sqrt(curve.omega)
    amp = np.interp(times, curve.times, amp_r)
    mean_freq = float(np.mean(theta_p)) / (2.0 * np.pi)
    amp = _deconvolve_envelope(amp, mean_freq, w, extension)
    amp = np.maximum(amp, 1e-12 * max(float(np.max(amp)), 1.0))
    return PhasePair(f.t0, f.t1, amp, theta)


def recover_components(f: SampledSignal, w: BSplineWavelet, floor: float | None = None,
                       voices: int = 32, extension: str = "periodic") -> list[PhasePair]:
    """Recover (envelope, phase) pairs from the transform ridges of a signal.

    ``floor`` is the magnitude threshold relative to the transform peak, by
    default that of ``extract_ridges``, on the coarsest transform that
    resolves every scale (``_folded_cwt``).  Returns pairs ordered by
    increasing mean frequency; an empty list if nothing rises above the floor.
    """
    if not np.any(f.values != 0):
        return []
    scales = default_scales(f, w, voices=voices)
    curves = extract_ridges(_folded_cwt(f, w, scales, extension), floor)
    pairs = [_pair_from_curve(f, c, w, extension) for c in curves]
    pairs.sort(key=lambda p: float(np.mean(p.theta_prime())))
    return pairs


def _assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows (ascending) and columns of a least-cost matching, as SciPy's
    ``linear_sum_assignment`` gives them: Kuhn-Munkres by shortest augmenting
    paths with potentials (Crouse, IEEE TAES 52, 2016); a tall matrix is transposed."""
    flip = cost.shape[0] > cost.shape[1]
    c = cost.T if flip else cost
    nr, nc = c.shape
    u, v, row4col = np.zeros(nr), np.zeros(nc + 1), np.full(nc + 1, -1)  # column nc: the root
    for i in range(nr):
        row4col[nc], j, done = i, nc, np.zeros(nc + 1, dtype=bool)
        dist, way = np.full(nc, np.inf), np.full(nc, nc)
        while row4col[j] >= 0:  # grow the shortest-path tree to a free column
            done[j] = True
            r, free = row4col[j], ~done[:nc]
            red = np.where(free, c[r] - u[r] - v[:nc], np.inf)
            dist, way = np.minimum(dist, red), np.where(red < dist, j, way)
            j = int(np.argmin(np.where(free, dist, np.inf)))
            step = dist[j]
            u[row4col[done]] += step
            v[done] -= step
            dist[free] -= step
        while j != nc:  # augment back along the path to the root
            row4col[j], j = row4col[way[j]], way[j]
    cols = np.flatnonzero(row4col[:nc] >= 0)
    if flip:
        return cols, row4col[cols]
    return np.arange(nr), cols[np.argsort(row4col[cols])]


def compare_decompositions(x: Decomposition, y: Decomposition) -> ComparisonReport:
    """Match components of two decompositions and report their distances."""
    if not x.residual.same_grid(y.residual):
        raise InvalidInputError("decompositions must live on one grid")
    cx, cy = list(x.components), list(y.components)
    if not cx or not cy:
        return ComparisonReport((), (), (), (), (), len(cx) == len(cy))
    fx = [c.theta_prime() for c in cx]
    fy = [c.theta_prime() for c in cy]
    cost = np.empty((len(cx), len(cy)))
    for i in range(len(cx)):
        for j in range(len(cy)):
            cost[i, j] = float(np.mean(np.abs(np.log(fx[i] / fy[j]))))
    rows, cols = _assignment(cost)
    matched, amp_e, phase_e, sup_e, rel_e = [], [], [], [], []
    for i, j in zip(rows, cols):
        a, b = cx[i], cy[j]
        matched.append((int(i), int(j)))
        amp_e.append(float(np.max(np.abs(a.a - b.a))))
        dtheta = a.theta - b.theta
        dtheta = dtheta - 2.0 * np.pi * np.round(_median_in_place(dtheta.copy()) / (2.0 * np.pi))
        phase_e.append(float(np.max(np.abs(dtheta) / fx[i])))
        diff = a.a * np.cos(a.theta) - b.a * np.cos(b.theta)
        sup_e.append(float(np.max(np.abs(diff))))
        base = a.mode().norm()
        rel_e.append(float(np.sqrt(np.trapezoid(diff**2, dx=a.dt))) / base if base > 0 else np.inf)
    return ComparisonReport(tuple(matched), tuple(amp_e), tuple(phase_e),
                            tuple(sup_e), tuple(rel_e), len(cx) == len(cy))
