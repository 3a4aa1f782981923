import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sparsetf import (InvalidInputError, PhasePair, SampledSignal, Scalogram, bspline5,
                      concentration_error, cwt, default_scales,
                      gen_random_well_separated, make_wavelet, moments)
from sparsetf import wavelet
from sparsetf.signal import extend_span
from sparsetf.wavelet import (MIN_SAMPLES_PER_CYCLE, _folded_cwt, _gauss_legendre,
                              _moment_integrands, _periodised_responses, _probe_basis,
                              _probe_terms)

from conftest import tone, tone_pair

#: Keep |tau| where the sinc^5 envelope exceeds this fraction of the peak.
TAIL_REL = 1e-8


def tail_cutoff(w, rel: float = TAIL_REL) -> float:
    """|tau| beyond which the |sinc|^5 envelope bound falls below rel*peak."""
    return 5.0 * rel ** (-1.0 / 5.0) / w.delta


def cwt_direct(f: SampledSignal, w, scales, extension: str = "periodic") -> Scalogram:
    """Reference transform by explicit quadrature of the same sum as cwt.

    The kernel is truncated where its envelope drops below ``TAIL_REL`` of
    the peak, so it differs from the untruncated ``cwt`` by at most about
    1e-8 relative.  Quadratic cost per scale; for short signals only.
    """
    scales = np.asarray(scales, dtype=float)
    ext = extend_span(f.values, extension)
    P = ext.base.size
    h = f.dt
    out = np.empty((f.n, scales.size), dtype=complex)
    for j, omega in enumerate(scales):
        Q = int(np.ceil(tail_cutoff(w) * omega / h))
        qs = np.arange(-Q, Q + 1)
        kern = w.time_domain(qs * (h / omega))
        for i, m in enumerate(ext.index):
            out[i, j] = np.dot(ext.base[(m + qs) % P], kern)
        out[:, j] *= h / np.sqrt(omega)
    return Scalogram(f.times(), scales, out, w, extension)


def bspline_recurrence(x: float, order: int = 5) -> float:
    """Cox-de Boor recurrence on integer knots 0..order; independent oracle."""

    def b(xv, k, i):
        if k == 1:
            return 1.0 if i <= xv < i + 1 else 0.0
        return ((xv - i) / (k - 1)) * b(xv, k - 1, i) + ((i + k - xv) / (k - 1)) * b(xv, k - 1, i + 1)

    return b(x, order, 0)


def bspline5_power_form(x) -> np.ndarray:
    """Reference B5: the power sum (1/4!) sum_k (-1)^k C(5,k) (x-k)_+^4, x clipped to [0, 5]."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 5.0)
    out = np.zeros_like(x)
    for k in range(6):
        out += ((-1) ** k) * math.comb(5, k) * np.maximum(x - k, 0.0) ** 4
    return out / 24.0


class TestBSpline5:
    def test_matches_power_form(self):
        x = np.concatenate([np.linspace(-1.0, 6.0, 70001), np.arange(6.0), [2.5]])
        assert_allclose(bspline5(x), bspline5_power_form(x), rtol=0, atol=1e-13)

    def test_exact_zeros_off_the_support(self):
        x = np.concatenate([np.linspace(-1.0, 0.0, 101), np.linspace(5.0, 6.0, 101),
                            [-np.inf, -1e300, -1e-300, 5.0 + 1e-12, 1e300, np.inf]])
        assert np.all(bspline5(x) == 0.0)

    def test_symmetric_about_the_center(self):
        # dyadic x, so 5 - x is exact
        x = np.arange(-1024, 6 * 1024 + 1) / 1024.0
        b = bspline5(x)
        assert np.all(np.abs(b - bspline5(5.0 - x)) <= np.spacing(b))

    def test_nan_propagates(self):
        assert np.isnan(bspline5(np.nan))


class TestFrequencyResponse:
    def test_support_endpoints_and_peak(self):
        w = make_wavelet(0.2)
        assert w.freq_response(1.0) == pytest.approx(1.0, abs=1e-14)
        assert abs(w.freq_response(0.8)) < 1e-30
        assert abs(w.freq_response(1.2)) < 1e-30
        assert w.freq_response(0.79) == 0.0 and w.freq_response(1.21) == 0.0

    def test_symmetry(self):
        w = make_wavelet(0.2)
        assert w.freq_response(0.9) == pytest.approx(w.freq_response(1.1), rel=1e-13)

    def test_against_recurrence_oracle(self):
        w = make_wavelet(0.2)
        for xi in (0.9, 1.1):
            expected = bspline_recurrence(2.5 + (xi - 1.0) * 12.5) / bspline_recurrence(2.5)
            assert w.freq_response(xi) == pytest.approx(expected, rel=1e-12)
        # the underlying piecewise polynomial itself
        for x in (0.3, 1.7, 2.5, 3.2, 4.9):
            assert bspline5(x) == pytest.approx(bspline_recurrence(x), rel=1e-12)

    def test_peak_is_global_max(self):
        w = make_wavelet(0.35)
        xi = np.linspace(0.5, 1.5, 5001)
        vals = w.freq_response(xi)
        assert np.max(vals) == pytest.approx(1.0, abs=1e-10)
        assert np.all(vals <= 1.0 + 1e-12)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.2, 1.5])
    def test_invalid_delta_raises(self, delta):
        with pytest.raises(InvalidInputError):
            make_wavelet(delta)

    def test_zero_outside_support(self):
        assert bspline5(1e5) == 0.0
        assert bspline5(-3.0) == 0.0
        assert make_wavelet(0.15).freq_response(100.0) == 0.0


class TestTimeDomain:
    def test_value_at_zero_matches_quadrature_of_response(self):
        for delta in (0.4, 0.2, 0.1):
            w = make_wavelet(delta)
            xi = np.linspace(1 - delta, 1 + delta, 200001)
            quad = np.trapezoid(w.freq_response(xi), xi) / (2 * np.pi)
            got = w.time_domain(np.array([0.0]))[0]
            assert got.imag == pytest.approx(0.0, abs=1e-15)
            assert got.real == pytest.approx(quad, abs=1e-8)

    def test_magnitude_is_even(self):
        w = make_wavelet(0.2)
        tau = np.linspace(0.1, 300.0, 777)
        assert_allclose(np.abs(w.time_domain(tau)), np.abs(w.time_domain(-tau)),
                        rtol=1e-13, atol=0)

    def test_fft_of_samples_reproduces_response(self):
        w = make_wavelet(0.2)
        T = tail_cutoff(w) * 1.2
        n = 2**20
        dt = 2 * T / n
        tau = (np.arange(n) - n // 2) * dt
        samples = w.time_domain(tau)
        freqs = np.fft.fftfreq(n, d=dt) * 2 * np.pi
        spectrum = np.fft.fft(np.fft.ifftshift(samples)) * dt
        sel = (freqs > 1 - 0.2) & (freqs < 1 + 0.2)
        assert np.max(np.abs(spectrum[sel] - w.freq_response(freqs[sel]))) < 1e-4

    def test_non_finite_input_raises(self):
        with pytest.raises(InvalidInputError):
            make_wavelet(0.2).time_domain(np.array([np.inf]))


class TestMoments:
    def test_finite_and_positive(self):
        m = moments(make_wavelet(0.2))
        assert m.i1 > 0 and m.i2 > 0 and m.i3 > 0
        assert np.isfinite([m.i1, m.i2, m.i3]).all()

    @staticmethod
    def _time_peak_normalised(delta: float, name: str) -> float:
        """Moment ``name`` of the wavelet rescaled to psi(0) = 1.

        The implemented psi is normalised to psi_hat(1) = 1, which makes
        psi(0) = delta/(5*pi*B5(5/2)) proportional to delta, so the raw
        moments have orders (0, -1, -2).  The stated orders (-1, -2, -3)
        belong to i_k/|psi(0)|.
        """
        w = make_wavelet(delta)
        return getattr(moments(w), name) / abs(w.time_domain(np.array([0.0]))[0])

    def test_first_moment_halving_ratio(self):
        # stated scaling order -1 under psi(0) = 1: halving delta doubles i1/|psi(0)|
        for delta in (0.4, 0.2, 0.1):
            ratio = (self._time_peak_normalised(delta / 2, "i1")
                     / self._time_peak_normalised(delta, "i1"))
            assert ratio == pytest.approx(2.0, rel=0.25)

    def test_third_moment_halving_ratio(self):
        # stated scaling order -3 under psi(0) = 1: halving delta multiplies
        # i3/|psi(0)| by 8
        for delta in (0.4, 0.2, 0.1):
            ratio = (self._time_peak_normalised(delta / 2, "i3")
                     / self._time_peak_normalised(delta, "i3"))
            assert ratio == pytest.approx(8.0, rel=0.35)

    @pytest.mark.parametrize("delta", [0.4, 0.05])
    def test_matches_fine_lobe_reference(self, delta):
        # 8192 sinc lobes x 64 Gauss-Legendre nodes, far past the tolerance
        # of moments in both the rule and the truncation of the domain
        w = make_wavelet(delta)
        width = 5.0 * np.pi / delta
        x, wt = np.polynomial.legendre.leggauss(64)
        ref = np.zeros(3)
        for k0 in range(0, 8192, 1024):
            tau = (np.arange(k0, k0 + 1024)[:, None] + 0.5 * (x + 1.0)) * width
            ref += [np.sum(f @ wt) * width for f in _moment_integrands(w, tau)]
        m = moments(w)
        assert_allclose([m.i1, m.i2, m.i3], ref, rtol=2e-7)

    @pytest.mark.parametrize("delta, expected", [
        (0.1, (1.0011121013946034, 29.547986225979596, 1372.347649792742)),
        (0.2, (1.0011121013946034, 14.809213624122417, 346.6738712227994)),
        (0.5, (1.0011121013946032, 6.019851627972857, 59.32085291392514)),
    ])
    def test_pinned_values(self, delta, expected):
        # recorded from the np.sinc-based integrands, before the one-sine-one-cosine form
        m = moments(make_wavelet(delta))
        assert_allclose([m.i1, m.i2, m.i3], expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_gauss_rules_are_numpys(self, n):
        x, wt = _gauss_legendre(n)
        ref_x, ref_wt = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - ref_x)) < 1e-14 and np.max(np.abs(wt - ref_wt)) < 1e-14

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_gauss_rules_integrate_polynomials_of_degree_below_2n(self, n):
        x, wt = _gauss_legendre(n)
        for k in range(2 * n):
            assert abs(wt @ x**k - (2.0 / (k + 1) if k % 2 == 0 else 0.0)) < 1e-14

    def test_cold_moments_memory(self):
        moments.cache_clear()
        tracemalloc.start()
        try:
            moments(make_wavelet(0.2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestTransform:
    def test_pure_tone_ridge_location(self):
        f = tone(64.0, 4096)
        w = make_wavelet(0.2)
        scales = default_scales(f, w, voices=32, fmin=32.0, fmax=128.0)
        s = cwt(f, w, scales)
        mid = f.n // 2
        j = int(np.argmax(np.abs(s.coeffs[mid])))
        target = 1.0 / (2 * np.pi * 64.0)
        step = s.scales[min(j + 1, s.scales.size - 1)] / s.scales[j]
        assert abs(np.log(s.scales[j] / target)) <= np.log(step) * 1.001

    def test_pure_tone_ridge_magnitude(self):
        f = tone(64.0, 4096)
        w = make_wavelet(0.2)
        target = 1.0 / (2 * np.pi * 64.0)
        scales = np.array([target * 0.9, target, target * 1.1])
        s = cwt(f, w, scales)
        mid = f.n // 2
        assert abs(s.coeffs[mid, 1]) == pytest.approx(np.sqrt(target) / 2, rel=5e-2)

    def test_zero_signal_transforms_to_zero(self):
        f = SampledSignal(0.0, 1.0, np.zeros(512))
        s = cwt(f, make_wavelet(0.2), np.array([0.001, 0.002]))
        assert np.all(s.coeffs == 0)

    def test_linearity(self):
        n = 1024
        f1 = tone(32.0, n)
        f2 = tone(80.0, n, amp=0.7)
        w = make_wavelet(0.2)
        scales = default_scales(SampledSignal(0, 1, f1.values + f2.values), w, voices=8)
        both = cwt(SampledSignal(0, 1, f1.values + f2.values), w, scales)
        sep = cwt(f1, w, scales).coeffs + cwt(f2, w, scales).coeffs
        assert_allclose(both.coeffs, sep, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("extension,aliased", [
        pytest.param("periodic", False, id="periodic"),
        pytest.param("mirror", False, id="mirror"),
        pytest.param("periodic", True, id="periodic-aliased"),
        pytest.param("mirror", True, id="mirror-aliased"),
    ])
    def test_fft_path_matches_direct_quadrature(self, extension, aliased):
        w = make_wavelet(0.25)
        if aliased:
            # the two smallest scales put the wavelet band above the Nyquist
            # frequency, so several aliases l of the periodised response
            # overlap; the 150 Hz tone falls in the 0.6*dt band and, aliased,
            # in the 0.25*dt one
            t = np.linspace(0, 1, 512)
            f = SampledSignal(0, 1, np.cos(2 * np.pi * 40 * t) + np.cos(2 * np.pi * 150 * t + 0.3))
            scales = np.array([0.25 * f.dt, 0.6 * f.dt, 0.004])
            with pytest.warns(RuntimeWarning):
                fast = cwt(f, w, scales, extension=extension)
            assert np.all(np.max(np.abs(fast.coeffs), axis=0) > 1e-3)  # every scale sees signal
        else:
            t = np.linspace(0, 1, 1024)
            f = SampledSignal(0, 1, np.cos(2 * np.pi * 40 * t) + 0.5 * np.cos(2 * np.pi * 13 * t + 0.4))
            scales = default_scales(f, w, voices=6)
            fast = cwt(f, w, scales, extension=extension)
        slow = cwt_direct(f, w, scales, extension=extension)
        rel = np.max(np.abs(fast.coeffs - slow.coeffs)) / np.max(np.abs(slow.coeffs))
        assert rel < 1e-8

    def test_nonpositive_scale_raises(self):
        f = tone(10.0, 256)
        with pytest.raises(InvalidInputError):
            cwt(f, make_wavelet(0.2), np.array([-0.1, 0.2]))
        with pytest.raises(InvalidInputError):
            cwt(f, make_wavelet(0.2), np.array([0.2, 0.1]))

    def test_unresolved_scale_warns(self):
        f = tone(10.0, 256)
        tiny = 0.25 * f.dt  # far below the sampling limit
        with pytest.warns(RuntimeWarning):
            s = cwt(f, make_wavelet(0.2), np.array([tiny, 0.01]))
        assert tiny in s.unresolved_scales

    def test_default_scales_span_requested_band(self):
        f = tone(64.0, 2048)
        scales = default_scales(f, make_wavelet(0.2), voices=16, fmin=20.0, fmax=100.0)
        assert scales[0] == pytest.approx(1 / (2 * np.pi * 100.0))
        assert scales[-1] == pytest.approx(1 / (2 * np.pi * 20.0))
        steps = np.diff(np.log2(scales))
        assert np.all(steps <= 1 / 16 + 1e-12)

    def test_default_scales_reject_empty_spectrum(self):
        f = SampledSignal(0.0, 1.0, np.zeros(256))
        with pytest.raises(InvalidInputError):
            default_scales(f, make_wavelet(0.2))


def signed_frequency_sum(f: SampledSignal, w, scales, L: int) -> np.ndarray:
    """W at the L points m = c*P/L per period as the direct sum over all bins.

    ``W(m) = sqrt(omega)/P * sum_k F[k] psi_hat(-2*pi*omega*s_k/(P*h)) exp(2*pi*i*s_k*m/P)``
    with s_k the signed frequency of bin k; for scales resolved on the
    grid only the alias l = 1 of the periodised response is non-zero.
    """
    ext = extend_span(f.values, "periodic")
    P = ext.base.size
    F = np.fft.fft(ext.base)
    s_k = np.fft.fftfreq(P, 1.0 / P)
    m = np.arange(L + 1) * (P / L)
    out = np.empty((L + 1, scales.size), dtype=complex)
    for j, omega in enumerate(scales):
        H = w.freq_response(-2 * np.pi * omega * s_k / (P * f.dt))
        k = np.flatnonzero(H)
        out[:, j] = np.exp(2j * np.pi * np.outer(m, s_k[k]) / P) @ (F[k] * H[k])
        out[:, j] *= np.sqrt(omega) / P
    return out


def periodised_response_per_scale(w, omega, h, P, shift):
    """The nonzero bins of one scale's periodised response, one psi_hat call per alias l."""
    c = h / (2.0 * np.pi * omega)
    lo, hi = (1.0 - w.delta) * c, (1.0 + w.delta) * c
    ks, Hs = [], []
    for l in range(int(np.ceil(lo - shift / P)), int(np.floor(hi + 1.0 - shift / P)) + 1):
        k = np.arange(max(int(np.ceil(P * (l - hi) + shift)), 0),
                      min(int(np.floor(P * (l - lo) + shift)), P - 1) + 1)
        ks.append(k)
        Hs.append(w.freq_response((l - (k - shift) / P) / c))
    k, inv = np.unique(np.concatenate([np.zeros(0, dtype=int), *ks]), return_inverse=True)
    H = np.bincount(inv, weights=np.concatenate([np.zeros(0), *Hs]))
    return k[H != 0], H[H != 0]


class TestFoldedTransform:
    @staticmethod
    def family(m: int, n: int, seed: int = 1):
        f, _ = gen_random_well_separated(m, 2.0, 0.05, seed, n, base_freq=64)
        w = make_wavelet(0.15)
        return f, w, default_scales(f, w, voices=16)

    @pytest.mark.parametrize("extension,n,L", [
        ("periodic", 8193, 2048), ("periodic", 8193, 4096), ("mirror", 8193, 4096),
    ])
    def test_equals_the_full_grid_where_L_divides_P(self, extension, n, L):
        f, w, scales = self.family(2, n)
        full = cwt(f, w, scales, extension)
        P = extend_span(f.values, extension).base.size
        coarse = _folded_cwt(f, w, scales, extension, L)
        assert coarse.coeffs.shape[0] == L // (P // (n - 1)) + 1
        assert_allclose(coarse.times, full.times[:: P // L], rtol=0, atol=1e-12)
        rel = np.max(np.abs(coarse.coeffs - full.coeffs[:: P // L]))
        assert rel <= 1e-12 * np.max(np.abs(full.coeffs))

    @pytest.mark.parametrize("L", [2048, 4096])
    def test_equals_the_signed_frequency_sum_between_samples(self, L):
        # P = 8191 is prime, so every coarse time but t0 and t1 lies between
        # two samples; folding unsigned bins would turn each phase there
        f, w, scales = self.family(2, 8192)
        scales = scales[:: max(1, scales.size // 6)]
        coarse = _folded_cwt(f, w, scales, "periodic", L)
        want = signed_frequency_sum(f, w, scales, L)
        assert np.max(np.abs(coarse.coeffs - want)) <= 1e-12 * np.max(np.abs(want))

    def test_matches_direct_quadrature_between_samples(self):
        # n = 1022: P = 1021 is prime; the quadrature at shifted kernels
        # checks the fold against the transform's definition
        t = np.linspace(0, 1, 1022)
        f = SampledSignal(0, 1, np.cos(2 * np.pi * 40 * t) + 0.5 * np.cos(2 * np.pi * 13 * t + 0.4))
        w = make_wavelet(0.25)
        scales = default_scales(f, w, voices=6)
        L = 512
        coarse = _folded_cwt(f, w, scales, "periodic", L).coeffs
        P = f.n - 1
        h = f.dt
        cs, js = np.arange(0, L + 1, 7), np.arange(0, scales.size, 3)
        want = np.empty((cs.size, js.size), dtype=complex)
        for b, j in enumerate(js):
            omega = scales[j]
            Q = int(np.ceil(tail_cutoff(w) * omega / h))
            qs = np.arange(-Q, Q + 2)
            for a, c in enumerate(cs):
                m0, frac = divmod(c * P, L)
                kern = w.time_domain((qs - frac / L) * (h / omega))
                want[a, b] = np.dot(f.values[:-1][(m0 + qs) % P], kern) * h / np.sqrt(omega)
        got = coarse[np.ix_(cs, js)]
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

    def test_mirror_grid_ends_exactly_at_t1(self):
        t = np.linspace(0.3, 1.7, 5000)
        f = SampledSignal(0.3, 1.7, np.cos(2 * np.pi * 20 * t))
        w = make_wavelet(0.2)
        s = _folded_cwt(f, w, default_scales(f, w, voices=8), "mirror")
        L = 2 * (s.times.size - 1)
        assert L < 2 * (f.n - 1) and L & (L - 1) == 0
        assert s.times[0] == f.t0 and s.times[-1] == f.t1
        assert np.array_equal(s.times, np.linspace(f.t0, f.t1, L // 2 + 1))

    @pytest.mark.parametrize("extension", ["periodic", "mirror"])
    def test_full_grid_fallback_is_cwt(self, extension):
        f, w, scales = self.family(2, 8192)
        full = cwt(f, w, scales, extension)
        for L in (2 * f.n, 2**40):
            s = _folded_cwt(f, w, scales, extension, L)
            assert np.array_equal(s.coeffs, full.coeffs) and np.array_equal(s.times, full.times)
        # a scale whose band is sampled above its Nyquist rate only on the full grid
        tight = np.array([1.05 * 2 * (1 + w.delta) * f.dt / (2 * np.pi), *scales])
        s = _folded_cwt(f, w, tight, extension)
        with pytest.warns(RuntimeWarning, match="below 8 points"):
            full = cwt(f, w, tight, extension)
        assert np.array_equal(s.coeffs, full.coeffs) and s.unresolved_scales == full.unresolved_scales

    def test_auto_step_resolves_the_smallest_scale(self):
        # the ridge phase of the smallest scale advances by less than pi per coarse step
        f, w, scales = self.family(3, 16384)
        s = _folded_cwt(f, w, scales)
        L = s.times.size - 1
        step = s.times[1] - s.times[0]
        assert L & (L - 1) == 0 and L < f.n - 1
        assert 2 * np.pi * scales[0] >= 2 * (1 + w.delta) * step
        assert 2 * np.pi * scales[0] < 2 * (1 + w.delta) * 2 * step
        # unresolved_scales still reports cwt's 8-point limit, now on the coarse step
        want = tuple(float(o) for o in scales if 2 * np.pi * o < MIN_SAMPLES_PER_CYCLE * step)
        assert s.unresolved_scales == want and want

    @pytest.mark.parametrize("extension,m,n", [
        ("periodic", 2, 8192), ("periodic", 3, 16384), ("mirror", 2, 8192), ("mirror", 3, 16384),
    ])
    def test_auto_L_is_the_smallest_nyquist_grid(self, extension, m, n):
        f, w, scales = self.family(m, n)
        s = _folded_cwt(f, w, scales, extension)
        spans = extend_span(f.values, extension).spans
        L = spans * (s.times.size - 1)
        P = spans * (f.n - 1)
        assert L & (L - 1) == 0 and L < P

        def nyquist(L):  # the highest band frequency (1+delta)/omega advances < pi per step
            return np.all((1 + w.delta) * (f.t1 - f.t0) / (L // spans) / scales < np.pi)

        widest = max(int(np.ptp(np.where(k > P // 2, k - P, k))) + 1
                     for k, _ in _periodised_responses(w, scales, f.dt, P))
        assert nyquist(L) and L >= widest
        assert not nyquist(L // 2) or L // 2 < widest

    def test_responses_of_all_scales_equal_the_per_scale_ones(self):
        # aliased scales (below 2 samples per cycle; at 0.05 and 0.2 several l
        # cover each bin), a scale whose band falls between two bins, and
        # ordinary ones, at two shifts
        f, w, scales = self.family(2, 8192)
        h, P = f.dt, f.n - 1
        aliased = np.array([0.05, 0.2, 0.9]) * h / (2 * np.pi)
        empty = [1e4 * P * h]
        grid = np.concatenate([aliased, scales[::5], empty])
        for shift in (0.0, 0.37 * P):
            batch = _periodised_responses(w, grid, h, P, shift)
            assert [k.size for k, _ in batch[:2]] == [P, P] and batch[-1][0].size == 0
            for omega, (k, H) in zip(grid, batch):
                k1, H1 = periodised_response_per_scale(w, omega, h, P, shift)
                assert np.array_equal(k, k1) and np.array_equal(H, H1)


class TestScalogram:
    @pytest.mark.parametrize("times", [[0.0], [0.0, 0.0], [1.0, 0.0], [[0.0, 1.0]]],
                             ids=["one-sample", "repeated", "decreasing", "2-d"])
    def test_invalid_time_axis_raises(self, times):
        times = np.asarray(times)
        n = times.shape[-1]
        with pytest.raises(InvalidInputError):
            Scalogram(times, np.array([0.1, 0.2, 0.3]), np.ones((n, 3), complex), make_wavelet(0.2))

    def test_takes_ownership_of_coeffs(self):
        coeffs = np.ones((4, 3), complex)
        s = Scalogram(np.arange(4.0), np.array([0.1, 0.2, 0.3]), coeffs, make_wavelet(0.2))
        assert s.coeffs is coeffs
        assert not coeffs.flags.writeable

    def test_cwt_holds_one_scalogram(self):
        # 2-mode n=8192 signal at 16 voices (36 scales): a copy of the
        # coefficients would double the transform's peak memory
        f, _ = gen_random_well_separated(2, 2.0, 0.05, 1, 8192, base_freq=64)
        w = make_wavelet(0.15)
        scales = default_scales(f, w, voices=16)
        cwt(f, w, scales)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            s = cwt(f, w, scales)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * s.coeffs.nbytes


class TestConcentration:
    def test_pure_tone_error_is_discretization_level(self):
        n = 4096
        t = np.linspace(0, 1, n)
        from sparsetf import PhasePair

        pair = PhasePair(0, 1, np.ones(n), 2 * np.pi * 64 * t)
        w = make_wavelet(0.2)
        omega = 1.0 / (2 * np.pi * 64.0)
        err, bound = concentration_error(pair, w, 0.5, omega)
        assert err <= 1e-3

    def test_modulated_tone_error_within_bound(self):
        n = 4096
        t = np.linspace(0, 1, n)
        from sparsetf import PhasePair

        a = 1 + 0.05 * np.sin(2 * np.pi * t)
        theta = 2 * np.pi * 64 * t + 0.5 * np.sin(2 * np.pi * t)
        pair = PhasePair(0, 1, a, theta)
        w = make_wavelet(0.2)
        theta_p_mid = pair.theta_prime()[n // 2]
        err, bound = concentration_error(pair, w, 0.5, 1.0 / theta_p_mid)
        assert 0 < err <= bound

    def test_error_is_stable_under_grid_refinement(self):
        # analytic deviation, not quadrature noise: once the grid resolves the
        # carrier well the measured error stops moving
        from sparsetf import PhasePair

        errs = []
        for n in (16384, 4 * 16384):
            t = np.linspace(0, 1, n)
            a = 1 + 0.05 * np.sin(2 * np.pi * t)
            theta = 2 * np.pi * 64 * t + 0.5 * np.sin(2 * np.pi * t)
            pair = PhasePair(0, 1, a, theta)
            theta_p_mid = pair.theta_prime()[n // 2]
            err, _ = concentration_error(pair, make_wavelet(0.2), 0.5, 1.0 / theta_p_mid)
            errs.append(err)
        assert abs(errs[1] - errs[0]) < 0.10 * errs[0]

    def test_out_of_band_magnitude_within_bound(self):
        # single admissible mode: away from its scale band the normalized
        # transform magnitude stays below the concentration bound
        f, gt = gen_random_well_separated(1, 2.0, 0.05, 11, 4096)
        pair = gt.pairs[0]
        w = make_wavelet(0.2)
        theta_p = pair.theta_prime()
        band_lo = (1 - w.delta) / np.max(theta_p)
        for omega in (band_lo / 2.0, band_lo / 3.5):
            err, bound = concentration_error(pair, w, 0.45, omega)
            assert err <= bound

    @pytest.mark.parametrize("t, omega", [
        (np.nan, 0.003), (np.inf, 0.003), (0.5, np.nan), (0.5, np.inf), (0.5, 1e-9),
        (-3.0, 0.003), (7.0, 0.003),
    ], ids=["t-nan", "t-inf", "omega-nan", "omega-inf", "omega-unresolved",
            "t-before-span", "t-after-span"])
    def test_invalid_probe_raises(self, t, omega):
        # 1e-9 is far below 8 samples per cycle on this grid: the sampled
        # transform there is an alias, not the deviation the bound is about;
        # a time outside the span was once clamped to its nearest end
        with pytest.raises(InvalidInputError):
            concentration_error(tone_pair(64.0), make_wavelet(0.2), t, omega)

    def test_probe_within_half_a_step_of_the_span_snaps_to_its_end(self):
        pair, w = tone_pair(64.0), make_wavelet(0.2)
        for end, outside in ((pair.t0, -0.4 * pair.dt), (pair.t1, 0.4 * pair.dt)):
            assert concentration_error(pair, w, end + outside, 0.003) == \
                concentration_error(pair, w, end, 0.003)
        with pytest.raises(InvalidInputError):
            concentration_error(pair, w, pair.t1 + 0.6 * pair.dt, 0.003)

    def test_probes_of_interleaved_pairs_are_bit_equal_to_first_probes(self):
        # the memo holds one pair's basis; switching pairs must never mix bases
        w = make_wavelet(0.2)
        t = np.linspace(0.0, 1.0, 2048)
        a = PhasePair(0.0, 1.0, 1 + 0.1 * np.cos(2 * np.pi * t), 2 * np.pi * 40.3 * t)
        b = tone_pair(64.0)
        probes = [(0.3, 0.004), (0.71, 0.0025)]
        first = {}
        for pair, key in ((a, "a"), (b, "b"), (a, "a"), (PhasePair(a.t0, a.t1, a.a, a.theta), "a"),
                          (b, "b")):
            got = [concentration_error(pair, w, t, om) for t, om in probes]
            assert got == first.setdefault(key, got)
        assert first["a"] != first["b"]

    def test_probes_of_one_pair_share_one_fft_of_the_span(self, monkeypatch):
        pair, w = tone_pair(64.0, n=1025), make_wavelet(0.2)
        concentration_error(tone_pair(32.0), w, 0.5, 0.003)  # another pair's basis in the memo
        sizes, fft = [], wavelet.np.fft.fft

        def counting_fft(x, *args, **kwargs):
            sizes.append(len(x))
            return fft(x, *args, **kwargs)

        monkeypatch.setattr(wavelet.np.fft, "fft", counting_fft)
        for k in range(20):
            concentration_error(pair, w, k / 19, 0.002 + 0.0001 * k)
        assert sizes == [pair.n - 1]

    def test_a_warm_probe_evaluates_psi_hat_once(self, monkeypatch):
        # the transform's alias bands and the principal term share one call
        pair, w = tone_pair(64.0), make_wavelet(0.2)
        concentration_error(pair, w, 0.5, 0.003)  # the pair's basis is now held
        calls, response = [], wavelet.BSplineWavelet.freq_response

        def counting_response(self, xi):
            calls.append(np.size(xi))
            return response(self, xi)

        monkeypatch.setattr(wavelet.BSplineWavelet, "freq_response", counting_response)
        for omega in (1 / (2 * np.pi * 64), 0.7 / (2 * np.pi * 64), 1e6):
            calls.clear()
            concentration_error(pair, w, 0.3, omega)
            assert len(calls) == 1

    # (seed, eps, [(t, omega * theta'(t), error, bound)]) as recorded when the
    # probe still evaluated psi_hat twice: in band, below it, at both band
    # edges, above it and far above (no alias band); the in-band and
    # lower-edge probes have two alias bands, split at bin 0
    PINNED = [
        (101, 0.02, [(0.18, 1.0, 0.048158891330245035, 7.827799661754651),
                     (0.22, 0.7, 1.7810053989244535e-06, 7.865302952491004),
                     (0.83, 0.81, 0.006307617513017449, 7.368649492426496),
                     (0.34, 1.19, 0.000803840463003661, 7.92451975053974),
                     (0.71, 1.35, 0.00014341288239954527, 8.218545299519626),
                     (0.56, 20.0, 0.0, 8.897275648152918)]),
        (102, 0.05, [(0.18, 1.0, 0.26944649187938097, 6.628502922906368),
                     (0.22, 0.7, 0.004046611222541285, 6.69614102236514),
                     (0.83, 0.81, 0.037215704163223694, 5.925450210214032),
                     (0.34, 1.19, 0.15086532362415953, 6.385650471998229),
                     (0.71, 1.35, 0.022467076722348198, 6.641200628008651),
                     (0.56, 20.0, 0.0, 6.596569239518671)]),
        (103, 0.1, [(0.18, 1.0, 0.27254116879865675, 32.11557811001142),
                    (0.22, 0.7, 0.017931085347685293, 31.604922571900765),
                    (0.83, 0.81, 0.17118743354420252, 28.51221180839791),
                    (0.34, 1.19, 0.06282079389414373, 25.358093113043534),
                    (0.71, 1.35, 0.058175987139170146, 27.002086973049195),
                    (0.56, 20.0, 0.0, 24.72972964881183)]),
    ]

    @pytest.mark.parametrize("seed, eps, probes", PINNED, ids=["pair-101", "pair-102", "pair-103"])
    def test_probes_match_the_recorded_values(self, seed, eps, probes):
        pair = gen_random_well_separated(1, 2.0, eps, seed, 2048)[1].pairs[0]
        theta_p, w = pair.theta_prime(), make_wavelet(0.2)
        for t, ratio, error, bound in probes:
            got = concentration_error(pair, w, t, ratio / theta_p[round(t / pair.dt)])
            assert_allclose(got, (error, bound), rtol=1e-12, atol=0)

    def test_memo_holds_at_most_one_pair(self):
        w = make_wavelet(0.2)
        a = tone_pair(64.0)
        concentration_error(a, w, 0.5, 0.003)
        ref = weakref.ref(a)
        del a
        concentration_error(tone_pair(32.0), w, 0.5, 0.003)
        gc.collect()
        assert ref() is None

    def test_cost_does_not_grow_with_omega(self):
        # a kernel a million spans wide costs one FFT of the span
        err, bound = concentration_error(tone_pair(64.0), make_wavelet(0.2), 0.5, 1e6)
        assert np.isfinite(err) and np.isfinite(bound)

    @pytest.mark.parametrize("where", ["in-band", "out-of-band", "several-periods"])
    def test_probe_matches_tight_direct_sum(self, where):
        # theta_span = 2*pi*40.3 is not a multiple of 2*pi, so the extension
        # advances its phase by a fractional number of cycles each period
        n = 2048
        t = np.linspace(0.0, 1.0, n)
        pair = PhasePair(0.0, 1.0, 1 + 0.1 * np.cos(2 * np.pi * t) + 0.05 * t,
                         2 * np.pi * 40.3 * t + 0.5 * np.sin(2 * np.pi * t))
        w = make_wavelet(0.2)
        h, P = pair.dt, n - 1
        theta_span = pair.theta[-1] - pair.theta[0]
        for it in (0, 700, n - 1):
            theta_p = pair.theta_prime()[it]
            omega = {"in-band": 1.0 / theta_p,
                     "out-of-band": 0.5 * (1.0 - w.delta) / theta_p,
                     "several-periods": 0.05}[where]  # kernel spans ~300 periods
            Q = int(np.ceil(tail_cutoff(w, 1e-12) * omega / h))
            qs = np.arange(-Q, Q + 1)
            wrap, idx = np.divmod(it + qs, P)
            z = pair.a[idx] * np.exp(-1j * (pair.theta[idx] + wrap * theta_span))
            direct = np.dot(z, w.time_domain(qs * (h / omega))) * h / np.sqrt(omega)
            W = _probe_terms(pair, _probe_basis(pair), w, it, omega)[0]
            assert abs(W - direct) / np.sqrt(omega) < 1e-11
