import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from numpy.testing import assert_allclose
from scipy.integrate import cumulative_trapezoid

from sparsetf import (Decomposition, DictionaryParams, InvalidInputError, PhasePair,
                      SampledSignal, cumulative_integral, differentiate,
                      gen_crossing_example, gen_mode_mixing_example,
                      gen_random_well_separated, reconstruct)

from sparsetf.signal import extend_span, moving_average, smoother_extension, spectral_filter

from conftest import tone, tone_pair


class TestDifferentiate:
    def test_linear_ramp_is_exact(self):
        t = np.linspace(0.0, 2.0, 513)
        assert_allclose(differentiate(t, t[1] - t[0]), np.ones(513), rtol=0, atol=1e-12)

    def test_sine_matches_analytic_derivative(self):
        n = 1025  # dt = 1/1024
        t = np.linspace(0.0, 1.0, n)
        dt = t[1] - t[0]
        got = differentiate(np.sin(2 * np.pi * t), dt)
        assert np.max(np.abs(got - 2 * np.pi * np.cos(2 * np.pi * t))) < 1e-3

    def test_too_short_raises(self):
        with pytest.raises(InvalidInputError):
            differentiate(np.array([0.0, 1.0]), 0.5)

    def test_bad_dt_raises(self):
        with pytest.raises(InvalidInputError):
            differentiate(np.arange(5.0), 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st_.integers(2, 5000), st_.integers(0, 2**32 - 1), st_.floats(-6, 6),
           st_.floats(1e-6, 1e3))
    def test_cumulative_integral_is_scipys_bit_for_bit(self, n, seed, log_scale, dt):
        x = 10.0**log_scale * np.random.default_rng(seed).standard_normal(n)
        want = cumulative_trapezoid(x, dx=dt, initial=0.0)
        assert np.array_equal(cumulative_integral(x, dt), want)

    @pytest.mark.parametrize("n", [3, 4, 5, 4096])
    def test_is_numpys_gradient_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            x = 10.0 ** rng.uniform(-6, 6) * rng.standard_normal(n)
            dt = 10.0 ** rng.uniform(-6, 3)
            assert np.array_equal(differentiate(x, dt), np.gradient(x, dt, edge_order=2))

    def test_derivative_of_cumulative_integral_is_identity(self):
        # second-order accuracy: error drops ~4x when the step halves
        errs = []
        for n in (513, 1025):
            t = np.linspace(0.0, 1.0, n)
            dt = t[1] - t[0]
            x = np.exp(np.sin(2 * np.pi * t))
            back = differentiate(cumulative_integral(x, dt), dt)
            errs.append(np.max(np.abs(back - x)))
        assert errs[0] < 1e-3
        assert errs[1] < 0.4 * errs[0]


class TestNorm:
    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e160, 1e300])
    def test_scales_with_the_signal_beyond_the_range_of_its_squares(self, scale):
        # the squares of these samples overflow or underflow
        t = np.linspace(0.0, 1.0, 4097)
        unit = SampledSignal(0.0, 1.0, np.cos(2 * np.pi * 64 * t)).norm()
        got = SampledSignal(0.0, 1.0, scale * np.cos(2 * np.pi * 64 * t)).norm()
        assert got == pytest.approx(scale * unit, rel=1e-15, abs=0)

    def test_a_tiny_signal_sets_a_pursuit_threshold(self):
        t = np.linspace(0.0, 1.0, 4097)
        f = SampledSignal(0.0, 1.0, 1e-200 * np.cos(2 * np.pi * 64 * t))
        assert DictionaryParams(0.05, 2.0, epsilon0=0.05 * f.norm()).epsilon0 > 0


class TestInnerProduct:
    def test_mode_mixing_overlap_matches_finer_grid(self):
        # the generator's discretisation: the modes' trapezoidal inner product
        # on the default grid agrees with one on a 10x finer grid
        def overlap(gt):
            x, y = (p.mode() for p in gt.pairs)
            return np.trapezoid(x.values * y.values, dx=x.dt)

        _, gt_c, _ = gen_mode_mixing_example(2**15)
        _, gt_f, _ = gen_mode_mixing_example(10 * 2**15)
        coarse, fine = overlap(gt_c), overlap(gt_f)
        assert abs(coarse - fine) <= 1e-4 * abs(fine)


class TestReconstruct:
    def test_single_pair_identity(self):
        p = tone_pair(10.0, n=1024)
        got = reconstruct([p])
        t = np.linspace(0, 1, 1024)
        assert_allclose(got.values, np.cos(2 * np.pi * 10 * t), rtol=0, atol=1e-14)

    def test_linearity_on_mode_mixing_pairs(self):
        _, gt, _ = gen_mode_mixing_example(4096)
        both = reconstruct(list(gt.pairs))
        separate = reconstruct([gt.pairs[0]]).values + reconstruct([gt.pairs[1]]).values
        assert_allclose(both.values, separate, rtol=0, atol=1e-12)

    @settings(deadline=None, max_examples=20)
    @given(f1=st_.integers(3, 40), f2=st_.integers(3, 40), amp=st_.floats(0.1, 3.0))
    def test_linearity_random(self, f1, f2, amp):
        a = tone_pair(float(f1), n=512, amp=amp)
        b = tone_pair(float(f2), n=512, amp=1.0, phase0=0.3)
        assert_allclose(reconstruct([a, b]).values,
                        reconstruct([a]).values + reconstruct([b]).values,
                        rtol=0, atol=1e-12)

    def test_swapped_split_reconstructs_identically(self):
        _, gt_a, gt_b = gen_crossing_example(32, 4096)
        ra = reconstruct(list(gt_a.pairs))
        rb = reconstruct(list(gt_b.pairs))
        assert np.max(np.abs(ra.values - rb.values)) < 1e-10

    def test_empty_raises(self):
        with pytest.raises(InvalidInputError):
            reconstruct([])

    def test_grid_mismatch_raises(self):
        with pytest.raises(InvalidInputError):
            reconstruct([tone_pair(5.0, 512), tone_pair(5.0, 256)])


class TestTypes:
    def test_signal_validation(self):
        with pytest.raises(InvalidInputError):
            SampledSignal(1.0, 0.0, np.zeros(8))
        with pytest.raises(InvalidInputError):
            SampledSignal(0.0, 1.0, np.array([1.0]))
        with pytest.raises(InvalidInputError):
            SampledSignal(0.0, 1.0, np.array([1.0, np.nan]))

    @pytest.mark.parametrize("make", [
        pytest.param(lambda t0, t1: SampledSignal(t0, t1, np.zeros(8)), id="signal"),
        pytest.param(lambda t0, t1: PhasePair(t0, t1, np.ones(8), np.arange(8.0)), id="pair"),
    ])
    @pytest.mark.parametrize("t0, t1", [(0.0, np.inf), (-np.inf, 0.0), (-np.inf, np.inf)],
                             ids=["t1-inf", "t0-minus-inf", "both-inf"])
    def test_non_finite_span_raises(self, make, t0, t1):
        with pytest.raises(InvalidInputError):
            make(t0, t1)

    def test_signal_values_read_only(self):
        s = tone(4.0, 64)
        with pytest.raises(ValueError):
            s.values[0] = 7.0

    def test_phase_pair_validation(self):
        n = 64
        t = np.linspace(0, 1, n)
        with pytest.raises(InvalidInputError):
            PhasePair(0.0, 1.0, np.zeros(n), 2 * np.pi * 5 * t)  # a not positive
        with pytest.raises(InvalidInputError):
            PhasePair(0.0, 1.0, np.ones(n), -2 * np.pi * 5 * t)  # theta decreasing

    def test_dictionary_params_validation(self):
        with pytest.raises(InvalidInputError):
            DictionaryParams(epsilon=0.0, d=2.0)
        with pytest.raises(InvalidInputError):
            DictionaryParams(epsilon=0.1, d=1.0)
        with pytest.raises(InvalidInputError):
            DictionaryParams(epsilon=0.1, d=2.0, epsilon0=0.0)

    def test_decomposition_reconstructs_signal(self):
        p1 = tone_pair(8.0, 1024)
        p2 = tone_pair(24.0, 1024)
        resid = SampledSignal(0.0, 1.0, 1e-3 * np.ones(1024))
        d = Decomposition((p1, p2), resid)
        expected = reconstruct([p1, p2]).values + resid.values
        assert_allclose(d.signal().values, expected, rtol=0, atol=1e-14)


class TestExtendSpan:
    def test_periodic_drops_the_repeated_endpoint(self):
        ext = extend_span(np.array([1.0, 2.0, 3.0, 1.0]), "periodic")
        assert_allclose(ext.base, [1.0, 2.0, 3.0])
        assert ext.spans == 1
        assert_allclose(ext.restrict(np.array([4.0, 5.0, 6.0])), [4.0, 5.0, 6.0, 4.0])

    def test_mirror_reflects_about_both_endpoints(self):
        ext = extend_span(np.array([1.0, 2.0, 3.0, 4.0]), "mirror")
        assert_allclose(ext.base, [1.0, 2.0, 3.0, 4.0, 3.0, 2.0])
        assert ext.spans == 2
        assert_allclose(ext.restrict(ext.base), [1.0, 2.0, 3.0, 4.0])

    def test_unknown_mode_raises(self):
        with pytest.raises(InvalidInputError):
            extend_span(np.zeros(8), "mirorr")


def _family(m, seed):
    """A benchmark-family signal: m modes on 4096 * 2**(m-1) samples."""
    f, _ = gen_random_well_separated(m, 2.0, 0.05, seed, 4096 * 2 ** (m - 1), base_freq=64)
    return f.values


def _mixing():
    return gen_mode_mixing_example(4096)[0].values


T = np.linspace(0.0, 1.0, 2048)


class TestSmootherExtension:
    @pytest.mark.parametrize("values, expected", [
        pytest.param(lambda: _family(2, 3789240271), "periodic", id="family-2-mode"),
        pytest.param(lambda: _family(3, 7), "periodic", id="family-3-mode"),
        pytest.param(lambda: np.cos(2 * np.pi * 40 * T), "periodic", id="cosine-40-cycles"),
        # the even reflection kinks a sine at both ends; the periodic wrap is smooth
        pytest.param(lambda: np.sin(2 * np.pi * 40 * T), "periodic", id="sine-40-cycles"),
        pytest.param(lambda: np.cos(2 * np.pi * 32 * T) + np.cos(2 * np.pi * 96 * T),
                     "periodic", id="two-tones"),
        pytest.param(lambda: 0.5 + np.cos(2 * np.pi * 40 * T), "periodic", id="dc-plus-tone"),
        pytest.param(lambda: np.zeros(2048), "periodic", id="zero"),
        # C^1 across the wrap, but both frequencies jump there (5 -> 10, 10 -> 20 Hz)
        pytest.param(_mixing, "mirror", id="mode-mixing"),
        pytest.param(lambda: np.cos(2 * np.pi * 40.3 * T), "mirror", id="tone-40.3-cycles"),
        pytest.param(lambda: np.cos(2 * np.pi * 40 * T) + 2 * T, "mirror", id="tone-plus-trend"),
        pytest.param(lambda: np.cos(2 * np.pi * (60 * T + 45 * T**2)), "mirror", id="chirp"),
        # an unscaled |rfft|^2 overflows to nan at 1e160
        pytest.param(lambda: 1e160 * _mixing(), "mirror", id="mode-mixing-times-1e160"),
        pytest.param(lambda: 1e-200 * _mixing(), "mirror", id="mode-mixing-times-1e-200"),
    ])
    def test_picks_the_extension_that_leaks_least(self, values, expected):
        assert smoother_extension(values()) == expected


def moving_average_reference(x: np.ndarray, window: int, extension: str) -> np.ndarray:
    """The centred mean by direct convolution of the extended samples: evenly
    reflected about both ends, or wrapped with period n - 1."""
    window = max(1, min(window, 2 * (x.size // 2) - 1))
    if window % 2 == 0:
        window += 1
    if window <= 1:
        return x.copy()
    half = window // 2
    if extension == "mirror":
        padded = np.concatenate([x[half:0:-1], x, x[-2 : -half - 2 : -1]])
    else:  # x[-1] stands for x[0]
        padded = np.pad(x[:-1], (half, half + 1), mode="wrap")
    return np.convolve(padded, np.full(window, 1.0 / window), mode="valid")


class TestMovingAverage:
    @settings(max_examples=200, deadline=None)
    @given(st_.integers(2, 5000), st_.integers(1, 12000), st_.integers(0, 2**32 - 1),
           st_.floats(-6, 6), st_.floats(-1e3, 1e3), st_.sampled_from(["periodic", "mirror"]))
    def test_matches_the_convolution_reference(self, n, window, seed, log_scale, offset, extension):
        # windows up to about twice the span exercise the clamp to the span
        x = offset + 10.0**log_scale * np.random.default_rng(seed).standard_normal(n)
        got = moving_average(x, window, extension)
        want = moving_average_reference(x, window, extension)
        assert got.shape == x.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(x))

    @pytest.mark.parametrize("n,window", [(2, 5), (3, 3), (4, 100), (9, 8), (10, 9)])
    def test_clamps_the_window_to_the_span(self, n, window):
        x = np.random.default_rng(n).standard_normal(n)
        for extension in ("periodic", "mirror"):
            assert_allclose(moving_average(x, window, extension),
                            moving_average_reference(x, window, extension), rtol=0, atol=1e-14)


class TestSpectralFilter:
    @pytest.mark.parametrize("extension", ["periodic", "mirror"])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [2, 3, 1000, 1025])
    def test_all_pass_returns_the_span(self, n, dtype, extension):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + (1j * rng.standard_normal(n) if dtype is complex else 0.0)
        if extension == "periodic":
            x[-1] = x[0]  # the periodic extension's t1 sample repeats t0
        y = spectral_filter(x, np.ones_like, extension)
        assert y.dtype == x.dtype
        assert np.max(np.abs(y - x)) <= 1e-12 * np.max(np.abs(x))
