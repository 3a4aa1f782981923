import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment

from sparsetf import (Decomposition, InvalidInputError, RidgeCurve, SampledSignal,
                      Scalogram, compare_decompositions, cwt, default_scales,
                      extract_ridges, gen_crossing_example, gen_mode_mixing_example,
                      gen_random_well_separated, make_wavelet, recover_components,
                      ridges_ambiguous)
from sparsetf.ridge import (ENVELOPE_GAIN_FLOOR, MERGE_GAP_FRACTION, MIN_CURVE_FRACTION,
                            _assignment, _deconvolve_envelope, _median_in_place, _merge_fragments,
                            _pair_from_curve, _refined_peaks, _unwrap_along)
from sparsetf.signal import spectral_filter
from sparsetf.wavelet import _folded_cwt

from conftest import tone, tone_pair


class TestExtract:
    def test_pure_tone_yields_one_uniform_ridge(self):
        f = tone(64.0, 4096)
        w = make_wavelet(0.2)
        s = cwt(f, w, default_scales(f, w, voices=32, fmin=30.0, fmax=130.0))
        curves = extract_ridges(s, floor=0.2)
        assert len(curves) == 1
        c = curves[0]
        assert c.n >= 0.95 * f.n
        target = 1.0 / (2 * np.pi * 64.0)
        step = 2 ** (1 / 32)
        assert np.all(np.abs(np.log(c.omega / target)) <= np.log(step))

    def test_two_separated_tones_yield_disjoint_ridges(self):
        t = np.linspace(0, 1, 4096)
        f = SampledSignal(0, 1, np.cos(2 * np.pi * 32 * t) + np.cos(2 * np.pi * 96 * t))
        w = make_wavelet(0.2)  # valid: 0.2 < (sqrt(3)-1)/(sqrt(3)+1) ~ 0.268
        s = cwt(f, w, default_scales(f, w, voices=32))
        curves = extract_ridges(s, floor=0.15)
        assert len(curves) == 2
        assert not ridges_ambiguous(curves, 0.2, (0.0, 1.0))
        # bands disjoint pointwise: scale gap exceeds the band-overlap ratio
        a, b = curves
        k = min(a.n, b.n)
        gap = np.abs(np.log(a.omega[:k] / b.omega[:k]))
        assert np.min(gap) > np.log(1.2 / 0.8)

    def test_crossing_frequencies_flagged_ambiguous(self):
        f, _, _ = gen_crossing_example(32, 4096)
        w = make_wavelet(0.2)
        s = cwt(f, w, default_scales(f, w, voices=32))
        curves = extract_ridges(s, floor=0.15)
        assert ridges_ambiguous(curves, 0.2, (0.0, 1.0))

    @pytest.mark.parametrize("ratio, expected", [(1.52, False), (1.45, True)])
    def test_ambiguity_compares_curves_at_shared_times(self, ratio, expected):
        # a chirp rising 4x over the span, and a curve at `ratio` times its
        # scale with a 15-sample hole; 1.52 is above the band-overlap ratio
        # 1.2/0.8 at every shared time, but pairing samples by position after
        # the hole compares scales 15 samples apart, which are below it
        t = np.linspace(0.0, 1.0, 1001)
        om = 1.0 / (2 * np.pi * 32.0 * 4.0**t)
        keep = np.ones(t.size, dtype=bool)
        keep[300:315] = False
        a = RidgeCurve(t, om, np.ones(t.size), np.zeros(t.size))
        b = RidgeCurve(t[keep], ratio * om[keep], np.ones(keep.sum()), np.zeros(keep.sum()))
        assert ridges_ambiguous([a, b], 0.2, (0.0, 1.0)) is expected

    def test_peak_next_to_an_exact_zero_keeps_its_grid_scale(self):
        # psi_hat has compact support, so a folded transform has exact zeros;
        # a log-parabola through a zero neighbour gave a NaN scale and magnitude
        times = np.linspace(0, 1, 200)
        scales = 0.01 * 2.0 ** (np.arange(9) / 4)
        row = np.array([0.1, 0.2, 0.3, 0.0, 1.0, 0.5, 0.2, 0.1, 0.05]) * np.sqrt(scales)
        s = Scalogram(times, scales, np.tile(row, (times.size, 1)).astype(complex),
                      make_wavelet(0.2))
        curves = extract_ridges(s, floor=0.05)
        assert len(curves) == 2  # the maxima at scales 2 and 4, each beside the zero
        for c, j in zip(curves, (4, 2)):  # the larger scale first
            assert np.all(c.omega == scales[j])
            assert_allclose(c.magnitude, row[j], rtol=1e-12)

    def test_curve_rejects_a_nan_scale(self):
        with pytest.raises(InvalidInputError):
            RidgeCurve([0.0, 1.0], [0.01, np.nan], [1.0, 1.0], [0.0, 1.0])

    def test_floor_validation(self):
        f = tone(64.0, 1024)
        w = make_wavelet(0.2)
        s = cwt(f, w, default_scales(f, w, voices=8))
        with pytest.raises(InvalidInputError):
            extract_ridges(s, floor=0.0)


def extract_ridges_reference(s: Scalogram, floor: float | None = None) -> list[RidgeCurve]:
    """``extract_ridges`` with every step matched by the per-step greedy loop:
    the pairs of consecutive steps sorted stably by log-scale jump, cut at
    the cap, ``nxt[q] = p`` while both are free; chains walked one by one."""
    mags = s.magnitude() / np.sqrt(s.scales)[None, :]
    gmax = float(np.max(mags))
    if gmax == 0.0:
        return []
    if floor is None:
        floor = min(max(3.0 * float(np.median(mags)) / gmax, 1e-6), 0.5)
    nt = s.times.size
    dt = s.times[1] - s.times[0]
    span = s.times[-1] - s.times[0]
    step_cap = np.log(2.0) * dt / (0.01 * span)
    grid_step = float(np.max(np.log(s.scales[1:] / s.scales[:-1])))
    cap = max(step_cap, 1.5 * grid_step)
    ti, om, mag, ph = _refined_peaks(mags, s.coeffs, s.scales, floor * gmax)
    mag = mag * np.sqrt(om)
    t = s.times[ti]
    starts = np.searchsorted(ti, np.arange(nt + 1)).tolist()
    nxt = [-1] * ti.size
    linked = [False] * ti.size
    for i in range(1, nt):
        q0, p0, p1 = starts[i - 1], starts[i], starts[i + 1]
        cost = np.abs(np.log(om[p0:p1] / om[q0:p0, None])).ravel()
        order = cost.argsort(kind="stable")
        for k in order[: np.count_nonzero(cost <= cap)].tolist():
            q, p = q0 + k // (p1 - p0), p0 + k % (p1 - p0)
            if nxt[q] < 0 and not linked[p]:
                nxt[q] = p
                linked[p] = True
    chains = []
    for head in range(ti.size):
        if not linked[head]:
            chain = [head]
            while nxt[chain[-1]] >= 0:
                chain.append(nxt[chain[-1]])
            chains.append(chain)
    chains.sort(key=lambda c: (ti[c[0]], ti[c[-1]], c[0]))
    chains = _merge_fragments(chains, t, om, MERGE_GAP_FRACTION * span)
    min_len = max(2, int(np.ceil(MIN_CURVE_FRACTION * nt)))
    curves = [RidgeCurve(t[c], om[c], mag[c], _unwrap_along(ph[c], t[c], om[c]))
              for c in chains if len(c) >= min_len]
    curves.sort(key=lambda c: float(np.mean(c.omega)), reverse=True)
    return curves


def assert_same_curves(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in ("times", "omega", "magnitude", "phase"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


#: Scale ladders for hand-made scalograms: eight voices per octave, and four
#: voices starting at 1, whose every fourth scale is an exact power of two
#: (so log-scale jumps between those scales tie exactly).
EIGHTH_OCTAVES = 0.01 * 2.0 ** (np.arange(32) / 8)
POWERS_OF_TWO = 2.0 ** (np.arange(32) / 4)


def tracks_scalogram(nt: int, tracks, scales=EIGHTH_OCTAVES):
    """Scalogram whose normalized magnitude |W|/sqrt(omega) is a unit tent of
    half-width two scale steps centred on ``track[i]`` (a scale index, or -1
    for no peak) at time i, so every peak sits exactly on its grid scale."""
    n_scales = scales.size
    j = np.arange(n_scales)
    mags = np.zeros((nt, n_scales))
    for track in tracks:
        for i, c in enumerate(track):
            if c >= 0:
                mags[i] += np.maximum(0.0, 1.0 - np.abs(j - c) / 2.0)
    phase = np.exp(1j * 0.3 * np.arange(nt))[:, None]
    coeffs = mags * np.sqrt(scales) * phase
    return Scalogram(np.linspace(0.0, 1.0, nt), scales, coeffs, make_wavelet(0.2))


class TestLink:
    @pytest.mark.parametrize("dropout, n_curves", [(10, 1), (30, 2)])
    def test_short_dropout_is_merged(self, dropout, n_curves):
        nt = 1001  # dt = 0.001 of a unit span
        track = np.full(nt, 20)
        track[400 : 400 + dropout] = -1
        s = tracks_scalogram(nt, [track])
        # the gap between the fragments is dropout + 1 steps
        assert ((dropout + 1) * 0.001 <= MERGE_GAP_FRACTION) == (n_curves == 1)
        curves = extract_ridges(s, floor=0.5)
        assert len(curves) == n_curves
        assert sum(c.n for c in curves) == nt - dropout
        for c in curves:
            assert np.all(np.diff(c.times) > 0)
            assert_allclose(c.omega, s.scales[20], rtol=1e-12)

    @pytest.mark.parametrize("joint, winner", [(14, "upper"), (12, "lower")])
    def test_cheaper_link_wins_the_shared_peak(self, joint, winner):
        # two tracks at scale indices 10 and 16 meet one peak at step 50; the
        # per-step cap (an octave, 8 grid steps) admits both links
        nt = 101
        lower = [10] * 50 + [-1] * 51
        upper = [16] * 50 + [joint] * 51
        s = tracks_scalogram(nt, [lower, upper])
        curves = extract_ridges(s, floor=0.5)
        assert len(curves) == 2
        long, short = sorted(curves, key=lambda c: c.n, reverse=True)
        assert long.n == nt and short.n == 50
        assert_allclose(short.times, s.times[:50])
        start = 16 if winner == "upper" else 10
        lost = 10 if winner == "upper" else 16
        assert_allclose(long.omega[:50], s.scales[start], rtol=1e-12)
        assert_allclose(long.omega[50:], s.scales[joint], rtol=1e-12)
        assert_allclose(short.omega, s.scales[lost], rtol=1e-12)

    def test_fragment_starting_where_another_ends_merges_without_a_repeated_time(self):
        # one track ends at step 49, where a second one, 3/8 octave up,
        # starts: the merge drops the second track's first peak
        nt = 101
        lower = [10] * 50 + [-1] * 51
        upper = [-1] * 49 + [13] * 52
        s = tracks_scalogram(nt, [lower, upper])
        curves = extract_ridges(s, floor=0.5)
        assert len(curves) == 1
        c = curves[0]
        assert_allclose(c.times, s.times)
        assert_allclose(c.omega, s.scales[[10] * 50 + [13] * 51], rtol=1e-12)

    @pytest.mark.parametrize("seed", [60_000, 60_001])
    @pytest.mark.parametrize("noise, floor, min_curves", [(0.0, 0.12, 0), (1.0, 0.05, 10)],
                             ids=["clean", "noisy"])
    def test_curve_invariants_on_family_scalograms(self, seed, noise, floor, min_curves):
        # the noisy case at a low floor yields many short, competing chains
        m = 2 + seed % 2
        f, _ = gen_random_well_separated(m, 2.0, 0.05, seed, 8192 if m == 2 else 16384,
                                         base_freq=64)
        g = SampledSignal(f.t0, f.t1,
                          f.values + noise * np.random.default_rng(seed).standard_normal(f.n))
        w = make_wavelet(0.15)
        s = cwt(g, w, default_scales(f, w, voices=16))
        curves = extract_ridges(s, floor=floor)
        assert len(curves) >= max(m, min_curves)
        min_len = np.ceil(MIN_CURVE_FRACTION * s.times.size)
        peaks = set()
        for c in curves:
            assert c.n >= min_len
            assert np.all(np.diff(c.times) > 0)
            assert np.all(np.isin(c.times, s.times))
            points = set(zip(c.times.tolist(), c.omega.tolist()))
            assert len(points) == c.n and not points & peaks  # no peak in two curves
            peaks |= points
        means = [float(np.mean(c.omega)) for c in curves]
        assert means == sorted(means, reverse=True)

    def test_tied_step_falls_to_the_greedy_loop(self):
        # at step 50 both tracks jump up one octave: the lower track's link
        # costs exactly as much as the upper track's crossing to the lower
        # peak, and both equal the cap (one octave per step at 101 steps)
        nt = 101
        s = tracks_scalogram(nt, [[8] * 50 + [12] * 51, [16] * 50 + [20] * 51],
                             scales=POWERS_OF_TWO)
        got = extract_ridges(s, floor=0.5)
        assert_same_curves(got, extract_ridges_reference(s, floor=0.5))
        assert len(got) == 2
        assert_allclose(got[0].omega, [16.0] * 50 + [32.0] * 51, rtol=0)
        assert_allclose(got[1].omega, [4.0] * 50 + [8.0] * 51, rtol=0)

    def test_cheaper_crossing_beats_the_diagonal(self):
        # equal peak counts, but the upper track's nearest peak is the lower
        # one: greedy matching continues it there, and the old lower track ends
        nt = 101
        s = tracks_scalogram(nt, [[10] * 50 + [15] * 51, [16] * 50 + [24] * 51])
        got = extract_ridges(s, floor=0.5)
        assert_same_curves(got, extract_ridges_reference(s, floor=0.5))
        by_start = sorted(got, key=lambda c: (c.times[0], c.n))
        assert [c.n for c in by_start] == [50, 101, 51]
        assert_allclose(by_start[1].omega, s.scales[[16] * 50 + [15] * 51], rtol=1e-12)

    @pytest.mark.parametrize("jump, n_curves", [(6, 1), (10, 2)])
    def test_jump_beyond_the_cap_ends_the_curve(self, jump, n_curves):
        # one peak per step throughout; the cap is one octave (8 scale steps)
        nt = 101
        s = tracks_scalogram(nt, [[10] * 50 + [10 + jump] * 51])
        got = extract_ridges(s, floor=0.5)
        assert_same_curves(got, extract_ridges_reference(s, floor=0.5))
        assert len(got) == n_curves

    def test_birth_inside_a_run_of_equal_count_steps(self):
        nt = 201
        s = tracks_scalogram(nt, [[10] * nt, [-1] * 80 + [22] * 121, [4] * 150 + [-1] * 51])
        got = extract_ridges(s, floor=0.5)
        assert_same_curves(got, extract_ridges_reference(s, floor=0.5))
        assert sorted(c.n for c in got) == [121, 150, 201]

    @settings(deadline=None, max_examples=60)
    @given(st_.integers(10, 80),
           st_.lists(st_.lists(st_.tuples(st_.integers(-1, 31), st_.integers(1, 30)),
                               min_size=1, max_size=6), min_size=1, max_size=4),
           st_.sampled_from(["eighth-octaves", "powers-of-two"]),
           st_.sampled_from([0.2, 0.5]))
    def test_matches_the_per_step_greedy_reference(self, nt, runs, ladder, floor):
        # each track is a few runs of (scale index or -1, length), cut or
        # padded with -1 to nt steps: equal-count runs, births, deaths,
        # jumps, near and exact ties, and overlapping tents
        tracks = []
        for track_runs in runs:
            track = [c for c, length in track_runs for _ in range(length)][:nt]
            tracks.append(track + [-1] * (nt - len(track)))
        scales = EIGHTH_OCTAVES if ladder == "eighth-octaves" else POWERS_OF_TWO
        s = tracks_scalogram(nt, tracks, scales=scales)
        assert_same_curves(extract_ridges(s, floor), extract_ridges_reference(s, floor))

    @pytest.mark.parametrize("seed", [60_000, 60_001])
    def test_matches_the_per_step_greedy_reference_on_family_scalograms(self, seed):
        m = 2 + seed % 2
        f, _ = gen_random_well_separated(m, 2.0, 0.05, seed, 8192 if m == 2 else 16384,
                                         base_freq=64)
        noise = 0.3 * np.random.default_rng(seed).standard_normal(f.n)
        g = SampledSignal(f.t0, f.t1, f.values + noise)
        w = make_wavelet(0.15)
        s = cwt(g, w, default_scales(f, w, voices=16))
        for floor in (None, 0.05):
            assert_same_curves(extract_ridges(s, floor), extract_ridges_reference(s, floor))

    def test_default_floor_is_three_medians(self):
        f, _ = gen_random_well_separated(2, 2.0, 0.05, 60_000, 8192, base_freq=64)
        w = make_wavelet(0.15)
        s = cwt(f, w, default_scales(f, w, voices=16))
        mags = s.magnitude() / np.sqrt(s.scales)
        floor = min(max(3.0 * float(np.median(mags)) / float(np.max(mags)), 1e-6), 0.5)
        got, want = extract_ridges(s), extract_ridges(s, floor)
        assert len(got) == len(want) > 0
        for a, b in zip(got, want):
            assert np.array_equal(a.times, b.times) and np.array_equal(a.phase, b.phase)

    @pytest.mark.parametrize("n, n_scales", [(1025, 41), (1025, 40), (1024, 41)],
                             ids=["odd", "even-scales", "even-times"])
    def test_default_floor_median_is_numpys_bit_for_bit(self, n, n_scales):
        t = np.linspace(0, 1, n)
        f = SampledSignal(0, 1, np.cos(2 * np.pi * 24 * t) + np.cos(2 * np.pi * 80 * t))
        w = make_wavelet(0.15)
        full = cwt(f, w, default_scales(f, w, voices=16))
        s = Scalogram(full.times, full.scales[:n_scales], full.coeffs[:, :n_scales], w)
        mags = s.magnitude() / np.sqrt(s.scales)
        want = float(np.median(mags))
        assert _median_in_place(mags.ravel()) == want
        floor = min(max(3.0 * want / float(np.max(mags)), 1e-6), 0.5)
        assert_same_curves(extract_ridges(s), extract_ridges(s, floor))

    def test_default_floor_takes_no_copy_of_the_magnitude(self):
        # a copy for the median would double the call's peak, to twice the
        # magnitude; at 64 voices (as in criterion 07) the peak table is small
        f, _ = gen_random_well_separated(2, 2.0, 0.05, 60_000, 8192, base_freq=64)
        w = make_wavelet(0.15)
        s = cwt(f, w, default_scales(f, w, voices=64))
        extract_ridges(s)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            assert extract_ridges(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * s.coeffs.real.nbytes


class TestCoarseRidges:
    @pytest.mark.parametrize("seed", [60_000, 60_001, 60_002, 60_003])
    @pytest.mark.parametrize("voices,floor", [(16, None), (64, 0.12)],
                             ids=["pursuit-seeding", "criterion-07"])
    def test_coarse_curves_follow_the_full_grid_curves(self, seed, voices, floor):
        m = 2 + seed % 2
        f, _ = gen_random_well_separated(m, 2.0, 0.05, seed, 8192 if m == 2 else 16384,
                                         base_freq=64)
        w = make_wavelet(0.15)
        scales = default_scales(f, w, voices=voices)
        coarse = extract_ridges(_folded_cwt(f, w, scales), floor)
        full = extract_ridges(cwt(f, w, scales), floor)
        assert len(coarse) == len(full) == m
        step = float(np.max(np.log(scales[1:] / scales[:-1])))
        for c, g in zip(coarse, full):
            # P = n-1 is odd, so the coarse times fall between full-grid samples
            inside = (c.times >= g.times[0]) & (c.times <= g.times[-1])
            assert np.count_nonzero(inside) >= 0.95 * c.n
            dev = np.abs(np.log(c.omega[inside] / np.interp(c.times[inside], g.times, g.omega)))
            assert np.max(dev) <= step


def deconvolve_full_band(amp, mean_freq, w, extension):
    """The band response evaluated on every bin."""
    def gain(cycles):
        nu = cycles / mean_freq
        H = 0.5 * (w.freq_response(1.0 + nu) + w.freq_response(1.0 - nu))
        return 1.0 / np.maximum(H, ENVELOPE_GAIN_FLOOR)

    return spectral_filter(amp, gain, extension)


class TestRecover:
    @pytest.mark.parametrize("extension", ["periodic", "mirror"])
    def test_deconvolution_band_is_exact(self, extension):
        # psi_hat is exactly 0 off its support, so evaluating it only on the
        # bins up to the first one past delta leaves the result bit-identical
        rng = np.random.default_rng(7)
        for n, mean_freq, delta in [(4096, 24.3, 0.2), (8192, 61.7, 0.1),
                                    (16384, 150.0, 0.35), (1000, 5.0, 0.3)]:
            t = np.linspace(0, 1, n)
            amp = 1.5 + 0.3 * np.sin(2 * np.pi * 3 * t) + 0.01 * rng.standard_normal(n)
            w = make_wavelet(delta)
            assert np.array_equal(_deconvolve_envelope(amp, mean_freq, w, extension),
                                  deconvolve_full_band(amp, mean_freq, w, extension))

    def test_seeding_transform_is_coarse(self, monkeypatch):
        import sparsetf.ridge as ridge

        f, _ = gen_random_well_separated(3, 2.0, 0.05, 60_001, 16384, base_freq=64)
        seen = []

        def spy(s, floor=None):
            seen.append(s.times.size)
            return extract_ridges(s, floor)

        monkeypatch.setattr(ridge, "extract_ridges", spy)
        assert len(recover_components(f, make_wavelet(0.15), voices=16)) == 3
        assert len(seen) == 1 and seen[0] - 1 <= f.n // 4

    def test_pure_tone_amplitude_and_frequency(self):
        f = tone(64.0, 4096, amp=2.0)
        pairs = recover_components(f, make_wavelet(0.2))
        assert len(pairs) == 1
        p = pairs[0]
        assert np.max(np.abs(p.a - 2.0)) < 0.05
        tp = p.theta_prime()
        assert np.max(np.abs(tp - 2 * np.pi * 64)) / (2 * np.pi * 64) < 0.02

    def test_drift_of_a_short_curve_is_smoothed_over_one_carrier_period(self):
        # a 64 Hz curve on every fourth sample of the first 20% of the span,
        # its phase wobbling by 0.4 rad peak to peak with a period of 4 curve
        # samples (a quarter of a carrier period): smoothing over one carrier
        # period (16 samples) leaves 0.05 rad of it, a window shrunk with the
        # curve's coverage (3 samples) 0.27 rad
        n = 4096
        f = SampledSignal(0, 1, np.zeros(n))
        times = f.times()[: n // 5 : 4]
        k = np.arange(times.size)
        phase = 2 * np.pi * 64 * times + 0.2 * np.sin(np.pi * k / 2)
        curve = RidgeCurve(times, np.full(k.size, 1 / (2 * np.pi * 64)), np.ones(k.size), phase)
        pair = _pair_from_curve(f, curve, make_wavelet(0.2), "mirror")
        wobble = pair.theta[: n // 5] - 2 * np.pi * 64 * f.times()[: n // 5]
        assert np.ptp(wobble) < 0.1

    def test_zero_signal_recovers_nothing(self):
        f = SampledSignal(0, 1, np.zeros(2048))
        assert recover_components(f, make_wavelet(0.2)) == []

    def test_mode_mixing_components_within_budget(self):
        # the modes sweep an octave, so the analysis needs the full bandwidth
        # allowed by band disjointness at d = 2 (delta < 1/3)
        f, gt, _ = gen_mode_mixing_example(2**14)
        eps_hat = gt.params.epsilon
        pairs = recover_components(f, make_wavelet(0.3), floor=0.01,
                                   voices=32, extension="mirror")
        assert len(pairs) == 2
        rec = Decomposition(tuple(pairs), SampledSignal(0, 6, np.zeros(f.n)))
        gtd = Decomposition(gt.pairs, SampledSignal(0, 6, np.zeros(f.n)))
        rep = compare_decompositions(gtd, rec)
        assert len(rep.matched) == 2
        assert max(rep.recon_rel_l2_errors) <= 3 * np.sqrt(eps_hat)


class TestCompare:
    def test_reflexive(self):
        p1 = tone_pair(16.0, 2048)
        p2 = tone_pair(48.0, 2048, amp=0.5)
        d = Decomposition((p1, p2), SampledSignal(0, 1, np.zeros(2048)))
        rep = compare_decompositions(d, d)
        assert rep.counts_equal
        assert rep.matched == ((0, 0), (1, 1))
        assert max(rep.amp_errors) == 0.0
        assert max(rep.phase_errors) == 0.0
        assert max(rep.recon_sup_errors) == 0.0

    def test_swapped_crossing_splits_differ_by_order_one(self):
        _, gt_a, gt_b = gen_crossing_example(32, 4096)
        zero = SampledSignal(0, 1, np.zeros(4096))
        da = Decomposition(gt_a.pairs, zero)
        db = Decomposition(gt_b.pairs, zero)
        rep = compare_decompositions(da, db)
        assert rep.counts_equal
        # same signal, genuinely different splits: per-component error is O(1)
        assert min(rep.recon_sup_errors) > 0.5

    def test_symmetric_up_to_transposed_matching(self):
        f, gt = gen_random_well_separated(3, 2.0, 0.05, 4, 4096)
        zero = SampledSignal(0, 1, np.zeros(4096))
        d1 = Decomposition(gt.pairs, zero)
        d2 = Decomposition(tuple(reversed(gt.pairs)), zero)
        fwd = compare_decompositions(d1, d2)
        bwd = compare_decompositions(d2, d1)
        assert sorted((j, i) for i, j in fwd.matched) == sorted(bwd.matched)
        assert_allclose(sorted(fwd.recon_sup_errors), sorted(bwd.recon_sup_errors), rtol=1e-12)

    def test_mismatched_counts_reported_not_raised(self):
        zero = SampledSignal(0, 1, np.zeros(2048))
        d1 = Decomposition((tone_pair(16.0, 2048),), zero)
        d2 = Decomposition((tone_pair(16.0, 2048), tone_pair(48.0, 2048)), zero)
        rep = compare_decompositions(d1, d2)
        assert not rep.counts_equal
        assert len(rep.matched) == 1


class TestAssignment:
    """``_assignment`` against SciPy's ``linear_sum_assignment`` as the reference."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_matches_scipy_on_random_rectangular_costs(self, scale):
        rng = np.random.default_rng(1955)
        for _ in range(1000):
            cost = scale * rng.random(rng.integers(1, 10, size=2))
            rows, cols = _assignment(cost)
            want_rows, want_cols = linear_sum_assignment(cost)
            assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)

    def test_ties_give_the_least_total_cost(self):
        # tied costs admit several least-cost matchings, and the two solvers
        # may pick different ones: only the total and the count are pinned
        rng = np.random.default_rng(2016)
        for _ in range(2000):
            cost = rng.integers(0, 4, size=rng.integers(1, 10, size=2)).astype(float)
            rows, cols = _assignment(cost)
            want_rows, want_cols = linear_sum_assignment(cost)
            assert rows.size == want_rows.size == min(cost.shape)
            assert np.all(np.diff(rows) > 0) and np.unique(cols).size == cols.size
            assert cost[rows, cols].sum() == cost[want_rows, want_cols].sum()
