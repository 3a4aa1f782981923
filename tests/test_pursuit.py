import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_
from hypothesis.extra.numpy import arrays
from scipy.fft import next_fast_len
from scipy.interpolate import CubicSpline

import sparsetf
from sparsetf import (Decomposition, DictionaryParams, InvalidInputError, NumericalFailureError,
                      PursuitConfig, SampledSignal, check_scale_separation, compare_decompositions,
                      gen_mode_mixing_example, gen_random_well_separated,
                      matching_pursuit, p2_objective, partition_domain, solve_p2)
from sparsetf.pursuit import (ADMISSIBILITY_MARGIN, _demodulate, _fast_len, _lowpass_sharp,
                              _seed_phases, _spline)

from conftest import tone, tone_pair


def default_cfg(**kw):
    params = kw.pop("params", DictionaryParams(0.05, 2.0, epsilon0=kw.pop("epsilon0", 1e-2)))
    return PursuitConfig(params=params, **kw)


def family_signal_10():
    """Family signal 10 of seed 1 with the benchmark's 2-mode configuration."""
    f, gt = gen_random_well_separated(2, 2.0, 0.05, 3028352078, 8192, base_freq=64)
    cfg = PursuitConfig(DictionaryParams(max(3 * gt.params.epsilon, 0.02), 2.0,
                                         epsilon0=0.05 * f.norm()),
                        max_components=4, voices=16, delta=0.15)
    return f, gt, cfg


def assert_admissible(dec, cfg):
    """Every component lies within the inner solver's gate around the dictionary."""
    for c in dec.components:
        assert check_scale_separation(c, ADMISSIBILITY_MARGIN * cfg.params.epsilon).in_dictionary


class TestObjective:
    def test_exact_fit_is_zero(self):
        p = tone_pair(40.0, 4096, amp=1.7)
        assert p2_objective(p.mode(), p) == pytest.approx(0.0, abs=1e-10)

    def test_mode_mixing_single_mode_misfits(self):
        f, gt, spurious = gen_mode_mixing_example(2**15)
        assert p2_objective(f, gt.pairs[0]) == pytest.approx(84.0, rel=0.02)
        assert p2_objective(f, gt.pairs[1]) == pytest.approx(84.0, rel=0.02)
        assert p2_objective(f, spurious) == pytest.approx(72.4, rel=0.02)

    def test_grid_mismatch_raises(self):
        with pytest.raises(InvalidInputError):
            p2_objective(tone_pair(40.0, 2048).mode(), tone_pair(40.0, 4096))


class TestSolve:
    def test_pure_tone_from_six_percent_off(self):
        n = 4096
        t = np.linspace(0, 1, n)
        r = SampledSignal(0, 1, np.cos(2 * np.pi * 64 * t))
        res = solve_p2(r, 2 * np.pi * 60 * t, default_cfg())
        assert res.converged
        assert np.max(np.abs(res.pair.a - 1.0)) < 1e-2
        tp = res.pair.theta_prime()
        assert np.max(np.abs(tp - 2 * np.pi * 64)) / (2 * np.pi * 64) < 1e-2

    def test_zero_residual(self):
        n = 2048
        t = np.linspace(0, 1, n)
        r = SampledSignal(0, 1, np.zeros(n))
        res = solve_p2(r, 2 * np.pi * 10 * t, default_cfg())
        assert res.converged
        assert res.objective == pytest.approx(0.0, abs=1e-12)
        assert np.max(res.pair.a) < 1e-8

    def test_deceptive_init_lands_on_admissible_mode_mixed_fit(self):
        # initialized on the stitched constant-frequency fit: any admissible
        # single mode that mixes the two underlying modes beats both true
        # single-mode fits (~84) without coming close to a full fit, and the
        # solver must not escape into an inadmissible wiggly minimum
        from sparsetf import check_scale_separation

        f, gt, spurious = gen_mode_mixing_example(2**14)
        eps = 1 / (10 * np.pi)
        cfg = default_cfg(params=DictionaryParams(eps, 2.0, epsilon0=1e-2))
        res = solve_p2(f, 20 * np.pi * f.times(), cfg, "mirror")
        assert res.objective <= 0.98 * 84.0
        assert res.objective >= 10.0
        rep = check_scale_separation(res.pair, 3 * eps)
        assert rep.in_dictionary

    def test_history_starts_at_empty_fit_and_never_increases(self):
        n = 4096
        t = np.linspace(0, 1, n)
        r = SampledSignal(0, 1, np.cos(2 * np.pi * 48 * t) * (1 + 0.1 * np.sin(2 * np.pi * t)))
        res = solve_p2(r, 2 * np.pi * 46 * t, default_cfg())
        assert res.history[0] == pytest.approx(r.norm() ** 2, rel=1e-12)
        diffs = np.diff(np.asarray(res.history))
        assert np.all(diffs <= 1e-9 * res.history[0])

    def test_flat_objective_ends_the_solve(self):
        # the first solve of family signal 4 (seed 1, the benchmark's 2-mode
        # configuration): without the stall stop it runs to the iteration cap,
        # though no step after the fourth lowers the objective by 5e-7 of it
        f, gt = gen_random_well_separated(2, 2.0, 0.05, 3789240271, 8192, base_freq=64)
        cfg = PursuitConfig(DictionaryParams(max(3 * gt.params.epsilon, 0.02), 2.0,
                                             epsilon0=0.05 * f.norm()),
                            max_components=4, voices=16, delta=0.15)
        theta = _seed_phases(f, cfg, "periodic")[0]
        res = solve_p2(f, theta, cfg)
        assert res.converged and res.iterations < 15
        # inner_tol=1e-12 turns both the phase-step and the stall stop off
        full = solve_p2(f, theta, replace(cfg, inner_tol=1e-12))
        assert res.objective - full.objective <= 2 * (2 * np.pi * 1e-4) ** 2 * res.history[0]

    def test_no_admissible_iterate_gives_no_pair(self):
        # from the first ridge of family signal 10 (64 Hz) no iterate passes
        # the admissibility gate, so the solve has no pair to offer
        f, _, cfg = family_signal_10()
        res = solve_p2(f, _seed_phases(f, cfg, "periodic")[0], cfg)
        assert res.pair is None
        assert not res.converged
        assert res.objective == res.history[0]

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("at_end", [False, True])
    def test_periodic_fit_removes_an_end_kink(self, sign, at_end):
        # the 64 Hz mode of family signal 0 (seed 1, the benchmark's 2-mode
        # configuration), started from its true phase plus a 0.9 rad kink at
        # one span end; with one-sided ends and a free advance the fit kept
        # half of the kink and ended at rel-L2 0.03-0.04
        f, gt = gen_random_well_separated(2, 2.0, 0.05, 4245214700, 8192, base_freq=64)
        cfg = PursuitConfig(DictionaryParams(max(3 * gt.params.epsilon, 0.02), 2.0,
                                             epsilon0=0.05 * f.norm()),
                            max_components=4, voices=16, delta=0.15)
        true, other = sorted(gt.pairs, key=lambda p: float(np.mean(p.theta_prime())))
        assert np.mean(true.theta_prime()) == pytest.approx(2 * np.pi * 64, rel=1e-4)
        t = f.times()
        kink = sign * 0.9 * np.exp(-np.abs(t - (f.t1 if at_end else f.t0)) / 0.02)
        r = SampledSignal(f.t0, f.t1, f.values - other.mode().values)
        res = solve_p2(r, true.theta + kink, cfg, "periodic")
        err = SampledSignal(f.t0, f.t1, res.pair.mode().values - true.mode().values)
        assert err.norm() / true.mode().norm() <= 1e-3

    def test_non_monotone_init_raises(self):
        n = 512
        r = SampledSignal(0, 1, np.zeros(n))
        with pytest.raises(InvalidInputError):
            solve_p2(r, np.zeros(n), default_cfg())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_init_raises(self, bad):
        # both pass the monotonicity check: every comparison with NaN is
        # False, and a last step to inf is positive
        n = 512
        t = np.linspace(0, 1, n)
        r = SampledSignal(0, 1, np.cos(2 * np.pi * 10 * t))
        theta = 2 * np.pi * 10 * t
        theta[-1] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            solve_p2(r, theta, default_cfg())


def demodulate_reference(t, r_values, theta, eta, extension="periodic"):
    """The n-point phase grid, inverse-phase spline and two real low-passes."""
    s = np.linspace(theta[0], theta[-1], t.size)
    t_of_s = np.clip(CubicSpline(theta, t)(s), t[0], t[-1])
    r_of_s = CubicSpline(t, r_values)(t_of_s)
    cutoff = eta * (theta[-1] - theta[0]) / (2.0 * np.pi)
    a_s = _lowpass_sharp(2.0 * r_of_s * np.cos(s), cutoff, extension)
    b_s = _lowpass_sharp(2.0 * r_of_s * np.sin(s), cutoff, extension)
    return np.interp(theta, s, a_s), np.interp(theta, s, b_s)


class TestDemodulate:
    @pytest.mark.parametrize("extension", ["periodic", "mirror"])
    @pytest.mark.parametrize("n", [4097, 8192, 16384])
    def test_matches_reference(self, n, extension):
        # 8192 and 16384 resample onto a longer fast-length phase grid; at
        # 4097 the grid length n - 1 = 4096 is already fast
        t = np.linspace(0, 1, n)
        theta = 2 * np.pi * (40 * t + 10 * t**2)
        r = (1.5 * (1 + 0.2 * np.sin(2 * np.pi * t)) * np.cos(theta + 0.3)
             + 0.5 * np.cos(2 * np.pi * 130 * t))
        for eta in (0.5 / 8, 0.5):
            a, b = _demodulate(r, theta, eta, extension)
            a_ref, b_ref = demodulate_reference(t, r, theta, eta, extension)
            tol = 1e-5 * np.max(np.abs(r))
            assert np.max(np.abs(a - a_ref)) < tol
            assert np.max(np.abs(b - b_ref)) < tol

    @pytest.mark.parametrize("extension, tol", [("periodic", 1e-5), ("mirror", 1e-2)])
    def test_in_phase_and_quadrature_envelopes(self, extension, tol):
        # r = A cos(theta + phi) plus a mode at three times the carrier gives
        # (A cos phi, -A sin phi); the mirror extension's kink rings near the ends
        n = 8192
        t = np.linspace(0, 1, n)
        theta = 2 * np.pi * (40 * t + 10 * t**2)
        amp, phi = 1.5, 0.7
        r = amp * np.cos(theta + phi) + 0.8 * np.cos(3 * theta)
        a, b = _demodulate(r, theta, 0.5, extension)
        inner = slice(n // 4, 3 * n // 4)
        assert np.max(np.abs(a[inner] - amp * np.cos(phi))) < tol * amp
        assert np.max(np.abs(b[inner] + amp * np.sin(phi))) < tol * amp

    @pytest.mark.parametrize("bad", ["nan", "inf", "flat", "decreasing"])
    def test_bad_phase_raises_numerical_failure(self, bad):
        # an iterate's phase that a cubic spline in the phase cannot take
        t = np.linspace(0, 1, 512)
        theta = 2 * np.pi * 10 * t
        if bad in ("nan", "inf"):
            theta[-1] = float(bad)
        else:
            theta[200:300] = theta[200] if bad == "flat" else theta[200:300][::-1]
        with pytest.raises(NumericalFailureError, match="strictly increasing"):
            _demodulate(np.cos(2 * np.pi * 10 * t), theta, 0.5)

    def test_phase_grid_length_is_scipys_fast_length(self):
        assert [_fast_len(n) for n in range(1, 20_001)] == [next_fast_len(n) for n in range(1, 20_001)]


class TestSpline:
    @settings(deadline=None, max_examples=60)
    @given(st_.integers(3, 3000), st_.integers(0, 2**32 - 1), st_.floats(1.0, 10.0),
           st_.floats(-3, 3), st_.floats(-1e3, 1e3))
    @example(3, 0, 1.0, 0.0, 0.0)  # the parabola through three points
    @example(3, 1, 10.0, 2.0, -5.0)
    @example(4, 2, 10.0, 0.0, 0.0)  # two inner slopes, one beside each end row
    def test_matches_scipy_cubic_spline(self, n, seed, step_ratio, log_step, offset):
        # steps drawn independently within a factor step_ratio of each other,
        # a far rougher grid than an iterate's phase; the evaluation grid
        # starts and ends on the first and last knot, as in _demodulate
        rng = np.random.default_rng(seed)
        steps = 10.0**log_step * step_ratio ** rng.uniform(size=n - 1)
        x = offset + np.concatenate([[0.0], np.cumsum(steps)])
        y = rng.standard_normal(n)
        xs = np.linspace(x[0], x[-1], int(rng.integers(2, 3 * n)))
        got, want = _spline(x, y, xs), CubicSpline(x, y)(xs)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(y))


def partition_reference(tp, d):
    """``partition_domain`` as a per-sample scan with running extrema."""
    root = np.sqrt(d)
    breakpoints = []
    lo = hi = tp[0]
    for i in range(1, tp.size):
        nlo, nhi = min(lo, tp[i]), max(hi, tp[i])
        if nhi / nlo >= root:
            breakpoints.append(i)
            lo = hi = tp[i]
        else:
            lo, hi = nlo, nhi
    return np.asarray(breakpoints, dtype=int)


class TestPartition:
    def test_constant_frequency_single_segment(self):
        assert partition_domain(np.full(512, 7.0), 2.0).size == 0

    def test_linear_doubling_splits_once(self):
        tp = np.linspace(100.0, 400.0, 10001)
        bps = partition_domain(tp, 4.0)
        assert bps.size == 1
        assert abs(tp[bps[0]] - 200.0) <= (tp[1] - tp[0]) + 1e-9

    def test_mode_mixing_low_component_needs_two_segments(self):
        _, gt, _ = gen_mode_mixing_example(4096)
        bps = partition_domain(gt.pairs[0].theta_prime(), 2.0)
        assert bps.size >= 1

    def test_nonpositive_frequency_raises(self):
        with pytest.raises(InvalidInputError):
            partition_domain(np.array([1.0, -1.0, 2.0]), 2.0)

    @settings(deadline=None, max_examples=40)
    @given(arrays(np.float64, st_.integers(8, 300),
                  elements=st_.floats(0.1, 50.0)),
           st_.floats(1.1, 9.0))
    def test_every_segment_satisfies_strict_ratio(self, tp, d):
        bps = partition_domain(tp, d)
        bounds = [0, *bps.tolist(), tp.size]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            seg = tp[lo:hi]
            assert seg.max() / seg.min() < np.sqrt(d)

    @settings(deadline=None, max_examples=80)
    @given(arrays(np.float64, st_.integers(1, 600), elements=st_.floats(0.1, 50.0)),
           st_.sampled_from([1.0 + 3e-16, 1.0001, 1.1, 2.0, 4.0, 9.0]))
    def test_breakpoints_match_the_per_sample_scan(self, tp, d):
        # 1 + 3e-16 has sqrt(d) == 1.0, so every sample starts a segment;
        # lengths above 64 need the search window to grow
        assert np.array_equal(partition_domain(tp, d), partition_reference(tp, d))

    @pytest.mark.parametrize("d", [1.0001, 2.0])
    def test_breakpoints_match_the_per_sample_scan_on_a_long_noisy_ramp(self, d):
        ramp = np.exp(np.linspace(0.0, 3.0, 20_000))
        tp = ramp * (1 + 0.01 * np.random.default_rng(3).random(ramp.size))
        assert np.array_equal(partition_domain(tp, d), partition_reference(tp, d))


class TestMatchingPursuit:
    def test_two_tone_decomposition(self):
        n = 4096
        t = np.linspace(0, 1, n)
        f = SampledSignal(0, 1, np.cos(2 * np.pi * 32 * t) + np.cos(2 * np.pi * 96 * t))
        dec = matching_pursuit(f, default_cfg(epsilon0=1e-2))
        assert dec.n_components == 2
        assert not dec.no_progress
        assert dec.residual.norm() < 1e-2
        freqs = [np.mean(c.theta_prime()) / (2 * np.pi) for c in dec.components]
        assert freqs[0] == pytest.approx(32.0, rel=0.01)
        assert freqs[1] == pytest.approx(96.0, rel=0.01)

    def test_package_pursuit_and_cli_load_no_scipy(self, tmp_path):
        # importing SciPy's interpolate, fft, integrate and optimize cost each
        # process about 0.5 s and 53 MB; only compare_decompositions loads SciPy
        code = ("import sys, numpy as np; from sparsetf import *; from sparsetf import cli\n"
                "from sparsetf.io import write_signal_csv\n"
                "t = np.linspace(0, 1, 2048)\n"
                "f = SampledSignal(0, 1, np.cos(2 * np.pi * 32 * t) + np.cos(2 * np.pi * 96 * t))\n"
                "cfg = PursuitConfig(DictionaryParams(0.05, 2.0, epsilon0=1e-2))\n"
                "assert matching_pursuit(f, cfg).n_components == 2\n"
                "d = sys.argv[1]\n"
                "write_signal_csv(d + '/signal.csv', gen_mode_mixing_example(4096)[0])\n"
                "assert cli.main(['decompose', d + '/signal.csv', '--out', d + '/dec']) == 0\n"
                "assert cli.main(['verify', d + '/dec/decomposition.json', d + '/signal.csv']) in (0, 3)\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = os.path.dirname(os.path.dirname(sparsetf.__file__))
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip().splitlines()[-1] == "[]"

    def test_residual_norm_decreases_across_extractions(self):
        n = 4096
        t = np.linspace(0, 1, n)
        f = SampledSignal(0, 1, 2 * np.cos(2 * np.pi * 24 * t) + np.cos(2 * np.pi * 72 * t))
        dec = matching_pursuit(f, default_cfg(epsilon0=1e-3))
        # rebuild the residual sequence in extraction order
        order = np.argsort(dec.extraction_order)
        resid = f.values.copy()
        norms = [np.sqrt(np.trapezoid(resid**2, dx=f.dt))]
        for idx in order:
            c = dec.components[idx]
            resid = resid - c.a * np.cos(c.theta)
            norms.append(np.sqrt(np.trapezoid(resid**2, dx=f.dt)))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_mode_mixing_recovery_beats_sqrt_eps_budget(self):
        f, gt, _ = gen_mode_mixing_example(2**14)
        eps_hat = gt.params.epsilon
        cfg = default_cfg(params=DictionaryParams(0.05, 2.0, epsilon0=0.05 * f.norm()),
                          max_components=4)
        dec = matching_pursuit(f, cfg)
        assert dec.n_components == 2
        gtd = Decomposition(gt.pairs, SampledSignal(0, 6, np.zeros(f.n)))
        rep = compare_decompositions(gtd, dec)
        assert len(rep.matched) == 2
        assert max(rep.recon_rel_l2_errors) <= 3 * np.sqrt(eps_hat)

    def test_tone_of_fractional_cycles_is_one_component(self):
        # 40.3 cycles jump in phase across the periodic wrap; under the
        # periodic extension the pursuit turned the leak into 8 components
        f = tone(40.3, 2048)
        dec = matching_pursuit(f, default_cfg(epsilon0=max(1e-2, 0.05 * f.norm())))
        assert dec.n_components == 1
        freq = np.mean(dec.components[0].theta_prime()) / (2 * np.pi)
        assert freq == pytest.approx(40.3, rel=0.01)

    def test_retry_from_the_next_ridge_recovers_family_signal_10(self):
        # the first ridge gives no admissible fit (see TestSolve), so the
        # pursuit solves from the next one (147 Hz) and takes the 64 Hz mode
        # from the residual after it
        f, gt, cfg = family_signal_10()
        dec = matching_pursuit(f, cfg)
        assert dec.n_components == 2
        truth = Decomposition(gt.pairs, SampledSignal(f.t0, f.t1, np.zeros(f.n)))
        rep = compare_decompositions(truth, dec)
        assert len(rep.matched) == 2
        assert max(rep.recon_rel_l2_errors) <= 1e-2
        assert_admissible(dec, cfg)

    def test_mode_mixing_components_are_admissible(self):
        f, _, _ = gen_mode_mixing_example(4096)
        cfg = default_cfg(epsilon0=max(1e-2, 0.05 * f.norm()))  # the CLI defaults
        dec = matching_pursuit(f, cfg)
        assert dec.n_components == 2
        assert_admissible(dec, cfg)

    @pytest.mark.parametrize("n", [2048, 8192])
    def test_insignificant_mode_ends_the_pursuit(self, n):
        # after the tone the residual is the DC offset, whose ridges give
        # modes of norm near 0, far below epsilon0; they are not
        # significant, and the DC stays in the residual
        t = np.linspace(0, 1, n)
        f = SampledSignal(0, 1, 0.5 + np.cos(2 * np.pi * 64 * t))
        dec = matching_pursuit(f, default_cfg(epsilon0=max(1e-2, 0.05 * f.norm())))
        assert dec.n_components == 1
        assert dec.no_progress
        assert np.mean(dec.components[0].theta_prime()) / (2 * np.pi) == pytest.approx(64.0, rel=1e-3)
        assert dec.residual.norm() == pytest.approx(0.5, rel=1e-3)

    def test_zero_signal_gives_empty_decomposition(self):
        f = SampledSignal(0, 1, np.zeros(2048))
        dec = matching_pursuit(f, default_cfg(epsilon0=1e-2))
        assert dec.n_components == 0
        assert not dec.no_progress

    def test_structureless_signal_flags_no_progress(self):
        # constant offset: above the threshold but with no oscillation to chase
        f = SampledSignal(0, 1, np.full(2048, 0.5))
        dec = matching_pursuit(f, default_cfg(epsilon0=1e-3))
        assert dec.no_progress
        assert dec.n_components == 0

    def test_extraction_order_tracks_component_norms(self):
        f, gt = gen_random_well_separated(2, 2.5, 0.05, 99, 4096, base_freq=24)
        norms = [p.mode().norm() for p in gt.pairs]
        cfg = default_cfg(params=DictionaryParams(0.1, 2.5, epsilon0=0.05 * f.norm()),
                          voices=16)
        dec = matching_pursuit(f, cfg)
        assert dec.n_components == 2
        first_sorted_pos = dec.extraction_order.index(0)
        # the first-extracted component matches the larger-norm mode
        rep = compare_decompositions(
            Decomposition(gt.pairs, SampledSignal(0, 1, np.zeros(4096))), dec)
        truth_of = {j: i for i, j in rep.matched}
        assert norms[truth_of[first_sorted_pos]] == max(norms)
