import numpy as np
import pytest

from sparsetf import (InvalidInputError, PhasePair,
                      check_scale_separation, check_well_separated,
                      gen_crossing_example, gen_mode_mixing_example,
                      gen_random_well_separated, verify_cross_term_bound,
                      verify_norm_equivalence, verify_oscillatory_cancellation)

from conftest import tone_pair


class TestScaleSeparation:
    def test_pure_tone_metrics(self):
        rep = check_scale_separation(tone_pair(100.0, 4096), eps=0.01)
        assert rep.eps_envelope == pytest.approx(0.0, abs=1e-12)
        assert rep.eps_frequency == pytest.approx(0.0, abs=1e-10)
        assert rep.m_prime == pytest.approx(1.0, rel=1e-9)
        assert rep.in_dictionary

    def test_mode_mixing_low_component_bounds(self):
        _, gt, _ = gen_mode_mixing_example(2**14)
        rep = check_scale_separation(gt.pairs[0], eps=1 / (10 * np.pi))
        assert rep.eps_envelope <= 1 / (10 * np.pi) + 1e-4
        assert rep.eps_frequency <= 1 / (10 * np.pi) + 1e-4

    def test_mode_mixing_high_component_bounds(self):
        _, gt, _ = gen_mode_mixing_example(2**14)
        rep = check_scale_separation(gt.pairs[1], eps=1 / (20 * np.pi))
        assert rep.eps_envelope <= 1 / (20 * np.pi) + 1e-4
        assert rep.eps_frequency <= 1 / (20 * np.pi) + 1e-4

    def test_undershooting_boundary_frequency_is_reported(self):
        # the one-sided stencil at t0 gives theta' = (4*0.1 - 1)/(2*dt) < 0
        theta = np.r_[0.0, 0.1, np.arange(1.0, 31.0)]
        pair = PhasePair(0.0, 1.0, np.ones(theta.size), theta)
        assert pair.theta_prime()[0] <= 0
        rep = check_scale_separation(pair, eps=0.5)
        assert rep.m_prime == np.inf
        assert rep.in_dictionary is False
        assert np.isfinite(rep.eps_envelope) and np.isfinite(rep.eps_frequency)

    def test_non_monotone_theta_rejected_at_construction(self):
        n = 256
        t = np.linspace(0, 1, n)
        theta = 10 * t + np.sin(8 * np.pi * t)  # oscillating slope crosses zero
        assert np.any(np.diff(theta) <= 0)
        with pytest.raises(InvalidInputError):
            PhasePair(0.0, 1.0, np.ones(n), theta)


class TestWellSeparated:
    def test_constant_ratio_tones(self):
        d_min = check_well_separated([tone_pair(50.0, 4096), tone_pair(100.0, 4096)])
        assert d_min == pytest.approx(2.0, rel=1e-9)

    def test_mode_mixing_pairs_ratio(self):
        _, gt, _ = gen_mode_mixing_example(2**14)
        assert check_well_separated(list(gt.pairs)) == pytest.approx(2.0, rel=1e-6)

    def test_crossing_frequencies_ratio_reaches_one(self):
        _, gt, _ = gen_crossing_example(32, 4096)
        assert check_well_separated(list(gt.pairs)) == pytest.approx(1.0, abs=1e-3)

    def test_single_pair_raises(self):
        with pytest.raises(InvalidInputError):
            check_well_separated([tone_pair(10.0, 512)])

    def test_grid_mismatch_raises(self):
        with pytest.raises(InvalidInputError):
            check_well_separated([tone_pair(10.0, 512), tone_pair(30.0, 256)])


class TestPhasePair:
    def test_zero_norm_rejected_at_construction(self):
        # the envelope must be strictly positive, so a zero mode cannot exist
        with pytest.raises(InvalidInputError):
            PhasePair(0.0, 1.0, np.zeros(64), np.linspace(0, 10, 64))


class TestNormEquivalence:
    def test_pure_tone_equality_case(self):
        res = verify_norm_equivalence(tone_pair(16.0, 4096))
        assert res.mid == pytest.approx(0.5, abs=1e-9)
        assert res.lhs == pytest.approx(0.5, abs=1e-9)
        assert res.rhs == pytest.approx(0.5, abs=1e-9)
        assert res.holds

    def test_modulated_pair_holds(self):
        n = 8192
        t = np.linspace(0, 1, n)
        pair = PhasePair(0, 1, 2 + np.sin(2 * np.pi * t), 2 * np.pi * 64 * t + 0.3 * np.sin(2 * np.pi * t))
        res = verify_norm_equivalence(pair)
        assert res.holds
        assert res.lhs <= res.mid <= res.rhs

    def test_crossing_component_holds(self):
        _, gt, _ = gen_crossing_example(32, 8192)
        res = verify_norm_equivalence(gt.pairs[1])
        assert res.holds

    def test_non_periodic_pair_warns_but_computes(self):
        n = 4096
        t = np.linspace(0, 1, n)
        pair = PhasePair(0, 1, 1 + 0.5 * t, 2 * np.pi * 64 * t)  # envelope endpoint mismatch
        with pytest.warns(RuntimeWarning):
            res = verify_norm_equivalence(pair)
        assert np.isfinite(res.mid)


class TestCrossTermBound:
    def test_orthogonal_tones(self):
        res = verify_cross_term_bound(tone_pair(32.0, 8192), tone_pair(64.0, 8192))
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert res.bound >= 0
        assert res.holds
        assert res.beta == pytest.approx(2.0, rel=1e-9)

    def test_mode_mixing_pairs(self):
        _, gt, _ = gen_mode_mixing_example(2**15)
        with pytest.warns(RuntimeWarning):  # non-periodic envelopes
            res = verify_cross_term_bound(gt.pairs[0], gt.pairs[1])
        assert res.holds
        # envelope overlap: int (2+t)(8-t) dt over [0,6] is exactly 132
        overlap = np.trapezoid(gt.pairs[0].a * gt.pairs[1].a, dx=gt.pairs[0].dt)
        assert overlap == pytest.approx(132.0, rel=1e-6)
        assert res.bound == pytest.approx(
            4 * res.eps_hat * (1 + 1 / (1 - 1 / res.beta) ** 2) * overlap, rel=1e-9)

    def test_randomized_separated_pairs_hold(self):
        violations = 0
        for seed in range(100):
            _, gt = gen_random_well_separated(2, 1.5, 0.05, 20_000 + seed, 4096)
            res = verify_cross_term_bound(gt.pairs[0], gt.pairs[1])
            violations += not res.holds
        assert violations == 0

    def test_wrong_order_raises(self):
        with pytest.raises(InvalidInputError):
            verify_cross_term_bound(tone_pair(64.0, 4096), tone_pair(32.0, 4096))


class TestOscillatoryCancellation:
    def test_constant_weight_cancels_exactly(self):
        t = np.linspace(0, 2 * np.pi * 12, 4096)
        res = verify_oscillatory_cancellation(np.ones(t.size), t)
        assert res.value == pytest.approx(0.0, abs=1e-10)
        assert res.eps == pytest.approx(0.0, abs=1e-12)

    def test_slowly_varying_weight_within_proof_constant(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            ncyc = int(rng.integers(5, 30))
            t = np.linspace(0, 2 * np.pi * ncyc, 4096)
            g = np.exp(rng.uniform(0.05, 0.4) * np.sin(2 * np.pi * rng.integers(1, 4) * t / t[-1]))
            res = verify_oscillatory_cancellation(g, t)
            assert res.holds_proof

    def test_partial_period_window_warns(self):
        t = np.linspace(0, 2 * np.pi * 7.3, 2048)
        with pytest.warns(RuntimeWarning):
            verify_oscillatory_cancellation(np.ones(t.size), t)

    def test_nonpositive_weight_raises(self):
        t = np.linspace(0, 2 * np.pi * 4, 512)
        with pytest.raises(InvalidInputError):
            verify_oscillatory_cancellation(np.sin(t), t)
