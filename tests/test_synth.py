import hashlib

import numpy as np
import pytest

from sparsetf import (InvalidInputError, check_scale_separation, check_well_separated,
                      gen_crossing_example, gen_mode_mixing_example,
                      gen_random_well_separated, p2_objective, reconstruct)
from sparsetf.synth import mode_mixing_theta1


class TestCrossing:
    def test_both_splits_reconstruct_the_signal(self):
        f, gt_a, gt_b = gen_crossing_example(32, 4096)
        for gt in (gt_a, gt_b):
            recon = reconstruct(list(gt.pairs))
            assert np.max(np.abs(recon.values - f.values)) < 1e-10

    def test_swapped_phases_are_continuous_and_increasing(self):
        n = 4097  # odd so the swap point t = 1/2 lies on the grid
        _, _, gt_b = gen_crossing_example(32, n)
        for p in gt_b.pairs:
            assert np.all(np.diff(p.theta) > 0)
        # at the swap point both phases agree (continuity forced for integer k)
        mid = n // 2
        th1 = gt_b.pairs[0].theta
        th2 = gt_b.pairs[1].theta
        k = 32
        assert th1[mid] == pytest.approx(4 * np.pi * k, rel=1e-10)
        assert th2[mid] == pytest.approx(4 * np.pi * k, rel=1e-10)

    def test_fast_component_frequency_wobble_bound(self):
        k = 32
        _, gt, _ = gen_crossing_example(k, 64 * k)
        rep = check_scale_separation(gt.pairs[1], eps=1.0)
        assert rep.eps_frequency <= 1 / (9 * k) + 1e-4

    def test_measured_ratio_touches_one(self):
        _, gt, _ = gen_crossing_example(32, 4096)
        assert check_well_separated(list(gt.pairs)) == pytest.approx(1.0, abs=1e-3)

    def test_undersampled_raises(self):
        with pytest.raises(InvalidInputError):
            gen_crossing_example(32, 64 * 32 - 1)

    def test_invalid_k_raises(self):
        with pytest.raises(InvalidInputError):
            gen_crossing_example(0, 1024)


class TestModeMixing:
    def test_phase_joins_are_continuous(self):
        eps = 1e-9
        for tj in (2.0, 3.0, 4.0):
            left = mode_mixing_theta1(np.array([tj - eps]))[0]
            right = mode_mixing_theta1(np.array([tj + eps]))[0]
            assert abs(left - right) < 1e-6  # O(eps) continuity at the join

    def test_join_values(self):
        vals = mode_mixing_theta1(np.array([2.0, 3.0, 4.0]))
        assert vals[0] == pytest.approx(20 * np.pi, rel=1e-12)
        assert vals[1] == pytest.approx(30 * np.pi + 5 * np.pi / 3, rel=1e-12)
        assert vals[2] == pytest.approx(50 * np.pi, rel=1e-12)

    def test_low_mode_energy(self):
        _, gt, _ = gen_mode_mixing_example(2**15)
        # int (2+t)^2/2 over [0,6] is exactly 84
        assert gt.pairs[0].mode().norm() ** 2 == pytest.approx(84.0, rel=0.02)

    def test_spurious_pair_objective(self):
        f, _, spurious = gen_mode_mixing_example(2**15)
        assert p2_objective(f, spurious) == pytest.approx(72.4, rel=0.02)

    def test_measured_params(self):
        _, gt, _ = gen_mode_mixing_example(2**14)
        assert gt.params.epsilon == pytest.approx(1 / (10 * np.pi), rel=1e-3)
        assert gt.params.d == pytest.approx(2.0, rel=1e-6)
        m_prime = max(check_scale_separation(p, 1.0).m_prime for p in gt.pairs)
        assert m_prime == pytest.approx(2.0, rel=1e-3)

    def test_undersampled_raises(self):
        with pytest.raises(InvalidInputError):
            gen_mode_mixing_example(4095)


class TestRandomFamily:
    def test_single_component_self_check(self):
        for seed in range(5):
            _, gt = gen_random_well_separated(1, 2.0, 0.05, seed, 4096)
            rep = check_scale_separation(gt.pairs[0], eps=0.05)
            assert rep.in_dictionary

    def test_three_components_meet_ratio(self):
        for seed in range(5):
            _, gt = gen_random_well_separated(3, 2.0, 0.05, 50 + seed, 8192)
            assert check_well_separated(list(gt.pairs)) >= 2.0

    def test_ground_truth_reconstructs_emitted_signal(self):
        f, gt = gen_random_well_separated(2, 2.0, 0.08, 7, 4096, noise_amplitude=0.01)
        assert np.max(np.abs(gt.signal().values - f.values)) == 0.0

    def test_deterministic_per_seed(self):
        f1, gt1 = gen_random_well_separated(3, 2.0, 0.05, 123, 8192)
        f2, gt2 = gen_random_well_separated(3, 2.0, 0.05, 123, 8192)
        assert np.array_equal(f1.values, f2.values)
        for a, b in zip(gt1.pairs, gt2.pairs):
            assert np.array_equal(a.theta, b.theta)

    def test_output_bits_are_pinned(self):
        # sha256 over the signal and every mode's a and theta, recorded before
        # each harmonic's sine and cosine were computed once instead of three times
        f, gt = gen_random_well_separated(3, 2.0, 0.05, 1, 4096)
        h = hashlib.sha256(f.values.tobytes())
        for p in gt.pairs:
            h.update(p.a.tobytes())
            h.update(p.theta.tobytes())
        assert h.hexdigest() == "4f3bdb1fd0842d22276901d02087914995c8bc2fdb096654bc4583143431b5e9"

    def test_different_seeds_differ(self):
        f1, _ = gen_random_well_separated(2, 2.0, 0.05, 1, 4096)
        f2, _ = gen_random_well_separated(2, 2.0, 0.05, 2, 4096)
        assert not np.array_equal(f1.values, f2.values)

    def test_infeasible_grid_names_requirement(self):
        with pytest.raises(InvalidInputError, match=r"n >= \d+"):
            gen_random_well_separated(3, 3.0, 0.01, 0, 256)

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            gen_random_well_separated(0, 2.0, 0.05, 0, 4096)
        with pytest.raises(InvalidInputError):
            gen_random_well_separated(1, 1.0, 0.05, 0, 4096)
        with pytest.raises(InvalidInputError):
            gen_random_well_separated(1, 2.0, 0.5, 0, 4096)

    def test_periodic_modes(self):
        _, gt = gen_random_well_separated(2, 2.0, 0.05, 9, 4096)
        for p in gt.pairs:
            tp = p.theta_prime()
            assert abs(p.a[0] - p.a[-1]) <= 1e-9 * abs(p.a[0])
            assert abs(tp[0] - tp[-1]) <= 1e-6 * abs(tp[0])
            cycles = (p.theta[-1] - p.theta[0]) / (2 * np.pi)
            assert cycles == pytest.approx(round(cycles), abs=1e-9)
