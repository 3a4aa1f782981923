"""Generators for benchmark signals with known ground truth.

Three families: a crossing-frequency pair admitting two distinct exact
decompositions (the non-uniqueness witness), a two-mode signal whose best
single-mode fit stitches halves of both modes (the mode-mixing trap), and a
randomized well-separated family with controllable slow-variation metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .separation import check_scale_separation, check_well_separated
from .signal import Decomposition, DictionaryParams, PhasePair, SampledSignal, reconstruct

__all__ = [
    "GroundTruth",
    "gen_crossing_example",
    "gen_mode_mixing_example",
    "gen_random_well_separated",
]


@dataclass(frozen=True)
class GroundTruth:
    """Known decomposition of a generated signal.

    ``params`` carries metrics measured from the realized arrays, not the
    nominal generator inputs.  ``reconstruct(pairs) + residual`` equals the
    emitted signal exactly.
    """

    pairs: tuple
    residual: SampledSignal
    params: DictionaryParams

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))

    def signal(self) -> SampledSignal:
        return Decomposition(self.pairs, self.residual).signal()


def _measured_params(pairs, fallback_d: float, epsilon0: float) -> DictionaryParams:
    reports = [check_scale_separation(p, eps=1.0) for p in pairs]
    eps = max(r.eps_measured for r in reports)
    eps = min(max(eps, 1e-12), 1.0 - 1e-12)
    d = check_well_separated(list(pairs)) if len(pairs) >= 2 else fallback_d
    # frequencies that touch give a measured ratio of 1; clamp into the open domain
    d = max(d, np.nextafter(1.0, 2.0))
    return DictionaryParams(epsilon=eps, d=d, epsilon0=epsilon0)


def gen_crossing_example(k: int, n: int):
    """Two unit-amplitude modes whose frequencies touch mid-span.

    On [0, 1]: ``theta1 = 6*pi*k*t + k*pi`` and ``theta2 = 8*pi*k*t +
    k*sin(2*pi*t)``; the instantaneous frequencies coincide at t = 1/2, where
    the phases are also equal, so swapping the tails at t = 1/2 yields a
    second exact decomposition of the same signal.  Returns the signal and
    both ground truths.
    """
    if k < 1 or int(k) != k:
        raise InvalidInputError("k must be a positive integer")
    if n < 64 * k:
        raise InvalidInputError(f"need n >= {64 * k} samples to resolve the carrier")
    t = np.linspace(0.0, 1.0, n)
    theta1 = 6.0 * np.pi * k * t + k * np.pi
    theta2 = 8.0 * np.pi * k * t + k * np.sin(2.0 * np.pi * t)
    ones = np.ones(n)
    f = SampledSignal(0.0, 1.0, np.cos(theta1) + np.cos(theta2))

    swap = t > 0.5
    phi1 = np.where(swap, theta2, theta1)
    phi2 = np.where(swap, theta1, theta2)

    split_a = (PhasePair(0.0, 1.0, ones, theta1), PhasePair(0.0, 1.0, ones, theta2))
    split_b = (PhasePair(0.0, 1.0, ones, phi1), PhasePair(0.0, 1.0, ones, phi2))
    zero = SampledSignal(0.0, 1.0, np.zeros(n))
    gt_a = GroundTruth(split_a, zero, _measured_params(split_a, 4.0 / 3.0, 1e-9))
    gt_b = GroundTruth(split_b, zero, _measured_params(split_b, 4.0 / 3.0, 1e-9))
    return f, gt_a, gt_b


def mode_mixing_theta1(t: np.ndarray) -> np.ndarray:
    """Piecewise phase on [0, 6]: constant 10*pi frequency, a cubic ramp up to
    20*pi in the middle, constant 20*pi at the end; C^2 across the joins."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    m0 = t <= 2.0
    m1 = (t > 2.0) & (t <= 3.0)
    m2 = (t > 3.0) & (t <= 4.0)
    m3 = t > 4.0
    out[m0] = 10.0 * np.pi * t[m0]
    out[m1] = 20.0 * np.pi + 10.0 * np.pi * (t[m1] - 2.0) + (5.0 * np.pi / 3.0) * (t[m1] - 2.0) ** 3
    out[m2] = 50.0 * np.pi + 20.0 * np.pi * (t[m2] - 4.0) - (5.0 * np.pi / 3.0) * (t[m2] - 4.0) ** 3
    out[m3] = 50.0 * np.pi + 20.0 * np.pi * (t[m3] - 4.0)
    return out


def gen_mode_mixing_example(n: int):
    """Two well-separated modes on [0, 6] admitting a deceptive single-mode fit.

    The modes are ``(2+t)*cos(theta1)`` and ``(8-t)*cos(2*theta1)`` with d =
    M' = 2.  The returned spurious pair ``a = 5+|t-3|, theta = 20*pi*t``
    coincides with the second mode on [0, 2] and the first on [4, 6] and fits
    the signal better than either true mode alone.
    """
    if n < 4096:
        raise InvalidInputError("need n >= 4096 samples to resolve the carrier")
    t = np.linspace(0.0, 6.0, n)
    theta1 = mode_mixing_theta1(t)
    theta2 = 2.0 * theta1
    a1 = 2.0 + t
    a2 = 8.0 - t
    pairs = (PhasePair(0.0, 6.0, a1, theta1), PhasePair(0.0, 6.0, a2, theta2))
    f = SampledSignal(0.0, 6.0, a1 * np.cos(theta1) + a2 * np.cos(theta2))
    zero = SampledSignal(0.0, 6.0, np.zeros(n))
    gt = GroundTruth(pairs, zero, _measured_params(pairs, 2.0, 1e-9))
    spurious = PhasePair(0.0, 6.0, 5.0 + np.abs(t - 3.0), 20.0 * np.pi * t)
    return f, gt, spurious


def _random_trig_poly(rng: np.random.Generator, t: np.ndarray, degree: int = 3):
    """Zero-mean random trigonometric polynomial normalized to sup 1.

    Returns the values, the exact antiderivative values, sup|derivative| and
    sup|antiderivative|.
    """
    alphas = rng.uniform(-1.0, 1.0, degree)
    betas = rng.uniform(-1.0, 1.0, degree)
    vals = np.zeros_like(t)
    integ = np.zeros_like(t)
    deriv = np.zeros_like(t)
    for j in range(1, degree + 1):
        wj = 2.0 * np.pi * j
        a, b = alphas[j - 1], betas[j - 1]
        cos, sin = np.cos(wj * t), np.sin(wj * t)
        vals += a * cos + b * sin
        integ += (a * sin - b * cos) / wj
        deriv += wj * (-a * sin + b * cos)
    scale = float(np.max(np.abs(vals)))
    if scale < 1e-9:
        vals = np.cos(2.0 * np.pi * t)
        integ = np.sin(2.0 * np.pi * t) / (2.0 * np.pi)
        deriv = -2.0 * np.pi * np.sin(2.0 * np.pi * t)
        scale = 1.0
    sup_integ = float(np.max(np.abs(integ))) / scale
    return vals / scale, integ / scale, float(np.max(np.abs(deriv))) / scale, sup_integ


#: Caps on the per-component perturbations.  The frequency wobble is bounded
#: both in excursion and in phase-modulation depth (slow, gentle vibrato), so
#: components remain trackable by a narrow-band analysis window.
FREQ_PERTURB_CAP = 0.08
PHASE_MOD_DEPTH_CAP = 0.5
ENV_PERTURB_CAP = 0.35
SAMPLES_PER_CYCLE = 30


def gen_random_well_separated(m: int, d: float, eps_target: float, seed: int, n: int,
                              noise_amplitude: float = 0.0,
                              base_freq: int | None = None):
    """Random well-separated signal on [0, 1] with measured metrics <= eps_target.

    Envelopes are ``c_k (1 + rho_k p_k(t))`` with degree-3 trigonometric
    perturbations; frequencies ``2 pi f_k (1 + delta_k q_k(t))`` wobble with
    degree-2 perturbations capped in phase-modulation depth.  Every mode is
    exactly periodic over the span.  Carrier frequencies default to scaling
    like ``1/eps_target`` (override with ``base_freq``) and adjacent carriers
    keep a pointwise ratio of at least ``d``.  Deterministic per seed.
    """
    if m < 1:
        raise InvalidInputError("m must be >= 1")
    if not d > 1:
        raise InvalidInputError("d must exceed 1")
    if not 0 < eps_target < 0.2:
        raise InvalidInputError("eps_target must lie in (0, 0.2)")
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n)

    f_base = base_freq if base_freq is not None else max(8, int(np.ceil(0.55 / eps_target)))
    if f_base < 2:
        raise InvalidInputError("base_freq must be >= 2")

    carriers = [int(f_base)]
    shapes = []
    deltas = []
    for k in range(m):
        fk = carriers[-1]
        wk = 2.0 * np.pi * fk
        q, Q, q_deriv_sup, q_integ_sup = _random_trig_poly(rng, t, degree=2)
        delta_k = min(
            FREQ_PERTURB_CAP,
            0.5 * eps_target * wk / q_deriv_sup,
            PHASE_MOD_DEPTH_CAP / (wk * max(q_integ_sup, 1e-12)),
        )
        p, _, p_deriv_sup, _ = _random_trig_poly(rng, t, degree=3)
        c_k = rng.uniform(0.7, 1.6)
        rho_k = min(ENV_PERTURB_CAP, 0.5 * eps_target * wk * (1.0 - delta_k) / p_deriv_sup)
        phase0 = rng.uniform(0.0, 2.0 * np.pi)
        shapes.append((q, Q, p, c_k, rho_k, phase0))
        deltas.append(delta_k)
        if k + 1 < m:
            margin = (1.0 + delta_k) * (1.0 + FREQ_PERTURB_CAP) * 1.05
            carriers.append(int(np.ceil(fk * d * margin)))

    f_max = carriers[-1] * (1.0 + deltas[-1])
    n_required = int(np.ceil(SAMPLES_PER_CYCLE * f_max))
    if n < n_required:
        raise InvalidInputError(
            f"eps_target={eps_target} with m={m}, d={d} needs n >= {n_required}, got {n}")

    pairs = []
    for fk, delta_k, (q, Q, p, c_k, rho_k, phase0) in zip(carriers, deltas, shapes):
        wk = 2.0 * np.pi * fk
        theta = wk * (t + delta_k * Q) + phase0
        a = c_k * (1.0 + rho_k * p)
        pairs.append(PhasePair(0.0, 1.0, a, theta))

    clean = reconstruct(pairs)
    if noise_amplitude > 0:
        noise = noise_amplitude * rng.standard_normal(n)
    else:
        noise = np.zeros(n)
    residual = SampledSignal(0.0, 1.0, noise)
    f = SampledSignal(0.0, 1.0, clean.values + noise)
    eps0 = max(residual.norm(), 1e-9)
    gt = GroundTruth(tuple(pairs), residual, _measured_params(pairs, d, eps0))
    return f, gt
