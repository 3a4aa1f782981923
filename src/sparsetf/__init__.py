"""Sparse time-frequency decomposition of oscillatory signals.

Decomposes a signal into modes ``a_k(t) * cos(theta_k(t))`` with slowly
varying envelopes and frequencies via greedy nonlinear pursuit, and provides
executable checks of the scale-separation, transform-concentration,
coherence, and recovery properties that justify the method.
"""

__version__ = "0.1.0"

from .errors import InvalidInputError, NumericalFailureError
from .signal import (Decomposition, DictionaryParams, PhasePair, SampledSignal,
                     cumulative_integral, differentiate, inner_product, reconstruct)
from .wavelet import (BSplineWavelet, Scalogram, WaveletMoments, bspline5,
                      concentration_error, cwt, cwt_direct, default_scales,
                      make_wavelet, moments)
from .separation import (CrossTermResult, NormEquivalenceResult, OscillationBoundResult,
                         PairwiseSeparation, SeparationReport, check_scale_separation,
                         check_well_separated, coherence, verify_cross_term_bound,
                         verify_norm_equivalence, verify_oscillatory_cancellation)
from .ridge import (ComparisonReport, RidgeCurve, compare_decompositions,
                    extract_ridges, recover_components, ridges_ambiguous)
from .pursuit import (P2Result, PursuitConfig, matching_pursuit, p2_objective,
                      partition_domain, solve_p2)
from .synth import (GroundTruth, gen_crossing_example, gen_mode_mixing_example,
                    gen_random_well_separated)

__all__ = [
    "__version__",
    "InvalidInputError",
    "NumericalFailureError",
    "SampledSignal",
    "PhasePair",
    "DictionaryParams",
    "Decomposition",
    "differentiate",
    "cumulative_integral",
    "inner_product",
    "reconstruct",
    "BSplineWavelet",
    "Scalogram",
    "WaveletMoments",
    "bspline5",
    "make_wavelet",
    "moments",
    "cwt",
    "cwt_direct",
    "concentration_error",
    "default_scales",
    "SeparationReport",
    "PairwiseSeparation",
    "NormEquivalenceResult",
    "CrossTermResult",
    "OscillationBoundResult",
    "check_scale_separation",
    "check_well_separated",
    "coherence",
    "verify_norm_equivalence",
    "verify_cross_term_bound",
    "verify_oscillatory_cancellation",
    "RidgeCurve",
    "ComparisonReport",
    "extract_ridges",
    "ridges_ambiguous",
    "recover_components",
    "compare_decompositions",
    "PursuitConfig",
    "P2Result",
    "solve_p2",
    "p2_objective",
    "matching_pursuit",
    "partition_domain",
    "GroundTruth",
    "gen_crossing_example",
    "gen_mode_mixing_example",
    "gen_random_well_separated",
]
