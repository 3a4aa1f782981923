"""Sparse time-frequency decomposition of oscillatory signals.

Decomposes a signal into modes ``a_k(t) * cos(theta_k(t))`` with slowly
varying envelopes and frequencies via greedy nonlinear pursuit, and provides
executable checks of the scale-separation, norm-equivalence, cross-term,
transform-concentration and recovery properties that justify the method.
"""

__version__ = "0.1.0"

# NumPy loads numpy.fft on first use; loading it here keeps that cost out of a
# process's first transform, pursuit or probe
import numpy.fft  # noqa: F401

from . import errors, pursuit, ridge, separation, signal, synth, wavelet
from .errors import *
from .signal import *
from .wavelet import *
from .separation import *
from .ridge import *
from .pursuit import *
from .synth import *

__all__ = ["__version__", *errors.__all__, *signal.__all__, *wavelet.__all__,
           *separation.__all__, *ridge.__all__, *pursuit.__all__, *synth.__all__]
