"""Incoherent tunneling of a strongly coupled two-state system.

Noise-spectrum moments, dephasing envelopes, resonant-tunneling rate line
shapes, memory-kernel population dynamics, multi-channel double-well
tunneling, and the brute-force references that validate them.  Natural
units throughout (hbar = k_B = 1).
"""

import os

# read once as NumPy loads OpenBLAS: its idle workers sleep after 2^4 cycles, not spin 2^28
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .coherence import dephasing_exponent, offdiag_element
from .dynamics import (
    PeakSummary,
    Trajectory,
    evolve_local,
    evolve_nonlocal,
    nonlocal_corrected_scan,
    peak_summary,
    short_time_rho11,
)
from .errors import (
    ConfigError,
    IntegrationWarning,
    RegimeError,
    RegimeWarning,
)
from .oracle import (
    McConfig,
    StaticNoiseEstimate,
    convolution_reference,
    corrected_rates_reference,
    refined_local_reference,
    refined_nonlocal_reference,
    static_noise_transition,
)
from .rates import (
    TwoStateParams,
    WellLevels,
    crossover_temperature,
    effective_delta,
    faddeeva,
    multichannel_rate,
    peak_rate,
    voigt_rate,
)
from .schedules import LinearSchedule
from .spectral import OhmicCutoff, SpectralModel, Tabulated, White

__version__ = "0.1.0"
