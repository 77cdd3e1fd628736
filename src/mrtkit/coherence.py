"""Decay of the off-diagonal density-matrix element (dephasing).

The off-diagonal element evolves as

    rho01(t) = rho01(0) * exp(-i * integral_0^t eps(t') dt') * exp(-X(t)),

with the decay exponent X(t) = integral (domega/pi) S(omega) sin^2(omega t/2) / omega^2
taken over the full frequency line.  Two closed-form limits: white noise
gives X = s0*t/2 (exponential decay, 1/T2 = s0/2); a spectrum dominated by
frequencies below 1/t gives X = W^2 t^2 / 2 (Gaussian decay, 1/T_phi = W).
Each model computes its own X(t) (``SpectralModel.dephasing_exponent``); the
ohmic Matsubara sum lives in ``spectral`` beside the model.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RegimeError
from .schedules import LinearSchedule, as_schedule
from .spectral import SpectralModel

__all__ = ["dephasing_exponent", "offdiag_element"]


def dephasing_exponent(model: SpectralModel, t):
    """Positive decay exponent X(t); the envelope is exp(-X(t)).

    t may be a float (a float is returned) or an array of times (an array of
    the same shape is returned).  Every model evaluates all times at once:
    white noise in closed form, the ohmic cutoff as a Matsubara sum
    (``spectral._ohmic_exponent``), a tabulated model in one contraction on
    shared nodes.  A negative t, or a value below -1e-12 (an envelope above
    1) or NaN, raises RegimeError.
    """
    times = np.asarray(t, dtype=float)
    if np.any(times < 0):
        raise RegimeError("dephasing_exponent requires t >= 0")
    values = model.dephasing_exponent(times)
    # written so that NaN fails too
    if not np.all(values >= -1e-12):
        raise RegimeError("dephasing exponent X(t) must be nonnegative: exp(-X) leaves [0, 1]")
    return float(values) if times.ndim == 0 else values


def offdiag_element(
    rho01_0: complex,
    eps_schedule: LinearSchedule | float,
    model: SpectralModel,
    t: float,
) -> complex:
    """rho01(t) for an initial off-diagonal element rho01_0 and bias schedule."""
    if abs(rho01_0) > 0.5 + 1e-12:
        raise ValueError("|rho01(0)| <= 1/2 for a valid density matrix")
    schedule = as_schedule(eps_schedule)
    phase = schedule.integral(t)
    return rho01_0 * np.exp(-1j * phase) * math.exp(-dephasing_exponent(model, t))

