"""Decay of the off-diagonal density-matrix element (dephasing).

The off-diagonal element evolves as

    rho01(t) = rho01(0) * exp(-i * integral_0^t eps(t') dt') * exp(-X(t)),

with the decay exponent X(t) = integral (domega/pi) S(omega) sin^2(omega t/2) / omega^2
taken over the full frequency line.  Two closed-form limits: white noise
gives X = s0*t/2 (exponential decay, 1/T2 = s0/2); a spectrum dominated by
frequencies below 1/t gives X = W^2 t^2 / 2 (Gaussian decay, 1/T_phi = W).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedules import LinearSchedule, as_schedule
from .spectral import (
    _HEAD_PERIODS,
    OhmicCutoff,
    SpectralModel,
    Tabulated,
    White,
    _cosine_integral,
    _mass_scale,
    _quad,
    _sine_contraction,
    _smooth_integral,
    _symmetric_part,
    _tabulated_nodes,
)

__all__ = ["DephasingResult", "dephasing_exponent", "offdiag_element", "dephasing_result"]


@dataclass(frozen=True)
class DephasingResult:
    """Envelope sample: |rho01(t)/rho01(0)| and the accumulated phase -int eps dt."""

    t: float
    magnitude_ratio: float
    phase: float

    def __post_init__(self):
        if not (-1e-12 <= self.magnitude_ratio <= 1.0 + 1e-12):
            raise ValueError("magnitude_ratio must lie in [0, 1]")


def _halfline_exponent(s_of, t: float, scale: float, upper: float) -> float:
    """integral_0^upper s_of(w) sin^2(w t / 2) / w^2 dw.

    Same head/tail strategy as the shift quadrature: the head uses the
    stable (sin(wt/2)/w)^2 form, the tail splits 2 sin^2 = 1 - cos into a
    smooth piece and a cosine-weighted piece (s_of(w)/w^2 is integrable
    away from zero).
    """
    b = min(upper, 40.0 * scale, _HEAD_PERIODS * 2.0 * math.pi / t)

    def head(w):
        s = math.sin(0.5 * w * t) / w
        return s_of(w) * s * s

    total = _quad(head, 0.0, b, epsabs=1e-13)
    if b < upper:
        tail_f = lambda w: s_of(w) / (w * w)
        total += 0.5 * _smooth_integral(tail_f, b, upper, 1e-13, scale)
        total -= 0.5 * _cosine_integral(tail_f, b, upper, t, 1e-13)
    return total


def dephasing_exponent(model: SpectralModel, t):
    """Positive decay exponent X(t); the envelope is exp(-X(t)).

    t may be a float (a float is returned) or an array of times (an array of
    the same shape is returned).  A tabulated model evaluates all times in
    one contraction on shared nodes; the other models loop the scalar path.
    """
    times = np.asarray(t, dtype=float)
    if np.any(times < 0):
        raise ValueError("dephasing_exponent requires t >= 0")
    if isinstance(model, Tabulated):
        values = _tabulated_exponent(model, times)
    else:
        values = np.array([_scalar_exponent(model, x) for x in times.ravel().tolist()])
    return float(values[0]) if times.ndim == 0 else values.reshape(times.shape)


def _scalar_exponent(model: SpectralModel, t: float) -> float:
    if t == 0.0:
        return 0.0
    if isinstance(model, White):
        return 0.5 * model.s0 * t
    if isinstance(model, OhmicCutoff):
        # full line folded onto [0, inf): integrand weight 2 S_s / pi
        val = _halfline_exponent(
            lambda w: _symmetric_part(model, w), t, _mass_scale(model), np.inf
        )
        return 2.0 * val / math.pi
    raise TypeError(f"unknown spectral model {type(model)!r}")


def _tabulated_exponent(model: Tabulated, times: np.ndarray) -> np.ndarray:
    # S = 0 outside the grid: both sides of the line fold onto [0, upper]
    # as S(w) + S(-w), with NaN (outside the interpolant) read as zero
    upper = float(max(model.omega[-1], -model.omega[0]))
    nodes, weights = _tabulated_nodes(model, upper, float(np.max(times, initial=0.0)))
    interp = model._interp
    density = np.nan_to_num(interp(nodes)) + np.nan_to_num(interp(-nodes))
    return _sine_contraction(times, nodes, weights * density / (math.pi * nodes * nodes))[0]


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


def dephasing_result(
    model: SpectralModel, eps_schedule: LinearSchedule | float, t: float
) -> DephasingResult:
    """Envelope magnitude ratio and accumulated phase at time t."""
    schedule = as_schedule(eps_schedule)
    exponent = dephasing_exponent(model, t)
    return DephasingResult(
        t=t, magnitude_ratio=math.exp(-exponent), phase=-schedule.integral(t)
    )
