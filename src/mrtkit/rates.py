"""Closed-form incoherent transition-rate line shapes.

The interwell rates of a strongly coupled two-state system are shifted
Gaussians of the bias,

    Gamma_-/+ (eps) = Gamma_p * exp(-(eps -/+ eps_p)^2 / 2 W^2),

with peak value Gamma_p = sqrt(pi/8) Delta^2 / W.  Gamma_- is the 0 -> 1
rate, which peaks at positive bias; with eps_p = W^2/2T the pair satisfies
the detailed-balance relation Gamma_-/Gamma_+ = exp(eps/T).  The classical
(static-noise) limit has eps_p = 0.  Tunneling involving excited well
levels acquires a Lorentzian component of width gamma_ij (the mean
intrawell relaxation rate), turning the line shape into a Voigt profile
evaluated through the Faddeeva function w(z).  Thermal occupation of
several levels adds channels, summarised by an effective tunneling
amplitude Delta_eff(T).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import RegimeError, RegimeWarning
from .schedules import LinearSchedule, as_schedule

__all__ = [
    "TwoStateParams",
    "WellLevels",
    "RateCurve",
    "peak_rate",
    "gaussian_rate",
    "classical_rate",
    "faddeeva",
    "voigt_rate",
    "effective_delta",
    "crossover_temperature",
    "multichannel_rate",
    "warn_weak_coupling",
]

_SQRT_PI_OVER_8 = math.sqrt(math.pi / 8.0)

# Below this ratio the perturbative (small Delta / strong noise) treatment
# degrades; operations warn but keep going so breakdown can be explored.
STRONG_COUPLING_RATIO = 10.0


@dataclass(frozen=True)
class TwoStateParams:
    """Tunneling amplitude Delta(t), bias eps(t), and temperature.

    delta and eps accept plain numbers (constant) or LinearSchedule ramps.
    """

    delta: float | LinearSchedule
    eps: float | LinearSchedule
    temperature: float

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.delta_schedule.initial <= 0:
            raise ValueError("tunneling amplitude delta must be positive")

    @property
    def delta_schedule(self) -> LinearSchedule:
        return as_schedule(self.delta)

    @property
    def eps_schedule(self) -> LinearSchedule:
        return as_schedule(self.eps)

    def coupling_ratio(self, w_rms: float) -> float:
        """W / Delta(0): the strong-coupling validity figure."""
        return w_rms / self.delta_schedule.initial


def warn_weak_coupling(delta: float, w_rms: float) -> bool:
    """Warn (never raise) when W/Delta drops below the validity threshold."""
    if w_rms / delta < STRONG_COUPLING_RATIO:
        warnings.warn(
            "W/Delta < 10, perturbative regime violated", RegimeWarning, stacklevel=2
        )
        return True
    return False


@dataclass(frozen=True)
class WellLevels:
    """Quantised levels of one well with their interwell tunneling partners.

    energies are relative to the ground level (E_0 = 0, strictly
    increasing); deltas are the tunneling amplitudes to the resonant
    partner levels; relax_rates are intrawell relaxation rates, zero for
    the ground level.
    """

    energies: tuple[float, ...]
    deltas: tuple[float, ...]
    relax_rates: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        object.__setattr__(self, "relax_rates", tuple(float(g) for g in self.relax_rates))
        n = len(self.energies)
        if n < 1 or len(self.deltas) != n or len(self.relax_rates) != n:
            raise ValueError("energies, deltas, relax_rates must share one length >= 1")
        if self.energies[0] != 0.0:
            raise ValueError("level energies are measured from the ground level: E_0 = 0")
        if any(b <= a for a, b in zip(self.energies, self.energies[1:])):
            raise ValueError("level energies must be strictly increasing")
        if any(d <= 0 for d in self.deltas):
            raise ValueError("tunneling amplitudes must be positive")
        if self.relax_rates[0] != 0.0:
            raise ValueError("the ground level has zero intrawell relaxation")
        if any(g < 0 for g in self.relax_rates):
            raise ValueError("relaxation rates must be nonnegative")

    @property
    def plasma_frequency(self) -> float:
        if len(self.energies) < 2:
            raise ValueError("plasma frequency needs at least two levels")
        return self.energies[1] - self.energies[0]


@dataclass(frozen=True, eq=False)
class RateCurve:
    """Gamma_-/+ sampled on a bias grid, tagged with the line-shape family."""

    bias: np.ndarray
    gamma_minus: np.ndarray
    gamma_plus: np.ndarray
    shape: str

    def __post_init__(self):
        bias = np.asarray(self.bias, dtype=float)
        gm = np.asarray(self.gamma_minus, dtype=float)
        gp = np.asarray(self.gamma_plus, dtype=float)
        if np.any(np.diff(bias) <= 0):
            raise ValueError("bias grid must be strictly increasing")
        if gm.shape != bias.shape or gp.shape != bias.shape:
            raise ValueError("rate arrays must match the bias grid")
        if np.any(gm < 0) or np.any(gp < 0):
            raise ValueError("rates must be nonnegative")
        if self.shape not in ("gaussian", "classical", "voigt", "nonlocal-corrected"):
            raise ValueError(f"unknown line-shape tag {self.shape!r}")
        object.__setattr__(self, "bias", bias)
        object.__setattr__(self, "gamma_minus", gm)
        object.__setattr__(self, "gamma_plus", gp)


def peak_rate(delta: float, w_rms: float) -> float:
    """Gamma_p = sqrt(pi/8) Delta^2 / W."""
    if delta <= 0 or w_rms <= 0:
        raise ValueError("peak_rate requires delta > 0 and w_rms > 0")
    return _SQRT_PI_OVER_8 * delta * delta / w_rms

def gaussian_rate(
    params: TwoStateParams,
    w_rms: float,
    eps_p: float,
    direction: int,
    t: float = 0.0,
):
    """Shifted-Gaussian rate Gamma_dir(eps) = Gamma_p exp(-(eps + dir*eps_p)^2/2W^2).

    direction -1 is the 0 -> 1 rate Gamma_- (peaks at eps = +eps_p);
    direction +1 is Gamma_+.  With eps_p = W^2/2T the pair satisfies
    detailed balance.  t evaluates time-dependent schedules.
    """
    if w_rms <= 0:
        raise ValueError("w_rms must be positive")
    if direction not in (-1, 1):
        raise ValueError("direction must be -1 or +1")
    delta = params.delta_schedule.value(t)
    eps = params.eps_schedule.value(t)
    gp = peak_rate(delta, w_rms)
    arg = (eps + direction * eps_p) / w_rms
    return gp * math.exp(-0.5 * arg * arg)


def classical_rate(params: TwoStateParams, w_rms: float, t: float = 0.0):
    """Static-noise limit: Gamma_- = Gamma_+ = Gamma_p exp(-eps^2/2W^2)."""
    return gaussian_rate(params, w_rms, 0.0, -1, t)


def faddeeva(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz) on the upper half plane.

    Accepts scalars or arrays; rejects Im(z) < 0 (the only regime the rate
    formulas need, since relaxation rates are nonnegative).
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag < 0):
        raise ValueError("faddeeva is restricted to Im(z) >= 0")
    from scipy.special import wofz

    result = wofz(z)
    return result if result.shape else complex(result)


def voigt_rate(delta_ij: float, w_rms: float, eps, eps_p: float, gamma_ij: float):
    """Gaussian-Lorentzian (Voigt) tunneling rate for one interwell channel.

    Gamma_ij(eps) = sqrt(pi/8) (Delta_ij^2/W) Re w((eps - eps_p + i gamma_ij)/(sqrt(2) W)),
    the Gamma_- sign convention (pass -eps_p for the opposite direction).
    gamma_ij = (gamma_i + gamma_j)/2 is computed by the caller from the
    participating levels.  gamma_ij = 0 falls back to the exact Gaussian.
    """
    if w_rms <= 0:
        raise ValueError("w_rms must be positive")
    if gamma_ij < 0:
        raise ValueError("gamma_ij must be nonnegative")
    eps = np.asarray(eps, dtype=float)
    amplitude = _SQRT_PI_OVER_8 * delta_ij * delta_ij / w_rms
    if gamma_ij == 0.0:
        out = amplitude * np.exp(-0.5 * ((eps - eps_p) / w_rms) ** 2)
    else:
        from scipy.special import wofz

        z = (eps - eps_p + 1j * gamma_ij) / (math.sqrt(2.0) * w_rms)
        out = amplitude * wofz(z).real
    return out if out.shape else float(out)


def effective_delta(levels: WellLevels, temperature: float) -> float:
    """Thermally averaged tunneling amplitude.

    Delta_eff = Delta_0 sqrt(1 + sum_{n>=1} (Delta_n/Delta_0)^2 e^{-E_n/T}).
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    d0 = levels.deltas[0]
    excited = sum(
        (dn / d0) ** 2 * math.exp(-en / temperature)
        for en, dn in zip(levels.energies[1:], levels.deltas[1:])
    )
    return d0 * math.sqrt(1.0 + excited)


def crossover_temperature(levels: WellLevels) -> float:
    """Temperature where the first excited channel rivals the ground channel.

    T_co = omega_p / (2 ln(Delta_1/Delta_0)); requires Delta_1 > Delta_0.
    """
    if len(levels.deltas) < 2:
        raise RegimeError("no excited channel: need at least two levels")
    d0, d1 = levels.deltas[0], levels.deltas[1]
    if d1 <= d0:
        raise RegimeError(
            "no crossover: first excited tunneling amplitude must exceed the ground one"
        )
    return levels.plasma_frequency / (2.0 * math.log(d1 / d0))


def _boltzmann_weights(levels: WellLevels, temperature: float, normalized: bool):
    raw = np.array([math.exp(-en / temperature) for en in levels.energies])
    return raw / raw.sum() if normalized else raw


def multichannel_rate(
    levels: WellLevels,
    temperature: float,
    w_rms: float,
    eps,
    eps_p: float,
    normalized: bool = True,
):
    """Total interwell rate summed over thermally occupied channels.

    Channel n connects the n-th levels of the two wells, so its Lorentzian
    width is that level's own relaxation rate.  When every channel has zero
    relaxation the sum collapses to a single Gaussian with amplitude
    Delta_eff(T); otherwise the occupation-weighted Voigt channels are
    summed.  normalized=False uses the raw Boltzmann factors e^{-E_n/T}
    (small-T approximation) instead of the normalized distribution.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if w_rms <= 0:
        raise ValueError("w_rms must be positive")
    eps = np.asarray(eps, dtype=float)
    weights = _boltzmann_weights(levels, temperature, normalized)
    if all(g == 0.0 for g in levels.relax_rates):
        deff = effective_delta(levels, temperature)
        scale = 1.0 / np.sum(_boltzmann_weights(levels, temperature, False)) if normalized else 1.0
        out = (
            scale
            * _SQRT_PI_OVER_8
            * deff
            * deff
            / w_rms
            * np.exp(-0.5 * ((eps - eps_p) / w_rms) ** 2)
        )
    else:
        out = np.zeros_like(eps, dtype=float)
        for weight, dn, gn in zip(weights, levels.deltas, levels.relax_rates):
            out = out + weight * np.asarray(voigt_rate(dn, w_rms, eps, eps_p, gn))
    return out if out.shape else float(out)
