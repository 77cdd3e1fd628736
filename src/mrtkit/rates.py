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

import bisect
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import RegimeError, RegimeWarning
from .schedules import LinearSchedule, as_schedule

__all__ = [
    "TwoStateParams",
    "WellLevels",
    "peak_rate",
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


def _gamma_p(d, w):
    """sqrt(pi/8) d^2 / w, unchecked: it depends on d^2 alone, so a Delta ramp may cross zero."""
    return _SQRT_PI_OVER_8 * d * d / w


def peak_rate(delta: float, w_rms: float) -> float:
    """Gamma_p = sqrt(pi/8) Delta^2 / W."""
    if delta <= 0 or w_rms <= 0:
        raise ValueError("peak_rate requires delta > 0 and w_rms > 0")
    return _gamma_p(delta, w_rms)


def _shifted_gaussian(gp, w, eps, eps_p):
    """Gamma_p exp(-(eps - eps_p)^2 / 2W^2) for a float or an array of eps.

    The one copy of the line shape.  It is Gamma_-, peaking at eps = +eps_p;
    Gamma_+ is the same call with -eps_p.  The square is z * z, as NumPy
    squares an array: a float's z ** 2 goes to libm pow, which can round
    the other way, and a point would then differ from its value in a scan.
    """
    z = (eps - eps_p) / w
    return gp * np.exp(-0.5 * (z * z))


def _ramped_line(params: TwoStateParams, w, t, eps_p):
    """Lambda_-(t), the line at Delta(t) and eps(t) of the schedules, for a float or an array.

    Lambda_+ is the same call with -eps_p.  Gamma_p comes from ``_gamma_p``,
    not peak_rate: a Delta ramp may pass through zero.
    """
    return _shifted_gaussian(_gamma_p(params.delta_schedule.value(t), w), w,
                             params.eps_schedule.value(t), eps_p)


def faddeeva(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz) on the upper half plane.

    Accepts scalars or arrays; rejects Im(z) < 0 (the only regime the rate
    formulas need, since relaxation rates are nonnegative).  One vectorised
    NumPy evaluation in two regions of the quadrant x >= 0 (w(-conj z) =
    conj w(z) gives x < 0 exactly):

    - the strip y < 0.5, x < 10: w = e^{-z^2} + (2i/sqrt(pi)) F(z), with
      Dawson's F from Rybicki's sampling sum (``_w_near_axis``).  This keeps
      the e^{-x^2} part of Re w, which a truncated continued fraction drops
      and which dominates Re w there when y is small;
    - elsewhere, Algorithm 680 of Poppe & Wijers, ACM TOMS 16, 38 (1990):
      Gautschi's Taylor expansion about z + ih with continued-fraction
      derivatives inside an ellipse about the origin, and the Laplace
      continued fraction beyond (``_w_poppe_wijers``).  Its recurrences run
      in complex arithmetic on slices of the points sorted by level count,
      so a level costs a few NumPy operations on the points it updates.

    For |z| >= 1e8 it is the asymptotic i/(sqrt(pi) z), whose next term
    is 1/(2 z^2) <= 5e-17 relative, and 0 at infinity; a NaN input gives
    NaN.  On the real axis Re w is e^{-x^2} exactly.  Against 40-digit
    mpmath, |dw|/|w| <= 3e-15 on |x| <= 30, 1e-4 <= y <= 30, and Re w is
    within 3e-15 of itself on |x| <= 8, 1e-8 <= y <= 1e-2.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag < 0):
        raise ValueError("faddeeva is restricted to Im(z) >= 0")
    x = np.abs(z.real).ravel()
    y = z.imag.ravel()
    re = np.full_like(x, np.nan)
    im = np.full_like(x, np.nan)
    far = np.hypot(x, y) >= _ASYMPTOTIC_Z
    # z set part by part: 1j * inf would be nan + inf j, and w(inf) is 0
    far_z = x[far] + 0j
    far_z.imag = y[far]
    far_w = 1j / far_z / math.sqrt(math.pi)
    re[far], im[far] = far_w.real, far_w.imag
    strip = (y < _STRIP_Y) & (x < _STRIP_X)
    re[strip], im[strip] = _w_near_axis(x[strip], y[strip])
    rest = ~(strip | far | np.isnan(x) | np.isnan(y))
    re[rest], im[rest] = _w_poppe_wijers(x[rest], y[rest])
    axis = (y == 0.0) & ~far
    re[axis] = np.exp(-x[axis] ** 2)
    im = np.where(z.real.ravel() < 0.0, -im, im)
    result = (re + 1j * im).reshape(z.shape)
    return result if result.shape else complex(result)


_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
# faddeeva takes the asymptotic form from this |z| on, well before the
# continued fraction overflows near |z| ~ 1e154.
_ASYMPTOTIC_Z = 1e8
# Near-axis strip of faddeeva.  Beyond x = 10 the continued fraction drops
# e^{-x^2} < 4e-44, below 1e-21 of Re w ~ y/(sqrt(pi) x^2) for y > 1e-20.
_STRIP_Y = 0.5
_STRIP_X = 10.0
# Rybicki's sum: sample spacing h and the odd offsets m it keeps.  The
# sampling error is about e^{-(pi/2h)^2 + pi y/h} (< 1e-19 for y < 0.5);
# the dropped terms are below e^{-(33 h)^2 + y^2} < 1e-18.
_RYBICKI_H = 0.2
_RYBICKI_M = np.arange(-33.0, 34.0, 2.0)


def _w_near_axis(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Re w, Im w) = e^{-z^2} + (2i/sqrt(pi)) F(z) for z = x + iy near the axis.

    F(z) = lim_{h->0} pi^{-1/2} sum_{n odd} e^{-(z - nh)^2} / n (Rybicki,
    Computers in Physics 3, 85 (1989)), summed around the even multiple
    n0 h of h nearest to x.
    """
    n0 = 2.0 * np.rint(x / (2.0 * _RYBICKI_H))
    offset = ((x - n0 * _RYBICKI_H)[:, None] - _RYBICKI_H * _RYBICKI_M) + 1j * y[:, None]
    terms = np.exp(-offset * offset) / (_RYBICKI_M + n0[:, None])
    dawson = np.sum(terms, axis=1) / math.sqrt(math.pi)
    z = x + 1j * y
    w = np.exp(-z * z) + 1j * _TWO_OVER_SQRT_PI * dawson
    return w.real, w.imag


def _w_poppe_wijers(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Re w, Im w) for x, y >= 0 by Algorithm 680 (Poppe & Wijers, 1990).

    With q = (x/6.3)^2 + (y/4.4)^2: for q > 1 the Laplace continued
    fraction, nu terms; below, Gautschi's method: the fraction at z + ih
    gives the derivatives of w there, and kapn Taylor terms step back to z.
    Algorithm 680's power series for q < 0.085264 (off the strip, 0.5 <= y
    <= 1.285) is not used: it cancels near the imaginary axis, this does not.

    Both recurrences run in complex arithmetic: the fraction levels
    R <- 0.5/(U + (n+1) R) with U = (y + h) - ix, and the Taylor steps
    S <- R (lambda + S).  Each point runs its own nu + 1 levels and kapn + 1
    steps.  The Taylor points come first and the plain fraction points
    after them, each group sorted by level count, largest first, so the
    points a level or a step still updates are a leading slice of their
    group, not a mask over the whole array.
    """
    re = np.empty_like(x)
    im = np.empty_like(x)
    ys = y / 4.4
    q = (x / 6.3) ** 2 + ys * ys
    # s = 0 (q >= 1, or y = 4.4) is the plain continued fraction
    s = (1.0 - ys) * np.sqrt(np.maximum(1.0 - q, 0.0))
    taylor_pts = s > 0.0
    h = 1.88 * s
    kapn = np.where(taylor_pts, np.rint(7.0 + 34.0 * s), -1.0)
    nu = np.where(q > 1.0, np.trunc(3.0 + 1442.0 / (26.0 * np.sqrt(q) + 77.0)),
                  np.rint(16.0 + 26.0 * s))
    # Taylor points first, then by nu and by kapn, all downwards; kapn grows
    # with nu on the Taylor points.  The groups run apart because a plain
    # point next to q = 1 may have nu = 17 above a Taylor point's 16.  A
    # float key and bisect: NumPy's integer sorts and searchsorted would
    # map library code that no other step of a run touches (64-256 KB RSS).
    order = np.argsort(-(np.where(taylor_pts, 4096.0, 0.0) + 64.0 * nu + kapn), kind="stable")
    nu, kapn = nu[order], kapn[order]
    taylor_pts, h = taylor_pts[order], h[order]
    u = (y[order] + h) - 1j * x[order]
    h2 = np.where(taylor_pts, 2.0 * h, 1.0)
    qlambda = np.where(taylor_pts, h2 ** np.maximum(kapn, 0), 0.0)
    r = np.zeros(u.shape, dtype=complex)
    t = np.zeros_like(r)
    split = np.count_nonzero(taylor_pts)
    for lo, hi in ((0, split), (split, u.size)):
        if lo == hi:
            continue
        neg_nu, neg_kapn = (-nu[lo:hi]).tolist(), (-kapn[lo:hi]).tolist()
        for n in range(int(nu[lo]), -1, -1):
            # r[lo:k] still runs fraction level n, and t[lo:m] Taylor step n
            k = lo + bisect.bisect_right(neg_nu, -n)
            m = lo + bisect.bisect_right(neg_kapn, -n)
            r[lo:k] = 0.5 / (u[lo:k] + (n + 1) * r[lo:k])
            if m > lo:
                t[lo:m] = r[lo:m] * (qlambda[lo:m] + t[lo:m])
                qlambda[lo:m] /= h2[lo:m]
    w = _TWO_OVER_SQRT_PI * np.where(taylor_pts, t, r)
    re[order], im[order] = w.real, w.imag
    return re, im


def voigt_rate(delta_ij: float, w_rms: float, eps, eps_p: float, gamma_ij: float):
    """Gaussian-Lorentzian (Voigt) tunneling rate for one interwell channel.

    Gamma_ij(eps) = sqrt(pi/8) (Delta_ij^2/W) Re w((eps - eps_p + i gamma_ij)/(sqrt(2) W)),
    the Gamma_- sign convention (pass -eps_p for the opposite direction).
    gamma_ij = (gamma_i + gamma_j)/2 is computed by the caller from the
    participating levels.  gamma_ij = 0 falls back to the exact Gaussian.
    """
    if delta_ij <= 0:
        raise ValueError("delta_ij must be positive")
    if w_rms <= 0:
        raise ValueError("w_rms must be positive")
    if gamma_ij < 0:
        raise ValueError("gamma_ij must be nonnegative")
    eps = np.asarray(eps, dtype=float)
    amplitude = _gamma_p(delta_ij, w_rms)
    if gamma_ij == 0.0:
        out = _shifted_gaussian(amplitude, w_rms, eps, eps_p)
    else:
        z = (eps - eps_p + 1j * gamma_ij) / (math.sqrt(2.0) * w_rms)
        out = amplitude * np.asarray(faddeeva(z)).real
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
    width is that level's own relaxation rate; the occupation-weighted Voigt
    channels are summed.  normalized=False uses the raw Boltzmann factors
    e^{-E_n/T} (small-T approximation) instead of the normalized
    distribution.  With zero relaxation in every level the raw sum is one
    Gaussian of amplitude Delta_eff(T) (validation criterion 9).
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if w_rms <= 0:
        raise ValueError("w_rms must be positive")
    eps = np.asarray(eps, dtype=float)
    out = np.zeros_like(eps)
    weights = np.array([math.exp(-en / temperature) for en in levels.energies])
    if normalized:
        weights = weights / weights.sum()
    for weight, dn, gn in zip(weights, levels.deltas, levels.relax_rates):
        out = out + weight * np.asarray(voigt_rate(dn, w_rms, eps, eps_p, gn))
    return out if out.shape else float(out)
