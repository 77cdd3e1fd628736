"""Noise spectral densities and their frequency moments.

A spectral density S(omega) fully characterises the Gaussian environmental
noise seen by the two-state system.  Three families are supported:

* ``White`` -- flat spectrum S(omega) = s0, used only for dephasing;
* ``OhmicCutoff`` -- S(omega) = 2*eta*omega / (1 + (omega/omega_c)^2)^2
  * 1/(1 - exp(-omega/T)), an ohmic spectrum with a soft cutoff and the
  quantum (detailed-balance) occupation factor;
* ``Tabulated`` -- monotone piecewise-cubic interpolation of sampled data,
  zero outside the grid.

Derived moments: the r.m.s. noise W = sqrt(integral S(omega) domega / 2pi),
the zero-frequency resonance shift eps_p0 = integral (domega/2pi) S(omega)/omega
(full line, equilibrium reflection S(-w) = e^{-w/T} S(w) implied), and the
time-dependent shift eps_p(t) = eps_p0 - integral (domega/2pi) (S/omega) cos(omega t).
Everything is expressed in natural units (hbar = k_B = 1).

All model objects are immutable and every operation is a pure function, so
concurrent use needs no synchronisation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, DivergentMomentError

__all__ = [
    "White",
    "OhmicCutoff",
    "Tabulated",
    "SpectralModel",
    "NoiseMoments",
    "eval_spectral_density",
    "symmetric_antisymmetric",
    "noise_rms",
    "reorganization_shift",
    "shift_function",
    "shift_function_derivative",
    "noise_moments",
]

_EPSREL = 1e-11
# Head interval of an oscillatory integral is limited to a few cosine
# periods so plain adaptive quadrature never sees unresolved oscillation.
_HEAD_PERIODS = 3
# Multiples of the model's frequency scale that contain the integrand mass.
_MASS_SPAN = 40.0


@dataclass(frozen=True)
class White:
    """Flat spectrum S(omega) = s0 for all omega.

    Carries no finite frequency moments; only the dephasing operations
    accept it.  ``temperature`` is kept for interface uniformity but the
    flat spectrum is a classical (infinite-temperature) noise source.
    """

    s0: float
    temperature: float | None = None

    def __post_init__(self):
        if self.s0 < 0:
            raise ValueError("spectral weight s0 must be nonnegative")


@dataclass(frozen=True)
class OhmicCutoff:
    """Ohmic spectrum with soft cutoff and thermal occupation factor."""

    eta: float
    omega_c: float
    temperature: float

    def __post_init__(self):
        if self.eta <= 0 or self.omega_c <= 0 or self.temperature <= 0:
            raise ValueError("OhmicCutoff requires eta > 0, omega_c > 0, T > 0")


class _Pchip:
    """Monotone piecewise-cubic Hermite interpolant; NaN outside the grid.

    Fritsch & Butland (SIAM J. Sci. Stat. Comput. 5, 300, 1984) interior
    slopes -- zero at a sign change or a flat side, else the weighted
    harmonic mean of the adjacent secants -- with one-sided three-point end
    slopes clamped to preserve shape (Moler, Numerical Computing with
    MATLAB, 3.6).  These are the rules of ``scipy.interpolate.
    PchipInterpolator``.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        h = np.diff(x)
        m = np.diff(y) / h
        d = np.zeros_like(y)
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        keep = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0) & (m[:-1] != 0.0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1][keep] = 1.0 / whmean[keep]
        d[0] = self._end_slope(h[0], h[1], m[0], m[1])
        d[-1] = self._end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self.x = x
        # power-basis coefficients in s = x - x_i, highest degree first
        self.c = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))
        # whole-grid integral; each Hermite cubic integrates exactly to
        # h (y0 + y1)/2 + h^2 (d0 - d1)/12
        pieces = h * 0.5 * (y[:-1] + y[1:]) + h * h * (d[:-1] - d[1:]) / 12.0
        self.integral = float(np.sum(pieces))

    @staticmethod
    def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
        d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    def __call__(self, w):
        w = np.asarray(w, dtype=float)
        x, c = self.x, self.c
        inside = (w >= x[0]) & (w <= x[-1])
        w = np.where(inside, w, x[0])
        # interval i with x[i] <= w < x[i+1]: np.interp on the knot index
        # searches with a locality guess (fast on sorted nodes); its fraction
        # can round up to the next integer, which the last step undoes
        i = np.interp(w, x, np.arange(x.size, dtype=float)).astype(np.intp)
        i = np.minimum(i, x.size - 2)
        i = i - (np.take(x, i) > w)
        s = w - np.take(x, i)
        # Horner, in place: ((c0 s + c1) s + c2) s + c3
        value = np.take(c[0], i) * s
        for row in c[1:3]:
            value += np.take(row, i)
            value *= s
        value += np.take(c[3], i)
        return np.where(inside, value, np.nan)


@dataclass(frozen=True, eq=False)
class Tabulated:
    """Spectrum interpolated from samples; S = 0 outside the grid.

    The grid must be strictly increasing with at least 4 points.  PCHIP
    interpolation stays within the local data range, so nonnegative data
    cannot produce a negative interpolant.
    """

    omega: np.ndarray
    values: np.ndarray
    temperature: float | None = None

    def __post_init__(self):
        # contiguous: the interpolant searches omega on every call, and a
        # strided column (as from_csv yields) would be copied each time
        omega = np.ascontiguousarray(self.omega, dtype=float)
        values = np.ascontiguousarray(self.values, dtype=float)
        if omega.ndim != 1 or omega.size < 4:
            raise ValueError("tabulated spectrum needs at least 4 grid points")
        if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(values))):
            raise ValueError("tabulated omega and S(omega) must be finite")
        if np.any(np.diff(omega) <= 0):
            raise ValueError("tabulated omega grid must be strictly increasing")
        if values.shape != omega.shape:
            raise ValueError("omega and values must have matching shapes")
        if np.any(values < 0):
            raise ValueError("tabulated S(omega) must be nonnegative")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_interp", _Pchip(omega, values))

    @classmethod
    def from_csv(cls, path, temperature: float | None = None) -> "Tabulated":
        """Load a two-column CSV with header ``omega,S``, rows sorted ascending."""
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            rows = [row for row in reader if row and not row[0].lstrip().startswith("#")]
        if not rows or [c.strip() for c in rows[0][:2]] != ["omega", "S"]:
            raise ValueError(f"{path}: expected header 'omega,S'")
        if any(len(r) < 2 for r in rows[1:]):
            raise ValueError(f"{path}: every data row needs two columns")
        data = np.array([[float(r[0]), float(r[1])] for r in rows[1:]], dtype=float)
        if data.size == 0:
            raise ValueError(f"{path}: no data rows")
        return cls(data[:, 0], data[:, 1], temperature)

    @property
    def two_sided(self) -> bool:
        return self.omega[0] < 0.0


SpectralModel = White | OhmicCutoff | Tabulated


@dataclass(frozen=True)
class NoiseMoments:
    """Scalar moments of a spectral model.

    w_rms : r.m.s. noise amplitude (energy-level broadening, 1/T_phi).
    eps_p0 : zero-frequency (long-time) resonance shift.
    tau_r : environment response-time estimate.
    """

    w_rms: float
    eps_p0: float
    tau_r: float

    def __post_init__(self):
        if not (self.w_rms > 0 and self.tau_r > 0):
            raise ValueError("noise moments require w_rms > 0 and tau_r > 0")
        if self.eps_p0 < 0:
            raise ValueError("eps_p0 must be nonnegative for equilibrium models")


# ---------------------------------------------------------------------------
# spectral density evaluation


def _ohmic_density(model: OhmicCutoff, omega: float) -> float:
    if omega == 0.0:
        # limit of 2*eta*omega / (1 - exp(-omega/T))
        return 2.0 * model.eta * model.temperature
    lorentz = (1.0 + (omega / model.omega_c) ** 2) ** 2
    occupation_denom = -math.expm1(-omega / model.temperature)
    return 2.0 * model.eta * (omega / occupation_denom) / lorentz


def eval_spectral_density(model: SpectralModel, omega: float) -> float:
    """Evaluate S(omega).  Tabulated models reject omega outside the grid."""
    if isinstance(model, White):
        return model.s0
    if isinstance(model, OhmicCutoff):
        return _ohmic_density(model, float(omega))
    if isinstance(model, Tabulated):
        if omega < model.omega[0] or omega > model.omega[-1]:
            raise ValueError(
                f"omega = {omega} outside tabulated range "
                f"[{model.omega[0]}, {model.omega[-1]}]"
            )
        return float(model._interp(omega))
    raise TypeError(f"unknown spectral model {type(model)!r}")


def symmetric_antisymmetric(model: SpectralModel, omega: float) -> tuple[float, float]:
    """Split S into its even and odd frequency parts at omega >= 0.

    Returns (S_s, S_a) with S_s = (S(w) + S(-w))/2 and S_a = (S(w) - S(-w))/2.
    For an equilibrium model S_s = S_a * coth(w/2T).
    """
    if omega < 0:
        raise ValueError("decomposition is defined for omega >= 0")
    if isinstance(model, White):
        return model.s0, 0.0
    if isinstance(model, Tabulated) and not model.two_sided:
        raise DecompositionError(
            "tabulated model has no negative-frequency data; "
            "cannot form the symmetric/antisymmetric decomposition"
        )
    plus = eval_spectral_density(model, omega)
    minus = eval_spectral_density(model, -omega)
    return 0.5 * (plus + minus), 0.5 * (plus - minus)


# Internal decomposition helpers used by the quadrature paths.  For the
# ohmic model these are the exact algebraic forms, free of the cancellation
# that (S(w) - S(-w))/2 suffers at omega/T -> 0.


def _antisymmetric_part(model: SpectralModel, omega: float) -> float:
    if isinstance(model, OhmicCutoff):
        return model.eta * omega / (1.0 + (omega / model.omega_c) ** 2) ** 2
    if isinstance(model, Tabulated):
        return 0.5 * (
            eval_spectral_density(model, omega) - eval_spectral_density(model, -omega)
        )
    raise DivergentMomentError("model has no antisymmetric part")


def _symmetric_part(model: SpectralModel, omega: float) -> float:
    if isinstance(model, OhmicCutoff):
        if omega == 0.0:
            return 2.0 * model.eta * model.temperature
        # omega * coth(omega/2T) written as omega / tanh(omega/2T)
        occ = omega / math.tanh(0.5 * omega / model.temperature)
        return model.eta * occ / (1.0 + (omega / model.omega_c) ** 2) ** 2
    if isinstance(model, Tabulated):
        return 0.5 * (
            eval_spectral_density(model, omega) + eval_spectral_density(model, -omega)
        )
    raise DivergentMomentError("model has no integrable symmetric part")


def _mass_scale(model: SpectralModel) -> float:
    """Frequency scale beyond which the integrand mass has decayed."""
    if isinstance(model, OhmicCutoff):
        return max(model.omega_c, model.temperature)
    if isinstance(model, Tabulated):
        return max(abs(model.omega[0]), abs(model.omega[-1]))
    raise DivergentMomentError("flat spectrum has no frequency scale")


def _positive_overlap(model: Tabulated) -> float:
    """Largest frequency where both +w and -w lie inside the grid."""
    if not model.two_sided:
        raise DecompositionError(
            "tabulated model has no negative-frequency data; "
            "frequency moments need a two-sided grid"
        )
    return min(model.omega[-1], -model.omega[0])


# ---------------------------------------------------------------------------
# quadrature helpers


def _quad(f, a, b, epsabs, points=None, limit=400):
    from scipy.integrate import quad

    val, _ = quad(f, a, b, epsabs=epsabs, epsrel=_EPSREL, limit=limit, points=points)
    return val


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _piecewise_gauss(f, a, b, knots):
    """Gauss-Legendre panel quadrature aligned to interpolation knots.

    The adaptive rules cannot certify tight tolerances across the curvature
    jumps of a piecewise-cubic interpolant; panel-aligned fixed rules are
    effectively exact there.  f must accept arrays.  It may return a stack
    of integrands on the same nodes (extra leading axes); the result then
    has that leading shape.
    """
    edges = np.concatenate(([a], np.asarray(knots, dtype=float), [b]))
    edges = np.unique(edges[(edges >= a) & (edges <= b)])
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    values = f(nodes.ravel())
    values = values.reshape(values.shape[:-1] + nodes.shape)
    total = np.sum(half * (values @ _GL_WEIGHTS), axis=-1)
    return float(total) if total.ndim == 0 else total


def _oscillation_edges(a: float, b: float, t: float) -> np.ndarray:
    """Half-period breakpoints of cos(w t) on [a, b]; keeps panels sub-oscillatory."""
    if t <= 0.0:
        return np.empty(0)
    half_period = math.pi / t
    count = int((b - a) / half_period)
    if count > 200_000:
        raise ValueError(
            "oscillatory tabulated integral too fine to resolve "
            f"({count} half-periods on the grid span)"
        )
    return a + half_period * np.arange(1, count + 1)


def _tabulated_panel_edges(model: "Tabulated", upper: float, t: float = 0.0) -> np.ndarray:
    pos = model.omega[(model.omega > 0.0) & (model.omega < upper)]
    neg = -model.omega[(model.omega < 0.0) & (model.omega > -upper)]
    return np.concatenate((pos, neg, _oscillation_edges(0.0, upper, t)))


def _smooth_integral(f, a, b, epsabs, scale, points=()):
    """Integral of a nonoscillatory f with features on `scale`; b may be inf."""
    if b == np.inf:
        cut = a + 2.0 * _MASS_SPAN * scale
        pts = sorted(p for p in points if a < p < cut) or None
        head = _quad(f, a, cut, 0.5 * epsabs, points=pts)
        from scipy.integrate import quad

        tail, _ = quad(f, cut, np.inf, epsabs=0.5 * epsabs, epsrel=_EPSREL, limit=200)
        return head + tail
    pts = sorted(p for p in points if a < p < b) or None
    return _quad(f, a, b, epsabs, points=pts)


def _cosine_integral(f, a, b, t, epsabs):
    """integral_a^b f(w) cos(w t) dw via the oscillation-aware QUADPACK rules."""
    from scipy.integrate import quad

    if b == np.inf:
        val, _ = quad(
            f, a, np.inf, weight="cos", wvar=t, epsabs=epsabs, limlst=300, limit=300
        )
        return val
    val, _ = quad(
        f, a, b, weight="cos", wvar=t, epsabs=epsabs, epsrel=_EPSREL, limit=400
    )
    return val


def _one_minus_cos_integral(f, t, scale, upper, epsabs, points=()):
    """integral_0^upper f(w) (1 - cos(w t)) dw for f bounded at w = 0.

    The head interval (at most a few oscillation periods, capped at the
    integrand's mass span) uses the cancellation-free form 2 sin^2(wt/2);
    the remainder is split into a smooth part and a cosine-weighted part.
    """
    if t == 0.0:
        return 0.0
    b = min(upper, _MASS_SPAN * scale, _HEAD_PERIODS * 2.0 * math.pi / t)

    def head(w):
        s = math.sin(0.5 * w * t)
        return f(w) * 2.0 * s * s

    pts = sorted(p for p in points if 0.0 < p < b) or None
    total = _quad(head, 0.0, b, epsabs / 3.0, points=pts)
    if b < upper:
        total += _smooth_integral(f, b, upper, epsabs / 3.0, scale, points=points)
        total -= _cosine_integral(f, b, upper, t, epsabs / 3.0)
    return total


# ---------------------------------------------------------------------------
# moments


def noise_rms(model: SpectralModel) -> float:
    """W = sqrt(integral_{-inf}^{inf} S(omega) domega / 2pi).

    Raises DivergentMomentError for the flat spectrum.
    """
    if isinstance(model, White):
        raise DivergentMomentError("flat spectrum: integral of S(omega) diverges")
    if isinstance(model, OhmicCutoff):
        scale = _mass_scale(model)
        pts = (min(model.omega_c, model.temperature), model.omega_c, model.temperature)
        w2 = _smooth_integral(
            lambda w: _symmetric_part(model, w),
            0.0,
            np.inf,
            epsabs=1e-13,
            scale=scale,
            points=pts,
        ) / math.pi
        return math.sqrt(w2)
    if isinstance(model, Tabulated):
        w2 = model._interp.integral / (2.0 * math.pi)
        if w2 <= 0:
            raise ValueError("tabulated spectrum integrates to zero")
        return math.sqrt(w2)
    raise TypeError(f"unknown spectral model {type(model)!r}")


def _assert_shift_integrand_finite(model: Tabulated, upper: float) -> None:
    # Limit-sample S_a(w)/w toward w -> 0; geometric growth means a pole.
    probes = [upper * 1e-4, upper * 1e-5, upper * 1e-6]
    vals = [abs(_antisymmetric_part(model, w)) / w for w in probes]
    if vals[-1] > 4.0 * (vals[0] + 1e-300):
        raise DivergentMomentError(
            "S_a(omega)/omega grows toward omega = 0; shift moment diverges"
        )


def reorganization_shift(model: SpectralModel) -> float:
    """Long-time resonance shift eps_p0.

    Equals integral_0^inf (domega/pi) S_a(omega)/omega; for the ohmic-cutoff
    model this is exactly eta * omega_c / 4.
    """
    if isinstance(model, White):
        raise DivergentMomentError("flat spectrum has no antisymmetric part")
    if isinstance(model, OhmicCutoff):
        return 0.25 * model.eta * model.omega_c
    if isinstance(model, Tabulated):
        upper = _positive_overlap(model)
        _assert_shift_integrand_finite(model, upper)
        interp = model._interp

        def integrand(w):
            return 0.5 * (interp(w) - interp(-w)) / w

        val = _piecewise_gauss(integrand, 0.0, upper, _tabulated_panel_edges(model, upper))
        return val / math.pi
    raise TypeError(f"unknown spectral model {type(model)!r}")


def _ohmic_shift_closed(model: OhmicCutoff, t: float) -> float:
    x = model.omega_c * t
    eps_p0 = 0.25 * model.eta * model.omega_c
    if x < 1e-3:
        # series of 1 - e^{-x}(1 + x); avoids cancellation at small x
        return eps_p0 * (0.5 * x * x - x**3 / 3.0 + x**4 / 8.0)
    return eps_p0 * (1.0 - math.exp(-x) * (1.0 + x))


def shift_function(model: SpectralModel, t: float, method: str = "auto") -> float:
    """Time-dependent resonance shift eps_p(t) >= 0, with eps_p(0) = 0.

    eps_p(t) = integral_0^inf (domega/pi) (S_a(omega)/omega)(1 - cos(omega t)).
    The ohmic-cutoff model has the closed form
    eps_p0 * (1 - e^{-omega_c t} (1 + omega_c t)), used unless
    method="quadrature" forces the numerical path.
    """
    if t < 0:
        raise ValueError("shift_function requires t >= 0")
    if method not in ("auto", "closed", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if isinstance(model, White):
        raise DivergentMomentError("flat spectrum has no antisymmetric part")
    if isinstance(model, OhmicCutoff) and method != "quadrature":
        return _ohmic_shift_closed(model, t)
    if isinstance(model, OhmicCutoff):
        eps_p0 = 0.25 * model.eta * model.omega_c
        val = _one_minus_cos_integral(
            lambda w: _antisymmetric_part(model, w) / w,
            t,
            scale=model.omega_c,
            upper=np.inf,
            epsabs=1e-10 * max(1.0, eps_p0),
            points=(model.omega_c,),
        )
        return val / math.pi
    if isinstance(model, Tabulated):
        if method == "closed":
            raise ValueError("tabulated models have no closed-form shift")
        if t == 0.0:
            return 0.0
        upper = _positive_overlap(model)
        _assert_shift_integrand_finite(model, upper)
        return float(_tabulated_shift_pair(model, upper, t)[0])
    raise TypeError(f"unknown spectral model {type(model)!r}")


def shift_function_derivative(model: SpectralModel, t: float) -> float:
    """d eps_p / dt = integral_0^inf (domega/pi) S_a(omega) sin(omega t)."""
    if t < 0:
        raise ValueError("shift_function_derivative requires t >= 0")
    if isinstance(model, White):
        raise DivergentMomentError("flat spectrum has no antisymmetric part")
    if isinstance(model, OhmicCutoff):
        x = model.omega_c * t
        eps_p0 = 0.25 * model.eta * model.omega_c
        return eps_p0 * model.omega_c * x * math.exp(-x)
    if isinstance(model, Tabulated):
        if t == 0.0:
            return 0.0
        return float(_tabulated_shift_pair(model, _positive_overlap(model), t)[1])
    raise TypeError(f"unknown spectral model {type(model)!r}")


def _tabulated_shift_pair(model: Tabulated, upper: float, t: float) -> np.ndarray:
    """(eps_p(t), d eps_p/dt) for t > 0 from one evaluation of S_a on shared nodes."""
    interp = model._interp

    def integrands(w):
        s_a = 0.5 * (interp(w) - interp(-w))
        s = np.sin(0.5 * w * t)
        return np.stack((s_a / w * 2.0 * s * s, s_a * np.sin(w * t)))

    edges = _tabulated_panel_edges(model, upper, t)
    return _piecewise_gauss(integrands, 0.0, upper, edges) / math.pi


def _shift_arrays(model: SpectralModel, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (eps_p(tau), d eps_p/dtau) on a time grid."""
    if isinstance(model, OhmicCutoff):
        x = model.omega_c * np.asarray(taus, dtype=float)
        eps_p0 = 0.25 * model.eta * model.omega_c
        decay = np.exp(-x)
        small = x < 1e-3
        shift = np.where(
            small,
            eps_p0 * (0.5 * x * x - x**3 / 3.0 + x**4 / 8.0),
            eps_p0 * (1.0 - decay * (1.0 + x)),
        )
        rate = eps_p0 * model.omega_c * x * decay
        return shift, rate
    if not isinstance(model, Tabulated):
        raise DivergentMomentError("model has no antisymmetric part")
    taus = np.asarray(taus, dtype=float)
    if np.any(taus < 0):
        raise ValueError("shift arrays require tau >= 0")
    upper = _positive_overlap(model)
    _assert_shift_integrand_finite(model, upper)
    pairs = np.zeros((2, taus.size))
    for i, t in enumerate(taus.tolist()):
        if t > 0.0:
            pairs[:, i] = _tabulated_shift_pair(model, upper, t)
    return pairs[0], pairs[1]


def _tabulated_tau_r(model: Tabulated) -> float:
    upper = _positive_overlap(model)
    grid = np.linspace(0.0, upper, 8193)[1:]
    interp = model._interp
    g = 0.5 * (interp(grid) - interp(-grid)) / grid
    cumulative = np.concatenate(([0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(grid))))
    total = cumulative[-1]
    if total <= 0:
        raise DivergentMomentError("tabulated antisymmetric part carries no weight")
    idx = int(np.searchsorted(cumulative, 0.99 * total))
    omega_star = float(grid[min(idx, grid.size - 1)])
    return 1.0 / omega_star


def noise_moments(model: SpectralModel) -> NoiseMoments:
    """Bundle (W, eps_p0, tau_R) for a model with finite moments."""
    if isinstance(model, White):
        raise DivergentMomentError("flat spectrum: integral of S(omega) diverges")
    w = noise_rms(model)
    eps_p0 = reorganization_shift(model)
    if isinstance(model, OhmicCutoff):
        tau_r = 1.0 / model.omega_c
    else:
        tau_r = _tabulated_tau_r(model)
    return NoiseMoments(w_rms=w, eps_p0=eps_p0, tau_r=tau_r)
