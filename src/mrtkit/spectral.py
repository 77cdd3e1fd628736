"""Noise spectral densities and their frequency moments.

A spectral density S(omega) fully characterises the Gaussian environmental
noise seen by the two-state system.  Three families are supported:

* ``White`` -- flat spectrum S(omega) = s0, used only for dephasing;
* ``OhmicCutoff`` -- S(omega) = 2*eta*omega / (1 + (omega/omega_c)^2)^2
  * 1/(1 - exp(-omega/T)), an ohmic spectrum with a soft cutoff and the
  quantum (detailed-balance) occupation factor;
* ``Tabulated`` -- monotone piecewise-cubic interpolation of sampled data,
  zero outside the grid.

Each is a ``SpectralModel`` and carries its own moments and closed forms.
The model methods are the only spelling of each quantity the library
calls, so a new noise family is one new class.

Derived moments: the r.m.s. noise W = sqrt(integral S(omega) domega / 2pi),
which for the ohmic-cutoff model is the closed Matsubara sum
W^2 = (eta T omega_c / 2) [1 + 2 x^2 psi'(1 + x)], x = omega_c / (2 pi T),
with the trigamma psi' from recurrence and its asymptotic Bernoulli series
(Abramowitz & Stegun, Handbook of Mathematical Functions, 6.4.12);
the zero-frequency resonance shift eps_p0 = integral (domega/2pi) S(omega)/omega
(full line, equilibrium reflection S(-w) = e^{-w/T} S(w) implied), and the
time-dependent shift eps_p(t) = eps_p0 - integral (domega/2pi) (S/omega) cos(omega t).
The ohmic dephasing exponent X(t) is a Matsubara residue sum too
(``_ohmic_exponent``, with its Hurwitz-zeta and exponential-integral tails),
kept here beside the model whose numerics it is.  Everything is expressed
in natural units (hbar = k_B = 1).

All model objects are immutable and every operation is a pure function, so
concurrent use needs no synchronisation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import RegimeError
from .quadrature import _sine_contraction, _tabulated_nodes

__all__ = ["SpectralModel", "White", "OhmicCutoff", "Tabulated"]


class SpectralModel:
    """Base class of the noise models: the one interface the library calls.

    A model defines ``density`` and ``dephasing_exponent``, and whichever
    finite moments it has: ``antisymmetric``, ``noise_rms``,
    ``reorganization_shift``, ``tau_r`` and ``shift_arrays``.  The defaults
    here are the refusals of a flat spectrum, whose frequency moments
    diverge.  ``shift`` and ``response_frequency`` follow from
    ``shift_arrays`` and ``tau_r``, and check their arguments here, once for
    every model.
    """

    def density(self, omega: float) -> float:
        """S(omega).  Tabulated models reject omega outside the grid."""
        raise NotImplementedError

    def dephasing_exponent(self, times: np.ndarray) -> np.ndarray:
        """X(t) for an array of times t >= 0, in the same shape."""
        raise NotImplementedError

    def antisymmetric(self, omega: float) -> float:
        """S_a(omega) for omega >= 0, the integrand of the shift moments."""
        raise RegimeError("flat spectrum has no antisymmetric part")

    def noise_rms(self) -> float:
        """W = sqrt(integral_{-inf}^{inf} S(omega) domega / 2pi)."""
        raise RegimeError("flat spectrum: integral of S(omega) diverges")

    def reorganization_shift(self) -> float:
        """eps_p0 = integral_0^inf (domega/pi) S_a(omega)/omega."""
        raise RegimeError("flat spectrum has no antisymmetric part")

    def tau_r(self) -> float:
        """Environment response time tau_R."""
        raise RegimeError("model has no finite response time")

    def response_frequency(self) -> float:
        """1/tau_R, the frequency the memory-kernel step must resolve."""
        return 1.0 / self.tau_r()

    def shift_arrays(self, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(eps_p(tau), d eps_p/dtau) for an array of tau >= 0.

        eps_p(t) = integral_0^inf (domega/pi) (S_a(omega)/omega)(1 - cos(omega t))
        and d eps_p/dt = integral_0^inf (domega/pi) S_a(omega) sin(omega t).
        d eps_p/dtau vanishes at tau = 0 for every integrable S_a; the
        memory-kernel solver is second order only when it does.
        """
        raise RegimeError("flat spectrum has no antisymmetric part")

    def shift(self, t: float) -> float:
        """eps_p(t) at one time t >= 0, with eps_p(0) = 0."""
        if t < 0:
            raise ValueError("shift requires t >= 0")
        return float(self.shift_arrays(np.array([t]))[0][0])


@dataclass(frozen=True)
class White(SpectralModel):
    """Flat spectrum S(omega) = s0 for all omega.

    Carries no finite frequency moments; only the dephasing operations
    accept it.  The flat spectrum is a classical (infinite-temperature)
    noise source.
    """

    s0: float

    def __post_init__(self):
        if self.s0 < 0:
            raise ValueError("spectral weight s0 must be nonnegative")

    def density(self, omega):
        return self.s0

    def dephasing_exponent(self, times):
        return 0.5 * self.s0 * times


@dataclass(frozen=True)
class OhmicCutoff(SpectralModel):
    """Ohmic spectrum with soft cutoff and thermal occupation factor."""

    eta: float
    omega_c: float
    temperature: float

    def __post_init__(self):
        if self.eta <= 0 or self.omega_c <= 0 or self.temperature <= 0:
            raise ValueError("OhmicCutoff requires eta > 0, omega_c > 0, T > 0")
        # every rate divides by W, and W^2 overflows before omega_c / 2 pi T does
        if not 0.0 < self.noise_rms() < math.inf:
            raise ValueError("OhmicCutoff requires 0 < W < inf; these scales leave that range")

    def density(self, omega):
        omega = float(omega)
        if omega == 0.0:
            # limit of 2*eta*omega / (1 - exp(-omega/T))
            return 2.0 * self.eta * self.temperature
        lorentz = (1.0 + (omega / self.omega_c) ** 2) ** 2
        try:
            occupation_denom = -math.expm1(-omega / self.temperature)
        except OverflowError:
            # -omega/T beyond ~709: S = 2 eta |omega| e^{-|omega|/T} / lorentz to double
            # precision, 0 or subnormal, formed in logs and rounded once
            return math.exp(math.log(2.0 * self.eta) + math.log(-omega) - math.log(lorentz)
                            + omega / self.temperature)
        return 2.0 * self.eta * (omega / occupation_denom) / lorentz

    def antisymmetric(self, omega):
        # the exact algebraic form, free of the cancellation that
        # (S(w) - S(-w))/2 suffers at omega/T -> 0
        return self.eta * omega / (1.0 + (omega / self.omega_c) ** 2) ** 2

    def noise_rms(self):
        """The closed Matsubara sum of W.

        With omega coth(omega/2T) = 2T [1 + 2 sum_n omega^2/(omega^2 + nu_n^2)],
        nu_n = 2 pi n T, every term integrates exactly against the cutoff, and

            W^2 = (eta T omega_c / 2) [1 + 2 x^2 psi'(1 + x)],  x = omega_c / (2 pi T),

        with the trigamma psi' from its asymptotic series (Abramowitz &
        Stegun 6.4.12).
        """
        x = self.omega_c / (2.0 * math.pi * self.temperature)
        bracket = 1.0 + 2.0 * x * x * _trigamma(1.0 + x)
        return math.sqrt(0.5 * self.eta * self.temperature * self.omega_c * bracket)

    def reorganization_shift(self):
        return 0.25 * self.eta * self.omega_c

    def tau_r(self):
        return 1.0 / self.omega_c

    def response_frequency(self):
        return self.omega_c

    def shift_arrays(self, taus):
        """eps_p0 (1 - e^{-x} (1 + x)) and its derivative eps_p0 omega_c x e^{-x}, x = omega_c t.

        Below x = 1e-3 the first is its series, free of cancellation.
        """
        x = self.omega_c * np.asarray(taus, dtype=float)
        eps_p0 = self.reorganization_shift()
        decay = np.exp(-x)
        small = x < 1e-3
        shift = np.where(
            small,
            eps_p0 * (0.5 * x * x - x**3 / 3.0 + x**4 / 8.0),
            eps_p0 * (1.0 - decay * (1.0 + x)),
        )
        rate = eps_p0 * self.omega_c * x * decay
        return shift, rate

    def dephasing_exponent(self, times):
        return _ohmic_exponent(self, times.ravel()).reshape(times.shape)


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
class Tabulated(SpectralModel):
    """Spectrum interpolated from samples; S = 0 outside the grid.

    The grid must be strictly increasing with at least 4 points.  PCHIP
    interpolation stays within the local data range, so nonnegative data
    cannot produce a negative interpolant.  eps_p0, the shift arrays and
    X(t) are integrated on one set of Gauss-Legendre panels per call
    (``quadrature._tabulated_nodes``), with the interpolant evaluated once
    per node.
    """

    omega: np.ndarray
    values: np.ndarray

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
    def from_csv(cls, path) -> "Tabulated":
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
        return cls(data[:, 0], data[:, 1])

    def density(self, omega):
        """S(omega); omega outside the grid is rejected."""
        if omega < self.omega[0] or omega > self.omega[-1]:
            raise ValueError(
                f"omega = {omega} outside tabulated range "
                f"[{self.omega[0]}, {self.omega[-1]}]"
            )
        return float(self._interp(omega))

    def antisymmetric(self, omega):
        """S_a = (S(w) - S(-w))/2 on a float or an array: the one tabulated S_a.

        |omega| beyond the two-sided part of the grid is rejected.
        """
        w = np.asarray(omega, dtype=float)
        limit = min(self.omega[-1], -self.omega[0])
        if np.any(np.abs(w) > limit):
            raise ValueError(f"omega = +-{np.max(np.abs(w))} outside tabulated range "
                             f"[{self.omega[0]}, {self.omega[-1]}]")
        s_a = 0.5 * (self._interp(w) - self._interp(-w))
        return s_a if w.ndim else float(s_a)

    def noise_rms(self):
        """W from the exact integral of the interpolant."""
        w2 = self._interp.integral / (2.0 * math.pi)
        if not 0.0 < w2 < math.inf:
            raise RegimeError("tabulated spectrum integrates to zero or overflows")
        return math.sqrt(w2)

    def reorganization_shift(self):
        upper = self._positive_overlap()
        nodes, weights = _tabulated_nodes(self.omega, upper, 0.0)
        return float(np.sum(weights * self.antisymmetric(nodes) / nodes)) / math.pi

    def tau_r(self):
        """1/omega*, where omega* holds 99 % of the weight of S_a(omega)/omega."""
        upper = self._positive_overlap()
        grid = np.linspace(0.0, upper, 8193)[1:]
        # S(w) - S(-w) rounds by ~eps (S(w) + S(-w)): a weight below 1e-12 of that sum
        # (grid[0] is the step) is noise; summed first, while no other array is held
        floor = 1e-12 * grid[0] * np.sum((self._interp(grid) + self._interp(-grid)) / grid)
        g = self.antisymmetric(grid) / grid
        cumulative = np.concatenate(([0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(grid))))
        total = cumulative[-1]
        if not total > floor:
            raise RegimeError("tabulated antisymmetric part carries no weight")
        idx = int(np.searchsorted(cumulative, 0.99 * total))
        omega_star = float(grid[min(idx, grid.size - 1)])
        return 1.0 / omega_star

    def shift_arrays(self, taus):
        """Both rows from one evaluation of S_a on nodes shared by every tau."""
        taus = np.asarray(taus, dtype=float)
        if np.any(taus < 0):
            raise ValueError("shift arrays require tau >= 0")
        upper = self._positive_overlap()
        nodes, weights = _tabulated_nodes(self.omega, upper, float(np.max(taus, initial=0.0)))
        rate_weights = weights * self.antisymmetric(nodes) / math.pi
        return tuple(_sine_contraction(taus, nodes, 2.0 * rate_weights / nodes, rate_weights))

    def dephasing_exponent(self, times):
        # S = 0 outside the grid: both sides of the line fold onto [0, upper]
        # as S(w) + S(-w), with NaN (outside the interpolant) read as zero
        upper = float(max(self.omega[-1], -self.omega[0]))
        nodes, weights = _tabulated_nodes(self.omega, upper, float(np.max(times, initial=0.0)))
        interp = self._interp
        density = np.nan_to_num(interp(nodes)) + np.nan_to_num(interp(-nodes))
        sin2_weights = weights * density / (math.pi * nodes * nodes)
        values = _sine_contraction(times, nodes, sin2_weights)[0]
        # below t upper = 1e-8, sin^2(t w / 2) is (t w / 2)^2 to double precision;
        # as t (t C) a subnormal X is rounded once, not once per node
        flat = times.ravel()
        small = flat * upper < 1e-8
        values = np.where(small, flat * (flat * (0.25 * (nodes * nodes) @ sin2_weights)), values)
        return values.reshape(times.shape)

    def _positive_overlap(self) -> float:
        """Largest frequency where both +w and -w lie inside the grid.

        The interpolant is C^1 across omega = 0, so S_a(w)/w tends to the
        finite S'(0): no shift moment of a two-sided table diverges.
        """
        upper = min(self.omega[-1], -self.omega[0])
        if upper <= 0.0:
            raise RegimeError(
                "tabulated model needs data on both sides of omega = 0; "
                "frequency moments need a two-sided grid"
            )
        return upper


# Bernoulli numbers B_2 ... B_14 of the trigamma asymptotic series
_TRIGAMMA_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def _trigamma(x: float) -> float:
    """psi'(x) for x > 0, to about 1e-15 relative.

    Upward recurrence psi'(x) = psi'(x + 1) + 1/x^2 until x >= 10, then
    psi'(x) ~ 1/x + 1/(2x^2) + sum_k B_2k / x^(2k+1) through B_14
    (Abramowitz & Stegun 6.4.12; DLMF 5.15.8).
    """
    head = 0.0
    while x < 10.0:
        head += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = 0.0
    for b in reversed(_TRIGAMMA_BERNOULLI):
        series = series * inv2 + b
    return head + inv * (1.0 + inv * (0.5 + inv * series))


# Matsubara terms n = 0 .. _HEAD_TERMS + _HEAD_SPAN x are summed one by one;
# beyond them the tail is expanded in (x/n)^2 <= 1/_HEAD_SPAN^2.
_HEAD_TERMS = 64
_HEAD_SPAN = 8
# Within this relative distance of the resonance nu_n = omega_c the divided
# difference E[y, y, z] is summed as its Taylor series, to 0.2^24 < 1e-16.
_RESONANCE_WINDOW = 0.2
_TAYLOR_TERMS = 26
# Largest (time, term) block of one evaluation: bounds the memory of a call.
_BLOCK = 2**16
# X(t) sums O(omega_c/T) Matsubara terms per time (1.3e6 at this ratio);
# beyond it the ohmic X(t) is refused rather than left to run for minutes.
_MAX_OMEGA_C_OVER_T = 1e6
# B_2, B_4, B_6 of the Euler-Maclaurin tail corrections
_EM_BERNOULLI = (1 / 6, -1 / 30, 1 / 42)
_EULER_GAMMA = 0.5772156649015329


def _ohmic_exponent(model: SpectralModel, times: np.ndarray) -> np.ndarray:
    """X(t) of the ohmic cutoff from its Matsubara residue sum, for a 1-d t.

    With omega coth(omega/2T) = 2T sum_n w_n omega^2/(omega^2 + nu_n^2),
    nu_n = 2 pi n T (w_0 = 1, w_n = 2), every term of X is an elementary
    integral.  In the scaled variables y = omega_c t, z_n = nu_n t,

        X(t) = (eta T t y^3 / 2) sum_n w_n [e_1(y) + 2 y E[y, y, z_n]] / (y + z_n)^2,

    where E(u) = (1 - e^{-u})/u, E[y, y, z] is its second divided difference
    and e_k(y) = int_0^1 s^k e^{-y s} ds (so e_1 = -E').  The bracket is a
    sum of positive parts, free of cancellation for small t; near the
    resonance z_n = y (omega_c = nu_n) the divided difference is summed as
    its Taylor series.  Terms past n_head are summed in closed form: the
    rational parts as Hurwitz zeta values, the rest by Euler-Maclaurin with
    exponential integrals.  Each t is one row, reduced along the Matsubara
    index in blocks of at most _BLOCK terms, so a time gives the same bits
    alone or inside an array, and a call holds O(_BLOCK) floats whatever
    omega_c/T is.
    """
    if not model.omega_c / model.temperature <= _MAX_OMEGA_C_OVER_T:
        raise RegimeError(
            f"omega_c/T = {model.omega_c / model.temperature:.3g} exceeds "
            f"{_MAX_OMEGA_C_OVER_T:.0e}: X(t) needs O(omega_c/T) Matsubara terms per time"
        )
    x = model.omega_c / (2.0 * math.pi * model.temperature)
    n_head = _HEAD_TERMS + math.ceil(_HEAD_SPAN * x)
    ratio = (x / (n_head + 1.0)) ** 2
    powers = 1
    while ratio**powers > 1e-18:
        powers += 1
    j = np.arange(powers)
    # tail sums over n > n_head of 1/(n^2 - x^2) and 1/(n^2 - x^2)^2
    first = n_head + 1.0
    tail_1 = float(np.sum(x ** (2 * j) * _hurwitz_zeta(2.0 * j + 2.0, first)))
    tail_2 = float(np.sum((j + 1) * x ** (2 * j) * _hurwitz_zeta(2.0 * j + 4.0, first)))
    terms = min(n_head + 1, _BLOCK)

    out = np.zeros(times.size)
    rows = max(1, _BLOCK // terms)
    for start in range(0, times.size, rows):
        t = times[start:start + rows]
        live = t > 0.0
        t = np.where(live, t, 1.0)
        y = model.omega_c * t
        tau = 2.0 * math.pi * model.temperature * t
        e = _exp_moments(y, _TAYLOR_TERMS)
        head = None
        for first_n in range(0, n_head + 1, terms):
            n = np.arange(first_n, min(first_n + terms, n_head + 1), dtype=float)
            weights = np.full(n.size, 2.0)
            if first_n == 0:
                weights[0] = 1.0
            part = np.sum(weights * _matsubara_terms(y, np.multiply.outer(tau, n), e), axis=-1)
            head = part if head is None else head + part
        # tail, with z_n = tau n and E(z) - E(y) = y q(y) - z q(z)
        q = e[0] - e[1]
        sums = _phi_sums(2 * j[:, None] + 5, tau, first)
        moment = 0.0
        for power in range(powers):
            moment = moment + (power + 1) * x ** (2 * power) * sums[power]
        tail = 2.0 * ((e[1] * tail_1 + 2.0 * x * x * q * tail_2) / tau**2
                      - 2.0 * x * moment / tau**4)
        value = 0.5 * model.eta * model.temperature * t * y**3 * (head + tail)
        out[start:start + rows] = np.where(live, value, 0.0)
    return out


def _matsubara_terms(y: np.ndarray, z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """[e_1(y) + 2 y E[y, y, z]] / (y + z)^2 for rows y and a grid z of shape (rows, n)."""
    y = y[:, None]
    delta = z - y
    near = np.abs(delta) < _RESONANCE_WINDOW * np.maximum(1.0, y)
    # divided differences away from the resonance
    zs = np.where(z > 0.0, z, 1.0)
    e_z = np.where(z > 0.0, -np.expm1(-zs) / zs, 1.0)
    ds = np.where(near, 1.0, delta)
    second = ((e_z - e[0][:, None]) / ds + e[1][:, None]) / ds
    # near it, the Taylor series sum_{k>=2} (-1)^k e_k(y) delta^(k-2) / k!
    row = np.nonzero(near)[0]
    d = delta[near]
    series = np.zeros_like(d)
    for k in range(_TAYLOR_TERMS, 1, -1):
        series = series * d + ((-1) ** k / math.factorial(k)) * e[k][row]
    second[near] = series
    return (e[1][:, None] + 2.0 * y * second) / (y + z) ** 2


def _exp_moments(y: np.ndarray, kmax: int) -> np.ndarray:
    """e_k(y) = int_0^1 s^k e^{-y s} ds for k = 0..kmax; shape (kmax + 1, *y.shape).

    Upward recurrence e_k = (k e_{k-1} - e^{-y})/y where it is stable
    (y > kmax); below, downward e_{k-1} = (y e_k + e^{-y})/k from k = kmax + 61,
    where the starting guess's error has shrunk below 1e-18 by k = kmax.
    """
    large = y > kmax
    y_up = np.where(large, y, 1.0)
    y_dn = np.where(large, 0.0, y)
    out = np.empty((kmax + 1,) + y.shape)
    decay = np.exp(-y_up)
    e = -np.expm1(-y_up) / y_up
    up = [e]
    for k in range(1, kmax + 1):
        e = (k * e - decay) / y_up
        up.append(e)
    decay = np.exp(-y_dn)
    top = kmax + 61
    e = decay / (top + 1.0 - y_dn)
    for k in range(top, 0, -1):
        e = (y_dn * e + decay) / k
        if k <= kmax + 1:
            out[k - 1] = np.where(large, up[k - 1], e)
    return out


def _hurwitz_zeta(s: np.ndarray, q: float) -> np.ndarray:
    """zeta(s, q) = sum_{n>=0} (n + q)^-s for s > 1 and q >= 65, by Euler-Maclaurin."""
    value = q ** (1.0 - s) / (s - 1.0) + 0.5 * q**-s
    rising, power, factorial = s, q ** (-s - 1.0), 2.0
    for k, bernoulli in enumerate(_EM_BERNOULLI, start=1):
        value = value + bernoulli / factorial * rising * power
        rising = rising * (s + 2 * k - 1) * (s + 2 * k)
        power = power / (q * q)
        factorial *= (2 * k + 1) * (2 * k + 2)
    return value


def _phi_sums(p: np.ndarray, tau: np.ndarray, first: float) -> np.ndarray:
    """sum_{n >= first} phi(n tau) / n^p, phi(u) = u - 1 + e^{-u}, by Euler-Maclaurin.

    p is a column of odd powers >= 5, giving one row each; first >= 65.
    With three corrections the relative error is below 5e-15 at p = 5 for
    every tau and grows to 5e-10 at p = 25, whose weight (x/n)^20 in the
    tail expansion is below 1e-18.
    """
    u = tau * first
    e = _exp_moments(u, 1)
    decay = np.exp(-u)
    # phi and its derivatives at u; phi(u) = u^2 q(u) avoids cancellation
    dphi = [u * u * (e[0] - e[1]), -np.expm1(-u)] + [(-1) ** i * decay for i in range(2, 6)]

    def derivative(k: int) -> np.ndarray:
        # d^k/ds^k [phi(s tau) s^-p] at s = first, by Leibniz
        total = 0.0
        for i in range(k + 1):
            m = k - i
            rising = np.prod([p + r for r in range(m)], axis=0)
            total = total + (math.comb(k, i) * tau**i * dphi[i]
                             * (-1) ** m * rising * first ** (-p - m))
        return total

    value = first ** (1 - p) * _phi_integral(p, u) + 0.5 * derivative(0)
    factorial = 2.0
    for k, bernoulli in enumerate(_EM_BERNOULLI, start=1):
        value = value - bernoulli / factorial * derivative(2 * k - 1)
        factorial *= (2 * k + 1) * (2 * k + 2)
    return value


def _phi_integral(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u^(p-1) int_u^inf phi(v) v^-p dv = u/(p-2) - 1/(p-1) + E_p(u), for odd p >= 5.

    Below u = 2 the power series of E_p with its two leading terms removed
    (Abramowitz & Stegun 5.1.12); above, E_p from its continued fraction
    (A&S 5.1.22, evaluated as in Numerical Recipes' expint).
    """
    small = u < 2.0
    us = np.where(small, u, 1.0)
    harmonic = np.array([sum(1.0 / i for i in range(1, int(k))) for k in p.ravel()])
    factorial = np.array([float(math.factorial(int(k) - 1)) for k in p.ravel()])
    series = (us ** (p - 1) / factorial.reshape(p.shape)
              * (harmonic.reshape(p.shape) - _EULER_GAMMA - np.log(us)))
    term = np.ones_like(us)
    for k in range(2, 40):
        term = term * -us / k if k > 2 else 0.5 * us * us
        pole = p == k + 1
        series = series - np.where(pole, 0.0, term / np.where(pole, 1.0, k + 1.0 - p))
    ul = np.where(small, 2.0, u)
    b = ul + p
    c = np.full_like(b, 1e300)
    d = 1.0 / b
    h = d
    for i in range(1, 80):
        a = -i * (p - 1.0 + i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        h = h * (c * d)
    fraction = ul / (p - 2.0) - 1.0 / (p - 1.0) + h * np.exp(-ul)
    return np.where(small, series, fraction)
