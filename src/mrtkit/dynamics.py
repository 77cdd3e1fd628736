"""Population dynamics: short-time growth, memory-kernel evolution, and
local approximations.

For times beyond the dephasing time 1/W only the populations evolve, and
the 0 -> 1 population obeys a time-nonlocal equation

    d rho11/dt = integral_t0^t [K_-(t-s) rho00(s) - K_+(t-s) rho11(s)] ds,

whose kernels are fixed by requiring the short-time growth rate to equal
Lambda_pm(t) = Gamma_p exp(-(eps +/- eps_p(t))^2 / 2 W^2):

    K_pm(tau) = dLambda_pm/dtau * theta(tau) + Lambda_pm(tau) * delta(tau).

The delta part acts as an instantaneous local rate Lambda_pm(0); the smooth
part is integrated over the history with a product-trapezoid rule (second
order).  When eps_p(t) is frozen (very slow or very fast environments) the
equation collapses to the local form d rho11/dt = G_- rho00 - G_+ rho11.
Memory enhances the local rates by 1/(1 - D), D = integral_0^inf
[Lambda(inf) - Lambda(tau)] dtau with Lambda = Lambda_- + Lambda_+, when
Gamma_p is not small against the response frequency omega_resp = 1/tau_R.
The corrected rates here carry the closed factor 1 + tau_R [Lambda(inf) -
Lambda(0)], a tau_R-step estimate of D (``nonlocal_corrected_scan``), and
``mrtkit.oracle`` integrates D under the full denominator.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import RegimeError, RegimeWarning
from .quadrature import _GL_NODES, _GL_WEIGHTS, bounded_minimum, gauss_kronrod
from .rates import TwoStateParams, _shifted_gaussian, faddeeva, peak_rate, warn_weak_coupling
from .spectral import SpectralModel

__all__ = [
    "Trajectory",
    "PeakSummary",
    "evolve_nonlocal",
    "evolve_local",
    "nonlocal_corrected_scan",
    "peak_summary",
    "short_time_rho11",
]


# Roundoff allowance on rho11 staying in [0, 1].
_ROUNDOFF = 1e-12


@dataclass(frozen=True, eq=False)
class Trajectory:
    """rho11 on a strictly increasing time grid; rho00 = 1 - rho11.

    Roundoff excursions out of [0, 1] are clipped.  An excursion above the
    roundoff allowance (or a NaN) is a solver fault and raises RegimeError
    instead of being clipped away.
    """

    t: np.ndarray
    rho11: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        rho11 = np.asarray(self.rho11, dtype=float)
        if np.any(np.diff(t) <= 0):
            raise RegimeError("time grid must be strictly increasing")
        if rho11.shape != t.shape:
            raise ValueError("rho11 must match the time grid")
        excursion = float(np.max(np.maximum(-rho11, rho11 - 1.0), initial=0.0))
        if not excursion <= _ROUNDOFF:
            raise RegimeError(f"rho11 leaves [0, 1] by {excursion:.3g}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "rho11", np.clip(rho11, 0.0, 1.0))

    @property
    def rho00(self) -> np.ndarray:
        return 1.0 - self.rho11


def _require_constant(params: TwoStateParams) -> tuple[float, float]:
    delta = params.delta_schedule
    eps = params.eps_schedule
    if not (delta.is_constant and eps.is_constant):
        raise RegimeError(
            "time-invariant Hamiltonian required: delta and eps must be constant"
        )
    return delta.initial, eps.initial


def _kernel_arrays(
    params: TwoStateParams, w: float, eps_p: np.ndarray, deps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(Lambda_-, Lambda_+, dLambda_-/dtau, dLambda_+/dtau) from the shift arrays.

    Lambda_pm(tau) = Gamma_p exp(-(eps pm eps_p(tau))^2 / 2 W^2) for a
    constant-parameter system, with (eps_p, d eps_p/dtau) at the delays as
    ``SpectralModel.shift_arrays`` returns them.  Lambda_-(0) = Lambda_+(0)
    is the delta weight of the kernels; the derivatives vanish at tau = 0
    with d eps_p/dtau, as they do for every spectrum with an integrable S_a.
    """
    delta, eps = _require_constant(params)
    gp = peak_rate(delta, w)
    lam_m = _shifted_gaussian(gp, w, eps, eps_p)
    lam_p = _shifted_gaussian(gp, w, eps, -eps_p)
    dm = lam_m * (eps - eps_p) * deps / (w * w)
    dp = -lam_p * (eps + eps_p) * deps / (w * w)
    return lam_m, lam_p, dm, dp


def evolve_nonlocal(
    model: SpectralModel,
    params: TwoStateParams,
    rho11_0: float,
    t_grid,
    *,
    w_rms: float | None = None,
) -> Trajectory:
    """Integrate the memory-kernel population equation on a uniform grid.

    The delta part of the kernel enters as an instantaneous local rate; the
    smooth part is accumulated over the history with trapezoid weights, and
    each step solves the (linear) implicit trapezoid update exactly.  The
    history starts at the first grid point (state initialization time).
    All steps are solved at once as one triangular Toeplitz system, in
    O(n log n) for n grid points; the direct O(n^2) step loop is kept as
    ``mrtkit.oracle.direct_nonlocal_reference``.
    """
    if not 0.0 <= rho11_0 <= 1.0:
        raise ValueError("rho11_0 must lie in [0, 1]")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("time grid needs at least two points")
    steps = np.diff(t)
    h = float(steps[0])
    if np.any(steps <= 0) or not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise RegimeError("nonlocal evolution requires a uniform increasing grid")

    delta, _ = _require_constant(params)
    w = model.noise_rms() if w_rms is None else w_rms
    gp = peak_rate(delta, w)
    warn_weak_coupling(delta, w)
    omega_resp = model.response_frequency()
    h_max = 0.1 / max(omega_resp, gp)  # gp may underflow to 0
    if h > h_max * (1.0 + 1e-9):
        raise RegimeError(
            f"grid step {h:.3g} exceeds resolution bound min(1/(10*omega_resp), "
            f"1/(10*Gamma_p)) = {h_max:.3g}, omega_resp = 1/tau_R = {omega_resp:.3g}"
        )

    eps_p, deps = model.shift_arrays(h * np.arange(t.size))
    # the delta weight Lambda(0) carries the whole kernel at tau = 0 only when
    # the smooth part starts from zero; otherwise the scheme is first order
    if not abs(deps[0]) <= _ROUNDOFF * abs(model.reorganization_shift()) * omega_resp:
        raise RegimeError(f"d eps_p/dtau at tau = 0 is {deps[0]:.3g}, not 0: "
                          "the memory kernel needs a spectrum with integrable S_a")
    lam_m, lam_p, dm, dp = _kernel_arrays(params, w, eps_p, deps)
    lam0 = float(lam_m[0])
    del lam_m, lam_p, eps_p, deps
    y = _trapezoid_history_solve(dm, dp, lam0, h, float(rho11_0))
    return Trajectory(t, y)


def _trapezoid_history_solve(
    dm: np.ndarray, dp: np.ndarray, lam0: float, h: float, rho11_0: float
) -> np.ndarray:
    """Implicit product-trapezoid steps of the memory-kernel equation.

    With s = dm + dp the smooth history at step m is sum_{i<m} dm[i] minus
    the causal convolution sum_{j=1}^{m-1} s[m-j] y_j.  Adding the updates
    of steps m - 1 and m eliminates the trapezoid right-hand side and leaves
    one lower-triangular Toeplitz system a * y = b for y_1 ... y_{n-1}:

        a_0 = 1 + h lam0,   a_1 = -(1 - h lam0) + (h^2/2) s_1,
        a_k = (h^2/2) (s_k + s_{k-1}) for k >= 2,

    so y = r * b with r = 1/a(z), found by Newton doubling with real-FFT
    products (Brent & Kung, J. ACM 25, 581 (1978)) in O(n log n).  The
    discrete solution is that of the direct O(n^2) loop; y_0 enters through
    the half-weighted head term and b_1.
    """
    n = dm.size
    m = n - 1
    half = 0.5 * h
    # known[m] = base[m] - h * sum_{j=1}^{m-1} s[m-j] y_j
    base = np.zeros(n)
    np.cumsum(dm[1:-1], out=base[2:])
    base += 0.5 * (dm * (1.0 - rho11_0) - dp * rho11_0)
    base *= h
    base += lam0
    s = dm + dp
    a0 = 1.0 + h * lam0
    a1 = half * h * s[1] - (1.0 - h * lam0)
    tail = np.zeros(m)  # a_k for k >= 2, of order h^2
    tail[2:] = half * h * (s[2:m] + s[1:m - 1])
    b = half * (base[:-1] + base[1:])
    b[0] = rho11_0 + half * (lam0 * (1.0 - 2.0 * rho11_0) + base[1])
    del base, s

    r = np.empty(m)
    r[0] = 1.0 / a0
    done = 1
    while done < m:
        # r <- r - r (a r - 1): a r - 1 vanishes below done, and a cyclic
        # length >= size keeps the wrapped terms out of it.  a_0 and a_1, of
        # order 1, are applied exactly, so FFT roundoff scales with the tail.
        size = min(2 * done, m)
        fft = 1 << (size - 1).bit_length()
        r_hat = np.fft.rfft(r[:done], fft)
        excess = np.fft.irfft(np.fft.rfft(tail[:size], fft) * r_hat, fft)[done:size]
        excess[0] += a1 * r[done - 1]
        r[done:size] = -np.fft.irfft(np.fft.rfft(excess, fft) * r_hat, fft)[:size - done]
        done = size
    # the largest product: free what it does not need first
    del tail
    fft = 1 << (2 * m - 2).bit_length()
    product = np.fft.rfft(r, fft)
    product *= np.fft.rfft(b, fft)
    del r, b
    return np.concatenate(([rho11_0], np.fft.irfft(product, fft)[:m]))


def _as_rate(schedule) -> Callable[[float], float]:
    if callable(schedule):
        return schedule
    value = float(schedule)
    return lambda t: value


def _checked_rates(rate, times) -> np.ndarray:
    """rate(t) at each of the times, refusing a negative or non-finite value."""
    times = np.ravel(times)
    values = np.array([rate(float(s)) for s in times], dtype=float)
    bad = ~(np.isfinite(values) & (values >= 0.0))
    if bad.any():
        k = int(np.argmax(bad))
        kind = "negative" if values[k] < 0 else "non-finite"
        raise RegimeError(f"{kind} rate at t = {times[k]}")
    return values


def _legendre_rows(x: np.ndarray, degree: int) -> np.ndarray:
    """P_0(x) ... P_degree(x) as rows, by the recurrence of np.polynomial.legendre.legvander."""
    rows = np.empty((degree + 1, x.size))
    rows[0] = 1.0
    rows[1] = x
    for i in range(2, degree + 1):
        rows[i] = (rows[i - 1] * x * (2 * i - 1) - rows[i - 2] * (i - 1)) / i
    return rows


# The matrix taking a rate at the 16 Gauss-Legendre nodes on [-1, 1] to the
# coefficients of its degree-15 Legendre interpolant.
_TO_SERIES = _legendre_rows(_GL_NODES, 15) * _GL_WEIGHTS * (np.arange(16) + 0.5)[:, None]
# The matrix taking the same 16 values to the integral of that interpolant
# from -1 to each node: int P_0 = x + 1, int P_n = (P_{n+1} - P_{n-1})/(2n + 1).
# A broadcast product and sum: a BLAS matrix product or einsum here would
# raise the peak RSS of every process by about 0.1 MB.
_P = _legendre_rows(_GL_NODES, 16)
_ANTIDERIVATIVE = np.vstack((1.0 + _GL_NODES,
                             (_P[2:] - _P[:-2]) / np.arange(3.0, 32.0, 2.0)[:, None]))
_INTEGRAL = (_ANTIDERIVATIVE[:, :, None] * _TO_SERIES[:, None, :]).sum(axis=0)
del _P, _ANTIDERIVATIVE
# A piece is resolved when the last two Legendre coefficients of G_- and of
# G_- + G_+ bound the error of its A-increment below this, relative to
# max(1, increment), and its growth A(b) - A(a) is at most _MAX_GROWTH, where
# the 16-node rule still integrates the exponential to about 2e-15.  A jump
# in a rate is resolved too, once its piece is short enough; the split cap
# only bounds the recursion.
_SERIES_TOL = 1e-14
_MAX_GROWTH = 16.0
_MAX_SPLITS = 60
# Once the right half's decay is below this, the left half is not integrated:
# its decay and inflow are at most 1, so it moves rho11(b) by less than this.
_NEGLIGIBLE = 2.0**-60


def evolve_local(rate_minus, rate_plus, rho11_0: float, t_grid) -> Trajectory:
    """Solve d rho11/dt = G_-(t) (1 - rho11) - G_+(t) rho11 on t_grid.

    Numeric rates give the closed exponential relaxation toward
    G_-/(G_- + G_+).  Callable rates use the Duhamel form, step by step,

        rho11(b) = e^{-(A(b) - A(a))} rho11(a) + int_a^b G_-(s) e^{-(A(b) - A(s))} ds,

    with A' = G_- + G_+.  Each step is the affine map (decay, inflow) of one
    16-node Gauss-Legendre panel: A at the nodes integrates the degree-15
    Legendre interpolant of G_- + G_+, and the inflow is the same rule on
    G_- e^{-(A(b) - A(s))}.  A piece is halved until G_- and G_- + G_+ are
    resolved and A grows by at most 16 across it; halves compose, and a left
    half is skipped once the right half's decay is below 2^-60, so a step of
    many relaxation times costs O(log growth) panels and keeps its inflow.
    Rates must be nonnegative: they are checked at every grid point and at
    every time they are evaluated.
    The RK4 solution on a 16-fold refined grid is
    ``mrtkit.oracle.refined_local_reference``.
    """
    if not 0.0 <= rho11_0 <= 1.0:
        raise ValueError("rho11_0 must lie in [0, 1]")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0):
        raise ValueError("time grid must be strictly increasing with >= 2 points")
    gm = _as_rate(rate_minus)
    gp = _as_rate(rate_plus)
    if not (callable(rate_minus) or callable(rate_plus)):
        minus = float(_checked_rates(gm, t[:1])[0])
        total = minus + float(_checked_rates(gp, t[:1])[0])
        if total == 0.0:
            return Trajectory(t, np.full(t.size, float(rho11_0)))
        elapsed = total * (t - t[0])
        rho11 = rho11_0 * np.exp(-elapsed) - (minus / total) * np.expm1(-elapsed)
        return Trajectory(t, rho11)
    _checked_rates(gm, t)
    _checked_rates(gp, t)
    rho11 = np.empty(t.size)
    rho11[0] = rho11_0
    for k in range(t.size - 1):
        decay, inflow = _duhamel_step(gm, gp, float(t[k]), float(t[k + 1]), 0)
        rho11[k + 1] = decay * rho11[k] + inflow
    return Trajectory(t, rho11)


def _duhamel_step(gm, gp, a: float, b: float, splits: int) -> tuple[float, float]:
    """(decay, inflow) with rho11(b) = decay rho11(a) + inflow, halving [a, b] until resolved."""
    half = 0.5 * (b - a)
    nodes = a + half * (_GL_NODES + 1.0)
    minus = _checked_rates(gm, nodes)
    total = minus + _checked_rates(gp, nodes)
    growth = half * float(_GL_WEIGHTS @ total)  # A(b) - A(a)
    tail = half * np.max(np.abs(_TO_SERIES[-2:] @ np.column_stack((minus, total))))
    if (tail > _SERIES_TOL * max(1.0, growth) or growth > _MAX_GROWTH) and splits < _MAX_SPLITS:
        right = _duhamel_step(gm, gp, a + half, b, splits + 1)
        if right[0] < _NEGLIGIBLE:
            return right
        left = _duhamel_step(gm, gp, a, a + half, splits + 1)
        return left[0] * right[0], right[0] * left[1] + right[1]
    # e^{-(A(b) - A(s))} at the nodes, with A(s) - A(a) from the interpolant of G_- + G_+
    remaining = growth - half * (_INTEGRAL @ total)
    return math.exp(-growth), half * float(_GL_WEIGHTS @ (minus * np.exp(-remaining)))


def nonlocal_corrected_scan(
    model: SpectralModel, params: TwoStateParams, w_rms: float, biases
) -> tuple[np.ndarray, np.ndarray]:
    """Local rates with a closed memory correction, (Gamma_-, Gamma_+), at every bias.

    Lambda_pm(inf) [1 + tau_R (Lambda(inf) - Lambda(0))] with Lambda =
    Lambda_- + Lambda_+, written with cosh(eps/2T) where Lambda(inf) carries
    cosh(eps eps_p0/W^2); the two agree when W^2 = 2 T eps_p0.  The factor is
    1 + D with D = integral_0^inf [Lambda(inf) - Lambda(tau)] dtau estimated
    as a step at tau_R: it is not the first-order expansion of 1/(1 - D) with
    D integrated.  ``mrtkit.oracle.corrected_rates_reference`` integrates D
    and keeps 1/(1 - D).  At validation criterion 7's point (eps_p0 = 2.5 W,
    Gamma_p/omega_resp = 0.1) the peak enhancement Gamma_peak/Gamma_p - 1 is
    0.091 here and 0.246 there.  The model's response frequency and eps_p0
    are computed once for the whole scan.
    """
    return _first_order_curve(model, params, w_rms)(np.asarray(biases, dtype=float))


@dataclass(frozen=True)
class _FirstOrderCurve:
    """eps -> (Gamma_-, Gamma_+), the rates with the closed memory factor.

    Gamma_pm = Gamma_p e^{-(eps -/+ eps_p0)^2/2W^2} [1 + 2 (Gamma_p/omega_resp)
    e^{-eps^2/2W^2} (e^{-eps_p0^2/2W^2} cosh(eps/2T) - 1)], for an array of
    biases or one float: the factor 1 + tau_R [Lambda(inf) - Lambda(0)],
    first order in Gamma_p/omega_resp but a tau_R-step estimate of the memory
    integral (``nonlocal_corrected_scan``).  Built by ``_first_order_curve``.
    """

    gp: float
    ratio: float
    eps_p0: float
    w: float
    temperature: float
    suppression: float  # e^{-eps_p0^2/2W^2}

    def __call__(self, e):
        gp, eps_p0, w, temperature = self.gp, self.eps_p0, self.w, self.temperature
        # exp(-e^2/2w^2) cosh(e/2T) as one exponent each way, so the window
        # edges at e/T >> 1 give 0, not inf * 0; an overflow left is caught below
        gauss = -0.5 * (e / w) ** 2
        thermal = 0.5 * e / temperature
        with np.errstate(over="ignore", invalid="ignore"):
            cosh_term = 0.5 * (np.exp(gauss + thermal) + np.exp(gauss - thermal))
            factor = 1.0 + 2.0 * self.ratio * (self.suppression * cosh_term - np.exp(gauss))
            minus = _shifted_gaussian(gp, w, e, eps_p0) * factor
            plus = _shifted_gaussian(gp, w, e, -eps_p0) * factor
        finite = np.isfinite(minus) & np.isfinite(plus)
        if not np.all(finite):
            worst = float(np.max(np.abs(np.asarray(e)[~finite])))
            raise RegimeError(
                f"memory-corrected rate overflows at eps/2T = {0.5 * worst / temperature:.3g}:"
                " the first-order correction fails at this temperature"
            )
        return minus, plus


def _first_order_curve(
    model: SpectralModel, params: TwoStateParams, w: float
) -> _FirstOrderCurve:
    """The first-order curve of a model and a system, checked once for regime."""
    delta, _ = _require_constant(params)
    gp = peak_rate(delta, w)
    warn_weak_coupling(delta, w)
    omega_resp = model.response_frequency()
    ratio = gp / omega_resp
    if ratio >= 0.5:
        raise RegimeError(f"Gamma_p/omega_resp = {ratio:.3g} >= 0.5 (omega_resp = 1/tau_R = "
                          f"{omega_resp:.3g}): memory correction out of regime")
    eps_p0 = model.reorganization_shift()
    suppression = math.exp(-0.5 * (eps_p0 / w) ** 2)
    return _FirstOrderCurve(gp, ratio, eps_p0, w, params.temperature, suppression)


@dataclass(frozen=True)
class PeakSummary:
    """Peak of the corrected Gamma_-(eps) curve: eps_peak located numerically.

    asymmetry is the dimensionless skewness (third central moment over the
    second to the 3/2) of the area-normalized curve, a closed moment of its
    four Gaussians.
    """

    gamma_peak: float
    eps_peak: float
    asymmetry: float


def peak_summary(
    model: SpectralModel, params: TwoStateParams, w_rms: float
) -> PeakSummary:
    """Locate and characterise the memory-corrected Gamma_-(eps) peak.

    Only eps_peak is located numerically.  It is accurate to about 1e-8
    relative, not to the xatol of 1e-11 max(W, |eps_p0|) it asks for:
    ``bounded_minimum`` stops on fminbound's rule, a bracket within
    2 (sqrt(eps_mach) |x| + xatol/3).  Against a 40-digit mpmath maximum of
    the same curve it is off by 9e-11 to 2.8e-8 relative on the tested
    models.  The skewness is closed: with r = Gamma_p/omega_resp,
    s = e^{-eps_p0^2/2W^2} and b = W^2/4T, Gamma_-/Gamma_p is the line
    (centre eps_p0, variance W^2, weight 1) plus three Gaussians of variance
    W^2/2: weight -2r e^{-eps_p0^2/4W^2} at eps_p0/2 and weights
    r s e^{(b^2 +- b eps_p0 - eps_p0^2/4)/W^2} at eps_p0/2 +- b, so norm,
    mean and central moments are sums over four terms.  The cosh factor
    peaks at the saddles +-W^2/2T; a curve that overflows there is refused
    with RegimeError.
    """
    rates = _first_order_curve(model, params, w_rms)
    ratio, eps_p0, w = rates.ratio, rates.eps_p0, rates.w

    def curve(e):
        return rates(e)[0]

    span = 3.0 * w
    eps_peak = bounded_minimum(
        lambda e: -curve(e), eps_p0 - span, eps_p0 + span,
        xatol=1e-11 * max(w, abs(eps_p0)),
    )
    # through the array path of nonlocal_corrected_scan, which it equals
    gamma_peak = float(curve(np.array([eps_peak]))[0])

    b = 0.25 * w * w / rates.temperature
    rates(np.array([-2.0 * b, 2.0 * b]))  # refuses an overflow at the cosh saddles
    x, y = eps_p0 / w, b / w
    centres = np.array([eps_p0, 0.5 * eps_p0, 0.5 * eps_p0 + b, 0.5 * eps_p0 - b])
    variances = w * w * np.array([1.0, 0.5, 0.5, 0.5])
    # the areas (weight times width) of the docstring's four Gaussians
    areas = np.sqrt(variances) * [1.0, -2.0 * ratio * math.exp(-0.25 * x * x),
                                  ratio * math.exp(y * y + x * y - 0.75 * x * x),
                                  ratio * math.exp(y * y - x * y - 0.75 * x * x)]
    areas /= areas.sum()
    offsets = centres - areas @ centres
    m2 = float(areas @ (variances + offsets * offsets))
    m3 = float(areas @ (offsets * (offsets * offsets + 3.0 * variances)))
    try:
        w3 = m2**1.5
    except OverflowError:
        raise RegimeError(f"W = {w:.3g}: the third moment of the line overflows") from None
    if not w3 >= sys.float_info.min:  # ~W^3: below it the skewness is rounding noise
        raise RegimeError(f"W = {w:.3g}: the third moment of the line underflows")
    return PeakSummary(gamma_peak=gamma_peak, eps_peak=eps_peak, asymmetry=m3 / w3)


def _gaussian_cosine_moments(f, a, c: float):
    """(J, I2) = integral_0^a (1, tau^2) e^{-c tau^2} cos(f tau) dtau, elementwise.

    J = (sqrt(pi)/2 sqrt(c)) [e^{-f^2/4c} - Re(e^{-c a^2 + i a f}
    w(f/2 sqrt(c) + i sqrt(c) a))] with the Faddeeva w, and I2 follows from
    J by two integrations by parts.  Both are differences of terms on the
    scales sqrt(pi)/2 sqrt(c) and (1 + f^2/2c) sqrt(pi)/4 c^{3/2}: their
    error is roundoff of those scales, not of J ~ a or I2 ~ a^3/3 as a -> 0.
    """
    root = math.sqrt(c)
    damp = np.exp(-c * a * a)
    phase = f * a
    tail = damp * np.exp(1j * phase) * faddeeva(f / (2.0 * root) + 1j * root * a)
    j = (0.5 * math.sqrt(math.pi) / root) * (np.exp(-f * f / (4.0 * c)) - tail.real)
    i2 = ((1.0 - f * f / (2.0 * c)) * j - a * damp * np.cos(phase)
          + (f / (2.0 * c)) * damp * np.sin(phase)) / (2.0 * c)
    return j, i2


def short_time_rho11(
    model: SpectralModel, params: TwoStateParams, w_rms: float, t: float
) -> float:
    """Second-order population growth rho11(t) for rho(0) = |0><0|.

    rho11(t) = (1/2) integral_0^t dtau_m integral_0^a dtau
    Delta(tau_m + tau/2) Delta(tau_m - tau/2) e^{-W^2 tau^2/2} cos(f tau),
    a = min(2 tau_m, 2(t - tau_m)), f = eps(tau_m) - eps_p(tau_m).  Valid
    for t below ~1/Delta (warned beyond).  Constant and linear schedules
    only: for those the phase is exactly f tau, and the amplitude product is
    Delta(tau_m)^2 - (dDelta/dt tau/2)^2, so the tau integral is closed
    (``_gaussian_cosine_moments``) and the tau_m integral is one
    ``gauss_kronrod`` quadrature.
    """
    if t < 0:
        raise RegimeError("short_time_rho11 requires t >= 0")
    delta_s = params.delta_schedule
    eps_s = params.eps_schedule
    if t == 0.0:
        return 0.0
    delta_max = max(abs(delta_s.value(0.0)), abs(delta_s.value(t)))
    if delta_max * t > 1.0:
        warnings.warn(
            "t * Delta > 1: second-order short-time expansion degrades",
            RegimeWarning,
            stacklevel=2,
        )
    ramp_sq = (0.5 * delta_s.rate) ** 2

    def growth(tau_m):
        eps_p = model.shift_arrays(tau_m)[0]
        window = 2.0 * np.minimum(tau_m, t - tau_m)
        j, i2 = _gaussian_cosine_moments(eps_s.value(tau_m) - eps_p, window,
                                         0.5 * w_rms * w_rms)
        return delta_s.value(tau_m) ** 2 * j - ramp_sq * i2

    val, _, _ = gauss_kronrod(growth, [0.0, 0.5 * t, t], epsabs=1e-15, epsrel=1e-13,
                              limit=200)
    return 0.5 * val
