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
A memory correction 1/(1 - integral_0^inf [Lambda(inf) - Lambda(tau)] dtau)
enhances the local rates when Gamma_p is not small against the environment
response frequency.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import RegimeError, RegimeWarning
from .rates import TwoStateParams, peak_rate, warn_weak_coupling
from .spectral import (
    OhmicCutoff,
    SpectralModel,
    Tabulated,
    _shift_arrays,
    _tabulated_tau_r,
    noise_rms,
    reorganization_shift,
    shift_function,
    shift_function_derivative,
)

__all__ = [
    "KernelSpec",
    "Trajectory",
    "PeakSummary",
    "ShortTimeResult",
    "build_kernel",
    "lambda_pm",
    "kernel_integral",
    "evolve_nonlocal",
    "evolve_local",
    "nonlocal_corrected_rates",
    "peak_summary",
    "short_time_rho11",
]


# Roundoff allowance on trace preservation and on rho11 staying in [0, 1].
_ROUNDOFF = 1e-12


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Populations on a strictly increasing time grid; trace-preserving."""

    t: np.ndarray
    rho00: np.ndarray
    rho11: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        r0 = np.asarray(self.rho00, dtype=float)
        r1 = np.asarray(self.rho11, dtype=float)
        if np.any(np.diff(t) <= 0):
            raise ValueError("time grid must be strictly increasing")
        if r0.shape != t.shape or r1.shape != t.shape:
            raise ValueError("population arrays must match the time grid")
        if np.any(np.abs(r0 + r1 - 1.0) > _ROUNDOFF):
            raise ValueError("trace violated: rho00 + rho11 != 1")
        if np.any(r1 < -_ROUNDOFF) or np.any(r1 > 1.0 + _ROUNDOFF):
            raise ValueError("rho11 outside [0, 1]")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "rho00", r0)
        object.__setattr__(self, "rho11", r1)

    @classmethod
    def from_rho11(cls, t, rho11) -> "Trajectory":
        """Build from rho11 alone, clipping roundoff excursions out of [0, 1].

        An excursion above the roundoff allowance (or a NaN) is a solver
        fault and raises ValueError instead of being clipped away.
        """
        rho11 = np.asarray(rho11, dtype=float)
        excursion = float(np.max(np.maximum(-rho11, rho11 - 1.0), initial=0.0))
        if not excursion <= _ROUNDOFF:
            raise ValueError(f"rho11 leaves [0, 1] by {excursion:.3g}")
        rho11 = np.clip(rho11, 0.0, 1.0)
        return cls(t=np.asarray(t, dtype=float), rho00=1.0 - rho11, rho11=rho11)


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Memory-kernel ingredients: Lambda_pm(tau), their derivatives, and limits.

    value_at_zero is the common Lambda_pm(0) (eps_p(0) = 0 makes both
    directions coincide) and doubles as the delta weight of K_pm.
    """

    lambda_minus: Callable[[float], float]
    lambda_plus: Callable[[float], float]
    dlambda_minus: Callable[[float], float]
    dlambda_plus: Callable[[float], float]
    value_at_zero: float
    limit_minus: float
    limit_plus: float

    @property
    def delta_weight(self) -> float:
        return self.value_at_zero


def _require_constant(params: TwoStateParams) -> tuple[float, float]:
    delta = params.delta_schedule
    eps = params.eps_schedule
    if not (delta.is_constant and eps.is_constant):
        raise RegimeError(
            "time-invariant Hamiltonian required: delta and eps must be constant"
        )
    return delta.initial, eps.initial


def _response_frequency(model: SpectralModel) -> float:
    if isinstance(model, OhmicCutoff):
        return model.omega_c
    if isinstance(model, Tabulated):
        return 1.0 / _tabulated_tau_r(model)
    raise RegimeError("model has no finite response time")


def lambda_pm(
    model: SpectralModel,
    params: TwoStateParams,
    w_rms: float,
    tau: float,
    direction: int,
) -> float:
    """Lambda_dir(tau) = Gamma_p exp(-(eps + dir*eps_p(tau))^2 / 2 W^2)."""
    if tau < 0:
        raise ValueError("lambda_pm requires tau >= 0")
    if direction not in (-1, 1):
        raise ValueError("direction must be -1 or +1")
    delta, eps = _require_constant(params)
    gp = peak_rate(delta, w_rms)
    arg = (eps + direction * shift_function(model, tau)) / w_rms
    return gp * math.exp(-0.5 * arg * arg)


def build_kernel(
    model: SpectralModel, params: TwoStateParams, w_rms: float | None = None
) -> KernelSpec:
    """Assemble the kernel functions for a constant-parameter system."""
    delta, eps = _require_constant(params)
    w = noise_rms(model) if w_rms is None else w_rms
    gp = peak_rate(delta, w)
    eps_p0 = reorganization_shift(model)

    def lam(tau: float, direction: int) -> float:
        arg = (eps + direction * shift_function(model, tau)) / w
        return gp * math.exp(-0.5 * arg * arg)

    def dlam(tau: float, direction: int) -> float:
        eps_p = shift_function(model, tau)
        rate = shift_function_derivative(model, tau)
        value = gp * math.exp(-0.5 * ((eps + direction * eps_p) / w) ** 2)
        return -direction * value * (eps + direction * eps_p) * rate / (w * w)

    value_at_zero = gp * math.exp(-0.5 * (eps / w) ** 2)
    return KernelSpec(
        lambda_minus=lambda tau: lam(tau, -1),
        lambda_plus=lambda tau: lam(tau, +1),
        dlambda_minus=lambda tau: dlam(tau, -1),
        dlambda_plus=lambda tau: dlam(tau, +1),
        value_at_zero=value_at_zero,
        limit_minus=gp * math.exp(-0.5 * ((eps - eps_p0) / w) ** 2),
        limit_plus=gp * math.exp(-0.5 * ((eps + eps_p0) / w) ** 2),
    )


def kernel_integral(spec: KernelSpec, t: float, direction: int = -1) -> float:
    """Running kernel integral int_0^t K_dir(tau) dtau.

    Computed from the decomposition: the delta weight Lambda(0) plus the
    quadrature of the smooth derivative part.  By construction this equals
    Lambda_dir(t).
    """
    if t < 0:
        raise ValueError("kernel_integral requires t >= 0")
    if direction not in (-1, 1):
        raise ValueError("direction must be -1 or +1")
    dlam = spec.dlambda_minus if direction == -1 else spec.dlambda_plus
    if t == 0.0:
        return spec.value_at_zero
    from scipy.integrate import quad

    smooth, _ = quad(dlam, 0.0, t, epsabs=1e-13, epsrel=1e-11, limit=400)
    return spec.value_at_zero + smooth


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
    The history sums cost O(n log^2 n) for n grid points; the direct O(n^2)
    loop is kept as ``mrtkit.oracle.direct_nonlocal_reference``.
    """
    if not 0.0 <= rho11_0 <= 1.0:
        raise ValueError("rho11_0 must lie in [0, 1]")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("time grid needs at least two points")
    steps = np.diff(t)
    h = float(steps[0])
    if np.any(steps <= 0) or not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise ValueError("nonlocal evolution requires a uniform increasing grid")

    delta, eps = _require_constant(params)
    w = noise_rms(model) if w_rms is None else w_rms
    gp = peak_rate(delta, w)
    warn_weak_coupling(delta, w)
    omega_resp = _response_frequency(model)
    h_max = min(0.1 / omega_resp, 0.1 / gp)
    if h > h_max * (1.0 + 1e-9):
        raise RegimeError(
            f"grid step {h:.3g} exceeds resolution bound "
            f"min(1/(10*omega_c), 1/(10*Gamma_p)) = {h_max:.3g}"
        )

    n = t.size
    eps_p, deps = _shift_arrays(model, h * np.arange(n))
    lam_m = gp * np.exp(-0.5 * ((eps - eps_p) / w) ** 2)
    lam_p = gp * np.exp(-0.5 * ((eps + eps_p) / w) ** 2)
    # smooth kernel parts dLambda_pm/dtau; both vanish at tau = 0
    dm = lam_m * (eps - eps_p) * deps / (w * w)
    dp = -lam_p * (eps + eps_p) * deps / (w * w)
    lam0 = float(lam_m[0])
    del eps_p, deps, lam_m, lam_p
    y = _trapezoid_history_solve(dm, dp, lam0, h, float(rho11_0))
    return Trajectory.from_rho11(t, y)


# Steps per leaf of the history recursion.  Inside a leaf the history is
# summed directly on Python floats; below this size that beats an FFT.
_LEAF = 32


def _trapezoid_history_solve(
    dm: np.ndarray, dp: np.ndarray, lam0: float, h: float, rho11_0: float
) -> np.ndarray:
    """Implicit product-trapezoid steps of the memory-kernel equation.

    With s = dm + dp the smooth history at step m is

        sum_{j=1}^{m-1} dm[m-j] (1 - y_j) - dp[m-j] y_j
            = sum_{i=1}^{m-1} dm[i] - sum_{j=1}^{m-1} s[m-j] y_j,

    a cumulative sum plus a causal convolution with the unknowns.  The
    convolution is built by divide and conquer (Hairer, Lubich & Schlichte,
    SIAM J. Sci. Stat. Comput. 6, 1985): once the left half of [lo, hi) is
    solved, its whole contribution to the right half is added with one FFT
    product, for O(n log^2 n) work in total.  The weights and the per-step
    linear solve are those of the direct O(n^2) loop; only the order of
    summation differs.  The history starts at index 1: y_0 enters through
    the half-weighted head term.
    """
    n = dm.size
    s = dm + dp
    # known[m] = lam0 + h * (head[m] + sum_{i=1}^{m-1} dm[i]) - h * conv[m]
    base = np.zeros(n)
    np.cumsum(dm[1:-1], out=base[2:])
    base += 0.5 * (dm * (1.0 - rho11_0) - dp * rho11_0)
    base *= h
    base += lam0
    conv = np.zeros(n)
    y = np.empty(n)
    y[0] = rho11_0

    total0 = 2.0 * lam0
    half = 0.5 * h
    denom = 1.0 + half * total0
    leaf_kernel = s[min(_LEAF, n - 1):0:-1].tolist()  # s[L], ..., s[1]
    top = len(leaf_kernel)
    y_prev = rho11_0
    rhs_prev = lam0 * (1.0 - 2.0 * rho11_0)

    def leaf(lo: int, hi: int) -> None:
        nonlocal y_prev, rhs_prev
        outside = conv[lo:hi].tolist()
        known0 = base[lo:hi].tolist()
        ys: list[float] = []
        for k in range(hi - lo):
            inside = sum(map(operator.mul, leaf_kernel[top - k:], ys))
            known = known0[k] - h * (outside[k] + inside)
            y_prev = (y_prev + half * (rhs_prev + known)) / denom
            rhs_prev = known - total0 * y_prev
            ys.append(y_prev)
        y[lo:hi] = ys

    def solve(lo: int, hi: int) -> None:
        if hi - lo <= _LEAF:
            leaf(lo, hi)
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        # middle product: a cyclic length >= hi - lo - 1 keeps the wrapped
        # terms out of the outputs kept for [mid, hi)
        width = hi - lo
        size = 1 << (width - 2).bit_length()
        product = np.fft.rfft(y[lo:mid], size) * np.fft.rfft(s[1:width], size)
        part = np.fft.irfft(product, size)
        conv[mid:hi] += part[mid - lo - 1:width - 1]
        solve(mid, hi)

    solve(1, n)
    return y


def _as_rate(schedule) -> Callable[[float], float]:
    if callable(schedule):
        return schedule
    value = float(schedule)
    return lambda t: value


def evolve_local(
    rate_minus,
    rate_plus,
    rho11_0: float,
    t_grid,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-13,
    max_step: float | None = None,
) -> Trajectory:
    """Integrate d rho11/dt = G_-(t) (1 - rho11) - G_+(t) rho11 adaptively.

    Rates may be numbers or callables of time; they must be nonnegative on
    the grid.  For constant rates the exact solution is exponential
    relaxation toward G_-/(G_- + G_+).
    """
    if not 0.0 <= rho11_0 <= 1.0:
        raise ValueError("rho11_0 must lie in [0, 1]")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0):
        raise ValueError("time grid must be strictly increasing with >= 2 points")
    gm = _as_rate(rate_minus)
    gp = _as_rate(rate_plus)
    for tk in t:
        if gm(tk) < 0 or gp(tk) < 0:
            raise ValueError(f"negative rate at t = {tk}")
    if max_step is None:
        max_step = (t[-1] - t[0]) / 256.0

    def rhs(time, state):
        return [gm(time) * (1.0 - state[0]) - gp(time) * state[0]]

    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        rhs,
        (t[0], t[-1]),
        [rho11_0],
        t_eval=t,
        method="RK45",
        rtol=rtol,
        atol=atol,
        max_step=max_step,
    )
    if not sol.success:
        raise RuntimeError(f"local evolution failed: {sol.message}")
    return Trajectory.from_rho11(t, sol.y[0])


def nonlocal_corrected_rates(
    model: SpectralModel,
    params: TwoStateParams,
    w_rms: float,
    form: str = "first_order",
) -> tuple[float, float]:
    """Local rates with the leading memory correction, (Gamma_-, Gamma_+).

    form="first_order" evaluates the closed expansion in Gamma_p/omega_c;
    form="exact" computes the full denominator
    1 - integral_0^inf [Lambda(inf) - Lambda(tau)] dtau by quadrature.
    """
    if form not in ("first_order", "exact"):
        raise ValueError(f"unknown form {form!r}")
    delta, eps = _require_constant(params)
    w = w_rms
    gp = peak_rate(delta, w)
    warn_weak_coupling(delta, w)
    omega_resp = _response_frequency(model)
    ratio = gp / omega_resp
    if ratio >= 0.5:
        raise RegimeError(
            f"Gamma_p/omega_c = {ratio:.3g} >= 0.5: memory correction out of regime"
        )
    eps_p0 = reorganization_shift(model)
    base_minus = gp * math.exp(-0.5 * ((eps - eps_p0) / w) ** 2)
    base_plus = gp * math.exp(-0.5 * ((eps + eps_p0) / w) ** 2)
    if form == "first_order":
        factor = 1.0 + 2.0 * ratio * math.exp(-0.5 * (eps / w) ** 2) * (
            math.exp(-0.5 * (eps_p0 / w) ** 2) * math.cosh(0.5 * eps / params.temperature)
            - 1.0
        )
        return base_minus * factor, base_plus * factor

    from scipy.integrate import quad

    lam_inf = base_minus + base_plus

    def deficit(tau: float) -> float:
        eps_p = shift_function(model, tau)
        lam = gp * (
            math.exp(-0.5 * ((eps - eps_p) / w) ** 2)
            + math.exp(-0.5 * ((eps + eps_p) / w) ** 2)
        )
        return lam_inf - lam

    cut = 60.0 / omega_resp
    d_head, _ = quad(deficit, 0.0, cut, epsabs=1e-14, epsrel=1e-11, limit=400)
    d_tail, _ = quad(deficit, cut, np.inf, epsabs=1e-14, epsrel=1e-11, limit=200)
    denom = 1.0 - (d_head + d_tail)
    if denom <= 0:
        raise RegimeError("memory-correction denominator vanished; out of regime")
    return base_minus / denom, base_plus / denom


@dataclass(frozen=True)
class PeakSummary:
    """Numerically located peak of the corrected Gamma_-(eps) curve.

    asymmetry is the dimensionless skewness (third central moment over the
    second to the 3/2) of the area-normalized curve; the first_order fields
    are the closed-form leading estimates.
    """

    gamma_peak: float
    eps_peak: float
    asymmetry: float
    gamma_peak_first_order: float
    eps_peak_first_order: float


def peak_summary(
    model: SpectralModel, params: TwoStateParams, w_rms: float
) -> PeakSummary:
    """Locate and characterise the memory-corrected Gamma_-(eps) peak."""
    delta, _ = _require_constant(params)
    w = w_rms
    gp = peak_rate(delta, w)
    omega_resp = _response_frequency(model)
    ratio = gp / omega_resp
    if ratio >= 0.5:
        raise RegimeError(
            f"Gamma_p/omega_c = {ratio:.3g} >= 0.5: memory correction out of regime"
        )
    eps_p0 = reorganization_shift(model)
    temperature = params.temperature
    gauss_supp = math.exp(-0.5 * (eps_p0 / w) ** 2)

    def curve(e: float) -> float:
        base = gp * math.exp(-0.5 * ((e - eps_p0) / w) ** 2)
        factor = 1.0 + 2.0 * ratio * math.exp(-0.5 * (e / w) ** 2) * (
            gauss_supp * math.cosh(0.5 * e / temperature) - 1.0
        )
        return base * factor

    from scipy.integrate import quad
    from scipy.optimize import minimize_scalar

    span = 3.0 * w
    opt = minimize_scalar(
        lambda e: -curve(e),
        bounds=(eps_p0 - span, eps_p0 + span),
        method="bounded",
        options={"xatol": 1e-11 * max(w, abs(eps_p0))},
    )
    eps_peak = float(opt.x)
    gamma_peak = curve(eps_peak)

    # moments of the normalized curve; window covers the cosh saddle
    half = 10.0 * w + w * w / temperature
    lo, hi = eps_p0 - half, eps_p0 + half
    pts = [eps_p0 - w, eps_p0, eps_p0 + w]
    norm, _ = quad(curve, lo, hi, epsabs=1e-14 * gp, epsrel=1e-12, limit=400, points=pts)
    mean, _ = quad(
        lambda e: e * curve(e), lo, hi, epsabs=0.0, epsrel=1e-12, limit=400, points=pts
    )
    mean /= norm
    m2, _ = quad(
        lambda e: (e - mean) ** 2 * curve(e),
        lo, hi, epsabs=0.0, epsrel=1e-12, limit=400, points=pts,
    )
    m2 /= norm
    # the third moment nearly cancels; a floor on epsabs keeps QUADPACK from
    # chasing relative accuracy below the roundoff of the cancellation
    m3, _ = quad(
        lambda e: (e - mean) ** 3 * curve(e),
        lo, hi, epsabs=1e-10 * norm * m2**1.5, epsrel=1e-12, limit=400, points=pts,
    )
    m3 /= norm
    return PeakSummary(
        gamma_peak=gamma_peak,
        eps_peak=eps_peak,
        asymmetry=m3 / m2**1.5,
        gamma_peak_first_order=gp * (1.0 + ratio),
        eps_peak_first_order=eps_p0 * (1.0 + 2.0 * ratio * gauss_supp),
    )


@dataclass(frozen=True)
class ShortTimeResult:
    """Perturbative rho11(t) at three levels of approximation.

    double_quadrature : nested integral over history and relative time.
    single_quadrature : tunneling amplitudes evaluated at the midpoint.
    rate_approximation: running integral of the Gaussian rate Lambda_-(t).
    """

    double_quadrature: float
    single_quadrature: float
    rate_approximation: float


def short_time_rho11(
    model: SpectralModel, params: TwoStateParams, w_rms: float, t: float
) -> ShortTimeResult:
    """Second-order population growth rho11(t) for rho(0) = |0><0|.

    Valid for t below ~1/Delta (warned beyond).  Constant and linear
    schedules only: for those the inner phase integral is exactly
    (eps(tau') - eps_p(tau')) * tau.
    """
    if t < 0:
        raise ValueError("short_time_rho11 requires t >= 0")
    delta_s = params.delta_schedule
    eps_s = params.eps_schedule
    w = w_rms
    if t == 0.0:
        return ShortTimeResult(0.0, 0.0, 0.0)
    delta_max = max(abs(delta_s.value(0.0)), abs(delta_s.value(t)))
    if delta_max * t > 1.0:
        warnings.warn(
            "t * Delta > 1: second-order short-time expansion degrades",
            RegimeWarning,
            stacklevel=2,
        )

    from scipy.integrate import quad

    inner_cap = 12.0 / w

    def inner(tau_mid: float, product: bool) -> float:
        window = min(2.0 * tau_mid, 2.0 * (t - tau_mid))
        if window <= 0.0:
            return 0.0
        freq = eps_s.value(tau_mid) - shift_function(model, tau_mid)
        if product:
            def f(tau):
                amp = delta_s.value(tau_mid + 0.5 * tau) * delta_s.value(tau_mid - 0.5 * tau)
                return amp * math.exp(-0.5 * (w * tau) ** 2) * math.cos(freq * tau)
        else:
            amp0 = delta_s.value(tau_mid) ** 2

            def f(tau):
                return amp0 * math.exp(-0.5 * (w * tau) ** 2) * math.cos(freq * tau)

        val, _ = quad(f, 0.0, min(window, inner_cap), epsabs=1e-14, epsrel=1e-10, limit=200)
        return 2.0 * val

    def outer(product: bool) -> float:
        val, _ = quad(
            lambda tp: inner(tp, product),
            0.0,
            t,
            epsabs=1e-13,
            epsrel=1e-9,
            limit=200,
            points=[0.5 * t],
        )
        return 0.25 * val

    def local_rate(s: float) -> float:
        d = delta_s.value(s)
        arg = (eps_s.value(s) - shift_function(model, s)) / w
        return math.sqrt(math.pi / 8.0) * d * d / w * math.exp(-0.5 * arg * arg)

    rate_int, _ = quad(local_rate, 0.0, t, epsabs=1e-14, epsrel=1e-10, limit=200)
    return ShortTimeResult(
        double_quadrature=outer(True),
        single_quadrature=outer(False),
        rate_approximation=rate_int,
    )
