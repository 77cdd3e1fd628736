"""Brute-force references used to validate the main modules.

Each reference recomputes a result by a different method; what it shares
with the path it checks is stated here, since that part goes unchecked:

* the static-noise Monte Carlo averages exact closed-system Rabi
  oscillations over static Gaussian noise, and shares nothing; its normal
  samples are NumPy's Philox stream of each chunk, drawn by
  ``_philox.standard_normal`` with NumPy arithmetic and no ``numpy.random``,
  ``_LANES`` chunks per call;
* the convolution reference integrates the Gaussian-Lorentzian product
  directly, and shares nothing with the Faddeeva path it checks;
* the refined local reference integrates the local rate equation by
  classical RK4 on a finer grid, and shares ``dynamics._as_rate`` (a number
  as a constant rate) and ``Trajectory``;
* the refined nonlocal reference reruns ``evolve_nonlocal`` itself on each
  step split 16 ways, so it checks convergence in the step and nothing else;
* the direct nonlocal reference sums the memory-kernel history step by step
  in O(n^2) from the solver's own kernel values (``dynamics._kernel_arrays``
  on ``shift_arrays``): the history summation is what it checks;
* the corrected-rates reference integrates the memory denominator that the
  closed corrected rates estimate as a step at tau_R, from the same
  ``_kernel_arrays`` and ``rates._shifted_gaussian``;
* the ohmic shift reference integrates eps_p(t) over frequency from the
  model's ``antisymmetric``, against its closed form.

Every integral runs on the NumPy ``gauss_kronrod`` rule, as in the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, _as_rate, _kernel_arrays, evolve_nonlocal
from .errors import RegimeError
from .quadrature import _sorted_unique, gauss_kronrod
from .rates import TwoStateParams, _shifted_gaussian, peak_rate
from .spectral import SpectralModel

__all__ = [
    "McConfig",
    "StaticNoiseEstimate",
    "static_noise_transition",
    "convolution_reference",
    "refined_local_reference",
    "refined_nonlocal_reference",
    "corrected_rates_reference",
    "ohmic_shift_reference",
]

# Samples are generated in fixed chunks, each from its own counter-based
# stream keyed by (seed, chunk index): every sample is a pure function of
# (seed, sample index), independent of evaluation order or parallelism.
# Monte Carlo moments are merged chunk by chunk in increasing chunk index,
# so each estimate is a pure function of the configuration as well.
_CHUNK = 4096
# chunks drawn per Philox call: fewer NumPy calls per chunk, and under a
# megabyte of temporaries
_LANES = 5


@dataclass(frozen=True)
class McConfig:
    """Static-noise Monte Carlo configuration.

    The probe time must sit in the window [5/W, 0.2/Delta] where the
    population still grows linearly: late enough that dephasing has washed
    out coherence, early enough that the perturbative rate picture holds.
    """

    sample_count: int
    seed: int
    w_rms: float
    delta: float
    probe_time: float

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise ValueError("seed must fit in 64 bits")
        if self.w_rms <= 0:
            raise ValueError("w_rms must be positive")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.probe_time < 5.0 / self.w_rms:
            raise RegimeError(
                f"probe_time {self.probe_time:.3g} < 5/W = {5.0 / self.w_rms:.3g}: "
                "coherent transients not yet dephased"
            )
        if self.delta > 0 and self.probe_time > 0.2 / self.delta:
            raise RegimeError(
                f"probe_time {self.probe_time:.3g} > 0.2/Delta = "
                f"{0.2 / self.delta:.3g}: linear-growth window exceeded"
            )


@dataclass(frozen=True)
class StaticNoiseEstimate:
    rate: float
    stderr: float
    sample_count: int


def static_noise_transition(config: McConfig, eps_values) -> list[StaticNoiseEstimate]:
    """Monte Carlo static-noise (classical) tunneling rates, one per bias.

    Each sample draws a frozen bias offset Q ~ N(0, W^2) and evolves the
    closed two-level system exactly (Rabi formula); the mean occupation at
    the probe time over the probe time estimates Gamma_p exp(-eps^2/2W^2).
    All biases share the samples, streamed by chunk with the chunk moments
    merged (Chan, Golub & LeVeque): memory does not grow with the sample
    count.
    """
    eps = np.asarray(eps_values, dtype=float).reshape(-1, 1)
    n = config.sample_count
    if config.delta == 0.0:
        return [StaticNoiseEstimate(0.0, 0.0, n) for _ in range(eps.shape[0])]
    try:
        delta_sq = config.delta**2
    except OverflowError:
        raise RegimeError(f"delta = {config.delta!r}: delta^2 overflows") from None
    from ._philox import standard_normal  # imported here: runs that never sample skip its tables

    mean, m2 = np.zeros((2, eps.shape[0]))
    count = -(-n // _CHUNK)
    for first in range(0, count, _LANES):
        lanes = range(first, min(first + _LANES, count))
        # only this loop holds the call's rows, so they are freed before the next call
        for start, samples in zip(range(first * _CHUNK, n, _CHUNK),
                                  standard_normal(config.seed, lanes, _CHUNK)):
            size = min(_CHUNK, n - start)
            q = config.w_rms * samples[:size]
            rabi_sq = delta_sq + (eps + q) ** 2
            occupancy = (delta_sq / rabi_sq) * np.sin(
                0.5 * np.sqrt(rabi_sq) * config.probe_time) ** 2
            chunk_mean = occupancy.mean(axis=1)
            jump = chunk_mean - mean
            merged = start + size
            mean += jump * (size / merged)
            m2 += ((occupancy - chunk_mean[:, None]) ** 2).sum(axis=1)
            m2 += jump * jump * (start * size / merged)
    # one sample has m2 = 0 exactly: its spread reads 0
    stderr = np.sqrt(m2 / max(n - 1, 1)) / math.sqrt(n)
    return [
        StaticNoiseEstimate(rate=float(m) / config.probe_time,
                            stderr=float(s) / config.probe_time, sample_count=n)
        for m, s in zip(mean, stderr)
    ]


def convolution_reference(
    delta_ij: float, w_rms: float, eps_grid, eps_p: float, gamma_ij: float
) -> np.ndarray:
    """Direct quadrature of the Gaussian-Lorentzian convolution rate.

    Gamma(eps) = (Delta^2 gamma / sqrt(8 pi) W)
                 * integral de' exp(-(e'-eps_p)^2/2W^2) / ((eps-e')^2 + gamma^2)

    Used to validate the Faddeeva evaluation path.  Requires gamma_ij > 0
    (the gamma = 0 limit is the plain Gaussian).
    """
    if gamma_ij <= 0:
        raise ValueError("convolution_reference requires gamma_ij > 0")
    if delta_ij <= 0:
        raise ValueError("delta_ij must be positive")
    if w_rms <= 0:
        raise ValueError("w_rms must be positive")
    eps_grid = np.atleast_1d(np.asarray(eps_grid, dtype=float))
    try:
        delta_sq, gamma_sq = delta_ij**2, gamma_ij**2
    except OverflowError:
        raise RegimeError("convolution_reference: delta^2 or gamma^2 overflows") from None
    prefactor = delta_sq * gamma_ij / (math.sqrt(8.0 * math.pi) * w_rms)
    lo = eps_p - 45.0 * w_rms
    hi = eps_p + 45.0 * w_rms
    out = np.empty_like(eps_grid)
    for i, eps in enumerate(eps_grid):
        def integrand(x):
            gauss = np.exp(-0.5 * ((x - eps_p) / w_rms) ** 2)
            return gauss / ((eps - x) ** 2 + gamma_sq)

        # geometric ladder around the Lorentzian spike: lets the adaptive
        # rule zoom into widths far below the integration window
        spike = [eps]
        step = gamma_ij
        while step < 2.0 * (hi - lo):
            spike.extend((eps - step, eps + step))
            step *= 10.0
        pts = sorted(p for p in spike + [eps_p] if lo < p < hi)
        val, _, _ = gauss_kronrod(
            integrand, [lo, *pts, hi], epsabs=1e-300, epsrel=1e-12, limit=800
        )
        out[i] = prefactor * val
    return out


# Subdivisions of each grid step in the refined references.
_REFINEMENT = 16


def _refined(solve, t_grid) -> Trajectory:
    """solve(fine) on each step of t_grid split 16 ways, sampled back on t_grid."""
    t = np.asarray(t_grid, dtype=float)
    pieces = [np.linspace(a, b, _REFINEMENT, endpoint=False) for a, b in zip(t[:-1], t[1:])]
    full = solve(np.concatenate(pieces + [t[-1:]]))
    keep = slice(None, None, _REFINEMENT)
    return Trajectory(full.t[keep], full.rho11[keep])


# Agreement of successive RK4 results, and the substep ceiling, of each fine
# step in refined_local_reference.
_RK4_AGREEMENT = 1e-13
_RK4_MAX_SUBSTEPS = 2**16


def refined_local_reference(rate_minus, rate_plus, rho11_0: float, t_grid) -> Trajectory:
    """The local rate equation by classical RK4 on each grid step split 16 ways.

    d rho11/dt = G_-(t) (1 - rho11) - G_+(t) rho11: on each fine step the
    RK4 substep count doubles from 1 until two successive results agree to
    1e-13, and RegimeError is raised past 2^16 substeps.  A generic
    integrator against ``evolve_local``'s closed and Duhamel forms.  Rates
    are checked for sign at every evaluation.
    """
    if not 0.0 <= rho11_0 <= 1.0:
        raise ValueError("rho11_0 must lie in [0, 1]")
    gm = _as_rate(rate_minus)
    gp = _as_rate(rate_plus)

    def rates(time):
        minus, plus = gm(time), gp(time)
        if minus < 0 or plus < 0:
            raise RegimeError(f"negative rate at t = {time}")
        return minus, minus + plus

    def rk4(y, a, b, n):
        # d rho11/dt = minus - total * rho11; stage rates shared at each time
        h = (b - a) / n
        start = rates(a)
        for k in range(n):
            s = a + k * h
            mid, end = rates(s + 0.5 * h), rates(s + h)
            k1 = start[0] - start[1] * y
            k2 = mid[0] - mid[1] * (y + 0.5 * h * k1)
            k3 = mid[0] - mid[1] * (y + 0.5 * h * k2)
            k4 = end[0] - end[1] * (y + h * k3)
            y += h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
            start = end
        return y

    def solve(fine):
        rho11 = [float(rho11_0)]
        # a trial too coarse for a stiff step overflows to inf or NaN, which never agrees
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b in zip(fine[:-1].tolist(), fine[1:].tolist()):
                n, coarse, refined = 2, rk4(rho11[-1], a, b, 1), rk4(rho11[-1], a, b, 2)
                while not abs(refined - coarse) <= _RK4_AGREEMENT:
                    n *= 2
                    if n > _RK4_MAX_SUBSTEPS:
                        raise RegimeError(
                            f"local evolution failed: RK4 on [{a}, {b}] not settled "
                            f"within {_RK4_MAX_SUBSTEPS} substeps"
                        )
                    coarse, refined = refined, rk4(rho11[-1], a, b, n)
                rho11.append(refined)
        return Trajectory(fine, np.array(rho11))

    return _refined(solve, t_grid)


def refined_nonlocal_reference(
    model: SpectralModel, params: TwoStateParams, rho11_0: float, t_grid
) -> Trajectory:
    """``evolve_nonlocal`` on each grid step split 16 ways."""
    return _refined(lambda fine: evolve_nonlocal(model, params, rho11_0, fine), t_grid)


def corrected_rates_reference(
    model: SpectralModel, params: TwoStateParams, w_rms: float
) -> tuple[float, float]:
    """Memory-corrected local rates with the full denominator, (Gamma_-, Gamma_+).

    Gamma_pm = Lambda_pm(inf) / (1 - D), D = integral_0^inf [Lambda(inf) -
    Lambda(tau)] dtau with Lambda = Lambda_- + Lambda_+; the closed factor of
    ``nonlocal_corrected_scan`` is 1 + D with D estimated as a step at tau_R.
    D is integrated over [0, 60 tau_R]; a deficit that has not settled there,
    |Lambda(inf) - Lambda(cut)| * cut above the integral's own tolerance,
    has no converged value and raises RegimeError.
    """
    w = w_rms
    eps_p0 = model.reorganization_shift()
    gp = peak_rate(params.delta_schedule.initial, w)
    eps = params.eps_schedule.initial
    base_minus = _shifted_gaussian(gp, w, eps, eps_p0)
    base_plus = _shifted_gaussian(gp, w, eps, -eps_p0)

    def deficit(taus):
        minus, plus, _, _ = _kernel_arrays(params, w, *model.shift_arrays(taus))
        return base_minus + base_plus - (minus + plus)

    cut = 60.0 / model.response_frequency()
    value, _, _ = gauss_kronrod(deficit, [0.0, cut], epsabs=1e-14, epsrel=1e-11, limit=400)
    tolerance = max(1e-14, 1e-11 * abs(value))
    remainder = abs(float(deficit(np.array([cut]))[0])) * cut
    if remainder > tolerance:
        raise RegimeError(
            f"memory deficit not settled by 60 tau_R: |Lambda(inf) - Lambda(cut)| * cut "
            f"= {remainder:.3g} > {tolerance:.3g}"
        )
    denom = 1.0 - value
    if denom <= 0:
        raise RegimeError("memory-correction denominator vanished; out of regime")
    return base_minus / denom, base_plus / denom


def direct_nonlocal_reference(
    model: SpectralModel,
    params: TwoStateParams,
    rho11_0: float,
    t_grid,
    *,
    w_rms: float | None = None,
) -> np.ndarray:
    """rho11 on a uniform grid from the direct O(n^2) memory-kernel loop.

    The same product-trapezoid discretisation as ``evolve_nonlocal``, with
    every history sum taken as one dot product per step.  Inputs are taken
    as valid (constant schedules, uniform grid, resolved step); the result
    is returned unclipped.
    """
    t = np.asarray(t_grid, dtype=float)
    h = t[1] - t[0]
    w = model.noise_rms() if w_rms is None else w_rms
    n = t.size
    lam_m, _, dm, dp = _kernel_arrays(params, w, *model.shift_arrays(h * np.arange(n)))

    lam0 = lam_m[0]
    total0 = 2.0 * lam0
    y = np.empty(n)
    rhs = np.empty(n)
    y[0] = rho11_0
    rhs[0] = lam0 * (1.0 - 2.0 * y[0])
    for m in range(1, n):
        head = 0.5 * (dm[m] * (1.0 - y[0]) - dp[m] * y[0])
        if m > 1:
            window = slice(m - 1, 0, -1)
            hist = dm[window] @ (1.0 - y[1:m]) - dp[window] @ y[1:m]
        else:
            hist = 0.0
        known = lam0 + h * (head + hist)
        y[m] = (y[m - 1] + 0.5 * h * (rhs[m - 1] + known)) / (1.0 + 0.5 * h * total0)
        rhs[m] = known - total0 * y[m]
    return y


def ohmic_shift_reference(model: SpectralModel, t: float) -> float:
    """eps_p(t) of an ohmic-cutoff model by adaptive quadrature.

    eps_p(t) = integral_0^inf (domega/pi) g(omega)(1 - cos(omega t)), g = S_a/omega,
    the reference for the closed form eps_p0 (1 - e^{-omega_c t}(1 + omega_c t)).
    Split at a cut C it is (1/pi)[integral_0^C g 2 sin^2(omega t/2) +
    integral_C^inf g - integral_C^inf g cos(omega t)].  The head runs on
    ``gauss_kronrod`` with edges at the half-periods pi k/t and at the
    decades of omega_c; the tail of g on u = C/omega in (0, 1].  The cosine
    tail is dropped: for g decreasing beyond omega_c, the precondition here,
    it is at most 2 g(C)/t (one integration by parts), and C doubles from
    omega_c until 2 g(C)/(pi t) is a third of the absolute tolerance.  That
    tolerance follows the expected size eps_p0 min(1, (omega_c t)^2).
    """
    if t < 0:
        raise ValueError("ohmic_shift_reference requires t >= 0")
    if t == 0.0:
        return 0.0
    x = model.omega_c * t
    epsabs = 1e-10 * max(1.0, model.reorganization_shift()) * min(1.0, x * x) / 3.0

    def g(w):
        return model.antisymmetric(w) / w

    cut = model.omega_c
    while 2.0 * g(cut) / (math.pi * t) > epsabs:
        cut *= 2.0
    half_periods = (math.pi / t) * np.arange(1, int(cut * t / math.pi) + 1)
    decades = model.omega_c * 10.0 ** np.arange(int(math.log10(cut / model.omega_c)) + 1)
    edges = _sorted_unique(np.concatenate(([0.0, cut], half_periods, decades)))
    edges = edges[edges <= cut]

    def head(w):
        s = np.sin(0.5 * w * t)
        return g(w) * 2.0 * s * s

    total = gauss_kronrod(head, edges, epsabs=epsabs, epsrel=1e-11, limit=edges.size + 400)[0]
    tail = gauss_kronrod(lambda u: g(cut / u) * cut / (u * u), [0.0, 1.0], epsabs=epsabs,
                         epsrel=1e-11, limit=400)[0]
    return (total + tail) / math.pi
