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
from typing import TYPE_CHECKING

import numpy as np

from .schedules import LinearSchedule, as_schedule

if TYPE_CHECKING:
    # spectral imports this module for the ohmic Matsubara sum
    from .spectral import SpectralModel

__all__ = ["dephasing_exponent", "offdiag_element"]


def dephasing_exponent(model: SpectralModel, t):
    """Positive decay exponent X(t); the envelope is exp(-X(t)).

    t may be a float (a float is returned) or an array of times (an array of
    the same shape is returned).  Every model evaluates all times at once:
    white noise in closed form, the ohmic cutoff as a Matsubara sum
    (``_ohmic_exponent``), a tabulated model in one contraction on shared
    nodes.  A value below -1e-12 (an envelope above 1) or NaN raises
    ValueError.
    """
    times = np.asarray(t, dtype=float)
    if np.any(times < 0):
        raise ValueError("dephasing_exponent requires t >= 0")
    values = model.dephasing_exponent(times)
    # written so that NaN fails too
    if not np.all(values >= -1e-12):
        raise ValueError("dephasing exponent X(t) must be nonnegative: exp(-X) leaves [0, 1]")
    return float(values) if times.ndim == 0 else values


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
    index, so a time gives the same bits alone or inside an array.
    """
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
    weights = np.full(n_head + 1, 2.0)
    weights[0] = 1.0
    n = np.arange(n_head + 1, dtype=float)

    out = np.zeros(times.size)
    rows = max(1, _BLOCK // n.size)
    for start in range(0, times.size, rows):
        t = times[start:start + rows]
        live = t > 0.0
        t = np.where(live, t, 1.0)
        y = model.omega_c * t
        tau = 2.0 * math.pi * model.temperature * t
        e = _exp_moments(y, _TAYLOR_TERMS)
        head = np.sum(weights * _matsubara_terms(y, np.multiply.outer(tau, n), e), axis=-1)
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

