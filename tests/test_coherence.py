"""Off-diagonal decay envelopes."""

import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mrtkit import (
    LinearSchedule,
    OhmicCutoff,
    RegimeError,
    SpectralModel,
    Tabulated,
    White,
    dephasing_exponent,
    offdiag_element,
)
from mrtkit.spectral import _BLOCK, _MAX_OMEGA_C_OVER_T
from scipy.integrate import IntegrationWarning, quad


# SciPy quad helpers of the X(t) oracle (formerly in mrtkit.oracle).
_EPSREL = 1e-11
# Head interval of an oscillatory integral is limited to a few cosine
# periods so plain adaptive quadrature never sees unresolved oscillation.
_HEAD_PERIODS = 3
# Multiples of the model's frequency scale that contain the integrand mass.
_MASS_SPAN = 40.0


def _quad(f, a, b, epsabs, points=None, limit=400):
    val, _ = quad(f, a, b, epsabs=epsabs, epsrel=_EPSREL, limit=limit, points=points)
    return val


def _smooth_integral(f, a, b, epsabs, scale, points=()):
    """Integral of a nonoscillatory f with features on `scale`; b may be inf."""
    if b == np.inf:
        cut = a + 2.0 * _MASS_SPAN * scale
        pts = sorted(p for p in points if a < p < cut) or None
        head = _quad(f, a, cut, 0.5 * epsabs, points=pts)
        tail, _ = quad(f, cut, np.inf, epsabs=0.5 * epsabs, epsrel=_EPSREL, limit=200)
        return head + tail
    pts = sorted(p for p in points if a < p < b) or None
    return _quad(f, a, b, epsabs, points=pts)


def _cosine_integral(f, a, b, t, epsabs):
    """integral_a^b f(w) cos(w t) dw via the oscillation-aware QUADPACK rules."""
    if b == np.inf:
        val, _ = quad(
            f, a, np.inf, weight="cos", wvar=t, epsabs=epsabs, limlst=300, limit=300
        )
        return val
    val, _ = quad(
        f, a, b, weight="cos", wvar=t, epsabs=epsabs, epsrel=_EPSREL, limit=400
    )
    return val


def ohmic_symmetric_part(model, omega):
    """S_s(omega) = eta omega coth(omega/2T) / (1 + (omega/omega_c)^2)^2, the oracles' integrand."""
    if omega == 0.0:
        return 2.0 * model.eta * model.temperature
    occ = omega / math.tanh(0.5 * omega / model.temperature)
    return model.eta * occ / (1.0 + (omega / model.omega_c) ** 2) ** 2


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


def exponent_quad_oracle(model, t):
    """The adaptive-quadrature ohmic X(t) that the Matsubara sum replaced."""
    if t == 0.0:
        return 0.0
    scale = max(model.omega_c, model.temperature)
    val = _halfline_exponent(lambda w: ohmic_symmetric_part(model, w), t, scale, np.inf)
    return 2.0 * val / math.pi


def exponent_mpmath_oracle(eta, omega_c, temperature, t, digits=30):
    """X(t) from mpmath.quad at `digits` significant digits.

    The sin^2 form runs to H = max(40 max(omega_c, T), 20 periods) (200
    periods when that is shorter), split at doubling frequencies and at
    every period; beyond H, sin^2 = (1 - cos)/2 with mpmath.quadosc.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        eta, omega_c, temperature, t = map(mpmath.mpf, (eta, omega_c, temperature, t))

        def symmetric(w):
            if w == 0:
                return 2 * eta * temperature
            return eta * w / mpmath.tanh(w / (2 * temperature)) / (1 + (w / omega_c) ** 2) ** 2

        def head(w):
            if w == 0:
                return symmetric(w) * t * t / 4
            s = mpmath.sin(w * t / 2) / w
            return symmetric(w) * s * s

        period = 2 * mpmath.pi / t
        scale = max(omega_c, temperature)
        upper = max(40 * scale, 20 * period)
        if 40 * scale > 200 * period:
            upper = 200 * period
        edges = {mpmath.mpf(0), upper}
        w = min(omega_c, temperature) / 8
        while w < upper:
            edges.add(w)
            w *= 2
        if upper / period <= 400:
            edges.update(k * period for k in range(1, int(upper / period) + 1))
        total = mpmath.quad(head, sorted(e for e in edges if e <= upper))
        tail = lambda w: symmetric(w) / (w * w)
        smooth = mpmath.quad(tail, [upper, 2 * upper, 10 * upper, mpmath.inf])
        oscillating = mpmath.quadosc(
            lambda w: tail(w) * mpmath.cos(w * t), [upper, mpmath.inf], omega=t
        )
        return float(2 * (total + (smooth - oscillating) / 2) / mpmath.pi)


class TestDephasingExponent:
    def test_zero_time(self):
        assert dephasing_exponent(White(s0=1.0), 0.0) == 0.0
        assert dephasing_exponent(OhmicCutoff(1.0, 1.0, 1.0), 0.0) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(white=st.booleans(), log_ratio=st.floats(-3.0, 5.3),
           log_wct=st.lists(st.floats(-4.0, 3.0), min_size=2, max_size=8))
    # omega_c/T on either side of 5.1e4, where the Matsubara head outgrows one block
    @example(white=False, log_ratio=math.log10(5.0e4), log_wct=[-1.0, 0.0, 0.5, 2.0])
    @example(white=False, log_ratio=math.log10(5.2e4), log_wct=[-1.0, 0.0, 0.5, 2.0])
    # times 1 and 1 + 2 ulp, where the float X(t) falls by 2 ulp
    @example(white=False, log_ratio=1.0, log_wct=[0.0, 2.220446049250313e-16])
    def test_nondecreasing_in_time(self, white, log_ratio, log_wct):
        # dX/dt is the sine transform of [S(w) + S(-w)]/w, positive and
        # nonincreasing in w for these models, so the exact X is nondecreasing;
        # a tabulated line spectrum oscillates and is left out.  Only the
        # exact X is monotone: times a rounding apart may fall by a few ulp
        # of X (4 at worst over Hypothesis seeds 1-100), so the floor is 8 ulp.
        model = White(s0=1.0) if white else OhmicCutoff(1.0, 1.0, 10.0**-log_ratio)
        times = np.sort(10.0 ** np.array(log_wct))
        x = dephasing_exponent(model, times)
        assert np.all(np.diff(x) >= -8.0 * np.spacing(x[1:]))

    def test_white_noise_closed_form(self):
        # 1/T2 = s0/2: exponent grows linearly
        for t in (0.1, 1.0, 7.0):
            assert dephasing_exponent(White(s0=2.0), t) == t

    def test_gaussian_decay_limit(self):
        # frequencies all below 1/t: exponent -> W^2 t^2 / 2
        model = OhmicCutoff(eta=1.0, omega_c=1e-5, temperature=1.0)
        w = model.noise_rms()
        t = 3.0 / w
        assert dephasing_exponent(model, t) == pytest.approx(
            0.5 * w * w * t * t, rel=1e-3
        )

    def test_gaussian_window_consistency(self):
        # omega_c << 1/t << W regime within 1e-2
        model = OhmicCutoff(eta=1.0, omega_c=1e-4, temperature=1.0)
        w = model.noise_rms()
        t = 1.0 / w
        assert dephasing_exponent(model, t) == pytest.approx(
            0.5 * w * w * t * t, rel=1e-2
        )

    def test_monotone_in_time(self):
        model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        ts = np.linspace(0.0, 30.0, 60)
        values = [dephasing_exponent(model, float(t)) for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            dephasing_exponent(White(s0=1.0), -0.5)

    def test_tabulated_two_sided_matches_source(self):
        source = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        grid = np.linspace(-30.0, 30.0, 2401)
        values = np.array([source.density(w) for w in grid])
        model = Tabulated(grid, values)
        for t in (0.5, 2.0, 10.0):
            assert dephasing_exponent(model, t) == pytest.approx(
                dephasing_exponent(source, t), rel=1e-4
            )

    @pytest.mark.parametrize(
        "model",
        [White(s0=2.0), OhmicCutoff(1.0, 1.0, 1.0),
         Tabulated(np.linspace(-5.0, 5.0, 41), np.exp(-np.linspace(-5.0, 5.0, 41) ** 2))],
        ids=["white", "ohmic", "tabulated"],
    )
    def test_array_contract(self, model):
        # a float in gives a float out; an array in gives an array of its shape
        times = np.array([[0.0, 0.4], [1.3, 2.0]])
        values = dephasing_exponent(model, times)
        assert isinstance(values, np.ndarray) and values.shape == times.shape
        scalar = dephasing_exponent(model, 1.3)
        assert type(scalar) is float
        if isinstance(model, Tabulated):
            # the array shares one node set, laid for its largest time
            assert values[1, 0] == pytest.approx(scalar, rel=1e-13)
        else:
            # the other models loop the scalar path
            assert values.ravel().tolist() == [
                dephasing_exponent(model, t) for t in times.ravel().tolist()
            ]
        with pytest.raises(ValueError):
            dephasing_exponent(model, np.array([1.0, -0.5]))

    def test_tabulated_one_sided_supported(self):
        # dephasing needs no decomposition; S = 0 outside the grid
        grid = np.linspace(0.0, 10.0, 401)
        model = Tabulated(grid, np.exp(-grid))
        assert dephasing_exponent(model, 1.0) > 0.0


class TestOhmicMatsubaraSum:
    """The closed ohmic X(t) against the old quadrature and 30-digit mpmath."""

    @pytest.mark.parametrize(
        "eta, omega_c, temperature, t",
        [(200.0, 0.01, 1.0, 0.1), (200.0, 0.01, 1.0, 5.0), (1.0, 1.0, 1.0, 0.3),
         (1.0, 1.0, 1.0, 5.0), (0.3, 5.0, 0.2, 1.5)],
    )
    def test_matches_quad_oracle(self, eta, omega_c, temperature, t):
        model = OhmicCutoff(eta=eta, omega_c=omega_c, temperature=temperature)
        assert dephasing_exponent(model, t) == pytest.approx(
            exponent_quad_oracle(model, t), rel=1e-12, abs=0.0
        )

    @settings(max_examples=150, deadline=None)
    @given(
        eta=st.floats(1e-3, 1e3),
        log_ratio=st.floats(-3.0, 3.0),
        log_wct=st.floats(-3.0, 3.0),
    )
    def test_property_against_quad_oracle(self, eta, log_ratio, log_wct):
        # omega_c / T spans 1e-3 .. 1e3 and omega_c t 1e-3 .. 1e3, with T t
        # capped at 100: outside that window the oracle's cosine tail breaks
        # down without a warning (see the mpmath cases below).  Inside it,
        # examples where the oracle warns or returns a negative X (its QAWF
        # tail sometimes yields -5.7e307 silently) are discarded, about 4 %,
        # and the oracle was measured off by up to 4.6e-11 relative and
        # 1.05e-13 absolute against mpmath, hence the bounds
        ratio = 10.0**log_ratio
        wct = min(10.0**log_wct, 100.0 * ratio)
        model = OhmicCutoff(eta=eta, omega_c=1.0, temperature=1.0 / ratio)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            expected = exponent_quad_oracle(model, wct)
        assume(expected >= 0.0)
        assume(not any(issubclass(w.category, IntegrationWarning) for w in caught))
        got = dephasing_exponent(model, wct)
        assert abs(got - expected) <= 1e-10 * expected + 2e-13

    @pytest.mark.parametrize(
        "eta, omega_c, temperature, t",
        [
            (1.0, 1.0, 1.0, 1e-8),      # omega_c t = 1e-8: X = W^2 t^2/2 to 1e-8
            (1.0, 1.0, 1.0, 0.3),
            (200.0, 0.01, 1.0, 0.1),
            (1.0, 1.0, 1e-3, 2.5),      # T << omega_c: 1 337 explicit terms
            (1.0, 1.0, 1e-3, 1e-8),
            (0.3, 5.0, 0.2, 1e-6),      # omega_c t = 5e-6, where the quad oracle fails
        ],
    )
    def test_matches_mpmath(self, eta, omega_c, temperature, t):
        model = OhmicCutoff(eta=eta, omega_c=omega_c, temperature=temperature)
        assert dephasing_exponent(model, t) == pytest.approx(
            exponent_mpmath_oracle(eta, omega_c, temperature, t), rel=1e-13, abs=0.0
        )

    @pytest.mark.parametrize(
        "eta, omega_c, temperature, t",
        [(0.7, 2.0, 1.3, 60.0), (1.38, 1.0, 292.4, 688.0)],  # the second: T t = 2e5
    )
    def test_long_time_asymptote_matches_mpmath(self, eta, omega_c, temperature, t):
        # once t min(omega_c, 2 pi T) >> 1, X(t) = eta T t - D up to terms
        # below e^-100, with D = (1/pi) int_0^inf (S_s(0) - S_s(w)) / w^2 dw
        # non-oscillatory; where T t >~ 1e4 the quad oracle is off by up to 3e-4
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            e, c, temp = map(mpmath.mpf, (eta, omega_c, temperature))

            def deficit(w):
                s = e * w / mpmath.tanh(w / (2 * temp)) / (1 + (w / c) ** 2) ** 2
                return (2 * e * temp - s) / (w * w)

            # Gauss-Legendre next to w = 0: tanh-sinh nodes crowd so close to
            # it that the cancellation in the numerator eats all 30 digits
            low = min(c, temp)
            head = mpmath.quad(deficit, [0, low], method="gauss-legendre")
            rest = mpmath.quad(deficit, sorted({low, c, temp, 40 * max(c, temp)}) + [mpmath.inf])
            expected = float(e * temp * t - (head + rest) / mpmath.pi)
        model = OhmicCutoff(eta=eta, omega_c=omega_c, temperature=temperature)
        assert dephasing_exponent(model, t) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("x", [1.0, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-4, 1.0 - 1e-4, 3.0])
    @pytest.mark.parametrize("wct", [1e-8, 1.5])
    def test_resonance_matches_mpmath(self, x, wct):
        # omega_c = nu_n = 2 pi n T: the triple pole of the Matsubara term
        omega_c = 2.0 * math.pi * x
        model = OhmicCutoff(eta=1.0, omega_c=omega_c, temperature=1.0)
        t = wct / omega_c
        assert dephasing_exponent(model, t) == pytest.approx(
            exponent_mpmath_oracle(1.0, omega_c, 1.0, t), rel=1e-13, abs=0.0
        )

    @pytest.mark.parametrize("ratio", [1e4, 1e5, _MAX_OMEGA_C_OVER_T])
    def test_memory_does_not_grow_with_omega_c_over_t(self, ratio):
        # 64 + 8 x Matsubara terms per time, x = omega_c/2 pi T (1.3e6 at the cap),
        # summed in blocks of _BLOCK: a call holds about 14 blocks of floats at most
        model = OhmicCutoff(eta=1.0, omega_c=ratio, temperature=1.0)
        t = np.array([1.0 / ratio])
        tracemalloc.start()
        try:
            value = dephasing_exponent(model, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value[0] > 0.0
        assert peak <= 16 * _BLOCK * 8

    def test_refused_beyond_the_ratio_cap(self):
        omega_c = _MAX_OMEGA_C_OVER_T * (1.0 + 1e-12)
        model = OhmicCutoff(eta=1.0, omega_c=omega_c, temperature=1.0)
        with pytest.raises(RegimeError, match="omega_c/T = 1e\\+06 exceeds 1e\\+06"):
            dephasing_exponent(model, 1.0)

    def test_short_time_limit(self):
        # X = W^2 t^2 / 2 (1 + O(omega_c t log)) as t -> 0
        model = OhmicCutoff(eta=2.0, omega_c=3.0, temperature=0.5)
        w = model.noise_rms()
        t = 1e-9
        assert dephasing_exponent(model, t) == pytest.approx(0.5 * w * w * t * t, rel=1e-7, abs=0.0)

    def test_long_time_slope(self):
        # X -> S_s(0) t / 2 - D: the slope eta T at late times
        model = OhmicCutoff(eta=0.7, omega_c=2.0, temperature=1.3)
        t1, t2 = 400.0, 800.0
        slope = (dephasing_exponent(model, t2) - dephasing_exponent(model, t1)) / (t2 - t1)
        assert slope == pytest.approx(0.7 * 1.3, rel=1e-12)


class TestOffdiagElement:
    def test_zero_initial_element(self):
        model = White(s0=1.0)
        assert offdiag_element(0.0, 1.0, model, 5.0) == 0.0

    def test_white_noise_magnitude_and_phase(self):
        model = White(s0=2.0)
        rho0 = 0.3 + 0.2j
        eps = 1.5
        for t in (0.5, 2.0):
            value = offdiag_element(rho0, eps, model, t)
            assert abs(value) == pytest.approx(abs(rho0) * math.exp(-t), rel=1e-12)
            expected_phase = cmath.phase(rho0) - eps * t
            assert cmath.phase(value) == pytest.approx(
                (expected_phase + math.pi) % (2 * math.pi) - math.pi, abs=1e-12
            )

    def test_gaussian_decay_value(self):
        # magnitude ratio e^{-W^2 t^2/2} = e^{-4.5} at t = 3/W
        model = OhmicCutoff(eta=1.0, omega_c=1e-5, temperature=1.0)
        w = model.noise_rms()
        value = offdiag_element(0.5, 0.0, model, 3.0 / w)
        assert abs(value) / 0.5 == pytest.approx(math.exp(-4.5), rel=1e-2)
        assert math.exp(-4.5) == pytest.approx(0.0111, abs=1e-4)

    def test_linear_ramp_phase(self):
        model = White(s0=0.2)
        ramp = LinearSchedule(1.0, 0.5)
        t = 2.0
        value = offdiag_element(0.4, ramp, model, t)
        expected_phase = -(1.0 * t + 0.25 * t * t)
        assert cmath.phase(value) == pytest.approx(
            (expected_phase + math.pi) % (2 * math.pi) - math.pi, abs=1e-12
        )

    def test_envelope_never_grows(self):
        model = OhmicCutoff(eta=0.5, omega_c=2.0, temperature=1.0)
        rho0 = 0.5
        previous = abs(rho0)
        for t in np.linspace(0.0, 10.0, 30):
            magnitude = abs(offdiag_element(rho0, 0.3, model, float(t)))
            assert magnitude <= abs(rho0) + 1e-15
            assert magnitude <= previous + 1e-12
            previous = magnitude

    def test_invalid_initial_element(self):
        with pytest.raises(ValueError):
            offdiag_element(0.8, 0.0, White(s0=1.0), 1.0)


class TestRangeCheck:
    """dephasing_exponent refuses an X(t) whose envelope would leave [0, 1]."""

    class Faulty(SpectralModel):
        def __init__(self, value):
            self.value = value

        def dephasing_exponent(self, times):
            return np.full(times.shape, self.value)

    @pytest.mark.parametrize("value", [-1e-9, math.nan], ids=["negative", "nan"])
    def test_refused_by_every_caller(self, value):
        model = self.Faulty(value)
        with pytest.raises(ValueError, match="nonnegative"):
            dephasing_exponent(model, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            dephasing_exponent(model, np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match="nonnegative"):
            offdiag_element(0.3, 0.0, model, 1.0)

    def test_roundoff_below_zero_passes(self):
        assert dephasing_exponent(self.Faulty(-1e-13), 1.0) == -1e-13
