"""Spectral-density models and their frequency moments."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mrtkit import (
    OhmicCutoff,
    RegimeError,
    Tabulated,
    White,
)
from mrtkit.oracle import ohmic_shift_reference
from mrtkit.spectral import _trigamma


def ohmic_symmetric_part(model, omega):
    """S_s(omega) = eta omega coth(omega/2T) / (1 + (omega/omega_c)^2)^2, the oracles' integrand."""
    if omega == 0.0:
        return 2.0 * model.eta * model.temperature
    occ = omega / math.tanh(0.5 * omega / model.temperature)
    return model.eta * occ / (1.0 + (omega / model.omega_c) ** 2) ** 2


def ohmic_grid_model(eta=1.0, omega_c=1.0, temperature=1.0, span=30.0, points=2401):
    """Tabulate an ohmic-cutoff spectrum on a symmetric grid."""
    source = OhmicCutoff(eta=eta, omega_c=omega_c, temperature=temperature)
    grid = np.linspace(-span, span, points)
    values = np.array([source.density(w) for w in grid])
    return Tabulated(grid, values)


def rms_trapezoid_oracle(eta, omega_c, temperature):
    """High-resolution trapezoid quadrature of W, independent of the library path."""

    def positive_side(w):
        out = np.full_like(w, 2.0 * eta * temperature)
        nz = w != 0
        x = w[nz]
        out[nz] = 2.0 * eta * (x / (-np.expm1(-x / temperature))) / (
            1.0 + (x / omega_c) ** 2
        ) ** 2
        return out

    knee = 40.0 * max(omega_c, temperature)
    head = np.linspace(0.0, knee, 400_001)
    tail = np.geomspace(knee, 4000.0 * max(omega_c, temperature), 400_001)
    total = np.trapezoid(positive_side(head), head) + np.trapezoid(positive_side(tail), tail)
    # negative side via the equilibrium reflection S(-w) = e^{-w/T} S(w)
    total += np.trapezoid(positive_side(head) * np.exp(-head / temperature), head)
    total += np.trapezoid(positive_side(tail) * np.exp(-tail / temperature), tail)
    return math.sqrt(total / (2.0 * math.pi))


def rms_quad_oracle(model):
    """W by SciPy quad, one panel per decade of T and omega_c from 1e-3 to 1e3 of each.

    The tail beyond the last decade is taken on u = top/omega in (0, 1], and
    each panel's absolute tolerance is 1e-15 of the sum so far.  Against
    30-digit mpmath it is within 1e-15 relative on omega_c/T in 1e-3 .. 1e3.
    """

    def symmetric(w):
        return ohmic_symmetric_part(model, w)

    decades = {s * 10.0**k for s in (model.omega_c, model.temperature) for k in range(-3, 4)}
    edges = [0.0, *sorted(decades)]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        total += quad(symmetric, a, b, epsabs=1e-15 * total, epsrel=1e-12, limit=200)[0]
    top = edges[-1]
    total += quad(lambda u: symmetric(top / u) * top / (u * u), 0.0, 1.0,
                  epsabs=1e-15 * total, epsrel=1e-12, limit=200)[0]
    return math.sqrt(total / math.pi)


def rms_mpmath_oracle(eta, omega_c, temperature, digits=30):
    """W from mpmath.quad at `digits` significant digits, split at the scales."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        eta, omega_c, temperature = map(mpmath.mpf, (eta, omega_c, temperature))

        def symmetric(w):
            if w == 0:
                return 2 * eta * temperature
            return eta * w / mpmath.tanh(w / (2 * temperature)) / (1 + (w / omega_c) ** 2) ** 2

        edges = sorted({mpmath.mpf(0), omega_c, temperature}) + [mpmath.inf]
        return float(mpmath.sqrt(mpmath.quad(symmetric, edges) / mpmath.pi))


class TestEvalSpectralDensity:
    def test_white_is_constant(self):
        assert White(s0=2.0).density(17.0) == 2.0
        assert White(s0=2.0).density(-3.5) == 2.0

    def test_ohmic_zero_frequency_limit(self):
        model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        assert model.density(0.0) == pytest.approx(2.0, rel=1e-15)
        assert model.density(1e-9) == pytest.approx(2.0, rel=1e-8)

    def test_ohmic_direct_value(self):
        model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        expected = 0.5 / (1.0 - math.exp(-1.0))
        assert model.density(1.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.79099, abs=5e-6)

    @pytest.mark.parametrize("ratio", [700.0, 710.0, 1e4])
    def test_ohmic_deep_negative_frequency(self, ratio):
        # e^{-omega/T} overflows a float from -omega/T ~ 709.8 on; the density
        # there is 0 or a subnormal, against 30-digit mpmath to one subnormal step
        mpmath = pytest.importorskip("mpmath")
        model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=0.05)
        omega = -ratio * model.temperature
        with mpmath.workdps(30):
            w, t = mpmath.mpf(omega), mpmath.mpf(model.temperature)
            exact = float(2 * w / (1 - mpmath.exp(-w / t)) / (1 + w * w) ** 2)
        value = model.density(omega)
        # the rounding of omega/T moves the exact value by about (omega/T) eps relative
        assert abs(value - exact) <= 1e-13 * exact + 5e-324
        assert value < 1e-308

    @pytest.mark.parametrize("eta, omega_c, temperature, omega", [
        (1.0, 1.0, 1.0, 1.2e77), (1.0, 1.0, 1.0, -1.2e77), (1.0, 1.0, 1e80, -1.2e77),
        (1.0, 1.0, 1.0, 1e100), (1.0, 1.0, 1.0, -1e100), (1.0, 1.0, 1.0, 1e103),
        (1.0, 1.0, 1.0, 1e200), (1.0, 1.0, 1.0, -1e200), (1.0, 1e120, 1.0, 1e200),
        (1e307, 1e-200, 1.0, 1e-100), (1e307, 1e-200, 1.0, -1e-100),
    ])
    def test_ohmic_far_beyond_the_cutoff(self, eta, omega_c, temperature, omega):
        # (1 + (omega/omega_c)^2)^2 overflows a float from |omega/omega_c| ~ 1.16e77
        # on; the density and its antisymmetric part there are normal (1e-231 at
        # 1.2e77, 2e-120 at 1e200 with omega_c = 1e120), subnormal (1e103) or 0.
        # At eta = 1e307 the product 2 eta omega/(1 - e^{-omega/T}) alone would
        # overflow, though the density is 2e-93
        mpmath = pytest.importorskip("mpmath")
        model = OhmicCutoff(eta=eta, omega_c=omega_c, temperature=temperature)
        with mpmath.workdps(30):
            w, t = mpmath.mpf(omega), mpmath.mpf(temperature)
            lorentz = (1 + (w / mpmath.mpf(omega_c)) ** 2) ** 2
            density = float(2 * eta * w / -mpmath.expm1(-w / t) / lorentz)
            antisymmetric = float(eta * w / lorentz)
        # x = omega / omega_c is rounded once and raised to the 4th power: 3 ulp
        # was the worst of 800 random points
        assert abs(model.density(omega) - density) <= 4 * math.ulp(density)
        assert abs(model.antisymmetric(omega) - antisymmetric) <= 4 * math.ulp(antisymmetric)

    @settings(max_examples=400, deadline=None)
    @given(eta=st.floats(-50.0, 50.0), omega_c=st.floats(-50.0, 50.0),
           temperature=st.floats(-50.0, 50.0),
           omega=st.floats(allow_nan=False, allow_infinity=False))
    @example(eta=0.0, omega_c=0.0, temperature=0.0, omega=1.2e77)
    @example(eta=0.0, omega_c=0.0, temperature=-2.0, omega=-800.0)
    @example(eta=0.0, omega_c=0.0, temperature=1.0, omega=5e-324)
    def test_ohmic_keeps_every_value_of_the_plain_expression(self, eta, omega_c, temperature,
                                                             omega):
        # the scales are powers of ten up to 1e+-50, where W is finite; only where
        # the plain expression overflows does the result change, from the raise
        # to a finite value
        model = OhmicCutoff(10.0**eta, 10.0**omega_c, 10.0**temperature)

        def plain_density(omega):
            if omega == 0.0:
                return 2.0 * model.eta * model.temperature
            lorentz = (1.0 + (omega / model.omega_c) ** 2) ** 2
            try:
                occupation_denom = -math.expm1(-omega / model.temperature)
            except OverflowError:
                return math.exp(math.log(2.0 * model.eta) + math.log(-omega)
                                - math.log(lorentz) + omega / model.temperature)
            return 2.0 * model.eta * (omega / occupation_denom) / lorentz

        def plain_antisymmetric(omega):
            return model.eta * omega / (1.0 + (omega / model.omega_c) ** 2) ** 2

        def outcome(function):
            try:
                return function(omega).hex()
            except ArithmeticError as err:
                return type(err)

        for value, plain in ((model.density, plain_density),
                             (model.antisymmetric, plain_antisymmetric)):
            expected = outcome(plain)
            if expected is OverflowError:
                assert math.isfinite(value(omega))
            else:
                # a division by zero where omega/T rounds to 0 stays as it was
                assert outcome(value) == expected

    def test_ohmic_nonnegative_everywhere(self):
        model = OhmicCutoff(eta=0.7, omega_c=0.3, temperature=0.5)
        for w in np.linspace(-50, 50, 101):
            assert model.density(w) >= 0.0

    def test_tabulated_range_error(self):
        model = ohmic_grid_model(span=5.0, points=51)
        with pytest.raises(ValueError, match="outside tabulated range"):
            model.density(5.5)

    def test_tabulated_matches_samples(self):
        source = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        model = ohmic_grid_model()
        for w in (-2.3, -0.17, 0.41, 3.3):
            assert model.density(w) == pytest.approx(
                source.density(w), rel=1e-4
            )


class TestModelValidation:
    def test_ohmic_requires_positive_parameters(self):
        # the last three are positive, but omega_c / 2 pi T is infinite, W
        # underflows to 0 and W overflows
        for bad in (dict(eta=0.0), dict(omega_c=-1.0), dict(temperature=0.0),
                    dict(temperature=1e-320), dict(eta=5e-324, omega_c=1e-320),
                    dict(eta=1e300, omega_c=1e300)):
            kwargs = {"eta": 1.0, "omega_c": 1.0, "temperature": 1.0, **bad}
            with pytest.raises(ValueError):
                OhmicCutoff(**kwargs)

    def test_tabulated_grid_rules(self):
        with pytest.raises(ValueError, match="at least 4"):
            Tabulated(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="strictly increasing"):
            Tabulated(np.array([0.0, 1.0, 1.0, 2.0]), np.ones(4))
        with pytest.raises(ValueError, match="nonnegative"):
            Tabulated(np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, -0.1, 1.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            Tabulated(np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, np.nan, 1.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            Tabulated(np.array([0.0, 1.0, 2.0, np.inf]), np.ones(4))

    def test_csv_round_trip(self, tmp_path):
        model = ohmic_grid_model(span=5.0, points=101)
        path = tmp_path / "spectrum.csv"
        rows = ["omega,S"] + [
            f"{float(w)!r},{float(s)!r}" for w, s in zip(model.omega, model.values)
        ]
        path.write_text("\n".join(rows) + "\n")
        loaded = Tabulated.from_csv(path)
        assert np.array_equal(loaded.omega, model.omega)
        assert np.array_equal(loaded.values, model.values)

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq,val\n0,1\n")
        with pytest.raises(ValueError, match="omega,S"):
            Tabulated.from_csv(path)


class TestSymmetricAntisymmetric:
    # S_s = (S(w) + S(-w))/2 and S_a = (S(w) - S(-w))/2, from density(+-w)
    def test_white_has_no_odd_part(self):
        model = White(s0=3.0)
        assert model.density(2.0) == model.density(-2.0) == 3.0

    def test_ohmic_fluctuation_dissipation_identity(self):
        model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        rng = np.random.default_rng(11)
        for w in np.concatenate(([0.1, 1.0, 2.0, 8.0], rng.uniform(0.05, 20.0, 40))):
            plus, minus = model.density(float(w)), model.density(-float(w))
            coth = 1.0 / math.tanh(0.5 * w / model.temperature)
            assert plus + minus == pytest.approx((plus - minus) * coth, rel=1e-12)

    def test_ohmic_antisymmetric_closed_form(self):
        # sympy decomposition of S = 2 e w/(1+(w/wc)^2)^2 / (1 - exp(-w/T)):
        # (S(w) - S(-w))/2 simplifies to e w / (1+(w/wc)^2)^2
        sympy = pytest.importorskip("sympy")
        w, eta, wc, T = sympy.symbols("w eta w_c T", positive=True)
        s = 2 * eta * w / (1 + (w / wc) ** 2) ** 2 / (1 - sympy.exp(-w / T))
        odd = sympy.simplify((s - s.subs(w, -w)) / 2)
        value = odd.subs({w: 2, eta: 1, wc: 1, T: 1})
        assert float(value) == pytest.approx(2.0 / 25.0, rel=1e-12)
        model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        assert model.antisymmetric(2.0) == pytest.approx(0.08, rel=1e-12)
        odd_part = 0.5 * (model.density(2.0) - model.density(-2.0))
        assert odd_part == pytest.approx(0.08, rel=1e-12)

    @pytest.mark.parametrize("lo, hi", [(0.0, 10.0), (-10.0, 0.0), (-10.0, -1.0)])
    def test_moments_need_data_on_both_sides(self, lo, hi):
        # the moments pair S(w) with S(-w): a grid that ends at or starts
        # from omega = 0 has nothing to pair
        grid = np.linspace(lo, hi, 11)
        model = Tabulated(grid, 1.0 + grid * grid)
        for moment in (model.reorganization_shift, model.tau_r, lambda: model.shift(1.0),
                       lambda: model.shift_arrays(np.array([1.0]))):
            with pytest.raises(RegimeError, match="needs data on both sides of omega = 0"):
                moment()


class TestNoiseRms:
    def test_tabulated_w_is_finite(self):
        # the integral of this table overflows: W would read inf
        model = Tabulated(np.array([-1e300, 0.0, 1e300, 2e300]), np.full(4, 1e300))
        with pytest.raises(RegimeError, match="integrates to zero or overflows"):
            model.noise_rms()

    def test_white_diverges(self):
        with pytest.raises(RegimeError, match="integral of S\\(omega\\) diverges"):
            White(s0=1.0).noise_rms()

    def test_low_frequency_fluctuation_dissipation(self):
        model = OhmicCutoff(eta=1.0, omega_c=0.01, temperature=1.0)
        w = model.noise_rms()
        eps_p0 = model.reorganization_shift()
        assert abs(w * w - 2.0 * model.temperature * eps_p0) / (w * w) <= 1e-3

    def test_against_trapezoid_oracle(self):
        model = OhmicCutoff(eta=0.8, omega_c=0.05, temperature=2.0)
        assert model.noise_rms() == pytest.approx(
            rms_trapezoid_oracle(0.8, 0.05, 2.0), rel=1e-8
        )

    @settings(max_examples=200, deadline=None)
    @given(
        eta=st.floats(0.1, 10.0),
        omega_c=st.floats(0.1, 10.0),
        log_ratio=st.floats(-3.0, 3.0),
    )
    # a quad oracle with only the head split at T and omega_c misses its
    # target here by 7.6e-11 (mpmath and the closed form agree)
    @example(eta=1.0, omega_c=1.0, log_ratio=2.9693)
    def test_closed_form_matches_quad_oracle(self, eta, omega_c, log_ratio):
        # omega_c / T spans 1e-3 .. 1e3
        model = OhmicCutoff(eta=eta, omega_c=omega_c, temperature=omega_c / 10.0**log_ratio)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = rms_quad_oracle(model)
        assert model.noise_rms() == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("eta, omega_c, log_ratio", [(1.0, 1.0, 2.9693), (8.0, 0.3, -2.7),
                                                         (0.4, 5.0, 0.0)])
    def test_quad_oracle_matches_mpmath(self, eta, omega_c, log_ratio):
        temperature = omega_c / 10.0**log_ratio
        expected = rms_mpmath_oracle(eta, omega_c, temperature)
        got = rms_quad_oracle(OhmicCutoff(eta=eta, omega_c=omega_c, temperature=temperature))
        assert abs(got - expected) <= 1e-13 * expected

    @pytest.mark.parametrize(
        "eta, omega_c, temperature",
        [(1.0, 1.0, 1.0), (0.8, 0.05, 2.0), (8.0, 1.0, 0.25), (2.0, 40.0, 1.0)],
    )
    def test_closed_form_matches_mpmath(self, eta, omega_c, temperature):
        expected = rms_mpmath_oracle(eta, omega_c, temperature)
        model = OhmicCutoff(eta=eta, omega_c=omega_c, temperature=temperature)
        assert abs(model.noise_rms() - expected) <= 1e-15 * expected


class TestTrigamma:
    def test_matches_mpmath_log_spaced(self):
        mpmath = pytest.importorskip("mpmath")
        for x in np.geomspace(1e-4, 1e4, 2001).tolist():
            expected = float(mpmath.polygamma(1, x))
            assert abs(_trigamma(x) - expected) <= 1e-15 * expected, x

    def test_recurrence_asymptotic_switch(self):
        # x = 10 is where the recurrence hands over to the asymptotic series
        mpmath = pytest.importorskip("mpmath")
        for x in (9.0, math.nextafter(10.0, 0.0), 10.0, math.nextafter(10.0, 20.0), 11.0):
            expected = float(mpmath.polygamma(1, x))
            assert abs(_trigamma(x) - expected) <= 1e-15 * expected, x

    def test_special_values(self):
        assert _trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-15)
        assert _trigamma(0.5) == pytest.approx(math.pi**2 / 2.0, rel=1e-15)


class TestReorganizationShift:
    def test_ohmic_closed_form(self):
        assert OhmicCutoff(
            eta=1.0, omega_c=1.0, temperature=1.0
        ).reorganization_shift() == pytest.approx(0.25, rel=1e-15)
        assert OhmicCutoff(
            eta=4.0, omega_c=0.5, temperature=3.0
        ).reorganization_shift() == pytest.approx(0.5, rel=1e-15)

    def test_tabulated_matches_source(self):
        assert ohmic_grid_model().reorganization_shift() == pytest.approx(0.25, abs=1e-4)

    def test_white_diverges(self):
        with pytest.raises(RegimeError, match="flat spectrum has no antisymmetric part"):
            White(s0=1.0).reorganization_shift()


class TestShiftFunction:
    def test_zero_time(self):
        model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        assert model.shift(0.0) == 0.0
        assert ohmic_shift_reference(model, 0.0) == 0.0
        assert ohmic_grid_model().shift(0.0) == 0.0

    def test_saturation(self):
        model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        assert model.shift(50.0) == pytest.approx(0.25, rel=1e-10)

    def test_direct_value(self):
        model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        expected = 0.25 * (1.0 - 2.0 * math.exp(-1.0))
        assert model.shift(1.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.066060, abs=5e-7)

    def test_quadrature_agrees_with_closed_form(self):
        model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        for t in np.linspace(0.0, 100.0, 41):
            closed = model.shift(float(t))
            numeric = ohmic_shift_reference(model, float(t))
            assert numeric == pytest.approx(closed, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("eta, omega_c, temperature", [(1.0, 1.0, 1.0), (2.0, 0.5, 3.0)])
    @pytest.mark.parametrize("x", [1e-6, 1e-4, 1e-2, 0.3])
    def test_quadrature_agrees_at_small_times(self, eta, omega_c, temperature, x):
        # at omega_c t << 1 eps_p ~ eps_p0 x^2 / 2 is far below the tail
        # integrals of S_a/omega, so only a relative bound shows an error
        model = OhmicCutoff(eta=eta, omega_c=omega_c, temperature=temperature)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            numeric = ohmic_shift_reference(model, x / omega_c)
        closed = model.shift(x / omega_c)
        assert abs(numeric - closed) <= 1e-6 * closed

    def test_monotone_nondecreasing(self):
        model = OhmicCutoff(eta=2.0, omega_c=0.7, temperature=1.3)
        ts = np.linspace(0.0, 40.0, 200)
        values = [model.shift(float(t)) for t in ts]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        assert np.all(model.shift_arrays(ts)[1] >= 0.0)

    def test_negative_time_rejected(self):
        model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        with pytest.raises(ValueError):
            model.shift(-1.0)

    @pytest.mark.parametrize(
        "model",
        [White(s0=1.0), OhmicCutoff(eta=2.0, omega_c=1.0, temperature=1.0),
         ohmic_grid_model(span=5.0, points=51)],
        ids=["white", "ohmic", "tabulated"],
    )
    def test_every_model_checks_the_time(self, model):
        # the argument is checked before any moment, so the flat spectrum
        # refuses t < 0 for the time, not for its divergent shift
        with pytest.raises(ValueError, match="requires t >= 0"):
            model.shift(-1.0)

    def test_white_diverges(self):
        with pytest.raises(RegimeError, match="flat spectrum has no antisymmetric part"):
            White(s0=1.0).shift(1.0)

    def test_tabulated_tracks_source(self):
        source = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        model = ohmic_grid_model()
        for t in (0.3, 1.0, 5.0, 30.0):
            assert model.shift(t) == pytest.approx(
                source.shift(t), abs=2e-5
            )

    def test_derivative_matches_closed_form(self):
        model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        for t in (0.0, 0.5, 2.0, 10.0):
            expected = 0.25 * t * math.exp(-t)
            assert model.shift_arrays(np.array([t]))[1][0] == pytest.approx(
                expected, rel=1e-12, abs=1e-300
            )


class TestNoiseMoments:
    """W, eps_p0 and tau_R together, as the scenarios read them."""

    def test_ohmic_bundle(self):
        model = OhmicCutoff(eta=0.8, omega_c=0.05, temperature=2.0)
        assert model.tau_r() == pytest.approx(20.0)
        assert model.response_frequency() == 1.0 / model.tau_r()
        assert model.reorganization_shift() == pytest.approx(0.01, rel=1e-14)
        assert model.noise_rms() > 0.0

    def test_tabulated_response_time(self):
        # 99% of the shift weight of eta/(1+w^2)^2 sits below omega ~ 3.4
        assert 1.0 / ohmic_grid_model().tau_r() == pytest.approx(3.37, rel=0.05)

    def test_white_rejected(self):
        model = White(s0=1.0)
        for moment, message in ((model.noise_rms, "integral of S\\(omega\\) diverges"),
                                (model.reorganization_shift, "no antisymmetric part")):
            with pytest.raises(RegimeError, match=message):
                moment()
        with pytest.raises(RegimeError, match="no finite response time"):
            model.tau_r()
