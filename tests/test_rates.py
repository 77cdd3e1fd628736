"""Closed-form rate line shapes: Gaussian, Voigt, and multi-channel."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtkit import (
    LinearSchedule,
    RegimeError,
    RegimeWarning,
    WellLevels,
    convolution_reference,
    crossover_temperature,
    effective_delta,
    faddeeva,
    multichannel_rate,
    peak_rate,
    voigt_rate,
)
from mrtkit.rates import warn_weak_coupling

SQRT_PI_8 = math.sqrt(math.pi / 8.0)


def faddeeva_reference(z, dps=40):
    """High-precision w(z) = exp(-z^2) erfc(-iz), independent of scipy."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        zm = mp.mpc(z)
        value = mp.exp(-zm * zm) * mp.erfc(-1j * zm)
        return complex(value)


class TestPeakRate:
    def test_unit_values(self):
        assert peak_rate(1.0, 1.0) == pytest.approx(SQRT_PI_8, rel=1e-15)
        assert SQRT_PI_8 == pytest.approx(0.626657, abs=5e-7)

    def test_quadratic_scaling(self):
        assert peak_rate(2.0, 1.0) == pytest.approx(4.0 * peak_rate(1.0, 1.0), rel=1e-15)

    def test_small_amplitude(self):
        assert peak_rate(0.01, 1.0) == pytest.approx(6.26657e-5, rel=1e-6)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            peak_rate(0.0, 1.0)
        with pytest.raises(ValueError):
            peak_rate(1.0, -2.0)


class TestGaussianRate:
    """The zero-width voigt_rate: Gamma_- at eps_p, Gamma_+ at -eps_p."""

    def test_peak_attained_at_shifted_bias(self):
        w, eps_p = 1.3, 0.4
        gp = peak_rate(0.01, w)
        assert voigt_rate(0.01, w, +eps_p, eps_p, 0.0) == pytest.approx(gp, rel=1e-15)
        assert voigt_rate(0.01, w, -eps_p, -eps_p, 0.0) == pytest.approx(gp, rel=1e-15)

    def test_detailed_balance_is_exact(self):
        w, temperature = 1.0, 0.4
        eps_p = w * w / (2.0 * temperature)
        rng = np.random.default_rng(23)
        for eps in rng.uniform(-5.0, 5.0, 50):
            ratio = (voigt_rate(0.02, w, float(eps), eps_p, 0.0)
                     / voigt_rate(0.02, w, float(eps), -eps_p, 0.0))
            assert math.log(ratio) == pytest.approx(eps / temperature, abs=1e-12)

    def test_one_sigma_displacement(self):
        w, eps_p = 1.0, 0.7
        assert voigt_rate(0.01, w, eps_p + w, eps_p, 0.0) == pytest.approx(
            peak_rate(0.01, w) * math.exp(-0.5), rel=1e-14
        )

    def test_time_dependent_schedule(self):
        # a ramp is the same call on the schedule's value at t
        eps = LinearSchedule(0.0, 2.0)
        w, eps_p = 1.0, 0.5
        at_one = voigt_rate(0.01, w, eps.value(1.0), eps_p, 0.0)
        assert at_one == pytest.approx(voigt_rate(0.01, w, 2.0, eps_p, 0.0), rel=1e-15)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="delta_ij"):
            voigt_rate(0.0, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="w_rms"):
            voigt_rate(0.01, -1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="gamma_ij"):
            voigt_rate(0.01, 1.0, 0.0, 0.0, -1e-3)


class TestClassicalRate:
    """The static-noise limit: the shifted Gaussian at eps_p = 0."""

    def test_peak_at_zero_bias(self):
        assert voigt_rate(0.01, 1.0, 0.0, 0.0, 0.0) == pytest.approx(peak_rate(0.01, 1.0))

    def test_symmetric_directions(self):
        for eps in (-2.0, 0.3, 4.0):
            assert voigt_rate(0.01, 1.0, eps, 0.0, 0.0) == voigt_rate(0.01, 1.0, eps, -0.0, 0.0)


@settings(max_examples=300, deadline=None)
@given(
    delta=st.floats(1e-4, 1.0),
    w=st.floats(1e-2, 1e2),
    eps=st.floats(-50.0, 50.0),
    eps_p=st.floats(-20.0, 20.0),
)
def test_gaussian_line_mirrors_and_matches_its_array_path_bit_for_bit(delta, w, eps, eps_p):
    """Gamma_+(eps) is Gamma_-(-eps), and a point equals its value inside a scan."""
    minus = voigt_rate(delta, w, eps, eps_p, 0.0)
    mirrored = voigt_rate(delta, w, -eps, eps_p, 0.0)
    assert voigt_rate(delta, w, eps, -eps_p, 0.0) == mirrored
    assert voigt_rate(delta, w, np.array([eps, -eps]), eps_p, 0.0).tolist() == [minus, mirrored]


@settings(max_examples=300, deadline=None)
@given(
    w=st.floats(1e-3, 1e3),
    t_over_w=st.floats(0.05, 5.0),
    delta_over_w=st.floats(1e-6, 0.1, exclude_max=True),
    eps_over_w=st.floats(-4.0, 4.0),
)
def test_gaussian_shape_obeys_detailed_balance(w, t_over_w, delta_over_w, eps_over_w):
    """ln(Gamma_-/Gamma_+) = eps/T where eps_p = W^2/2T, for eps_p/W in [0.1, 10]."""
    temperature, delta, eps = t_over_w * w, delta_over_w * w, eps_over_w * w
    eps_p = w * w / (2.0 * temperature)
    ratio = voigt_rate(delta, w, eps, eps_p, 0.0) / voigt_rate(delta, w, eps, -eps_p, 0.0)
    assert abs(math.log(ratio) - eps / temperature) <= 1e-12 * max(1.0, abs(eps / temperature))


class TestFaddeeva:
    def test_origin(self):
        assert faddeeva(0.0) == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_imaginary_axis(self):
        # w(iy) = e^{y^2} erfc(y), real
        value = faddeeva(1j)
        assert value.imag == 0.0
        assert value.real == pytest.approx(math.exp(1.0) * math.erfc(1.0), rel=1e-13)
        assert value.real == pytest.approx(0.427584, abs=5e-7)

    def test_real_axis_real_part_is_gaussian(self):
        for x in (-3.0, -0.3, 0.0, 1.7, 4.0):
            assert faddeeva(x).real == pytest.approx(math.exp(-x * x), rel=1e-12)

    def test_against_high_precision_oracle(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(-8.0, 8.0, 40) + 1j * rng.uniform(0.0, 8.0, 40)
        for z in points:
            expected = faddeeva_reference(complex(z))
            assert faddeeva(z) == pytest.approx(expected, rel=1e-10)

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(17)
        points = rng.uniform(-5.0, 5.0, 30) + 1j * rng.uniform(0.0, 5.0, 30)
        mirrored = faddeeva(-np.conj(points))
        assert np.allclose(mirrored, np.conj(faddeeva(points)), rtol=1e-13, atol=0.0)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValueError):
            faddeeva(1.0 - 0.1j)


class TestVoigtRate:
    def test_zero_width_equals_gaussian_exactly(self):
        expected = peak_rate(0.01, 1.0) * np.exp(-0.5 * ((1.3 - 0.4) / 1.0) ** 2)
        assert voigt_rate(0.01, 1.0, 1.3, 0.4, 0.0) == expected

    def test_narrow_width_close_to_gaussian(self):
        grid = np.linspace(-4.0, 5.0, 11)
        gp = peak_rate(0.01, 1.0)
        narrow = voigt_rate(0.01, 1.0, grid, 0.4, 1e-8)
        gauss = voigt_rate(0.01, 1.0, grid, 0.4, 0.0)
        assert np.max(np.abs(narrow - gauss)) <= 1e-6 * gp

    def test_wide_width_matches_convolution(self):
        # gamma = 100 W: deep Lorentzian regime
        grid = np.linspace(-150.0, 150.0, 7)
        fadd = voigt_rate(0.01, 1.0, grid, 0.0, 100.0)
        conv = convolution_reference(0.01, 1.0, grid, 0.0, 100.0)
        assert np.max(np.abs(fadd - conv) / conv) <= 1e-6

    def test_extreme_width_against_convolution(self):
        grid = np.linspace(-2000.0, 2000.0, 5)
        fadd = voigt_rate(0.01, 1.0, grid, 0.0, 1000.0)
        conv = convolution_reference(0.01, 1.0, grid, 0.0, 1000.0)
        assert np.max(np.abs(fadd - conv) / conv) <= 1e-3

    @pytest.mark.parametrize("w,gamma", [(1.0, 0.01), (1.0, 1.0), (1.0, 30.0), (0.2, 2.0)])
    def test_area_is_width_independent(self, w, gamma):
        from scipy.integrate import quad

        delta = 0.02
        exact = math.pi * delta * delta / 2.0
        profile = lambda e: voigt_rate(delta, w, e, 0.3, gamma)
        cut = 0.3 + 60.0 * max(w, gamma)
        area = (
            quad(profile, -np.inf, -cut, epsabs=1e-16, epsrel=1e-9)[0]
            + quad(profile, -cut, cut, epsabs=1e-16, epsrel=1e-9, limit=600)[0]
            + quad(profile, cut, np.inf, epsabs=1e-16, epsrel=1e-9)[0]
        )
        assert area == pytest.approx(exact, rel=1e-6)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            voigt_rate(0.01, 1.0, 0.0, 0.0, -1.0)


class TestWellLevels:
    def test_validation(self):
        with pytest.raises(ValueError, match="E_0 = 0"):
            WellLevels((0.5, 1.0), (0.1, 0.2), (0.0, 0.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            WellLevels((0.0, 1.0, 0.5), (0.1, 0.2, 0.3), (0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="zero intrawell relaxation"):
            WellLevels((0.0, 1.0), (0.1, 0.2), (0.1, 0.0))
        with pytest.raises(ValueError, match="positive"):
            WellLevels((0.0, 1.0), (0.1, 0.0), (0.0, 0.0))

    def test_plasma_frequency(self):
        levels = WellLevels((0.0, 1.7, 3.0), (0.01, 0.5, 1.0), (0.0, 0.1, 0.2))
        assert levels.plasma_frequency == pytest.approx(1.7)


class TestEffectiveDelta:
    def test_zero_temperature_limit(self):
        levels = WellLevels((0.0, 1.0), (0.01, 1.0), (0.0, 0.0))
        assert effective_delta(levels, 1e-4) == pytest.approx(0.01, rel=1e-12)

    def test_crossover_point_gives_sqrt_two(self):
        omega_p = 1.0
        levels = WellLevels((0.0, omega_p), (0.01, 1.0), (0.0, 0.0))
        t_co = omega_p / (2.0 * math.log(100.0))
        assert effective_delta(levels, t_co) == pytest.approx(
            0.01 * math.sqrt(2.0), rel=1e-12
        )

    def test_two_excited_levels_direct_sum(self):
        d0, d1, e10 = 0.01, 0.4, 1.0
        levels = WellLevels((0.0, e10, 2.0 * e10), (d0, d1, d1), (0.0, 0.0, 0.0))
        temperature = 0.7
        expected_sq = d0 * d0 + d1 * d1 * (
            math.exp(-e10 / temperature) + math.exp(-2.0 * e10 / temperature)
        )
        assert effective_delta(levels, temperature) ** 2 == pytest.approx(
            expected_sq, rel=1e-14
        )

    def test_nondecreasing_in_temperature(self):
        levels = WellLevels((0.0, 1.0, 2.2), (0.01, 0.5, 1.5), (0.0, 0.0, 0.0))
        temperatures = np.geomspace(1e-3, 10.0, 40)
        values = [effective_delta(levels, float(t)) for t in temperatures]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(0.01, rel=1e-12)


class TestCrossoverTemperature:
    def test_unit_logarithm(self):
        levels = WellLevels((0.0, 2.0), (1.0, math.e), (0.0, 0.0))
        assert crossover_temperature(levels) == pytest.approx(1.0, rel=1e-14)

    def test_large_ratio(self):
        levels = WellLevels((0.0, 1.0), (0.001, 1.0), (0.0, 0.0))
        assert crossover_temperature(levels) == pytest.approx(0.072382, abs=5e-7)

    def test_defining_condition(self):
        levels = WellLevels((0.0, 1.4), (0.02, 3.0), (0.0, 0.0))
        t_co = crossover_temperature(levels)
        condition = (3.0 / 0.02) ** 2 * math.exp(-1.4 / t_co)
        assert condition == pytest.approx(1.0, rel=1e-12)

    def test_no_crossover(self):
        levels = WellLevels((0.0, 1.0), (0.5, 0.4), (0.0, 0.0))
        with pytest.raises(RegimeError, match="no crossover"):
            crossover_temperature(levels)


# 1-4 levels without relaxation, in units of W: (level gaps, tunneling amplitudes)
unrelaxed_levels = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.01, 10.0), min_size=n - 1, max_size=n - 1),
    st.lists(st.floats(1e-6, 0.1, exclude_max=True), min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(
    w=st.floats(1e-3, 1e3),
    t_over_w=st.floats(0.05, 5.0),
    levels_over_w=unrelaxed_levels,
    eps_over_w=st.floats(-4.0, 4.0),
    normalized=st.booleans(),
)
def test_multichannel_shape_obeys_detailed_balance(w, t_over_w, levels_over_w, eps_over_w,
                                                   normalized):
    """Every Gaussian channel has the ratio e^{eps/T} at eps_p = W^2/2T, and so has their sum."""
    gaps, deltas = levels_over_w
    levels = WellLevels(energies=tuple(w * np.cumsum([0.0, *gaps])),
                        deltas=tuple(w * d for d in deltas), relax_rates=(0.0,) * len(deltas))
    temperature, eps = t_over_w * w, eps_over_w * w
    eps_p = w * w / (2.0 * temperature)
    ratio = (multichannel_rate(levels, temperature, w, eps, eps_p, normalized)
             / multichannel_rate(levels, temperature, w, eps, -eps_p, normalized))
    assert abs(math.log(ratio) - eps / temperature) <= 1e-12 * max(1.0, abs(eps / temperature))


class TestMultichannelRate:
    def test_zero_temperature_ground_channel_only(self):
        levels = WellLevels((0.0, 1.0), (0.01, 1.0), (0.0, 0.0))
        rate = multichannel_rate(levels, 1e-3, 1.0, 0.2, 0.2)
        assert rate == pytest.approx(voigt_rate(0.01, 1.0, 0.2, 0.2, 0.0), rel=1e-12)

    def test_channel_sum_equals_shortcut(self):
        levels = WellLevels((0.0, 1.0, 2.2), (1e-3, 0.05, 0.3), (0.0, 0.0, 0.0))
        temperature, w, eps_p = 0.8, 1.0, 0.3
        weights = np.exp(-np.asarray(levels.energies) / temperature)
        weights = weights / weights.sum()
        for eps in (-1.0, 0.3, 2.0):
            brute = sum(
                p * voigt_rate(d, w, eps, eps_p, 0.0)
                for p, d in zip(weights, levels.deltas)
            )
            assert multichannel_rate(levels, temperature, w, eps, eps_p) == pytest.approx(
                brute, rel=1e-12
            )
        # without relaxation the channels add up to one Gaussian of amplitude
        # Delta_eff(T); normalized weights divide it by the partition function
        gp_eff = peak_rate(effective_delta(levels, temperature), w)
        partition = float(np.sum(np.exp(-np.asarray(levels.energies) / temperature)))
        for normalized, scale in ((True, 1.0 / partition), (False, 1.0)):
            for eps in (-1.0, 0.3, 2.0):
                closed = scale * gp_eff * math.exp(-0.5 * ((eps - eps_p) / w) ** 2)
                assert multichannel_rate(
                    levels, temperature, w, eps, eps_p, normalized
                ) == pytest.approx(closed, rel=1e-12)

    def test_lorentzian_channels_use_voigt(self):
        levels = WellLevels((0.0, 1.0), (0.01, 0.5), (0.0, 0.3))
        temperature, w, eps_p, eps = 0.5, 1.0, 0.2, 0.1
        weights = np.exp(-np.asarray(levels.energies) / temperature)
        weights = weights / weights.sum()
        expected = weights[0] * voigt_rate(0.01, w, eps, eps_p, 0.0) + weights[
            1
        ] * voigt_rate(0.5, w, eps, eps_p, 0.3)
        assert multichannel_rate(levels, temperature, w, eps, eps_p) == pytest.approx(
            expected, rel=1e-14
        )

    def test_unnormalized_weights_flag(self):
        levels = WellLevels((0.0, 1.0), (0.01, 0.5), (0.0, 0.0))
        temperature, w, eps_p, eps = 0.5, 1.0, 0.2, 0.0
        partition = 1.0 + math.exp(-1.0 / temperature)
        normalized = multichannel_rate(levels, temperature, w, eps, eps_p)
        raw = multichannel_rate(levels, temperature, w, eps, eps_p, normalized=False)
        assert raw == pytest.approx(normalized * partition, rel=1e-12)


class TestValidityWarning:
    def test_warns_below_threshold(self):
        with pytest.warns(RegimeWarning, match="perturbative regime violated"):
            assert warn_weak_coupling(0.5, 1.0)

    def test_silent_in_regime(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not warn_weak_coupling(0.01, 1.0)

