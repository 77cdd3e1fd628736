"""Off-diagonal decay envelopes."""

import cmath
import math

import numpy as np
import pytest

from mrtkit import (
    LinearSchedule,
    OhmicCutoff,
    Tabulated,
    White,
    dephasing_exponent,
    dephasing_result,
    eval_spectral_density,
    noise_rms,
    offdiag_element,
)


class TestDephasingExponent:
    def test_zero_time(self):
        assert dephasing_exponent(White(s0=1.0), 0.0) == 0.0
        assert dephasing_exponent(OhmicCutoff(1.0, 1.0, 1.0), 0.0) == 0.0

    def test_white_noise_closed_form(self):
        # 1/T2 = s0/2: exponent grows linearly
        for t in (0.1, 1.0, 7.0):
            assert dephasing_exponent(White(s0=2.0), t) == t

    def test_gaussian_decay_limit(self):
        # frequencies all below 1/t: exponent -> W^2 t^2 / 2
        model = OhmicCutoff(eta=1.0, omega_c=1e-5, temperature=1.0)
        w = noise_rms(model)
        t = 3.0 / w
        assert dephasing_exponent(model, t) == pytest.approx(
            0.5 * w * w * t * t, rel=1e-3
        )

    def test_gaussian_window_consistency(self):
        # omega_c << 1/t << W regime within 1e-2
        model = OhmicCutoff(eta=1.0, omega_c=1e-4, temperature=1.0)
        w = noise_rms(model)
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
        values = np.array([eval_spectral_density(source, w) for w in grid])
        model = Tabulated(grid, values, temperature=1.0)
        for t in (0.5, 2.0, 10.0):
            assert dephasing_exponent(model, t) == pytest.approx(
                dephasing_exponent(source, t), rel=1e-4
            )

    @pytest.mark.parametrize(
        "model",
        [White(s0=2.0), OhmicCutoff(1.0, 1.0, 1.0),
         Tabulated(np.linspace(-5.0, 5.0, 41), np.exp(-np.linspace(-5.0, 5.0, 41) ** 2), 1.0)],
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
        model = Tabulated(grid, np.exp(-grid), temperature=1.0)
        assert dephasing_exponent(model, 1.0) > 0.0


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
        w = noise_rms(model)
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


class TestDephasingResult:
    def test_fields(self):
        result = dephasing_result(White(s0=2.0), 1.5, 2.0)
        assert result.t == 2.0
        assert result.magnitude_ratio == pytest.approx(math.exp(-2.0))
        assert result.phase == pytest.approx(-3.0)

    def test_initial_point(self):
        result = dephasing_result(White(s0=2.0), 1.5, 0.0)
        assert result.magnitude_ratio == 1.0
        assert result.phase == 0.0
