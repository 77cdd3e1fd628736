"""Spectral-density models and their frequency moments."""

import math

import numpy as np
import pytest

from mrtkit import (
    DecompositionError,
    DivergentMomentError,
    OhmicCutoff,
    Tabulated,
    White,
    eval_spectral_density,
    noise_moments,
    noise_rms,
    reorganization_shift,
    shift_function,
    shift_function_derivative,
    symmetric_antisymmetric,
)


def ohmic_grid_model(eta=1.0, omega_c=1.0, temperature=1.0, span=30.0, points=2401):
    """Tabulate an ohmic-cutoff spectrum on a symmetric grid."""
    source = OhmicCutoff(eta=eta, omega_c=omega_c, temperature=temperature)
    grid = np.linspace(-span, span, points)
    values = np.array([eval_spectral_density(source, w) for w in grid])
    return Tabulated(grid, values, temperature=temperature)


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


class TestEvalSpectralDensity:
    def test_white_is_constant(self):
        assert eval_spectral_density(White(s0=2.0), 17.0) == 2.0
        assert eval_spectral_density(White(s0=2.0), -3.5) == 2.0

    def test_ohmic_zero_frequency_limit(self):
        model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        assert eval_spectral_density(model, 0.0) == pytest.approx(2.0, rel=1e-15)
        assert eval_spectral_density(model, 1e-9) == pytest.approx(2.0, rel=1e-8)

    def test_ohmic_direct_value(self):
        model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        expected = 0.5 / (1.0 - math.exp(-1.0))
        assert eval_spectral_density(model, 1.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.79099, abs=5e-6)

    def test_ohmic_nonnegative_everywhere(self):
        model = OhmicCutoff(eta=0.7, omega_c=0.3, temperature=0.5)
        for w in np.linspace(-50, 50, 101):
            assert eval_spectral_density(model, w) >= 0.0

    def test_tabulated_range_error(self):
        model = ohmic_grid_model(span=5.0, points=51)
        with pytest.raises(ValueError, match="outside tabulated range"):
            eval_spectral_density(model, 5.5)

    def test_tabulated_matches_samples(self):
        source = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        model = ohmic_grid_model()
        for w in (-2.3, -0.17, 0.41, 3.3):
            assert eval_spectral_density(model, w) == pytest.approx(
                eval_spectral_density(source, w), rel=1e-4
            )


class TestModelValidation:
    def test_ohmic_requires_positive_parameters(self):
        for bad in (dict(eta=0.0), dict(omega_c=-1.0), dict(temperature=0.0)):
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
        loaded = Tabulated.from_csv(path, temperature=1.0)
        assert np.array_equal(loaded.omega, model.omega)
        assert np.array_equal(loaded.values, model.values)

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq,val\n0,1\n")
        with pytest.raises(ValueError, match="omega,S"):
            Tabulated.from_csv(path)


class TestSymmetricAntisymmetric:
    def test_white_has_no_odd_part(self):
        assert symmetric_antisymmetric(White(s0=3.0), 2.0) == (3.0, 0.0)

    def test_ohmic_fluctuation_dissipation_identity(self):
        model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        rng = np.random.default_rng(11)
        for w in np.concatenate(([0.1, 1.0, 2.0, 8.0], rng.uniform(0.05, 20.0, 40))):
            s_s, s_a = symmetric_antisymmetric(model, float(w))
            coth = 1.0 / math.tanh(0.5 * w / model.temperature)
            assert s_s == pytest.approx(s_a * coth, rel=1e-12)

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
        assert symmetric_antisymmetric(model, 2.0)[1] == pytest.approx(0.08, rel=1e-12)

    def test_one_sided_tabulated_rejected(self):
        grid = np.linspace(0.0, 10.0, 101)
        model = Tabulated(grid, np.ones_like(grid), temperature=1.0)
        with pytest.raises(DecompositionError):
            symmetric_antisymmetric(model, 1.0)


class TestNoiseRms:
    def test_white_diverges(self):
        with pytest.raises(DivergentMomentError):
            noise_rms(White(s0=1.0))

    def test_low_frequency_fluctuation_dissipation(self):
        model = OhmicCutoff(eta=1.0, omega_c=0.01, temperature=1.0)
        w = noise_rms(model)
        eps_p0 = reorganization_shift(model)
        assert abs(w * w - 2.0 * model.temperature * eps_p0) / (w * w) <= 1e-3

    def test_against_trapezoid_oracle(self):
        model = OhmicCutoff(eta=0.8, omega_c=0.05, temperature=2.0)
        assert noise_rms(model) == pytest.approx(
            rms_trapezoid_oracle(0.8, 0.05, 2.0), rel=1e-8
        )


class TestReorganizationShift:
    def test_ohmic_closed_form(self):
        assert reorganization_shift(
            OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        ) == pytest.approx(0.25, rel=1e-15)
        assert reorganization_shift(
            OhmicCutoff(eta=4.0, omega_c=0.5, temperature=3.0)
        ) == pytest.approx(0.5, rel=1e-15)

    def test_tabulated_matches_source(self):
        assert reorganization_shift(ohmic_grid_model()) == pytest.approx(0.25, abs=1e-4)

    def test_white_diverges(self):
        with pytest.raises(DivergentMomentError):
            reorganization_shift(White(s0=1.0))


class TestShiftFunction:
    def test_zero_time(self):
        model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        assert shift_function(model, 0.0) == 0.0
        assert shift_function(model, 0.0, method="quadrature") == 0.0
        assert shift_function(ohmic_grid_model(), 0.0) == 0.0

    def test_saturation(self):
        model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        assert shift_function(model, 50.0) == pytest.approx(0.25, rel=1e-10)

    def test_direct_value(self):
        model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        expected = 0.25 * (1.0 - 2.0 * math.exp(-1.0))
        assert shift_function(model, 1.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.066060, abs=5e-7)

    def test_quadrature_agrees_with_closed_form(self):
        model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        for t in np.linspace(0.0, 100.0, 41):
            closed = shift_function(model, float(t), method="closed")
            numeric = shift_function(model, float(t), method="quadrature")
            assert numeric == pytest.approx(closed, rel=1e-6, abs=1e-12)

    def test_monotone_nondecreasing(self):
        model = OhmicCutoff(eta=2.0, omega_c=0.7, temperature=1.3)
        ts = np.linspace(0.0, 40.0, 200)
        values = [shift_function(model, float(t)) for t in ts]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        assert all(shift_function_derivative(model, float(t)) >= 0.0 for t in ts)

    def test_negative_time_rejected(self):
        model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        with pytest.raises(ValueError):
            shift_function(model, -1.0)

    def test_white_diverges(self):
        with pytest.raises(DivergentMomentError):
            shift_function(White(s0=1.0), 1.0)

    def test_tabulated_tracks_source(self):
        source = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        model = ohmic_grid_model()
        for t in (0.3, 1.0, 5.0, 30.0):
            assert shift_function(model, t) == pytest.approx(
                shift_function(source, t), abs=2e-5
            )

    def test_derivative_matches_closed_form(self):
        model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
        for t in (0.0, 0.5, 2.0, 10.0):
            expected = 0.25 * t * math.exp(-t)
            assert shift_function_derivative(model, t) == pytest.approx(
                expected, rel=1e-12, abs=1e-300
            )


class TestNoiseMoments:
    def test_ohmic_bundle(self):
        model = OhmicCutoff(eta=0.8, omega_c=0.05, temperature=2.0)
        moments = noise_moments(model)
        assert moments.tau_r == pytest.approx(20.0)
        assert moments.eps_p0 == pytest.approx(0.01, rel=1e-14)
        assert moments.w_rms == pytest.approx(noise_rms(model))

    def test_tabulated_response_time(self):
        # 99% of the shift weight of eta/(1+w^2)^2 sits below omega ~ 3.4
        moments = noise_moments(ohmic_grid_model())
        assert 1.0 / moments.tau_r == pytest.approx(3.37, rel=0.05)

    def test_white_rejected(self):
        with pytest.raises(DivergentMomentError):
            noise_moments(White(s0=1.0))
