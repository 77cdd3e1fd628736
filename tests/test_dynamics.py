"""Memory-kernel population dynamics and its local approximations."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from mrtkit import (
    LinearSchedule,
    OhmicCutoff,
    RegimeError,
    RegimeWarning,
    Trajectory,
    TwoStateParams,
    build_kernel,
    classical_rate,
    evolve_local,
    evolve_nonlocal,
    gaussian_rate,
    kernel_integral,
    lambda_pm,
    nonlocal_corrected_rates,
    peak_rate,
    peak_summary,
    reorganization_shift,
    short_time_rho11,
)


def fdt_model(eps_p0, omega_c, w_rms=1.0):
    """Ohmic model with the requested shift, temperature set by W^2 = 2 T eps_p0."""
    return OhmicCutoff(
        eta=4.0 * eps_p0 / omega_c,
        omega_c=omega_c,
        temperature=w_rms * w_rms / (2.0 * eps_p0),
    )


@pytest.fixture(autouse=True)
def _quiet_regime_warnings():
    # several cases probe W/Delta < 10 deliberately
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        yield


class TestTrajectory:
    def test_trace_enforced(self):
        t = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="trace"):
            Trajectory(t, np.array([0.5, 0.5, 0.5]), np.array([0.5, 0.6, 0.5]))

    def test_from_rho11(self):
        t = np.array([0.0, 1.0])
        traj = Trajectory.from_rho11(t, np.array([0.25, 0.5]))
        assert np.array_equal(traj.rho00, np.array([0.75, 0.5]))

    def test_from_rho11_clips_roundoff_only(self):
        t = np.array([0.0, 1.0])
        traj = Trajectory.from_rho11(t, np.array([-1e-12, 1.0 + 5e-13]))
        assert np.array_equal(traj.rho11, np.array([0.0, 1.0]))
        for bad in ([-2e-12, 0.5], [0.5, 1.0 + 2e-12], [0.5, math.nan]):
            with pytest.raises(ValueError, match="leaves"):
                Trajectory.from_rho11(t, np.array(bad))


class TestLambdaPm:
    def test_zero_delay_common_value(self):
        model = fdt_model(0.5, 1.0)
        params = TwoStateParams(delta=0.01, eps=0.8, temperature=model.temperature)
        expected = peak_rate(0.01, 1.0) * math.exp(-0.32)
        assert lambda_pm(model, params, 1.0, 0.0, -1) == pytest.approx(expected, rel=1e-14)
        assert lambda_pm(model, params, 1.0, 0.0, +1) == pytest.approx(expected, rel=1e-14)

    def test_long_delay_reaches_equilibrium_rates(self):
        model = fdt_model(0.5, 1.0)
        params = TwoStateParams(delta=0.01, eps=0.8, temperature=model.temperature)
        limit = lambda_pm(model, params, 1.0, 500.0, -1)
        assert limit == pytest.approx(gaussian_rate(params, 1.0, 0.5, -1), rel=1e-12)

    def test_symmetric_at_zero_bias(self):
        model = fdt_model(0.5, 1.0)
        params = TwoStateParams(delta=0.01, eps=0.0, temperature=model.temperature)
        for tau in (0.2, 1.0, 4.0):
            assert lambda_pm(model, params, 1.0, tau, -1) == lambda_pm(
                model, params, 1.0, tau, +1
            )

    def test_ramp_rejected(self):
        model = fdt_model(0.5, 1.0)
        params = TwoStateParams(
            delta=0.01, eps=LinearSchedule(0.0, 1.0), temperature=model.temperature
        )
        with pytest.raises(RegimeError, match="time-invariant"):
            lambda_pm(model, params, 1.0, 1.0, -1)


class TestKernelIntegral:
    def test_zero_time_is_delta_weight(self):
        model = fdt_model(0.25, 1.0)
        params = TwoStateParams(delta=0.05, eps=0.0, temperature=model.temperature)
        spec = build_kernel(model, params, 1.0)
        assert kernel_integral(spec, 0.0, -1) == spec.delta_weight
        assert spec.delta_weight == pytest.approx(
            classical_rate(params, 1.0), rel=1e-14
        )

    def test_saturates_to_equilibrium_rate(self):
        model = fdt_model(0.25, 1.0)
        params = TwoStateParams(delta=0.05, eps=0.0, temperature=model.temperature)
        spec = build_kernel(model, params, 1.0)
        for direction, limit in ((-1, spec.limit_minus), (+1, spec.limit_plus)):
            assert kernel_integral(spec, 20.0, direction) == pytest.approx(
                limit, rel=1e-8
            )

    def test_matches_lambda_at_all_times(self):
        model = fdt_model(0.5, 1.0)
        params = TwoStateParams(delta=0.05, eps=0.6, temperature=model.temperature)
        spec = build_kernel(model, params, 1.0)
        for t in (0.3, 1.0, 2.0, 6.0):
            for direction in (-1, +1):
                assert kernel_integral(spec, t, direction) == pytest.approx(
                    lambda_pm(model, params, 1.0, t, direction), rel=1e-9
                )


class TestEvolveNonlocal:
    def test_constant_kernel_matches_closed_form(self):
        model = OhmicCutoff(eta=4e-4, omega_c=1e-3, temperature=1.0)
        params = TwoStateParams(delta=0.01, eps=0.0, temperature=1.0)
        gp = peak_rate(0.01, 1.0)
        grid = np.linspace(0.0, 2.5 / gp, 8001)
        traj = evolve_nonlocal(model, params, 0.0, grid, w_rms=1.0)
        closed = 0.5 * (1.0 - np.exp(-2.0 * gp * grid))
        assert np.max(np.abs(traj.rho11 - closed)) <= 1e-6

    def test_symmetric_fixed_point(self):
        model = OhmicCutoff(eta=4e-4, omega_c=1e-3, temperature=1.0)
        params = TwoStateParams(delta=0.01, eps=0.0, temperature=1.0)
        gp = peak_rate(0.01, 1.0)
        grid = np.linspace(0.0, 9.0 / gp, 12001)
        traj = evolve_nonlocal(model, params, 0.0, grid, w_rms=1.0)
        assert traj.rho11[-1] == pytest.approx(0.5, abs=1e-6)

    def test_trace_and_positivity(self):
        model = fdt_model(2.0, 1.0)
        params = TwoStateParams(delta=0.4, eps=2.0, temperature=model.temperature)
        grid = np.linspace(0.0, 40.0, 801)
        traj = evolve_nonlocal(model, params, 0.0, grid, w_rms=1.0)
        assert np.max(np.abs(traj.rho00 + traj.rho11 - 1.0)) <= 1e-12
        assert np.all(traj.rho11 >= 0.0) and np.all(traj.rho11 <= 1.0)

    def test_late_time_rate_enhanced_by_memory(self):
        # effective relaxation rate exceeds the local one by ~ Gamma_p/omega_c
        model = fdt_model(2.0, 1.0)
        delta = math.sqrt(0.05 / math.sqrt(math.pi / 8.0))
        params = TwoStateParams(delta=delta, eps=2.0, temperature=model.temperature)
        lam_minus = gaussian_rate(params, 1.0, 2.0, -1)
        lam_plus = gaussian_rate(params, 1.0, 2.0, +1)
        local_rate = lam_minus + lam_plus
        rho_inf = lam_minus / local_rate
        h = 0.05
        grid = np.arange(0.0, 80.0 + h / 2, h)
        traj = evolve_nonlocal(model, params, 0.0, grid, w_rms=1.0)
        i1, i2 = int(30.0 / h), int(70.0 / h)
        effective = -(
            math.log(rho_inf - traj.rho11[i2]) - math.log(rho_inf - traj.rho11[i1])
        ) / (grid[i2] - grid[i1])
        excess = effective / local_rate - 1.0
        ratio = peak_rate(delta, 1.0) / model.omega_c
        assert 0.5 * ratio <= excess <= 2.0 * ratio

    def test_agrees_with_local_solver_for_fast_bath(self):
        # omega_c = 200 Gamma_p: memory corrections below 1e-4 in sup norm
        omega_c = 2.0
        gp_target = omega_c / 200.0
        delta = math.sqrt(gp_target / math.sqrt(math.pi / 8.0))
        model = fdt_model(0.1, omega_c)
        params = TwoStateParams(delta=delta, eps=0.0, temperature=model.temperature)
        grid = np.linspace(0.0, 5.0 / gp_target, 10001)
        nonlocal_traj = evolve_nonlocal(model, params, 0.0, grid, w_rms=1.0)
        minus = gaussian_rate(params, 1.0, 0.1, -1)
        plus = gaussian_rate(params, 1.0, 0.1, +1)
        local_traj = evolve_local(minus, plus, 0.0, grid)
        assert np.max(np.abs(nonlocal_traj.rho11 - local_traj.rho11)) <= 1e-4

    def test_excursion_out_of_unit_interval_is_reported(self):
        # Gamma_p/omega_c = 0.3: the memory kernel drives rho11 below 0 by
        # ~0.017, converged in the step; the solver must not clip it away
        model = fdt_model(2.0, 1.0)
        delta = math.sqrt(0.3 / math.sqrt(math.pi / 8.0))
        params = TwoStateParams(delta=delta, eps=-2.0, temperature=model.temperature)
        with pytest.raises(ValueError, match="leaves"):
            evolve_nonlocal(model, params, 1.0, np.linspace(0.0, 20.0, 201), w_rms=1.0)

    def test_step_size_guard(self):
        model = fdt_model(0.5, 1.0)
        params = TwoStateParams(delta=0.01, eps=0.0, temperature=model.temperature)
        grid = np.linspace(0.0, 10.0, 11)  # h = 1.0 > 1/(10 omega_c)
        with pytest.raises(RegimeError, match="resolution"):
            evolve_nonlocal(model, params, 0.0, grid, w_rms=1.0)

    def test_input_validation(self):
        model = fdt_model(0.5, 1.0)
        params = TwoStateParams(delta=0.01, eps=0.0, temperature=model.temperature)
        grid = np.linspace(0.0, 1.0, 101)
        with pytest.raises(ValueError, match="rho11_0"):
            evolve_nonlocal(model, params, 1.5, grid, w_rms=1.0)
        with pytest.raises(ValueError, match="uniform"):
            evolve_nonlocal(model, params, 0.0, np.array([0.0, 0.01, 0.5]), w_rms=1.0)
        ramp = TwoStateParams(
            delta=0.01, eps=LinearSchedule(0.0, 1.0), temperature=model.temperature
        )
        with pytest.raises(RegimeError, match="time-invariant"):
            evolve_nonlocal(model, ramp, 0.0, grid, w_rms=1.0)


class TestEvolveLocal:
    def test_symmetric_closed_form(self):
        grid = np.linspace(0.0, 30.0, 201)
        traj = evolve_local(0.1, 0.1, 0.0, grid)
        closed = 0.5 * (1.0 - np.exp(-0.2 * grid))
        assert np.max(np.abs(traj.rho11 - closed)) <= 1e-9

    def test_constant_rate_equilibrium(self):
        minus, plus = 0.06, 0.02
        grid = np.linspace(0.0, 400.0, 401)
        traj = evolve_local(minus, plus, 0.0, grid)
        assert traj.rho11[-1] == pytest.approx(minus / (minus + plus), abs=1e-9)

    def test_equilibrium_is_thermal_for_balanced_rates(self):
        w, temperature, eps = 1.0, 0.5, 0.4
        eps_p = w * w / (2.0 * temperature)
        params = TwoStateParams(delta=0.01, eps=eps, temperature=temperature)
        minus = gaussian_rate(params, w, eps_p, -1)
        plus = gaussian_rate(params, w, eps_p, +1)
        grid = np.linspace(0.0, 20.0 / (minus + plus), 301)
        traj = evolve_local(minus, plus, 0.0, grid)
        thermal = math.exp(eps / temperature) / (1.0 + math.exp(eps / temperature))
        assert traj.rho11[-1] == pytest.approx(thermal, abs=1e-7)

    def test_monotone_relaxation_from_empty(self):
        grid = np.linspace(0.0, 50.0, 301)
        traj = evolve_local(0.05, 0.08, 0.0, grid)
        assert np.all(np.diff(traj.rho11) >= -1e-12)
        assert np.all(traj.rho11 <= 0.05 / 0.13 + 1e-9)

    def test_negative_rate_rejected(self):
        grid = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="negative rate"):
            evolve_local(lambda t: -0.1, 0.1, 0.0, grid)


class TestNonlocalCorrectedRates:
    def test_fast_bath_reduces_to_gaussian(self):
        model = fdt_model(0.5, 50.0)
        params = TwoStateParams(delta=0.1, eps=0.3, temperature=model.temperature)
        eps_p0 = reorganization_shift(model)
        minus, plus = nonlocal_corrected_rates(model, params, 1.0)
        base_minus = gaussian_rate(params, 1.0, eps_p0, -1)
        base_plus = gaussian_rate(params, 1.0, eps_p0, +1)
        assert minus == pytest.approx(base_minus, rel=1e-3)
        assert plus == pytest.approx(base_plus, rel=1e-3)

    def test_center_suppression_formula(self):
        model = fdt_model(2.0, 1.0)
        delta = math.sqrt(0.1 / math.sqrt(math.pi / 8.0))
        params = TwoStateParams(delta=delta, eps=0.0, temperature=model.temperature)
        minus, plus = nonlocal_corrected_rates(model, params, 1.0)
        gp = peak_rate(delta, 1.0)
        factor = 1.0 + 0.2 * (math.exp(-2.0) - 1.0)
        expected = gp * math.exp(-2.0) * factor
        assert factor < 1.0
        assert minus == plus == pytest.approx(expected, rel=1e-14)

    def test_exact_denominator_within_order_of_magnitude_band(self):
        model = fdt_model(2.5, 1.0)
        delta = math.sqrt(0.1 / math.sqrt(math.pi / 8.0))
        params = TwoStateParams(delta=delta, eps=2.5, temperature=model.temperature)
        base = gaussian_rate(params, 1.0, 2.5, -1)
        exact_minus, _ = nonlocal_corrected_rates(model, params, 1.0, form="exact")
        deficit = 1.0 - base / exact_minus
        lam_inf = base + gaussian_rate(params, 1.0, 2.5, +1)
        lam_zero = 2.0 * classical_rate(params, 1.0)
        estimate = (lam_inf - lam_zero) / model.omega_c
        assert 0.3 <= deficit / estimate <= 3.0

    def test_out_of_regime_rejected(self):
        model = fdt_model(0.5, 0.01)
        params = TwoStateParams(delta=0.2, eps=0.0, temperature=model.temperature)
        with pytest.raises(RegimeError, match="out of regime"):
            nonlocal_corrected_rates(model, params, 1.0)


class TestPeakSummary:
    def test_vanishing_memory_limit(self):
        model = fdt_model(2.5, 1.0)
        delta = math.sqrt(1e-3 / math.sqrt(math.pi / 8.0))
        params = TwoStateParams(delta=delta, eps=2.5, temperature=model.temperature)
        summary = peak_summary(model, params, 1.0)
        gp = peak_rate(delta, 1.0)
        assert summary.gamma_peak == pytest.approx(gp, rel=2e-3)
        assert summary.eps_peak == pytest.approx(2.5, abs=5e-3)
        assert abs(summary.asymmetry) <= 1e-3

    def test_enhancement_matches_first_order(self):
        model = fdt_model(2.5, 1.0)
        delta = math.sqrt(0.1 / math.sqrt(math.pi / 8.0))
        params = TwoStateParams(delta=delta, eps=2.5, temperature=model.temperature)
        summary = peak_summary(model, params, 1.0)
        assert summary.gamma_peak == pytest.approx(
            summary.gamma_peak_first_order, rel=0.1
        )
        assert summary.eps_peak > 2.5

    def test_asymmetry_sign_follows_correction_structure(self):
        # the correction grows across the peak (larger on the right wing),
        # tilting Gamma_- rightward; the mirror-image Gamma_+ curve tilts
        # the opposite way.  Moments computed independently by quadrature.
        model = fdt_model(2.5, 1.0)
        delta = math.sqrt(0.1 / math.sqrt(math.pi / 8.0))
        params = TwoStateParams(delta=delta, eps=2.5, temperature=model.temperature)
        summary = peak_summary(model, params, 1.0)
        assert summary.asymmetry != 0.0

        gp = peak_rate(delta, 1.0)
        ratio = gp / model.omega_c
        suppression = math.exp(-0.5 * 2.5**2)

        def correction(e):
            return 2.0 * ratio * math.exp(-0.5 * e * e) * (
                suppression * math.cosh(0.5 * e / model.temperature) - 1.0
            )

        assert correction(2.5 + 1.0) > correction(2.5 - 1.0)
        assert summary.asymmetry > 0.0

        def skew(center_sign):
            # center_sign -1: Gamma_-(peak at +eps_p0); +1: Gamma_+(peak at -eps_p0)
            def curve(e):
                base = gp * math.exp(-0.5 * (e + center_sign * 2.5) ** 2)
                return base * (1.0 + correction(e))

            lo, hi = -center_sign * 2.5 - 15.0, -center_sign * 2.5 + 15.0
            norm = quad(curve, lo, hi, epsrel=1e-10, limit=300)[0]
            mean = quad(lambda e: e * curve(e), lo, hi, epsrel=1e-10, limit=300)[0] / norm
            m2 = quad(
                lambda e: (e - mean) ** 2 * curve(e), lo, hi, epsrel=1e-10, limit=300
            )[0] / norm
            m3 = quad(
                lambda e: (e - mean) ** 3 * curve(e),
                lo, hi, epsabs=1e-10 * norm, epsrel=1e-10, limit=300,
            )[0] / norm
            return m3 / m2**1.5

        skew_minus = skew(-1)
        skew_plus = skew(+1)
        assert skew_minus == pytest.approx(summary.asymmetry, rel=1e-6)
        assert skew_plus == pytest.approx(-skew_minus, rel=1e-9)


class TestShortTime:
    def setup_model(self):
        model = OhmicCutoff(eta=200.0, omega_c=0.01, temperature=1.0)
        params = TwoStateParams(delta=0.01, eps=0.7, temperature=1.0)
        return model, params

    def test_zero_time(self):
        model, params = self.setup_model()
        result = short_time_rho11(model, params, 1.0, 0.0)
        assert result.double_quadrature == result.rate_approximation == 0.0

    def test_quadratic_scaling_in_delta(self):
        model, _ = self.setup_model()
        w = 1.0
        small = TwoStateParams(delta=0.001, eps=0.7, temperature=1.0)
        large = TwoStateParams(delta=0.002, eps=0.7, temperature=1.0)
        r_small = short_time_rho11(model, small, w, 8.0).double_quadrature
        r_large = short_time_rho11(model, large, w, 8.0).double_quadrature
        assert r_large == pytest.approx(4.0 * r_small, rel=1e-9)

    def test_growth_slope_matches_rate(self):
        model, params = self.setup_model()
        t, step = 10.0, 0.5
        hi = short_time_rho11(model, params, 1.0, t + step).double_quadrature
        lo = short_time_rho11(model, params, 1.0, t - step).double_quadrature
        slope = (hi - lo) / (2.0 * step)
        assert slope == pytest.approx(
            lambda_pm(model, params, 1.0, t, -1), rel=0.01
        )

    def test_constant_amplitude_collapses_product(self):
        model, params = self.setup_model()
        result = short_time_rho11(model, params, 1.0, 6.0)
        assert result.double_quadrature == result.single_quadrature

    def test_rate_approximation_close_beyond_dephasing(self):
        model, params = self.setup_model()
        result = short_time_rho11(model, params, 1.0, 10.0)
        assert result.double_quadrature == pytest.approx(
            result.rate_approximation, rel=0.1
        )

    def test_linear_ramp_supported(self):
        model, _ = self.setup_model()
        params = TwoStateParams(
            delta=LinearSchedule(0.01, 1e-4),
            eps=LinearSchedule(0.5, 0.02),
            temperature=1.0,
        )
        result = short_time_rho11(model, params, 1.0, 8.0)
        assert result.double_quadrature > 0.0
        assert result.double_quadrature != result.single_quadrature

    def test_warns_beyond_perturbative_window(self):
        model, _ = self.setup_model()
        params = TwoStateParams(delta=0.2, eps=0.7, temperature=1.0)
        with pytest.warns(RegimeWarning, match="short-time"):
            short_time_rho11(model, params, 1.0, 10.0)

    def test_negative_time_rejected(self):
        model, params = self.setup_model()
        with pytest.raises(ValueError):
            short_time_rho11(model, params, 1.0, -1.0)
