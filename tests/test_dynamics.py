"""Memory-kernel population dynamics and its local approximations."""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mrtkit import (
    LinearSchedule,
    OhmicCutoff,
    RegimeError,
    RegimeWarning,
    SpectralModel,
    Tabulated,
    Trajectory,
    TwoStateParams,
    evolve_local,
    evolve_nonlocal,
    nonlocal_corrected_scan,
    peak_rate,
    peak_summary,
    short_time_rho11,
    voigt_rate,
)
from mrtkit import dynamics
from mrtkit.dynamics import _INTEGRAL, _TO_SERIES, _gaussian_cosine_moments, _kernel_arrays
from mrtkit.rates import _shifted_gaussian
from mrtkit.oracle import corrected_rates_reference


def fdt_model(eps_p0, omega_c, w_rms=1.0):
    """Ohmic model with the requested shift, temperature set by W^2 = 2 T eps_p0."""
    return OhmicCutoff(
        eta=4.0 * eps_p0 / omega_c,
        omega_c=omega_c,
        temperature=w_rms * w_rms / (2.0 * eps_p0),
    )


def tabulated_model(source, span=30.0, points=601):
    """source sampled on a symmetric grid out to span * omega_c."""
    grid = np.linspace(-span * source.omega_c, span * source.omega_c, points)
    values = np.array([source.density(float(w)) for w in grid])
    return Tabulated(grid, values)


def kernel_models(eps_p0, omega_c):
    """(model, T) for fdt_model and its tabulated counterpart, which has no T of its own.

    The kernel identities hold for both.
    """
    model = fdt_model(eps_p0, omega_c)
    return (model, model.temperature), (tabulated_model(model), model.temperature)


def kernel_at(model, params, tau):
    """(Lambda_-, Lambda_+, dLambda_-/dtau, dLambda_+/dtau) at one delay, W = 1."""
    return [float(row[0])
            for row in _kernel_arrays(params, 1.0, *model.shift_arrays(np.array([tau])))]


@dataclass(frozen=True)
class ClassicalDebye(SpectralModel):
    """S_a = 2 eps_p0 gamma omega / (gamma^2 + omega^2), classical S_s = (2T/omega) S_a.

    eps_p(tau) = eps_p0 (1 - e^{-gamma tau}) starts with slope eps_p0 gamma:
    S_a falls off as 1/omega only, too slowly to be integrable.
    """

    eps_p0: float
    gamma: float
    temperature: float

    def density(self, omega):
        return 2.0 * self.eps_p0 * self.gamma * (2.0 * self.temperature + omega) / (
            self.gamma**2 + omega**2
        )

    def noise_rms(self):
        return math.sqrt(2.0 * self.temperature * self.eps_p0)

    def reorganization_shift(self):
        return self.eps_p0

    def tau_r(self):
        return 1.0 / self.gamma

    def shift_arrays(self, taus):
        decay = np.exp(-self.gamma * np.asarray(taus, dtype=float))
        return self.eps_p0 * (1.0 - decay), self.eps_p0 * self.gamma * decay


@pytest.fixture(autouse=True)
def _quiet_regime_warnings():
    # several cases probe W/Delta < 10 deliberately
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        yield


class TestTrajectory:
    def test_rho00_is_one_minus_rho11(self):
        t = np.array([0.0, 1.0])
        traj = Trajectory(t, np.array([0.25, 0.5]))
        assert np.array_equal(traj.rho00, np.array([0.75, 0.5]))

    def test_clips_roundoff_only(self):
        t = np.array([0.0, 1.0])
        traj = Trajectory(t, np.array([-1e-12, 1.0 + 5e-13]))
        assert np.array_equal(traj.rho11, np.array([0.0, 1.0]))
        for bad in ([-2e-12, 0.5], [0.5, 1.0 + 2e-12], [0.5, math.nan]):
            with pytest.raises(ValueError, match="leaves"):
                Trajectory(t, np.array(bad))


class TestLambdaPm:
    def test_zero_delay_common_value(self):
        for model, temperature in kernel_models(0.5, 1.0):
            params = TwoStateParams(delta=0.01, eps=0.8, temperature=temperature)
            expected = peak_rate(0.01, 1.0) * math.exp(-0.32)
            lam_minus, lam_plus, _, _ = kernel_at(model, params, 0.0)
            assert lam_minus == pytest.approx(expected, rel=1e-14)
            assert lam_plus == pytest.approx(expected, rel=1e-14)

    def test_long_delay_reaches_equilibrium_rates(self):
        # a tabulated S_a(omega)/omega has a kink at omega = 0, so its shift
        # approaches eps_p0 only as 1/tau^2: 4e-6 relative at tau = 500
        for (model, temperature), rel in zip(kernel_models(0.5, 1.0), (1e-12, 1e-5)):
            params = TwoStateParams(delta=0.01, eps=0.8, temperature=temperature)
            limit = kernel_at(model, params, 500.0)[0]
            expected = voigt_rate(params.delta, 1.0, params.eps, model.reorganization_shift(), 0.0)
            assert limit == pytest.approx(expected, rel=rel)

    def test_symmetric_at_zero_bias(self):
        for model, temperature in kernel_models(0.5, 1.0):
            params = TwoStateParams(delta=0.01, eps=0.0, temperature=temperature)
            taus = np.array([0.2, 1.0, 4.0])
            lam_minus, lam_plus, _, _ = _kernel_arrays(params, 1.0, *model.shift_arrays(taus))
            assert np.array_equal(lam_minus, lam_plus)

    def test_ramp_rejected(self):
        for model, temperature in kernel_models(0.5, 1.0):
            params = TwoStateParams(
                delta=0.01, eps=LinearSchedule(0.0, 1.0), temperature=temperature
            )
            with pytest.raises(RegimeError, match="time-invariant"):
                _kernel_arrays(params, 1.0, *model.shift_arrays(np.array([1.0])))


def integrated_kernel(model, params, t, k):
    """Lambda(0) + int_0^t dLambda/dtau by quad: k = 0 for Lambda_-, 1 for Lambda_+."""
    smooth, _ = quad(
        lambda tau: kernel_at(model, params, tau)[2 + k],
        0.0, t, epsabs=1e-13, epsrel=1e-11, limit=400,
    )
    return kernel_at(model, params, 0.0)[k] + smooth


class TestKernelIntegral:
    def test_zero_time_is_delta_weight(self):
        for model, temperature in kernel_models(0.25, 1.0):
            params = TwoStateParams(delta=0.05, eps=0.0, temperature=temperature)
            lam_minus, lam_plus, dlam_minus, dlam_plus = kernel_at(model, params, 0.0)
            # the classical (eps_p = 0) rate
            classical = voigt_rate(params.delta, 1.0, params.eps, 0.0, 0.0)
            assert lam_minus == lam_plus == pytest.approx(classical, rel=1e-14)
            assert dlam_minus == dlam_plus == 0.0

    def test_saturates_to_equilibrium_rate(self):
        # ohmic only: its shift saturates exponentially on 1/omega_c, a
        # tabulated one as 1/tau^2 (test_long_delay_reaches_equilibrium_rates)
        model = fdt_model(0.25, 1.0)
        params = TwoStateParams(delta=0.05, eps=0.0, temperature=model.temperature)
        for k, eps_p in ((0, 0.25), (1, -0.25)):
            assert integrated_kernel(model, params, 20.0, k) == pytest.approx(
                voigt_rate(params.delta, 1.0, params.eps, eps_p, 0.0), rel=1e-8
            )

    def test_matches_lambda_at_all_times(self):
        for model, temperature in kernel_models(0.5, 1.0):
            params = TwoStateParams(delta=0.05, eps=0.6, temperature=temperature)
            for t in (0.3, 1.0, 2.0, 6.0):
                lam_t = kernel_at(model, params, t)
                for k in (0, 1):
                    assert integrated_kernel(model, params, t, k) == pytest.approx(
                        lam_t[k], rel=1e-9
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
        lam_minus = voigt_rate(params.delta, 1.0, params.eps, 2.0, 0.0)
        lam_plus = voigt_rate(params.delta, 1.0, params.eps, -2.0, 0.0)
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
        minus = voigt_rate(params.delta, 1.0, params.eps, 0.1, 0.0)
        plus = voigt_rate(params.delta, 1.0, params.eps, -0.1, 0.0)
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

    def test_shift_slope_at_zero_delay_rejected(self):
        # a kernel whose smooth part jumps at tau = 0 would leave the scheme
        # first order without notice
        model = ClassicalDebye(eps_p0=0.5, gamma=1.0, temperature=1.0)
        params = TwoStateParams(delta=0.05, eps=0.0, temperature=1.0)
        with pytest.raises(RegimeError, match="d eps_p/dtau at tau = 0"):
            evolve_nonlocal(model, params, 0.0, np.linspace(0.0, 10.0, 101))

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
    def test_series_matrix_is_the_legvander_one_bit_for_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(16)
        legvander = np.polynomial.legendre.legvander(nodes, 15).T
        expected = legvander * weights * (np.arange(16) + 0.5)[:, None]
        assert _TO_SERIES.tobytes() == expected.tobytes()

    def test_integral_matrix_is_legint_at_the_nodes(self):
        legendre = np.polynomial.legendre
        nodes = legendre.leggauss(16)[0]
        expected = np.column_stack([legendre.legval(nodes, legendre.legint(series, lbnd=-1.0))
                                    for series in _TO_SERIES.T])
        assert np.max(np.abs(_INTEGRAL - expected)) <= 4.0 * np.finfo(float).eps

    @settings(max_examples=100, deadline=None)
    @given(minus=st.floats(0.0, 10.0), plus=st.floats(0.0, 10.0), rho11_0=st.floats(0.0, 1.0),
           span=st.floats(1e-3, 1e6))
    def test_constant_callables_match_the_closed_exponential(self, minus, plus, rho11_0, span):
        # a step may span up to ~10^6 relaxation times: its inflow must not be lost
        grid = np.linspace(0.0, span, 9)
        duhamel = evolve_local(lambda t: minus, lambda t: plus, rho11_0, grid)
        closed = evolve_local(minus, plus, rho11_0, grid)
        assert np.max(np.abs(duhamel.rho11 - closed.rho11)) <= 1e-13

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
        minus = voigt_rate(params.delta, w, params.eps, eps_p, 0.0)
        plus = voigt_rate(params.delta, w, params.eps, -eps_p, 0.0)
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

    def test_negative_rate_between_grid_points_rejected(self):
        # G_- < 0 on (0.05, 0.95) but positive at t = 0, 1, 2
        with pytest.raises(ValueError, match="negative rate"):
            evolve_local(lambda t: (t - 0.5) ** 2 - 0.2, 0.1, 0.5, [0.0, 1.0, 2.0])


def corrected_at(model, params, w_rms):
    """nonlocal_corrected_scan at the one bias of params, as two floats."""
    minus, plus = nonlocal_corrected_scan(model, params, w_rms, [params.eps])
    return float(minus[0]), float(plus[0])


class TestNonlocalCorrectedRates:
    def test_fast_bath_reduces_to_gaussian(self):
        model = fdt_model(0.5, 50.0)
        params = TwoStateParams(delta=0.1, eps=0.3, temperature=model.temperature)
        eps_p0 = model.reorganization_shift()
        minus, plus = corrected_at(model, params, 1.0)
        base_minus = voigt_rate(params.delta, 1.0, params.eps, eps_p0, 0.0)
        base_plus = voigt_rate(params.delta, 1.0, params.eps, -eps_p0, 0.0)
        assert minus == pytest.approx(base_minus, rel=1e-3)
        assert plus == pytest.approx(base_plus, rel=1e-3)

    def test_center_suppression_formula(self):
        model = fdt_model(2.0, 1.0)
        delta = math.sqrt(0.1 / math.sqrt(math.pi / 8.0))
        params = TwoStateParams(delta=delta, eps=0.0, temperature=model.temperature)
        minus, plus = corrected_at(model, params, 1.0)
        gp = peak_rate(delta, 1.0)
        factor = 1.0 + 0.2 * (math.exp(-2.0) - 1.0)
        expected = gp * math.exp(-2.0) * factor
        assert factor < 1.0
        assert minus == plus == pytest.approx(expected, rel=1e-14)

    def test_exact_denominator_within_order_of_magnitude_band(self):
        model = fdt_model(2.5, 1.0)
        delta = math.sqrt(0.1 / math.sqrt(math.pi / 8.0))
        params = TwoStateParams(delta=delta, eps=2.5, temperature=model.temperature)
        base = voigt_rate(params.delta, 1.0, params.eps, 2.5, 0.0)
        exact_minus, _ = corrected_rates_reference(model, params, 1.0)
        deficit = 1.0 - base / exact_minus
        lam_inf = base + voigt_rate(params.delta, 1.0, params.eps, -2.5, 0.0)
        lam_zero = 2.0 * voigt_rate(params.delta, 1.0, params.eps, 0.0, 0.0)
        estimate = (lam_inf - lam_zero) / model.omega_c
        assert 0.3 <= deficit / estimate <= 3.0

    @settings(max_examples=100, deadline=None)
    @given(eta=st.floats(0.1, 10.0), omega_c=st.floats(0.1, 10.0), log_ratio=st.floats(-2.0, 2.0),
           delta_w=st.floats(1e-3, 0.1, exclude_max=True), eps_w=st.floats(-4.0, 4.0))
    def test_detailed_balance(self, eta, omega_c, log_ratio, delta_w, eps_w):
        # with W^2 = 2 T eps_p0 the shared memory factor cancels from
        # Gamma_-/Gamma_+ = e^{2 eps eps_p0/W^2} = e^{eps/T}
        model = OhmicCutoff(eta=eta, omega_c=omega_c, temperature=omega_c / 10.0**log_ratio)
        w = model.noise_rms()
        temperature = w * w / (2.0 * model.reorganization_shift())
        params = TwoStateParams(delta=delta_w * w, eps=eps_w * w, temperature=temperature)
        minus, plus = corrected_at(model, params, w)
        exponent = params.eps / temperature
        assert abs(math.log(minus / plus) - exponent) <= 1e-12 * max(1.0, abs(exponent))

    def test_out_of_regime_rejected(self):
        model = fdt_model(0.5, 0.01)
        params = TwoStateParams(delta=0.2, eps=0.0, temperature=model.temperature)
        with pytest.raises(RegimeError, match="out of regime"):
            corrected_at(model, params, 1.0)

    def test_tabulated_refusals_name_omega_resp(self):
        # a table has no omega_c: both regime bounds are set by omega_resp = 1/tau_R
        source = fdt_model(0.5, 0.01)
        model = tabulated_model(source)
        omega_resp = f"omega_resp = 1/tau_R = {model.response_frequency():.3g}"
        params = TwoStateParams(delta=0.2, eps=0.0, temperature=source.temperature)
        refusals = [lambda: corrected_at(model, params, 1.0),
                    lambda: evolve_nonlocal(model, params, 0.0, np.linspace(0.0, 100.0, 11),
                                            w_rms=1.0)]
        for refusal in refusals:
            with pytest.raises(RegimeError) as info, warnings.catch_warnings():
                warnings.simplefilter("ignore", RegimeWarning)
                refusal()
            assert omega_resp in str(info.value)
            assert "omega_c" not in str(info.value)

    def test_overflow_at_low_temperature_rejected(self):
        # cosh(eps/2T) at eps/2T = 2000 overflows a double
        model = OhmicCutoff(eta=10.0, omega_c=1.0, temperature=0.001)
        params = TwoStateParams(delta=0.05, eps=4.0, temperature=0.001)
        with pytest.raises(RegimeError, match="eps/2T = 2e"):
            corrected_at(model, params, 1.0)


class TestCorrectedRatesReference:
    @staticmethod
    def quad_reference(model, params, w):
        """The full denominator by SciPy quad: head to 60 tau_R plus the infinite tail."""
        gp = peak_rate(params.delta, w)
        eps_p0 = model.reorganization_shift()
        base_minus = gp * math.exp(-0.5 * ((params.eps - eps_p0) / w) ** 2)
        base_plus = gp * math.exp(-0.5 * ((params.eps + eps_p0) / w) ** 2)

        def deficit(tau):
            lam_m, lam_p, _, _ = kernel_at(model, params, tau)
            return base_minus + base_plus - (lam_m + lam_p)

        cut = 60.0 / model.response_frequency()
        head, _ = quad(deficit, 0.0, cut, epsabs=1e-14, epsrel=1e-11, limit=400)
        tail, _ = quad(deficit, cut, np.inf, epsabs=1e-14, epsrel=1e-11, limit=200)
        denom = 1.0 - (head + tail)
        return base_minus / denom, base_plus / denom

    @pytest.mark.parametrize("eps", [0.0, 1.0, 2.5, 4.0])
    def test_matches_quad_head_and_tail(self, eps):
        model = fdt_model(2.5, 1.0)
        delta = math.sqrt(0.1 / math.sqrt(math.pi / 8.0))
        params = TwoStateParams(delta=delta, eps=eps, temperature=model.temperature)
        rates = corrected_rates_reference(model, params, 1.0)
        assert rates == pytest.approx(self.quad_reference(model, params, 1.0), rel=1e-12)

    def test_unsettled_tabulated_deficit_rejected(self):
        # the interpolant's eps_p still drifts by ~1e-3 at 60 tau_R: the head
        # integral has no converged value to return
        source = fdt_model(0.5, 1.0)
        model = tabulated_model(source)
        delta = math.sqrt(0.1 / math.sqrt(math.pi / 8.0))
        params = TwoStateParams(delta=delta, eps=0.4, temperature=source.temperature)
        with pytest.raises(RegimeError, match="not settled by 60 tau_R"):
            corrected_rates_reference(model, params, 1.0)


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

    def test_peak_height_is_the_corrected_rate_at_the_peak(self):
        model = fdt_model(2.5, 1.0)
        delta = math.sqrt(0.1 / math.sqrt(math.pi / 8.0))
        params = TwoStateParams(delta=delta, eps=2.5, temperature=model.temperature)
        summary = peak_summary(model, params, 1.0)
        minus, _ = nonlocal_corrected_scan(model, params, 1.0, [summary.eps_peak])
        assert summary.gamma_peak == minus[0]

    def test_enhancement_matches_first_order(self):
        model = fdt_model(2.5, 1.0)
        delta = math.sqrt(0.1 / math.sqrt(math.pi / 8.0))
        params = TwoStateParams(delta=delta, eps=2.5, temperature=model.temperature)
        summary = peak_summary(model, params, 1.0)
        # the leading estimate Gamma_p (1 + r), r = Gamma_p/omega_resp
        gp = peak_rate(delta, 1.0)
        first_order = gp * (1.0 + gp / model.response_frequency())
        assert summary.gamma_peak == pytest.approx(first_order, rel=0.1)
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


def nested_quad_short_time(
    model: SpectralModel, params: TwoStateParams, w_rms: float, t: float
) -> float:
    """The nested-quad rho11(t) that ``short_time_rho11`` replaced.

    Constant and linear schedules only: for those the inner phase integral
    is exactly (eps(tau') - eps_p(tau')) * tau.
    """
    delta_s = params.delta_schedule
    eps_s = params.eps_schedule
    w = w_rms
    inner_cap = 12.0 / w

    def inner(tau_mid: float) -> float:
        window = min(2.0 * tau_mid, 2.0 * (t - tau_mid))
        if window <= 0.0:
            return 0.0
        freq = eps_s.value(tau_mid) - model.shift(tau_mid)

        def f(tau):
            amp = delta_s.value(tau_mid + 0.5 * tau) * delta_s.value(tau_mid - 0.5 * tau)
            return amp * math.exp(-0.5 * (w * tau) ** 2) * math.cos(freq * tau)

        val, _ = quad(f, 0.0, min(window, inner_cap), epsabs=1e-14, epsrel=1e-10, limit=200)
        return 2.0 * val

    val, _ = quad(inner, 0.0, t, epsabs=1e-13, epsrel=1e-9, limit=200, points=[0.5 * t])
    return 0.25 * val


class TestShortTime:
    def setup_model(self):
        model = OhmicCutoff(eta=200.0, omega_c=0.01, temperature=1.0)
        params = TwoStateParams(delta=0.01, eps=0.7, temperature=1.0)
        return model, params

    def test_zero_time(self):
        model, params = self.setup_model()
        assert short_time_rho11(model, params, 1.0, 0.0) == 0.0

    def test_quadratic_scaling_in_delta(self):
        model, _ = self.setup_model()
        w = 1.0
        small = TwoStateParams(delta=0.001, eps=0.7, temperature=1.0)
        large = TwoStateParams(delta=0.002, eps=0.7, temperature=1.0)
        r_small = short_time_rho11(model, small, w, 8.0)
        r_large = short_time_rho11(model, large, w, 8.0)
        assert r_large == pytest.approx(4.0 * r_small, rel=1e-9)

    def test_growth_slope_matches_rate(self):
        ohmic, params = self.setup_model()
        t, step = 10.0, 0.5
        for model in (ohmic, tabulated_model(ohmic)):
            hi = short_time_rho11(model, params, 1.0, t + step)
            lo = short_time_rho11(model, params, 1.0, t - step)
            slope = (hi - lo) / (2.0 * step)
            assert slope == pytest.approx(kernel_at(model, params, t)[0], rel=0.01)

    @staticmethod
    def count_quadratures(monkeypatch) -> list:
        calls = []
        original = dynamics.gauss_kronrod

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(dynamics, "gauss_kronrod", counted)
        return calls

    def test_constant_amplitude_collapses_product(self, monkeypatch):
        # at constant Delta the amplitude product is Delta^2: the tau
        # integral is closed, and tau_m takes one quadrature
        model, params = self.setup_model()
        calls = self.count_quadratures(monkeypatch)
        assert short_time_rho11(model, params, 1.0, 6.0) > 0.0
        assert len(calls) == 1

    def test_rate_approximation_close_beyond_dephasing(self):
        # beyond 1/W the growth is the running integral of Lambda_-(t)
        model, params = self.setup_model()
        gp = peak_rate(params.delta, 1.0)
        rate_int, _ = quad(lambda s: _shifted_gaussian(gp, 1.0, params.eps, model.shift(s)),
                           0.0, 10.0, epsabs=1e-14, epsrel=1e-10, limit=200)
        assert short_time_rho11(model, params, 1.0, 10.0) == pytest.approx(rate_int, rel=0.1)

    def test_linear_ramp_supported(self, monkeypatch):
        model, _ = self.setup_model()
        params = TwoStateParams(
            delta=LinearSchedule(0.01, 1e-4),
            eps=LinearSchedule(0.5, 0.02),
            temperature=1.0,
        )
        calls = self.count_quadratures(monkeypatch)
        assert short_time_rho11(model, params, 1.0, 8.0) > 0.0
        assert len(calls) == 1

    def test_warns_beyond_perturbative_window(self):
        model, _ = self.setup_model()
        params = TwoStateParams(delta=0.2, eps=0.7, temperature=1.0)
        with pytest.warns(RegimeWarning, match="short-time"):
            short_time_rho11(model, params, 1.0, 10.0)

    def test_negative_time_rejected(self):
        model, params = self.setup_model()
        with pytest.raises(ValueError):
            short_time_rho11(model, params, 1.0, -1.0)

    @pytest.mark.parametrize(
        "delta, eps",
        [(0.01, 0.7), (LinearSchedule(0.01, 1e-4), LinearSchedule(0.5, 0.02)),
         (LinearSchedule(0.01, -0.004), 0.7)],
        ids=["constant", "ramp", "ramp-through-zero"],
    )
    @pytest.mark.parametrize("t", [0.5, 8.0, 10.5])
    def test_matches_nested_quad(self, delta, eps, t):
        model, _ = self.setup_model()
        params = TwoStateParams(delta=delta, eps=eps, temperature=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            got = short_time_rho11(model, params, 1.0, t)
        assert got == pytest.approx(nested_quad_short_time(model, params, 1.0, t), rel=1e-12)


def mpmath_moments(f, a, c):
    """(J, I2) = integral_0^a (1, tau^2) e^{-c tau^2} cos(f tau) dtau by 30-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        # split at the half-periods so each piece is sub-oscillatory
        half_periods = range(1, int(abs(f) * a / math.pi) + 1)
        edges = [0, *(k * mpmath.pi / abs(f) for k in half_periods), mpmath.mpf(a)]
        j = mpmath.quad(lambda t: mpmath.exp(-c * t * t) * mpmath.cos(f * t), edges)
        i2 = mpmath.quad(lambda t: t * t * mpmath.exp(-c * t * t) * mpmath.cos(f * t), edges)
        return float(j), float(i2)


class TestGaussianCosineMoments:
    # J and I2 are differences of terms on the scales sqrt(pi)/2 sqrt(c) and
    # (1 + f^2/2c) sqrt(pi)/4 c^{3/2}: they are accurate to roundoff of those
    # scales (relative accuracy fades as a -> 0, where J ~ a and I2 ~ a^3/3)
    @pytest.mark.parametrize("c", [0.5, 0.02, 8.0])
    @pytest.mark.parametrize("f", [-3.0, -0.4, 0.0, 0.7, 10.0])
    @pytest.mark.parametrize("a", [1e-8, 1e-3, 0.3, 2.0, 40.0])
    def test_matches_mpmath(self, c, f, a):
        j, i2 = _gaussian_cosine_moments(np.array([f]), np.array([a]), c)
        ref_j, ref_i2 = mpmath_moments(f, a, c)
        j_scale = 0.5 * math.sqrt(math.pi / c)
        i2_scale = (1.0 + f * f / (2.0 * c)) * j_scale / (2.0 * c)
        assert abs(j[0] - ref_j) <= 2e-15 * j_scale
        assert abs(i2[0] - ref_i2) <= 2e-15 * i2_scale

    def test_limits(self):
        j, i2 = _gaussian_cosine_moments(np.array([0.3, 0.3]), np.array([0.0, 1e3]), 0.5)
        assert abs(j[0]) <= 2e-16 and abs(i2[0]) <= 2e-16
        # a >> 1/W: the half-line Gaussian cosine transform and its second moment
        assert j[1] == pytest.approx(math.sqrt(math.pi / 2.0) * math.exp(-0.045), rel=1e-15)
        assert i2[1] == pytest.approx(
            math.sqrt(math.pi / 2.0) * (1.0 - 0.09) * math.exp(-0.045), rel=1e-14)

