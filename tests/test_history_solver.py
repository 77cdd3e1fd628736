"""The Toeplitz resolvent of evolve_nonlocal against the direct step loop.

Both sides solve the same discrete equations, the product-trapezoid steps
with the same weights: the direct loop one step at a time, evolve_nonlocal
all at once as one triangular Toeplitz system through the power-series
reciprocal of its first column.  So they must agree to roundoff.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtkit import (OhmicCutoff, SpectralModel, Tabulated, TwoStateParams, evolve_nonlocal,
                    peak_rate)
from mrtkit.oracle import direct_nonlocal_reference

pytestmark = pytest.mark.filterwarnings("ignore::mrtkit.errors.RegimeWarning")

# Gamma_p/omega_c = 0.1: a kernel with genuine memory (criterion 6b)
MEMORY_MODEL = OhmicCutoff(eta=8.0, omega_c=1.0, temperature=0.25)
MEMORY_PARAMS = TwoStateParams(delta=0.4, eps=2.0, temperature=0.25)


def assert_matches_direct(model, params, rho11_0, grid, w_rms=1.0):
    direct = direct_nonlocal_reference(model, params, rho11_0, grid, w_rms=w_rms)
    if np.max(np.maximum(-direct, direct - 1.0)) > 1e-12:
        # strong memory can carry the solution itself out of [0, 1]
        with pytest.raises(ValueError, match="leaves"):
            evolve_nonlocal(model, params, rho11_0, grid, w_rms=w_rms)
        return
    fast = evolve_nonlocal(model, params, rho11_0, grid, w_rms=w_rms)
    assert np.max(np.abs(fast.rho11 - direct)) <= 1e-12
    assert np.max(np.abs(fast.rho00 + fast.rho11 - 1.0)) <= 1e-12


# the Newton doubling of the reciprocal works on 1, 2, 4, ... of the n - 1
# unknowns; these sizes sit on and around its boundaries, and keep the
# 32-step leaf edges (n = 32, 33, 65) of the earlier divide-and-conquer sums
@pytest.mark.parametrize("n", [2, 3, 4, 32, 33, 34, 65, 4097, 4098])
@pytest.mark.parametrize("rho11_0", [0.0, 0.3, 1.0])
def test_grid_sizes_around_the_leaf(n, rho11_0):
    grid = np.linspace(0.0, 0.05 * (n - 1), n)
    assert_matches_direct(MEMORY_MODEL, MEMORY_PARAMS, rho11_0, grid)


def test_criterion_6_constant_kernel_grid():
    model = OhmicCutoff(eta=4e-4, omega_c=1e-3, temperature=1.0)
    params = TwoStateParams(delta=0.01, eps=0.0, temperature=1.0)
    gp = peak_rate(0.01, 1.0)
    assert_matches_direct(model, params, 0.0, np.linspace(0.0, 2.5 / gp, 8001))


@pytest.mark.parametrize("factor", [1, 2, 4])
def test_criterion_6_order_grids(factor):
    grid = np.linspace(0.0, 20.0, 400 * factor + 1)
    assert_matches_direct(MEMORY_MODEL, MEMORY_PARAMS, 0.0, grid)


def test_slow_relaxation_long_grid():
    # eps_p0 = 0.5 at W = omega_c = 1 (W^2 = 2 T eps_p0) and Delta = 0.05:
    # Gamma_p h = 1.6e-4, so the resolvent's tail is long
    model = OhmicCutoff(eta=2.0, omega_c=1.0, temperature=1.0)
    params = TwoStateParams(delta=0.05, eps=0.0, temperature=1.0)
    assert_matches_direct(model, params, 0.0, 0.1 * np.arange(16001))


class Memoryless(SpectralModel):
    """A test-side model with eps_p = 0 at every delay: the kernel is its delta weight."""

    def noise_rms(self):
        return 1.0

    def reorganization_shift(self):
        return 0.0

    def tau_r(self):
        return 1.0

    def shift_arrays(self, taus):
        zeros = np.zeros_like(np.asarray(taus, dtype=float))
        return zeros, zeros


@pytest.mark.parametrize("n", [2**18 + 1, 2**18 + 2])
@pytest.mark.parametrize("rho11_0", [0.0, 1.0])
def test_memoryless_kernel_far_beyond_the_direct_loop(n, rho11_0):
    # without memory each trapezoid step is (1 + h lam0) y_m = (1 - h lam0) y_{m-1}
    # + h lam0, so y_m = 1/2 + (y_0 - 1/2) q^m exactly
    params = TwoStateParams(delta=0.05, eps=0.3, temperature=1.0)
    lam0 = peak_rate(0.05, 1.0) * math.exp(-0.5 * 0.3**2)
    h = 0.1
    q = (1.0 - h * lam0) / (1.0 + h * lam0)
    exact = 0.5 + (rho11_0 - 0.5) * q ** np.arange(n)
    traj = evolve_nonlocal(Memoryless(), params, rho11_0, h * np.arange(n))
    assert np.max(np.abs(traj.rho11 - exact)) <= 1e-12


def test_tabulated_spectrum():
    eta, omega_c, temperature = 8.0, 0.02, 1.0
    omega = np.linspace(-30.0 * omega_c, 30.0 * omega_c, 241)
    safe = np.where(omega == 0.0, 1.0, omega)
    thermal = np.where(omega == 0.0, temperature, safe / -np.expm1(-safe / temperature))
    values = 2.0 * eta * thermal / (1.0 + (omega / omega_c) ** 2) ** 2
    model = Tabulated(omega, values)
    params = TwoStateParams(delta=0.003, eps=0.05, temperature=temperature)
    grid = np.linspace(0.0, 200 * 0.02 / omega_c, 201)
    assert_matches_direct(model, params, 0.0, grid, w_rms=model.noise_rms())


@settings(max_examples=25, deadline=None)
@given(
    omega_c=st.floats(0.5, 2.0),
    eps_p0=st.floats(0.1, 2.5),
    ratio=st.floats(0.01, 0.3),
    eps=st.floats(-3.0, 3.0),
    rho11_0=st.floats(0.0, 1.0),
    step_fraction=st.floats(0.2, 1.0),
    n=st.integers(2, 300),
)
def test_ohmic_property(omega_c, eps_p0, ratio, eps, rho11_0, step_fraction, n):
    # W = 1 with the fluctuation-dissipation temperature W^2 = 2 T eps_p0
    temperature = 0.5 / eps_p0
    model = OhmicCutoff(eta=4.0 * eps_p0 / omega_c, omega_c=omega_c, temperature=temperature)
    gp = ratio * omega_c
    delta = math.sqrt(gp / math.sqrt(math.pi / 8.0))
    params = TwoStateParams(delta=delta, eps=eps, temperature=temperature)
    h = step_fraction * 0.1 / omega_c
    assert_matches_direct(model, params, rho11_0, h * np.arange(n))
