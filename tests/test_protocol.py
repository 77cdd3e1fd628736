"""A noise model defined outside the library runs through every model consumer.

``ClassicalOhmic`` is the ohmic cutoff in the classical limit T >> omega_c:
the same S_a(omega) = eta omega / (1 + (omega/omega_c)^2)^2 as
``OhmicCutoff``, with S_s = (2T/omega) S_a in place of S_a coth(omega/2T).
Its moments are elementary, with y = omega_c t and eps_p0 = eta omega_c / 4:

    W^2 = 2 T eps_p0,   tau_R = 1/omega_c,   eps_p(t) = eps_p0 (1 - e^{-y} (1 + y)),
    X(t) = 2 (W/omega_c)^2 [y - 3/2 + (3 + y) e^{-y} / 2].

The library never names the class, so it must reach all of them through the
``SpectralModel`` protocol alone.  Where the kernel depends on S_a only, the
results equal those of ``OhmicCutoff``; W and X(t) approach its values as
omega_c/T -> 0.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from mrtkit import (
    OhmicCutoff,
    SpectralModel,
    TwoStateParams,
    dephasing_exponent,
    evolve_nonlocal,
    nonlocal_corrected_scan,
    peak_rate,
)
from mrtkit.oracle import corrected_rates_reference, direct_nonlocal_reference


@dataclass(frozen=True)
class ClassicalOhmic(SpectralModel):
    eta: float
    omega_c: float
    temperature: float

    def density(self, omega):
        return self.eta * (2.0 * self.temperature + omega) / (1.0 + (omega / self.omega_c) ** 2) ** 2

    def antisymmetric(self, omega):
        return self.eta * omega / (1.0 + (omega / self.omega_c) ** 2) ** 2

    def noise_rms(self):
        return math.sqrt(2.0 * self.temperature * self.reorganization_shift())

    def reorganization_shift(self):
        return 0.25 * self.eta * self.omega_c

    def tau_r(self):
        return 1.0 / self.omega_c

    def shift_arrays(self, taus):
        y = self.omega_c * np.asarray(taus, dtype=float)
        decay = np.exp(-y)
        eps_p0 = self.reorganization_shift()
        return eps_p0 * (1.0 - decay * (1.0 + y)), eps_p0 * self.omega_c * y * decay

    def dephasing_exponent(self, times):
        y = self.omega_c * times
        bracket = y - 1.5 + 0.5 * (3.0 + y) * np.exp(-y)
        return 2.0 * (self.noise_rms() / self.omega_c) ** 2 * bracket


# W = 1, eps_p0 = 0.5, Gamma_p / omega_c = 0.005, W / Delta = 11
MODEL = ClassicalOhmic(eta=2.0, omega_c=1.0, temperature=1.0)
BUILT_IN = OhmicCutoff(eta=2.0, omega_c=1.0, temperature=1.0)
PARAMS = TwoStateParams(delta=math.sqrt(0.005 / math.sqrt(math.pi / 8.0)), eps=0.4,
                        temperature=1.0)


def test_noise_moments():
    assert (MODEL.noise_rms(), MODEL.reorganization_shift(), MODEL.tau_r()) == (1.0, 0.5, 1.0)


def test_shift_functions_equal_the_built_in_ohmic():
    for t in (0.3, 1.0, 5.0):
        assert MODEL.shift(t) == pytest.approx(BUILT_IN.shift(t), rel=1e-14)
    taus = np.array([0.3, 1.0, 5.0])
    assert np.array_equal(MODEL.shift_arrays(taus)[1], BUILT_IN.shift_arrays(taus)[1])


def test_classical_limit_of_the_built_in_ohmic():
    # omega_c / T = 1e-3: W and X(t) of the Matsubara sums approach the
    # classical closed forms
    model = ClassicalOhmic(eta=2e-3, omega_c=1.0, temperature=1e3)
    built_in = OhmicCutoff(eta=2e-3, omega_c=1.0, temperature=1e3)
    assert model.noise_rms() == pytest.approx(built_in.noise_rms(), rel=1e-6)
    times = np.array([0.05, 1.0, 20.0])
    values = dephasing_exponent(model, times)
    assert values.shape == times.shape
    assert values == pytest.approx(dephasing_exponent(built_in, times), rel=1e-5)
    assert dephasing_exponent(model, 1.0) == values[1]


def test_evolve_nonlocal_equals_the_built_in_ohmic():
    gp = peak_rate(PARAMS.delta, 1.0)
    grid = np.linspace(0.0, 3.0 / gp, 6001)
    traj = evolve_nonlocal(MODEL, PARAMS, 0.0, grid)
    assert traj.rho11 == pytest.approx(direct_nonlocal_reference(MODEL, PARAMS, 0.0, grid),
                                       abs=1e-12)
    built_in = evolve_nonlocal(BUILT_IN, PARAMS, 0.0, grid, w_rms=1.0)
    assert traj.rho11 == pytest.approx(built_in.rho11, abs=1e-12)


def first_order_rates(model, params, w_rms):
    minus, plus = nonlocal_corrected_scan(model, params, w_rms, [params.eps])
    return float(minus[0]), float(plus[0])


@pytest.mark.parametrize("corrected", [first_order_rates, corrected_rates_reference],
                         ids=["first_order", "exact"])
def test_nonlocal_corrected_rates_equal_the_built_in_ohmic(corrected):
    rates = corrected(MODEL, PARAMS, 1.0)
    assert rates == pytest.approx(corrected(BUILT_IN, PARAMS, 1.0), rel=1e-12)
