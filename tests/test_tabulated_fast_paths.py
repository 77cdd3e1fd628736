"""Fast tabulated-spectrum paths against the slow paths they replaced.

* The NumPy PCHIP interpolant against ``scipy.interpolate.PchipInterpolator``.
* The one-pass tau_R against the per-frequency scalar loop.
* The shared-node ``_shift_arrays`` against per-tau single-integrand quadrature
  and the public ``shift_function``/``shift_function_derivative``.

The tau_R and shift paths do the same floating-point operations as their
oracles, so they must agree exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from mrtkit import (
    DivergentMomentError,
    OhmicCutoff,
    Tabulated,
    White,
    eval_spectral_density,
    shift_function,
    shift_function_derivative,
)
from mrtkit.spectral import (
    _antisymmetric_part,
    _Pchip,
    _piecewise_gauss,
    _positive_overlap,
    _shift_arrays,
    _tabulated_panel_edges,
    _tabulated_tau_r,
)

# Interpolant values and the whole-grid integral, relative to max|y|: a few
# hundred roundoffs of the cubic's four-term sum.
PCHIP_TOL = 500 * np.finfo(float).eps


def assert_matches_scipy(x, y, probes):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    ours, theirs = _Pchip(x, y), PchipInterpolator(x, y, extrapolate=False)
    scale = max(float(np.max(np.abs(y))), np.finfo(float).tiny)
    points = np.concatenate((x, np.asarray(probes, dtype=float)))
    inside = (points >= x[0]) & (points <= x[-1])
    got, want = ours(points), theirs(points)
    assert np.all(np.isnan(got[~inside])) and np.all(np.isnan(want[~inside]))
    assert np.max(np.abs(got[inside] - want[inside]), initial=0.0) <= PCHIP_TOL * scale
    span = x[-1] - x[0]
    assert abs(ours.integral - theirs.integrate(x[0], x[-1])) <= PCHIP_TOL * scale * span


@pytest.mark.parametrize(
    "y",
    [
        [0.0, 1.0, 2.0, 3.0],  # one-sided end slope kept
        [0.0, 1.0, 5.0, 6.0],  # end slope against the secant: set to zero
        [0.0, 1.0, -3.0, -2.0],  # secant sign change, overshoot: clamped to 3 m0
        [1.0, 1.0, 1.0, 2.0, 2.0, 2.0],  # flat segments
        [0.0, 2.0, -1.0, 3.0, -4.0, 0.5],  # alternating slopes
    ],
    ids=["plain-end", "zeroed-end", "clamped-end", "flat", "alternating"],
)
def test_pchip_branches(y):
    x = np.cumsum([0.0] + [0.5, 1.5, 0.25, 2.0, 1.0][: len(y) - 1])
    assert_matches_scipy(x, y, np.linspace(x[0] - 0.5, x[-1] + 0.5, 97))


# scipy's harmonic mean overflows on subnormal secants (the slope is then 0)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(1e-3, 10.0),
            st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-1e3, 1e3)),
        ),
        min_size=4,
        max_size=40,
    ),
    start=st.floats(-100.0, 100.0),
    fractions=st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=50),
)
def test_pchip_matches_scipy_on_nonuniform_grids(data, start, fractions):
    steps, y = zip(*data)
    x = start + np.cumsum((0.0,) + steps[1:])
    probes = x[0] + np.asarray(fractions) * (x[-1] - x[0])
    assert_matches_scipy(x, y, probes)


def perturbed_ohmic(seed=3, knots=300):
    """A non-uniform, asymmetric two-sided grid with roughened ohmic data."""
    rng = np.random.default_rng(seed)
    omega = np.sort(np.concatenate(([-4.0, 0.0, 5.0], rng.uniform(-4.0, 5.0, knots))))
    source = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=0.7)
    values = np.array([eval_spectral_density(source, float(w)) for w in omega])
    return Tabulated(omega, values * (1.0 + 0.3 * rng.random(omega.size)), temperature=0.7)


def scalar_tau_r(model):
    """The per-frequency loop that the one-pass tau_R replaced."""
    upper = _positive_overlap(model)
    grid = np.linspace(0.0, upper, 8193)[1:]
    g = np.array([_antisymmetric_part(model, float(w)) / float(w) for w in grid])
    cumulative = np.concatenate(([0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(grid))))
    idx = int(np.searchsorted(cumulative, 0.99 * cumulative[-1]))
    return 1.0 / float(grid[min(idx, grid.size - 1)])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tau_r_equals_scalar_loop(seed):
    model = perturbed_ohmic(seed)
    assert _tabulated_tau_r(model) == scalar_tau_r(model)


def scalar_shift_pair(model, t):
    """eps_p(t) and its derivative, each from its own single-integrand quadrature."""
    if t == 0.0:
        return 0.0, 0.0
    upper = _positive_overlap(model)
    interp = model._interp
    edges = _tabulated_panel_edges(model, upper, t)

    def shift_integrand(w):
        s = np.sin(0.5 * w * t)
        return 0.5 * (interp(w) - interp(-w)) / w * 2.0 * s * s

    def rate_integrand(w):
        return 0.5 * (interp(w) - interp(-w)) * np.sin(w * t)

    return (
        _piecewise_gauss(shift_integrand, 0.0, upper, edges) / math.pi,
        _piecewise_gauss(rate_integrand, 0.0, upper, edges) / math.pi,
    )


def test_shift_arrays_equal_per_tau_quadrature():
    model = perturbed_ohmic()
    taus = 0.37 * np.arange(41)
    shift, rate = _shift_arrays(model, taus)
    oracle = np.array([scalar_shift_pair(model, float(t)) for t in taus])
    assert np.array_equal(shift, oracle[:, 0])
    assert np.array_equal(rate, oracle[:, 1])
    assert np.array_equal(shift, [shift_function(model, float(t)) for t in taus])
    assert np.array_equal(rate, [shift_function_derivative(model, float(t)) for t in taus])


def test_shift_arrays_preconditions():
    with pytest.raises(ValueError, match="tau >= 0"):
        _shift_arrays(perturbed_ohmic(), np.array([0.0, -1.0]))
    with pytest.raises(DivergentMomentError):
        _shift_arrays(White(s0=1.0), np.array([0.0, 1.0]))
