"""Accuracy of the NumPy Faddeeva function against 40-digit mpmath, and
properties of the line shapes and the local rate equation built on it."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtkit import convolution_reference, evolve_local, faddeeva, peak_rate, voigt_rate
from mrtkit.rates import _TWO_OVER_SQRT_PI, _w_poppe_wijers


def reference(points) -> np.ndarray:
    """w(z) = exp(-z^2) erfc(-iz) at 40 digits."""
    mp = pytest.importorskip("mpmath")
    out = []
    with mp.workdps(40):
        for z in np.ravel(points):
            zm = mp.mpc(complex(z))
            out.append(complex(mp.exp(-zm * zm) * mp.erfc(-1j * zm)))
    return np.array(out)


def grid(xs, ys) -> np.ndarray:
    return (np.asarray(xs)[:, None] + 1j * np.asarray(ys)[None, :]).ravel()


# the region boundaries of both methods, where an error would show first
EDGES_X = [1.84, 5.33, 6.3, 6.3 + 1e-9, 10.0 - 1e-9, 10.0]


def test_relative_error_on_the_voigt_box():
    xs = np.concatenate((np.linspace(-30.0, 30.0, 61), EDGES_X, np.negative(EDGES_X)))
    ys = np.concatenate((np.logspace(-4.0, math.log10(30.0), 21), [0.5 - 1e-12, 0.5, 1.28, 4.4]))
    z = grid(xs, ys)
    expected = reference(z)
    assert np.max(np.abs(faddeeva(z) - expected) / np.abs(expected)) <= 1e-13


def test_real_part_near_the_axis_relative_to_itself():
    # Re w << |w| here: a truncated continued fraction (Algorithm 680 alone)
    # misses its e^{-x^2} part by up to 5e-8 relative near x = 5
    xs = np.concatenate((np.linspace(-8.0, 8.0, 81), EDGES_X[:3], np.negative(EDGES_X[:3])))
    z = grid(xs, np.logspace(-8.0, -2.0, 13))
    expected = reference(z).real
    keep = expected > 1e-300
    got = faddeeva(z).real[keep]
    assert np.max(np.abs(got - expected[keep]) / expected[keep]) <= 1e-11


def test_relative_error_inside_the_power_series_ellipse():
    # q = (x/6.3)^2 + (y/4.4)^2 < 0.085264 off the strip, where Algorithm
    # 680 sums a power series: it cancels near the imaginary axis, 3.4e-15
    # at y = 1.2238 of this axis; the Taylor branch is within 1.2e-15
    rng = np.random.default_rng(24)
    x, y = on_ellipse(rng.uniform(0.0, 0.085264, 2000), rng.uniform(0.0, 0.5 * math.pi, 2000))
    inside = (x + 1j * y)[y >= 0.5]
    axis = 1j * np.linspace(0.5, 1.2848, 400)
    z = np.concatenate((inside, axis, -np.conj(inside)))
    expected = reference(z)
    assert np.max(np.abs(faddeeva(z) - expected) / np.abs(expected)) <= 3e-15


def some_points(size: int) -> np.ndarray:
    """Fixed points in every region, then random ones on |x| < 12, 0 <= y < 8."""
    rng = np.random.default_rng(size)
    fixed = [0.3 + 0.01j, 3.0 + 1.0j, 20.0 + 0.001j, 0.5 + 2.0j, -1.0 + 0.5j, 0.2 + 0.2j]
    drawn = rng.uniform(-12.0, 12.0, size) + 1j * rng.uniform(0.0, 8.0, size)
    return np.concatenate((fixed, drawn))[:size]


def test_scalar_and_array_agree():
    z = np.array([0.3 + 0.01j, 3.0 + 1.0j, 20.0 + 0.001j, 0.5 + 2.0j])
    assert [faddeeva(complex(v)) for v in z] == list(faddeeva(z))


@pytest.mark.parametrize("size", [*range(1, 10), 33, 2000])
def test_scalar_is_its_element_at_any_length(size):
    # each point runs its own levels whatever its neighbours and its place
    z = some_points(size)
    assert [faddeeva(complex(v)) for v in z] == list(faddeeva(z))


def test_permuted_input_permutes_the_output():
    z = some_points(2000)
    order = np.random.default_rng(1).permutation(z.size)
    assert np.array_equal(faddeeva(z[order]), faddeeva(z)[order])


def masked_poppe_wijers(x, y):
    """Algorithm 680's Taylor and fraction branches in real arithmetic, every level
    masking the whole array: the reference."""
    ys = y / 4.4
    q = (x / 6.3) ** 2 + ys * ys
    far = q > 1.0
    # s = 0 (q >= 1, or y = 4.4) is the plain continued fraction
    s = (1.0 - ys) * np.sqrt(np.maximum(1.0 - q, 0.0))
    taylor_pts = s > 0.0
    h = 1.88 * s
    h2 = np.where(taylor_pts, 2.0 * h, 1.0)
    kapn = np.where(taylor_pts, np.rint(7.0 + 34.0 * s), -1).astype(int)
    nu = np.where(far, (3.0 + 1442.0 / (26.0 * np.sqrt(q) + 77.0)).astype(int),
                  np.rint(16.0 + 26.0 * s).astype(int))
    qlambda = np.where(taylor_pts, h2 ** np.maximum(kapn, 0), 0.0)
    rx = np.zeros_like(x)
    ry = np.zeros_like(x)
    sx = np.zeros_like(x)
    sy = np.zeros_like(x)
    for n in range(int(nu.max()), -1, -1):
        # every point runs its own nu + 1 fraction levels
        live = n <= nu
        tx = y + h + (n + 1) * rx
        ty = x - (n + 1) * ry
        c = 0.5 / (tx * tx + ty * ty)
        rx = np.where(live, c * tx, rx)
        ry = np.where(live, c * ty, ry)
        taylor = n <= kapn
        if taylor.any():
            tx = qlambda + sx
            sx = np.where(taylor, rx * tx - ry * sy, sx)
            sy = np.where(taylor, ry * tx + rx * sy, sy)
            qlambda = np.where(taylor, qlambda / h2, qlambda)
    return (_TWO_OVER_SQRT_PI * np.where(taylor_pts, sx, rx),
            _TWO_OVER_SQRT_PI * np.where(taylor_pts, sy, ry))


def on_ellipse(q, theta):
    """x, y >= 0 with (x/6.3)^2 + (y/4.4)^2 = q, at the angle theta of the quadrant."""
    return 6.3 * np.sqrt(q) * np.cos(theta), 4.4 * np.sqrt(q) * np.sin(theta)


def deviation_from_masked(x, y):
    new = complex_of(_w_poppe_wijers(x, y))
    old = complex_of(masked_poppe_wijers(x, y))
    return np.abs(new - old) / np.abs(old)


def complex_of(parts):
    return parts[0] + 1j * parts[1]


@pytest.mark.parametrize(
    "q_lo, q_hi, bound",
    # the inner ellipse is where Algorithm 680 sums its power series; the
    # Taylor branch that serves it here is within 9.1e-16 of the masked one
    # on 300 000 points (the series bound, 8e-15, is kept)
    [(0.0, 0.085264, 8e-15), (0.085264, 1.0, 4e-15), (1.0, 9.0, 4e-15)],
    ids=["series", "taylor", "fraction"],
)
def test_complex_recurrences_match_the_masked_real_ones(q_lo, q_hi, bound):
    rng = np.random.default_rng(22)
    x, y = on_ellipse(rng.uniform(q_lo, q_hi, 4000), rng.uniform(0.0, 0.5 * math.pi, 4000))
    assert np.max(deviation_from_masked(x, y)) <= bound


def test_complex_recurrences_match_on_the_region_edges():
    # y a few ulps either side of each ellipse, one call per shift: next to
    # q = 1 a plain point may run 17 fraction levels beside Taylor points
    # that run 16
    theta = np.linspace(0.0, 0.5 * math.pi, 201)
    edges = []
    for q in (0.085264, 1.0):
        x, y = on_ellipse(np.full(theta.size, q), theta)
        edges += [(x, np.abs(y + ulps * np.spacing(y))) for ulps in range(-3, 4)]
    line = np.linspace(0.0, 12.0, 201)
    edges += [(line, np.full(line.size, 4.4)), (line, np.full(line.size, 0.5)),
              (np.full(line.size, 10.0), 0.5 * line)]
    for x, y in edges:
        q = (x / 6.3) ** 2 + (y / 4.4) ** 2
        bound = np.where(q < 0.085264, 8e-15, 4e-15)
        assert np.all(deviation_from_masked(x, y) <= bound)


def laplace_fraction_reference(points, terms=40) -> np.ndarray:
    """w(z) = (i/sqrt(pi)) / (z - (1/2)/(z - 1/(z - (3/2)/(z - ...)))) at 40 digits.

    The continued fraction converges for Im z > 0, and within a few terms
    once |z| is large; mpmath's erfc overflows or returns 0 there.
    """
    mp = pytest.importorskip("mpmath")
    out = []
    with mp.workdps(40):
        for z in np.ravel(points):
            zm = mp.mpc(complex(z))
            tail = zm
            for k in range(terms, 0, -1):
                tail = zm - mp.mpf(k) / 2 / tail
            out.append(complex(1j / (mp.sqrt(mp.pi) * tail)))
    return np.array(out)


@pytest.mark.parametrize("modulus", [1e8, 1e154, 1e200])
def test_large_argument_matches_mpmath(modulus):
    # directions from just above the positive to just above the negative axis
    z = modulus * np.exp(1j * np.linspace(1e-3, math.pi - 1e-3, 9))
    z = np.append(z, [modulus + 1.0j, -modulus + 1.0j, 1j * modulus, modulus + 0.0j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = faddeeva(z)
    expected = laplace_fraction_reference(z)
    assert np.max(np.abs(got - expected) / np.abs(expected)) <= 1e-15
    assert np.all(np.abs(got.real - expected.real) <= 1e-15 * np.abs(expected.real))


def test_fraction_reference_matches_erfc_form():
    z = 1e8 * np.exp(1j * np.linspace(0.1, math.pi - 0.1, 5))
    expected = reference(z)
    assert np.max(np.abs(laplace_fraction_reference(z) - expected) / np.abs(expected)) <= 1e-15


def test_non_finite_input_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = faddeeva(complex(math.nan, 1.0))
        mixed = faddeeva(np.array([math.nan + 0j, 1.0 + 1.0j, complex(2.0, math.nan)]))
        infinite = faddeeva(np.array([complex(math.inf, 0.0), complex(-math.inf, 1.0),
                                      complex(0.0, math.inf)]))
    assert math.isnan(scalar.real) and math.isnan(scalar.imag)
    assert np.isnan(mixed[[0, 2]]).all()
    assert mixed[1] == faddeeva(1.0 + 1.0j)
    assert np.all(infinite == 0.0)

@pytest.mark.parametrize("delta", [0.0, -0.01])
def test_nonpositive_delta_is_rejected(delta):
    with pytest.raises(ValueError, match="delta"):
        voigt_rate(delta, 1.0, 0.0, 0.0, 0.1)
    with pytest.raises(ValueError, match="delta"):
        convolution_reference(delta, 1.0, [0.0], 0.0, 0.1)


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(-1e3, 1e3, allow_nan=False),
    y=st.floats(0.0, 1e3, allow_nan=False),
)
def test_real_part_is_a_normalised_profile(x, y):
    # Re w(x + iy) = (y/pi) int e^{-t^2} / ((x - t)^2 + y^2) dt: in [0, 1]
    value = faddeeva(complex(x, y)).real
    assert 0.0 <= value <= 1.0


@settings(max_examples=300, deadline=None)
@given(
    delta=st.floats(1e-4, 1.0),
    w=st.floats(0.05, 20.0),
    eps=st.floats(-50.0, 50.0),
    eps_p=st.floats(-5.0, 5.0),
    gamma=st.floats(1e-10, 10.0),
)
def test_voigt_tends_to_the_gaussian(delta, w, eps, eps_p, gamma):
    # |d Re w / dy| <= |w'| <= 2.6 on the closed upper half plane (w' =
    # -2zw + 2i/sqrt(pi) is bounded there; its modulus peaks at z = 0 with
    # 2/sqrt(pi)), so moving y from 0 to gamma/(sqrt(2) W) changes Re w by
    # at most 2.6 gamma/(sqrt(2) W) and the rate by at most 2 Gamma_p gamma/W
    gap = abs(voigt_rate(delta, w, eps, eps_p, gamma) - voigt_rate(delta, w, eps, eps_p, 0.0))
    assert gap <= 2.0 * peak_rate(delta, w) * gamma / w * (1.0 + 1e-12)


@settings(max_examples=100, deadline=None)
@given(
    minus=st.floats(0.0, 10.0),
    plus=st.floats(0.0, 10.0),
    rho11_0=st.floats(0.0, 1.0),
    span=st.floats(1e-3, 1e3),
    speed=st.floats(-2.0, 2.0),
    callable_rates=st.booleans(),
)
def test_local_evolution_keeps_trace_and_unit_interval(minus, plus, rho11_0, span, speed,
                                                       callable_rates):
    grid_t = np.linspace(0.0, span, 9)
    if callable_rates:
        # a bias ramp sweeping the shifted-Gaussian rates through resonance
        rates = (lambda t: minus * math.exp(-0.5 * (speed * (t - 0.5 * span) - 0.3) ** 2),
                 lambda t: plus * math.exp(-0.5 * (speed * (t - 0.5 * span) + 0.3) ** 2))
    else:
        rates = (minus, plus)
    traj = evolve_local(*rates, rho11_0, grid_t)
    assert np.all(np.abs(traj.rho00 + traj.rho11 - 1.0) <= 1e-12)
    assert np.all((traj.rho11 >= 0.0) & (traj.rho11 <= 1.0))
