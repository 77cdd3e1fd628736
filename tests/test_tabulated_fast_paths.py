"""Fast tabulated-spectrum paths against the slow paths they replaced.

* The NumPy PCHIP interpolant against ``scipy.interpolate.PchipInterpolator``.
* The one-pass tau_R against the per-frequency scalar loop.
* The shared-node ``Tabulated.shift_arrays`` and ``dephasing_exponent`` against the
  per-tau panel quadrature they replaced, and against a 30-digit ``mpmath``
  integral of the same interpolant.

The tau_R path does the same floating-point operations as its oracle, so the
two agree exactly.  The shared-node paths put their panel edges at the
half-periods of the largest tau rather than of each tau, so they agree with
the per-tau oracles to roundoff: |delta| <= 1e-13 max|value| for the shift
arrays (worst measured 1.9e-14) and 1e-13 relative per point for the
dephasing exponent.  On random grids the shift arrays are held to 1e-13 of
their absolute-value integrals plus the rounding of S_a = (S(w) - S(-w))/2,
which a nearly even table leaves however small S_a is.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from mrtkit import (
    OhmicCutoff,
    RegimeError,
    Tabulated,
    White,
    dephasing_exponent,
)
from mrtkit.quadrature import _GL_NODES, _GL_WEIGHTS, _oscillation_edges, _tabulated_nodes
from mrtkit.spectral import _Pchip

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
    values = np.array([source.density(float(w)) for w in omega])
    return Tabulated(omega, values * (1.0 + 0.3 * rng.random(omega.size)))


def scalar_tau_r(model):
    """The per-frequency loop that the one-pass tau_R replaced."""
    upper = model._positive_overlap()
    grid = np.linspace(0.0, upper, 8193)[1:]
    g = np.array([model.antisymmetric(float(w)) / float(w) for w in grid])
    cumulative = np.concatenate(([0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(grid))))
    idx = int(np.searchsorted(cumulative, 0.99 * cumulative[-1]))
    return 1.0 / float(grid[min(idx, grid.size - 1)])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tau_r_equals_scalar_loop(seed):
    model = perturbed_ohmic(seed)
    assert model.tau_r() == scalar_tau_r(model)


def test_shift_moments_take_s_a_from_antisymmetric(monkeypatch):
    # S_a is formed in Tabulated.antisymmetric alone: doubling it doubles
    # eps_p0 and both shift rows exactly and leaves tau_R, a quantile, as it is
    model = perturbed_ohmic()
    taus = np.array([0.0, 0.3, 2.0, 11.0])
    eps_p0, tau_r = model.reorganization_shift(), model.tau_r()
    shift, rate = model.shift_arrays(taus)
    antisymmetric = Tabulated.antisymmetric
    monkeypatch.setattr(Tabulated, "antisymmetric", lambda self, w: 2.0 * antisymmetric(self, w))
    doubled_shift, doubled_rate = model.shift_arrays(taus)
    assert model.reorganization_shift() == 2.0 * eps_p0
    assert np.array_equal(doubled_shift, 2.0 * shift)
    assert np.array_equal(doubled_rate, 2.0 * rate)
    assert model.tau_r() == tau_r


def _piecewise_gauss(f, a, b, knots):
    """Gauss-Legendre panel quadrature aligned to interpolation knots (the oracle rule)."""
    edges = np.concatenate(([a], np.asarray(knots, dtype=float), [b]))
    edges = np.unique(edges[(edges >= a) & (edges <= b)])
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    values = f(nodes.ravel())
    values = values.reshape(values.shape[:-1] + nodes.shape)
    total = np.sum(half * (values @ _GL_WEIGHTS), axis=-1)
    return float(total) if total.ndim == 0 else total


def _tabulated_panel_edges(model, upper, t=0.0):
    """Per-tau panel edges: knots on both sides, half-periods of this tau."""
    pos = model.omega[(model.omega > 0.0) & (model.omega < upper)]
    neg = -model.omega[(model.omega < 0.0) & (model.omega > -upper)]
    return np.concatenate((pos, neg, _oscillation_edges(0.0, upper, t)))


def scalar_shift_pair(model, t):
    """eps_p(t) and its derivative, each from its own single-integrand quadrature."""
    if t == 0.0:
        return 0.0, 0.0
    upper = model._positive_overlap()
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


def scalar_exponent(model, t):
    """X(t) per time: each side of the line on its own per-t panels."""
    if t == 0.0:
        return 0.0
    interp = model._interp
    total = 0.0
    for sign, upper in ((1.0, float(model.omega[-1])), (-1.0, float(-model.omega[0]))):
        if upper <= 0:
            continue

        # (sin(w t / 2) / (w t))^2, scaled by t^2 at the end: squaring
        # sin(w t / 2) / w at tiny t rounds every node's product as a subnormal
        def integrand(w, sign=sign):
            wt = w * t
            tiny = wt < 1e-8
            s = np.where(tiny, 0.5, np.sin(0.5 * wt) / np.where(tiny, 1.0, wt))
            return interp(sign * w) * s * s

        knots = np.abs(model.omega[(sign * model.omega > 0)])
        edges = np.concatenate((knots, _oscillation_edges(0.0, upper, t)))
        total += _piecewise_gauss(integrand, 0.0, upper, edges)
    return t * (t * total / math.pi)


def assert_shift_matches_oracle(model, taus):
    shift, rate = model.shift_arrays(taus)
    oracle = np.array([scalar_shift_pair(model, float(t)) for t in taus]).reshape(-1, 2)
    for got, want in ((shift, oracle[:, 0]), (rate, oracle[:, 1])):
        assert got.shape == want.shape
        scale = np.max(np.abs(want), initial=0.0)
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * scale


def subnormal_floor(model, upper, t_max):
    """One step of 5e-324 per shared Gauss node: the rounding of subnormal results.

    Below the smallest normal float the spacing is fixed, so each rounding
    errs by up to half a step however small the value, and the shared-node
    and per-t quadratures of a subnormal spectrum differ by up to about a
    step per node, times the bound of the kernel.
    """
    nodes, _ = _tabulated_nodes(model.omega, upper, t_max)
    return nodes.size * np.finfo(float).smallest_subnormal


def assert_exponent_matches_oracle(model, times):
    got = dephasing_exponent(model, times)
    want = np.array([scalar_exponent(model, float(t)) for t in times])
    assert isinstance(got, np.ndarray) and got.shape == want.shape
    # X(0) = 0 exactly on both sides; the kernel (sin(w t/2)/w)^2 is at most t^2/4
    upper = float(max(model.omega[-1], -model.omega[0]))
    kernel = np.where(times > 0, np.maximum(1.0, times * times), 0.0)
    floor = subnormal_floor(model, upper, float(np.max(times, initial=0.0))) * kernel
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want) + floor)


def test_shift_arrays_equal_per_tau_quadrature():
    model = perturbed_ohmic()
    taus = 0.37 * np.arange(41)
    assert_shift_matches_oracle(model, taus)
    for t in taus.tolist():
        assert model.shift(t) == model.shift_arrays(np.array([t]))[0][0]


@pytest.mark.parametrize("seed", [3, 4])
def test_exponent_equals_per_t_quadrature(seed):
    assert_exponent_matches_oracle(perturbed_ohmic(seed), 0.37 * np.arange(41))


def test_symmetric_grid_has_no_sliver_panels():
    # mirrored negative knots miss their positive twins by an ulp
    omega = np.linspace(-0.6, 0.6, 1201)
    source = OhmicCutoff(eta=8.0, omega_c=0.02, temperature=1.0)
    model = Tabulated(omega, [source.density(float(w)) for w in omega])
    upper = model._positive_overlap()
    assert np.unique(np.concatenate((omega[omega > 0], -omega[omega < 0]))).size > 600
    for t_max in (0.0, 200.0):
        _, weights = _tabulated_nodes(model.omega, upper, t_max)
        widths = weights.reshape(-1, _GL_WEIGHTS.size).sum(axis=1)
        assert np.min(widths) > 1e-12 * upper
        assert math.isclose(np.sum(widths), upper, rel_tol=1e-14)
    interp = model._interp
    per_knot = _piecewise_gauss(
        lambda w: 0.5 * (interp(w) - interp(-w)) / w, 0.0, upper,
        _tabulated_panel_edges(model, upper),
    ) / math.pi
    assert abs(model.reorganization_shift() - per_knot) <= 1e-14 * per_knot


def test_shift_arrays_preconditions():
    with pytest.raises(ValueError, match="tau >= 0"):
        perturbed_ohmic().shift_arrays(np.array([0.0, -1.0]))
    with pytest.raises(RegimeError, match="flat spectrum has no antisymmetric part"):
        White(s0=1.0).shift_arrays(np.array([0.0, 1.0]))


def test_empty_and_single_tau_grids():
    model = perturbed_ohmic()
    for taus in (np.empty(0), np.array([2.5])):
        assert_shift_matches_oracle(model, taus)
        assert_exponent_matches_oracle(model, taus)
    assert dephasing_exponent(model, np.empty(0)).shape == (0,)


def grid_from(data, lead):
    """Knots from (step, value) pairs; lead in (0, 1) puts that share below zero."""
    steps, values = zip(*data)
    omega = np.cumsum((0.0,) + steps[1:])
    return Tabulated(omega - lead * omega[-1], values)


def absolute_shift_bounds(model):
    """(2/pi) int |S_a|/w and (1/pi) int |S_a|: bounds on |eps_p| and |d eps_p/dtau|."""
    upper = model._positive_overlap()
    interp = model._interp
    edges = _tabulated_panel_edges(model, upper)
    s_a = lambda w: np.abs(0.5 * (interp(w) - interp(-w)))
    return (
        2.0 * _piecewise_gauss(lambda w: s_a(w) / w, 0.0, upper, edges) / math.pi,
        _piecewise_gauss(s_a, 0.0, upper, edges) / math.pi,
    )


def cancellation_floor(model):
    """eps (1/pi) int_0^upper (|S(w)| + |S(-w)|): the rounding of S_a = (S(w) - S(-w))/2.

    When S(w) and S(-w) nearly cancel, the shared-node and per-tau panels
    round S_a differently by about eps |S|, however small S_a itself is.
    """
    upper = model._positive_overlap()
    interp = model._interp
    edges = _tabulated_panel_edges(model, upper)
    both = lambda w: np.abs(interp(w)) + np.abs(interp(-w))
    return np.finfo(float).eps * _piecewise_gauss(both, 0.0, upper, edges) / math.pi


# Tables even about omega = 0 on the knots (S_a is rounding noise, eps_p0 ~ 1e-16),
# and one with S_a on the knots, as (data, lead) for grid_from: both on
# omega = -2, -1, 0, 1, 2.
EVEN_TABLE = ([(1.0, 0.0), (1.0, 1.0), (1.0, 0.0), (1.0, 1.0), (1.0, 0.0)], 0.5)
ODD_KNOT_TABLE = ([(1.0, 0.0), (1.0, 0.0), (1.0, 3.0), (1.0, 0.0), (1.0, 5.0)], 0.5)


@pytest.mark.parametrize("data, lead", [EVEN_TABLE, ODD_KNOT_TABLE], ids=["even", "odd-knots"])
def test_shift_moments_of_a_table_are_finite(data, lead):
    # a C^1 interpolant gives S_a(w)/w -> S'(0) at w = 0, so every two-sided
    # table has finite shift moments, an even one included
    model = grid_from(data, lead)
    upper = model._positive_overlap()
    interp = model._interp
    per_knot = _piecewise_gauss(
        lambda w: 0.5 * (interp(w) - interp(-w)) / w, 0.0, upper,
        _tabulated_panel_edges(model, upper),
    ) / math.pi
    floor = cancellation_floor(model)
    eps_p0 = model.reorganization_shift()
    assert math.isfinite(eps_p0) and abs(eps_p0 - per_knot) <= floor
    taus = np.array([0.0, 0.5, 1.0, 3.0, 6.0, 20.0])
    shift, rate = model.shift_arrays(taus)
    oracle = np.array([scalar_shift_pair(model, float(t)) for t in taus])
    assert np.all(np.isfinite(shift)) and np.all(np.isfinite(rate))
    assert np.max(np.abs(shift - oracle[:, 0])) <= floor * np.max(taus)
    assert np.max(np.abs(rate - oracle[:, 1])) <= floor


def test_tau_r_refuses_every_even_table():
    # S_a of a table even about 0 is rounding noise, ~1e-17 of either sign:
    # 10 of these 215 tables gave a tau_R from it (0.962 for S = (0, 2, 5, 2, 0))
    omega = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    accepted = []
    for a, b, c in itertools.product(range(6), repeat=3):
        if a or b or c:
            try:
                accepted.append(((a, b, c, b, a), Tabulated(omega, [a, b, c, b, a]).tau_r()))
            except RegimeError as err:
                assert "carries no weight" in str(err)
    assert accepted == []


knot_data = st.lists(
    st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 10.0)), min_size=4, max_size=40
)
tau_grids = st.lists(st.floats(0.0, 30.0), min_size=0, max_size=6).map(np.array)


@settings(max_examples=60, deadline=None)
@given(data=knot_data, lead=st.floats(0.05, 0.95), taus=tau_grids)
# a nearly even table: the rate row differed by 9.3e-18 against 1e-13 bound = 7.6e-18
@example(data=[(1.0, 0.0), (1.0, 6.765625), (1.0, 6.77734375), (1.0, 6.7734375)],
         lead=0.75, taus=np.array([1.0, 6.0]))
@example(data=EVEN_TABLE[0], lead=EVEN_TABLE[1], taus=np.array([1.0, 6.0]))
@example(data=ODD_KNOT_TABLE[0], lead=ODD_KNOT_TABLE[1], taus=np.array([1.0, 6.0]))
# subnormal tables: shift and rate (lead 0.5) and the exponent (lead 0.25)
# differed by one and two steps of 5e-324, above 1e-13 of their bounds, and
# the shift by six at tau = 3
@example(data=[(1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 2.225073858507e-311)],
         lead=0.5, taus=np.array([1.0]))
@example(data=[(1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 2.225073858507e-311)],
         lead=0.25, taus=np.array([1.0]))
@example(data=[(1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 2.2250738585e-313)],
         lead=0.5, taus=np.array([3.0]))
def test_shared_nodes_match_per_tau_oracle_on_random_grids(data, lead, taus):
    model = grid_from(data, lead)
    shift, rate = model.shift_arrays(taus)
    oracle = np.array([scalar_shift_pair(model, float(t)) for t in taus]).reshape(-1, 2)
    # the shift kernel 2 sin^2(w tau/2)/w is at most tau, the rate kernel at most 1
    floor = cancellation_floor(model)
    t_max = np.max(taus, initial=0.0)
    subnormal = subnormal_floor(model, model._positive_overlap(), t_max)
    floors = (floor * t_max + subnormal * max(t_max, 1.0), floor + subnormal)
    for got, want, bound, rounding in zip((shift, rate), oracle.T,
                                          absolute_shift_bounds(model), floors):
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * bound + rounding
    assert_exponent_matches_oracle(model, taus)


@settings(max_examples=40, deadline=None)
@given(data=knot_data, taus=tau_grids)
def test_one_sided_exponent_matches_per_t_oracle(data, taus):
    assert_exponent_matches_oracle(grid_from(data, 0.0), taus)


def mp_pchip(model, w):
    """The model's interpolant, its float cubic coefficients summed in mpmath."""
    x, c = model._interp.x, model._interp.c
    if w < x[0] or w > x[-1]:
        return mpmath.mpf(0)
    i = min(int(np.searchsorted(x, float(w), side="right")) - 1, x.size - 2)
    c3, c2, c1, c0 = (mpmath.mpf(float(v)) for v in c[:, i])
    s = w - mpmath.mpf(float(x[i]))
    return ((c3 * s + c2) * s + c1) * s + c0


def mp_integral(f, lo, hi, breaks):
    points = sorted({lo, hi, *(float(b) for b in breaks if lo < b < hi)})
    return mpmath.quad(f, [mpmath.mpf(p) for p in points], method="gauss-legendre")


@pytest.mark.parametrize(
    "lead", [0.45, 0.0, -0.2], ids=["two-sided", "one-sided", "above-zero"]
)
def test_accuracy_against_mpmath(lead):
    """30-digit integrals of the same interpolant, split at the knots and half-periods.

    About 40 knots; the one-sided grids (starting at zero, and above zero,
    where S = 0 below the grid) check the dephasing exponent only.
    """
    rng = np.random.default_rng(11)
    steps = rng.uniform(0.3, 0.9, 40)
    steps[0] = 0.0
    omega = np.cumsum(steps) - lead * np.sum(steps)
    source = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=0.7)
    model = Tabulated(omega, [source.density(float(w)) for w in omega])
    # at the largest tau a half-period (0.31) is shorter than most knot steps
    taus = np.linspace(0.0, 10.0, 41)
    exponent = dephasing_exponent(model, taus)
    if lead > 0.0:
        shift, rate = model.shift_arrays(taus)
        upper = model._positive_overlap()
    with mpmath.workdps(30):
        S = lambda w: mp_pchip(model, w)
        s_a = lambda w: (S(w) - S(-w)) / 2
        for i in (1, 5, 20, 40):
            t = float(taus[i])
            u = mpmath.mpf(t)
            halves = math.pi / t * np.arange(1.0, 2.0 + t * np.max(np.abs(omega)) / math.pi)
            breaks = np.concatenate((omega, -omega, halves, -halves, [0.0]))
            x_t = mp_integral(
                lambda w: S(w) * (mpmath.sin(w * u / 2) / w) ** 2, omega[0], omega[-1], breaks
            ) / mpmath.pi
            assert abs(exponent[i] - x_t) <= 1e-13 * x_t
            if lead <= 0.0:
                continue
            eps_p = mp_integral(
                lambda w: s_a(w) / w * 2 * mpmath.sin(w * u / 2) ** 2, 0.0, upper, breaks
            ) / mpmath.pi
            d_eps_p = mp_integral(
                lambda w: s_a(w) * mpmath.sin(w * u), 0.0, upper, breaks
            ) / mpmath.pi
            assert abs(shift[i] - eps_p) <= 1e-13 * abs(eps_p)
            assert abs(rate[i] - d_eps_p) <= 1e-13 * abs(d_eps_p)
