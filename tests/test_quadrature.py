"""NumPy Gauss-Kronrod quadrature and bounded Brent minimisation."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from mrtkit import (
    IntegrationWarning,
    OhmicCutoff,
    TwoStateParams,
    peak_rate,
    peak_summary,
)
from mrtkit import dynamics
from mrtkit.quadrature import (_BLOCK, RULE_SIZE, _GL_NODES, _GL_WEIGHTS, _sine_contraction,
                               _sorted_unique, bounded_minimum, gauss_kronrod)


def lorentzian(gamma):
    return lambda x: gamma / (x * x + gamma * gamma)


# (integrand, edges, exact value)
CASES = {
    "exp": (np.exp, [0.0, 1.0], math.e - 1.0),
    "oscillating": (lambda x: np.cos(3.0 * x) * np.exp(-x), [0.0, 3.0],
                    (1.0 - math.exp(-3.0) * (math.cos(9.0) - 3.0 * math.sin(9.0))) / 10.0),
    "kink-at-edge": (lambda x: np.abs(x - 0.3), [-1.0, 0.3, 1.0], 0.5 * (1.3**2 + 0.7**2)),
    "step-at-edge": (lambda x: np.where(x < 0.25, 1.0, 3.0), [0.0, 0.25, 1.0], 0.25 + 2.25),
}
for _gamma in (1e-6, 1e-3, 1.0, 100.0):
    # spike at 0, an exact abscissa; the edge at 0 lets the rule zoom in
    CASES[f"lorentzian-{_gamma:g}"] = (
        lorentzian(_gamma), [-1.3, 0.0, 0.7],
        math.atan(1.3 / _gamma) + math.atan(0.7 / _gamma),
    )


class TestGaussKronrod:
    def test_rule_is_exact_for_polynomials(self):
        # K15 is exact through degree 22, the embedded G7 through 13
        for k in range(23):
            exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
            # one interval, and a tolerance the first estimate meets
            value, error, evals = gauss_kronrod(
                lambda x, k=k: x**k, [-1.0, 1.0], epsabs=1.0, epsrel=0.0, limit=1
            )
            assert value == pytest.approx(exact, abs=1e-15)
            assert evals == RULE_SIZE

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_closed_form_and_quad(self, name):
        f, edges, exact = CASES[name]
        value, error, evals = gauss_kronrod(f, edges, epsabs=0.0, epsrel=1e-12, limit=800)
        assert abs(value - exact) <= 2e-12 * abs(exact)
        # the error estimate bounds the true error
        assert abs(value - exact) <= error
        assert error <= 1e-12 * abs(value)
        assert evals > 0 and evals % RULE_SIZE == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference, _ = quad(
                f, edges[0], edges[-1], points=edges[1:-1] or None,
                epsabs=0.0, epsrel=1e-12, limit=800,
            )
        if name != "lorentzian-1e-06":
            # QUADPACK's QAGP misses the 1e-6 spike by 48% from the same edges
            assert value == pytest.approx(reference, rel=2e-12, abs=0.0)

    def test_batched_calls(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.exp(-x * x)

        value, error, evals = gauss_kronrod(f, [-6.0, 0.0, 6.0], epsabs=0.0, epsrel=1e-13, limit=50)
        assert value == pytest.approx(math.sqrt(math.pi) * math.erf(6.0), rel=1e-13, abs=0.0)
        # one call per refinement step, each a whole number of 15-point rules
        assert sum(calls) == evals
        assert all(size % RULE_SIZE == 0 for size in calls)

    def test_exhausted_limit_warns(self):
        with pytest.warns(IntegrationWarning, match="subdivision limit 4"):
            value, error, evals = gauss_kronrod(
                lambda x: np.sqrt(np.abs(np.sin(50.0 * x))), [0.0, 10.0],
                epsabs=0.0, epsrel=1e-14, limit=4,
            )
        assert error > 1e-14 * abs(value)
        # 1 + 2 + 4 rules: the first interval, then every split the limit allows
        assert evals == 7 * RULE_SIZE


class TestBoundedMinimum:
    @pytest.mark.parametrize(
        "f, lo, hi",
        [
            (lambda x: (x - 0.7) ** 2 + 0.1 * math.sin(5.0 * x), -2.0, 3.0),
            (lambda x: -math.exp(-(x - 1.234567) ** 2) * (1.0 + 0.3 * x), -5.0, 5.0),
            (lambda x: abs(x - 0.2), -1.0, 1.0),
            (lambda x: x, 2.0, 3.0),     # minimum on the boundary
            (lambda x: math.cos(x), 0.0, 10.0),
        ],
    )
    @pytest.mark.parametrize("xatol", [1e-5, 1e-11])
    def test_agrees_with_minimize_scalar(self, f, lo, hi, xatol):
        expected = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
        assert bounded_minimum(f, lo, hi, xatol) == pytest.approx(expected.x, abs=xatol)


def test_gauss_legendre_table_is_leggauss_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert _GL_NODES.tobytes() == nodes.tobytes()
    assert _GL_WEIGHTS.tobytes() == weights.tobytes()


@pytest.mark.parametrize("size", [0, 1, 7, 300])
def test_sorted_unique_is_np_unique_bit_for_bit(size):
    # repeated draws, signed zeros and an ulp-close pair, as panel edges have
    rng = np.random.default_rng(size)
    pool = np.concatenate((rng.normal(size=20), [0.0, -0.0, 1.0, np.nextafter(1.0, 2.0)]))
    a = rng.choice(pool, size)
    assert _sorted_unique(a).tobytes() == np.unique(a).tobytes()


def fresh_sine_contraction(taus, nodes, sin2_weights, sin_weights=None) -> np.ndarray:
    """``_sine_contraction`` with new temporaries in every block: the reference."""
    taus = np.asarray(taus, dtype=float).ravel()
    out = np.zeros((1 if sin_weights is None else 2, taus.size))
    rows = max(1, _BLOCK // max(nodes.size, 1))
    half_nodes = 0.5 * nodes
    for start in range(0, taus.size, rows):
        block = slice(start, start + rows)
        phase = np.multiply.outer(taus[block], half_nodes)
        s = np.sin(phase)
        out[0, block] = (s * s) @ sin2_weights
        if sin_weights is not None:
            out[1, block] = np.sin(phase + phase) @ sin_weights
    return out


def contraction_inputs(nodes: int, taus: int):
    rng = np.random.default_rng(nodes + taus)
    return (rng.uniform(0.0, 20.0, taus), np.sort(rng.uniform(0.0, 50.0, nodes)),
            rng.normal(size=nodes), rng.normal(size=nodes))


# 32 tau per block, and one tau per block once the nodes outnumber _BLOCK
@pytest.mark.parametrize("nodes", [1000, 2 * _BLOCK + 3])
def test_sine_contraction_in_place_is_bit_for_bit(nodes):
    rows = max(1, _BLOCK // nodes)
    for count in sorted({1, rows - 1, rows, rows + 1, 3 * rows + 2} - {0}):
        taus, grid, sin2_weights, sin_weights = contraction_inputs(nodes, count)
        for weights in (None, sin_weights):
            assert np.array_equal(_sine_contraction(taus, grid, sin2_weights, weights),
                                  fresh_sine_contraction(taus, grid, sin2_weights, weights))


def test_sine_contraction_holds_two_blocks():
    # the tabulated-spectrum benchmark's shape: 201 tau on 10 208 nodes
    taus, grid, sin2_weights, sin_weights = contraction_inputs(10_208, 201)
    rows = _BLOCK // grid.size
    _sine_contraction(taus, grid, sin2_weights, sin_weights)
    tracemalloc.start()
    try:
        _sine_contraction(taus, grid, sin2_weights, sin_weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output, half_nodes = 2 * taus.nbytes, grid.nbytes
    assert peak <= 2 * rows * grid.nbytes + output + half_nodes + 64 * 1024


def quad_peak_summary(model, params, w_rms):
    """The quad / minimize_scalar peak_summary that the NumPy rules replaced."""
    delta = params.delta_schedule.initial
    w = w_rms
    gp = peak_rate(delta, w)
    ratio = gp / model.response_frequency()
    eps_p0 = model.reorganization_shift()
    temperature = params.temperature
    gauss_supp = math.exp(-0.5 * (eps_p0 / w) ** 2)

    def curve(e: float) -> float:
        base = gp * math.exp(-0.5 * ((e - eps_p0) / w) ** 2)
        factor = 1.0 + 2.0 * ratio * math.exp(-0.5 * (e / w) ** 2) * (
            gauss_supp * math.cosh(0.5 * e / temperature) - 1.0
        )
        return base * factor

    span = 3.0 * w
    opt = minimize_scalar(
        lambda e: -curve(e),
        bounds=(eps_p0 - span, eps_p0 + span),
        method="bounded",
        options={"xatol": 1e-11 * max(w, abs(eps_p0))},
    )
    eps_peak = float(opt.x)
    half = 10.0 * w + w * w / temperature
    lo, hi = eps_p0 - half, eps_p0 + half
    pts = [eps_p0 - w, eps_p0, eps_p0 + w]
    norm, _ = quad(curve, lo, hi, epsabs=1e-14 * gp, epsrel=1e-12, limit=400, points=pts)
    mean, _ = quad(
        lambda e: e * curve(e), lo, hi, epsabs=0.0, epsrel=1e-12, limit=400, points=pts
    )
    mean /= norm
    m2, _ = quad(
        lambda e: (e - mean) ** 2 * curve(e),
        lo, hi, epsabs=0.0, epsrel=1e-12, limit=400, points=pts,
    )
    m2 /= norm
    m3, _ = quad(
        lambda e: (e - mean) ** 3 * curve(e),
        lo, hi, epsabs=1e-10 * norm * m2**1.5, epsrel=1e-12, limit=400, points=pts,
    )
    m3 /= norm
    return curve(eps_peak), eps_peak, m3 / m2**1.5


def fdt_model(eps_p0, omega_c, w_rms=1.0):
    return OhmicCutoff(
        eta=4.0 * eps_p0 / omega_c, omega_c=omega_c, temperature=w_rms * w_rms / (2.0 * eps_p0)
    )


class TestPeakSummaryAgainstQuad:
    @pytest.mark.parametrize(
        "model, delta, eps",
        [
            (fdt_model(2.5, 1.0), math.sqrt(1e-3 / math.sqrt(math.pi / 8.0)), 2.5),
            (fdt_model(2.5, 1.0), math.sqrt(0.1 / math.sqrt(math.pi / 8.0)), 2.5),
            (fdt_model(0.5, 0.3), 0.05, 0.5),
            (OhmicCutoff(eta=200.0, omega_c=0.01, temperature=1.0), 0.02, 0.4),
            (OhmicCutoff(eta=8.0, omega_c=1.0, temperature=0.25), 0.4, 2.0),
        ],
    )
    def test_agrees_with_quad_version(self, model, delta, eps):
        w = model.noise_rms()
        params = TwoStateParams(delta=delta, eps=eps, temperature=model.temperature)
        summary = peak_summary(model, params, w)
        gamma_peak, eps_peak, asymmetry = quad_peak_summary(model, params, w)
        assert summary.gamma_peak == pytest.approx(gamma_peak, rel=1e-10, abs=0.0)
        assert summary.eps_peak == pytest.approx(eps_peak, rel=1e-10, abs=0.0)
        assert summary.asymmetry == pytest.approx(asymmetry, abs=1e-9)

    def test_low_temperature_window_is_finite(self):
        # at T = W/50 the window reaches e/2T ~ 1.5e3, where cosh alone
        # overflows (math.cosh raised OverflowError); the curve itself peaks
        # at exp(W^2/8T^2) = e^312 and stays representable
        model = OhmicCutoff(eta=4.0, omega_c=1.0, temperature=0.02)
        params = TwoStateParams(delta=0.05, eps=1.0, temperature=0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = peak_summary(model, params, 1.0)
        values = (summary.gamma_peak, summary.eps_peak, summary.asymmetry)
        assert all(math.isfinite(v) for v in values)


def skewness_mpmath_oracle(model, delta, w_rms, temperature, digits=30):
    """Skewness of the corrected Gamma_-(eps) curve by mpmath.quad at `digits` digits.

    The curve as ``quad_peak_summary`` writes it, integrated as it stands on
    panels of at most 8 W.  They reach 16 W past the line at eps_p0 and past
    eps_p0/2 +- W^2/4T, where e^{-eps^2/2W^2} cosh(eps/2T) times the line
    peaks.  Raw moments about eps_p0 lose nothing to cancellation at this
    precision.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        gp = mpmath.mpf(peak_rate(delta, w_rms))
        ratio = gp / model.response_frequency()
        eps_p0 = mpmath.mpf(model.reorganization_shift())
        w, temperature = mpmath.mpf(w_rms), mpmath.mpf(temperature)
        suppression = mpmath.exp(-eps_p0**2 / (2 * w**2))

        def curve(e):
            gauss = mpmath.exp(-e**2 / (2 * w**2))
            factor = 1 + 2 * ratio * gauss * (suppression * mpmath.cosh(e / (2 * temperature)) - 1)
            return gp * mpmath.exp(-(e - eps_p0) ** 2 / (2 * w**2)) * factor

        b = w**2 / (4 * temperature)
        lo = min(eps_p0, eps_p0 / 2 - b) - 16 * w
        hi = max(eps_p0, eps_p0 / 2 + b) + 16 * w
        panels = int(mpmath.ceil((hi - lo) / (8 * w)))
        edges = [lo + (hi - lo) * k / panels for k in range(panels + 1)]
        norm, first, second, third = (
            mpmath.quad(lambda e: (e - eps_p0) ** k * curve(e), edges) for k in range(4)
        )
        mean = first / norm
        m2 = second / norm - mean**2
        m3 = third / norm - 3 * mean * second / norm + 2 * mean**3
        return float(m3 / m2**1.5)


# TestPeakSummaryAgainstQuad's cases and the T = W/50 case, with W (None: the model's)
PEAK_CASES = [
    (fdt_model(2.5, 1.0), math.sqrt(1e-3 / math.sqrt(math.pi / 8.0)), 2.5, None),
    (fdt_model(2.5, 1.0), math.sqrt(0.1 / math.sqrt(math.pi / 8.0)), 2.5, None),
    (fdt_model(0.5, 0.3), 0.05, 0.5, None),
    (OhmicCutoff(eta=200.0, omega_c=0.01, temperature=1.0), 0.02, 0.4, None),
    (OhmicCutoff(eta=8.0, omega_c=1.0, temperature=0.25), 0.4, 2.0, None),
    (OhmicCutoff(eta=4.0, omega_c=1.0, temperature=0.02), 0.05, 1.0, 1.0),
]


class TestPeakSkewnessClosedForm:
    @pytest.mark.parametrize("model, delta, eps, w", PEAK_CASES)
    def test_matches_mpmath(self, model, delta, eps, w):
        w = model.noise_rms() if w is None else w
        params = TwoStateParams(delta=delta, eps=eps, temperature=model.temperature)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            summary = peak_summary(model, params, w)
        reference = skewness_mpmath_oracle(model, delta, w, model.temperature)
        assert summary.asymmetry == pytest.approx(reference, rel=0.0, abs=1e-13)

    def test_needs_no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("peak_summary integrated numerically")

        monkeypatch.setattr(dynamics, "gauss_kronrod", refuse)
        model, delta, eps, _ = PEAK_CASES[1]
        params = TwoStateParams(delta=delta, eps=eps, temperature=model.temperature)
        summary = peak_summary(model, params, model.noise_rms())
        assert math.isfinite(summary.asymmetry)
