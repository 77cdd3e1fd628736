"""Adaptive Gauss-Kronrod quadrature, shared panel rules and a bounded
scalar minimiser in NumPy.

``gauss_kronrod`` is the globally adaptive G7K15 rule of QUADPACK's QAG
(Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, QUADPACK, Springer
1983), with the same per-interval error estimate.  The integrand takes an
array of abscissae, and every refinement step evaluates all new intervals
in one call.  ``bounded_minimum`` is Brent's golden-section and parabolic
search on a closed interval (Brent, Algorithms for Minimization without
Derivatives, 1973, ch. 5), the method of ``fminbound``.  The private
``_tabulated_nodes`` and ``_sine_contraction`` integrate a piecewise-cubic
spectrum against sin(tau w / 2)^2 and sin(tau w) for many tau at once.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import IntegrationWarning, RegimeError

__all__ = ["gauss_kronrod", "bounded_minimum"]

# 15-point Kronrod abscissae on [-1, 1] and their weights; the 7-point Gauss
# rule uses every second abscissa (QUADPACK qk15).
_XK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
])
_NODES = np.concatenate((-_XK[:-1], _XK[::-1]))
_KRONROD = np.concatenate((_WK[:-1], _WK[::-1]))
_GAUSS = np.concatenate((_WG[:-1], _WG[::-1]))
RULE_SIZE = _NODES.size
_EPS = np.finfo(float).eps


def _rule(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K15 values and QUADPACK error estimates on the intervals [a_i, b_i]."""
    half = 0.5 * (b - a)
    center = a + half
    values = np.asarray(f((center[:, None] + half[:, None] * _NODES).ravel()), dtype=float)
    values = values.reshape(a.size, RULE_SIZE)
    kronrod = values @ _KRONROD
    gauss = values @ _GAUSS
    scale = np.abs(half)
    resabs = (np.abs(values) @ _KRONROD) * scale
    resasc = (np.abs(values - 0.5 * kronrod[:, None]) @ _KRONROD) * scale
    error = np.abs((kronrod - gauss) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * error / resasc) ** 1.5)
    error = np.where((resasc != 0.0) & (error != 0.0), scaled, error)
    error = np.maximum(error, 50.0 * _EPS * resabs)
    return kronrod * half, error


def gauss_kronrod(f, edges, *, epsabs: float, epsrel: float, limit: int):
    """Integral of f over [edges[0], edges[-1]], split at the interior edges.

    f maps an array of abscissae to an array of values.  Intervals are
    bisected, largest error estimate first, until the summed estimate is at
    most max(epsabs, epsrel |value|); each step bisects every interval whose
    estimate exceeds an equal share of that tolerance.  At most
    ``limit`` intervals are used: when they run out first an
    IntegrationWarning is issued and the current value returned.

    Returns (value, abs_error, evals); evals is a multiple of the 15-point
    rule size.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    value, error = _rule(f, lo, hi)
    evals = RULE_SIZE * lo.size
    while True:
        total, estimate = float(np.sum(value)), float(np.sum(error))
        tolerance = max(epsabs, epsrel * abs(total))
        room = limit - lo.size
        if estimate <= tolerance or room <= 0:
            break
        worst = np.argsort(-error, kind="stable")
        count = min(room, max(1, int(np.count_nonzero(error > tolerance / lo.size))))
        split = worst[:count]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_value, new_error = _rule(f, new_lo, new_hi)
        evals += RULE_SIZE * new_lo.size
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        value = np.concatenate((value[keep], new_value))
        error = np.concatenate((error[keep], new_error))
    if estimate > tolerance:
        warnings.warn(
            f"gauss_kronrod: subdivision limit {limit} reached with error estimate "
            f"{estimate:.3g} above the tolerance {tolerance:.3g}",
            IntegrationWarning,
            stacklevel=2,
        )
    return total, estimate, evals


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_MAX_EVALS = 500


def bounded_minimum(f, lo: float, hi: float, xatol: float) -> float:
    """Abscissa of a local minimum of the scalar function f on [lo, hi].

    Brent's method: parabolic interpolation through the three best points,
    with golden-section steps whenever the parabola is unacceptable.  Stops
    when the bracket around the best point is within 2 (sqrt(eps)|x| +
    xatol/3), as ``fminbound`` does, or after 500 evaluations of f.
    """
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    for _ in range(_MAX_EVALS - 1):
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return x
        parabolic = False
        if abs(e) > tol1:
            # parabola through (x, fx), (w, fw), (v, fv): step p / q from x
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                parabolic = True
                d = p / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if m >= x else -tol1
        if not parabolic:
            e = (a - x) if x >= m else (b - x)
            d = _GOLDEN * e
        step = max(abs(d), tol1)
        u = x + (step if d >= 0.0 else -step)
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    warnings.warn(
        f"bounded_minimum: no convergence within {_MAX_EVALS} evaluations",
        RuntimeWarning,
        stacklevel=2,
    )
    return x


# The 16-point Gauss-Legendre rule on [-1, 1]: np.polynomial.legendre.leggauss(16)
# to the last bit, written out so that importing mrtkit does not load
# numpy.polynomial.
_GL_NODES = np.array([-0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
                      -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
                      -0.2816035507792589, -0.09501250983763744, 0.09501250983763744,
                      0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
                      0.755404408355003, 0.8656312023878318, 0.9445750230732326,
                      0.9894009349916499])
_GL_WEIGHTS = np.array([0.027152459411754176, 0.062253523938647456, 0.0951585116824926,
                        0.12462897125553407, 0.1495959888165767, 0.16915651939500265,
                        0.18260341504492364, 0.18945061045506864, 0.18945061045506864,
                        0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
                        0.12462897125553407, 0.0951585116824926, 0.062253523938647456,
                        0.027152459411754176])
# Largest tau-by-node block (elements) of one sine contraction: a fixed
# bound, so the peak memory of a call does not grow with the number of tau.
_BLOCK = 2**15


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D float array, as np.unique returns them.

    np.unique's own float path without its masked-array check, whose first
    call imports numpy.ma.
    """
    a = np.sort(a)
    keep = np.empty(a.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _oscillation_edges(a: float, b: float, t: float) -> np.ndarray:
    """Half-period breakpoints of cos(w t) on [a, b]; keeps panels sub-oscillatory."""
    if t <= 0.0:
        return np.empty(0)
    half_period = math.pi / t
    count = (b - a) / half_period  # inf for a grid span near the float range
    if not count < 200_001:
        raise RegimeError(
            "oscillatory tabulated integral too fine to resolve "
            f"({count:.0f} half-periods on the grid span)"
        )
    return a + half_period * np.arange(1, int(count) + 1)


def _tabulated_nodes(
    knots: np.ndarray, upper: float, t_max: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, upper] shared by every tau <= t_max.

    16-point panels are aligned to the interpolation knots on both sides of
    the line (|knots|) and split at the half-periods pi/t_max of the largest
    tau, so the panels stay sub-oscillatory for every smaller tau as well.
    Fixed panel rules are effectively exact across the curvature jumps of a
    piecewise-cubic interpolant, where adaptive rules cannot certify tight
    tolerances.  An edge within 1e-12 upper of its left neighbour (a mirrored
    knot that misses its twin by an ulp) is dropped; upper itself is kept.
    """
    knots = np.abs(knots)
    edges = _sorted_unique(np.concatenate((
        [0.0], knots[knots < upper], _oscillation_edges(0.0, upper, t_max), [upper]
    )))
    inner = edges[1:-1]
    keep = (np.diff(edges[:-1]) > 1e-12 * upper) & (upper - inner > 1e-12 * upper)
    edges = np.concatenate(([0.0], inner[keep], [upper]))
    half = 0.5 * np.diff(edges)
    nodes = (edges[:-1] + half)[:, None] + half[:, None] * _GL_NODES
    weights = half[:, None] * _GL_WEIGHTS
    return nodes.ravel(), weights.ravel()


def _sine_contraction(taus, nodes, sin2_weights, sin_weights=None) -> np.ndarray:
    """Rows sin^2(tau w / 2) @ sin2_weights and, if given, sin(tau w) @ sin_weights.

    Returns shape (1, n) or (2, n) for n values of tau, which are processed
    in blocks of at most _BLOCK tau-node elements.  Each block is computed
    in place in two buffers, a phase and a sine, allocated once per call,
    so the traced peak of a call is about two blocks beside its output.
    """
    taus = np.asarray(taus, dtype=float).ravel()
    out = np.zeros((1 if sin_weights is None else 2, taus.size))
    rows = max(1, _BLOCK // max(nodes.size, 1))
    half_nodes = 0.5 * nodes
    phase_buf = np.empty((min(rows, taus.size), nodes.size))
    sine_buf = np.empty_like(phase_buf)
    for start in range(0, taus.size, rows):
        block = slice(start, start + rows)
        count = taus[block].size
        phase = np.multiply.outer(taus[block], half_nodes, out=phase_buf[:count])
        s = np.sin(phase, out=sine_buf[:count])
        out[0, block] = np.multiply(s, s, out=s) @ sin2_weights
        if sin_weights is not None:
            out[1, block] = np.sin(np.add(phase, phase, out=phase), out=s) @ sin_weights
    return out
