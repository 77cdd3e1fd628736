"""Built-in validation suite: every library-level consistency check the
`validate` CLI subcommand and the acceptance tests run.

Each criterion is a pure function of a seed returning records; rendering
the records to CSV is deterministic, so a fixed seed reproduces the report
byte for byte.

Note on criterion 4 (static-noise Monte Carlo): the <P1(t)>/t estimator
approaches the golden-rule rate only as O(1/(t*W)) -- the energy window of
a finite-time transition probability has 1/x^2 tails -- so at the mandated
probe time 10/W it carries a known systematic of 8-16% across the bias
points, which exceeds the stated 5%/3-sigma tolerances.  The check is kept
at its stated tolerances on purpose and is expected to fail; the extra
mc-vs-quadrature rows compare the sampler against exact quadrature of the
same finite-time expectation and pass, isolating the discrepancy in the
estimator, not the sampling.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from .dynamics import evolve_nonlocal, peak_summary, short_time_rho11
from .errors import RegimeWarning
from .oracle import (
    McConfig,
    convolution_reference,
    ohmic_shift_reference,
    static_noise_transition,
)
from .quadrature import _sorted_unique, gauss_kronrod
from .rates import (
    TwoStateParams,
    WellLevels,
    crossover_temperature,
    effective_delta,
    multichannel_rate,
    peak_rate,
    voigt_rate,
)
from .spectral import OhmicCutoff

__all__ = ["CriterionRecord", "DEFAULT_SEED", "run_all", "run_criterion", "render_csv"]

DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class CriterionRecord:
    criterion: int
    name: str
    metric: str
    value: float
    cmp: str  # "<=" or ">="
    bound: float

    @property
    def passed(self) -> bool:
        if self.cmp == "<=":
            return self.value <= self.bound
        return self.value >= self.bound


def _le(criterion, name, metric, value, bound) -> CriterionRecord:
    return CriterionRecord(criterion, name, metric, float(value), "<=", float(bound))


def _ge(criterion, name, metric, value, bound) -> CriterionRecord:
    return CriterionRecord(criterion, name, metric, float(value), ">=", float(bound))


# ---------------------------------------------------------------------------
# criteria


def check_fdt_low_frequency(seed: int) -> list[CriterionRecord]:
    """1: W^2 = 2 T eps_p0 for omega_c/T = 0.01."""
    model = OhmicCutoff(eta=1.0, omega_c=0.01, temperature=1.0)
    w = model.noise_rms()
    eps_p0 = model.reorganization_shift()
    value = abs(w * w - 2.0 * model.temperature * eps_p0) / (w * w)
    return [_le(1, "fdt-low-frequency", "|W^2-2T*eps_p0|/W^2", value, 1e-3)]


def check_shift_crossover(seed: int) -> list[CriterionRecord]:
    """2: quadrature eps_p(t) matches the closed form over omega_c*t in [0, 20]."""
    model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=1.0)
    worst = 0.0
    for t in np.linspace(0.0, 20.0, 50):
        closed = model.shift(float(t))
        numeric = ohmic_shift_reference(model, float(t))
        if closed == 0.0:
            worst = max(worst, abs(numeric))
        else:
            worst = max(worst, abs(numeric - closed) / abs(closed))
    return [_le(2, "shift-crossover", "max rel |quad-closed| (50 pts)", worst, 1e-6)]


def check_detailed_balance(seed: int) -> list[CriterionRecord]:
    """3: ln(Gamma_-/Gamma_+) = eps/T when eps_p = W^2/2T."""
    w, temperature = 1.0, 0.7
    eps_p = w * w / (2.0 * temperature)
    worst = 0.0
    for eps in np.linspace(-5.0 * w, 5.0 * w, 21):
        gm = voigt_rate(0.01, w, float(eps), eps_p, 0.0)
        gp = voigt_rate(0.01, w, float(eps), -eps_p, 0.0)
        worst = max(worst, abs(math.log(gm / gp) - eps / temperature))
    return [_le(3, "detailed-balance", "max |ln(G-/G+) - eps/T|", worst, 1e-12)]


def _static_noise_expectation(delta, w_rms, eps, probe_time) -> float:
    """Exact quadrature of E[P1(t)]/t over Q ~ N(0, W^2); oracle for the MC."""

    def integrand(q):
        rabi_sq = delta * delta + (eps + q) ** 2
        gauss = np.exp(-0.5 * (q / w_rms) ** 2) / (math.sqrt(2.0 * math.pi) * w_rms)
        rabi = np.sin(0.5 * np.sqrt(rabi_sq) * probe_time)
        return gauss * (delta * delta / rabi_sq) * rabi * rabi

    panels = np.linspace(-8.0 * w_rms, 8.0 * w_rms, 33)
    resonance = [p for p in (-eps - 2.0 * delta, -eps, -eps + 2.0 * delta)
                 if panels[0] < p < panels[-1]]
    edges = _sorted_unique(np.concatenate((panels, resonance)))
    total = gauss_kronrod(integrand, edges, epsabs=1e-18, epsrel=1e-12, limit=4000)[0]
    return total / probe_time


def check_static_noise_mc(seed: int) -> list[CriterionRecord]:
    """4: MC static-noise rate vs the closed Gaussian rate (expected red).

    The stated bounds (3 SE and 5%) sit below the estimator's intrinsic
    O(1/(t*W)) finite-probe-time systematic at probe_time = 10/W; see the
    module docstring.  The mc-vs-quadrature rows validate the sampler.
    """
    w_rms, delta, probe = 1.0, 0.01, 10.0
    gp = peak_rate(delta, w_rms)
    biases = (0.0, 1.0, 2.0)
    config = McConfig(sample_count=100_000, seed=seed, w_rms=w_rms, delta=delta,
                      probe_time=probe)
    records = []
    for eps, est in zip(biases, static_noise_transition(config, biases)):
        expected = gp * math.exp(-0.5 * (eps / w_rms) ** 2)
        tag = f"eps={eps:g}"
        records.append(
            _le(4, "static-noise-mc", f"|mc-closed|/se {tag}",
                abs(est.rate - expected) / est.stderr, 3.0)
        )
        records.append(
            _le(4, "static-noise-mc", f"|mc-closed|/closed {tag}",
                abs(est.rate - expected) / expected, 0.05)
        )
        finite_t = _static_noise_expectation(delta, w_rms, eps, probe)
        records.append(
            _le(4, "static-noise-mc", f"|mc-quadrature|/se {tag} (sampler check)",
                abs(est.rate - finite_t) / est.stderr, 3.0)
        )
    return records


def check_voigt_consistency(seed: int) -> list[CriterionRecord]:
    """5: Faddeeva path vs direct convolution, area, and Gaussian limit."""
    delta, w_rms, eps_p = 0.01, 1.0, 0.4
    grid = np.linspace(eps_p - 4.0, eps_p + 6.0, 9)
    records = []
    for gamma in (0.1, 1.0, 10.0):
        fadd = voigt_rate(delta, w_rms, grid, eps_p, gamma)
        conv = convolution_reference(delta, w_rms, grid, eps_p, gamma)
        rel = float(np.max(np.abs(fadd - conv) / conv))
        records.append(
            _le(5, "voigt-consistency", f"max rel |faddeeva-convolution| g/W={gamma:g}",
                rel, 1e-8)
        )

    gamma = 1.0

    def profile(theta):
        # e = eps_p + W tan(theta) maps the line onto (-pi/2, pi/2), where
        # the Lorentzian tails become bounded
        return (voigt_rate(delta, w_rms, eps_p + w_rms * np.tan(theta), eps_p, gamma)
                * w_rms / np.cos(theta) ** 2)

    area, _, _ = gauss_kronrod(profile, [-0.5 * math.pi, 0.5 * math.pi],
                               epsabs=1e-16, epsrel=1e-10, limit=400)
    exact = math.pi * delta * delta / 2.0
    records.append(
        _le(5, "voigt-consistency", "area rel error vs pi*Delta^2/2",
            abs(area - exact) / exact, 1e-6)
    )

    gp = peak_rate(delta, w_rms)
    tiny = voigt_rate(delta, w_rms, grid, eps_p, 1e-8 * w_rms)
    gauss = voigt_rate(delta, w_rms, grid, eps_p, 0.0)
    records.append(
        _le(5, "voigt-consistency", "sup |voigt(g->0) - gaussian| / Gamma_p",
            float(np.max(np.abs(tiny - gauss))) / gp, 1e-6)
    )
    return records


def check_volterra(seed: int) -> list[CriterionRecord]:
    """6: constant-kernel closed form, convergence order, trace preservation."""
    records = []
    trace_worst = 0.0

    # (a) constant-kernel limit: eps_p0 = 1e-7 makes the kernel memoryless
    model = OhmicCutoff(eta=4e-4, omega_c=1e-3, temperature=1.0)
    w_rms, delta = 1.0, 0.01
    params = TwoStateParams(delta=delta, eps=0.0, temperature=1.0)
    gp = peak_rate(delta, w_rms)
    grid = np.linspace(0.0, 2.5 / gp, 8001)
    traj = evolve_nonlocal(model, params, 0.0, grid, w_rms=w_rms)
    closed = 0.5 * (1.0 - np.exp(-2.0 * gp * grid))
    records.append(
        _le(6, "volterra", "sup |rho11 - closed form| (constant kernel)",
            float(np.max(np.abs(traj.rho11 - closed))), 1e-6)
    )
    trace_worst = max(trace_worst, float(np.max(np.abs(traj.rho00 + traj.rho11 - 1.0))))

    # (b) empirical order on a case with genuine memory (Gamma_p/omega_c = 0.1)
    model2 = OhmicCutoff(eta=8.0, omega_c=1.0, temperature=0.25)
    params2 = TwoStateParams(delta=0.4, eps=2.0, temperature=0.25)
    solutions = []
    for factor in (1, 2, 4):
        g = np.linspace(0.0, 20.0, 400 * factor + 1)
        s = evolve_nonlocal(model2, params2, 0.0, g, w_rms=1.0)
        solutions.append(s.rho11[::factor])
        trace_worst = max(trace_worst, float(np.max(np.abs(s.rho00 + s.rho11 - 1.0))))
    d1 = float(np.max(np.abs(solutions[0] - solutions[1])))
    d2 = float(np.max(np.abs(solutions[1] - solutions[2])))
    order = math.log2(d1 / d2)
    records.append(_le(6, "volterra", "|empirical order - 2|", abs(order - 2.0), 0.2))
    records.append(_le(6, "volterra", "max trace deviation", trace_worst, 1e-12))
    return records


def _peak_setup(ratio: float):
    w_rms, eps_p0, omega_c = 1.0, 2.5, 1.0
    temperature = w_rms * w_rms / (2.0 * eps_p0)
    delta = math.sqrt(ratio * omega_c * w_rms / math.sqrt(math.pi / 8.0))
    model = OhmicCutoff(eta=4.0 * eps_p0 / omega_c, omega_c=omega_c, temperature=temperature)
    params = TwoStateParams(delta=delta, eps=eps_p0, temperature=temperature)
    return model, params, w_rms, peak_rate(delta, w_rms)


def check_nonlocal_peak(seed: int) -> list[CriterionRecord]:
    """7: memory-enhanced peak height and the asymmetry metric."""
    model, params, w_rms, gp = _peak_setup(0.1)
    summary = peak_summary(model, params, w_rms)
    enhancement = summary.gamma_peak / gp - 1.0
    model_s, params_s, w_s, _ = _peak_setup(1e-3)
    small = peak_summary(model_s, params_s, w_s)
    return [
        _ge(7, "nonlocal-peak", "Gamma_peak/Gamma_p - 1 at r=0.1", enhancement, 0.05),
        _le(7, "nonlocal-peak", "Gamma_peak/Gamma_p - 1 at r=0.1", enhancement, 0.2),
        _ge(7, "nonlocal-peak", "|asymmetry| at r=0.1", abs(summary.asymmetry), 1e-4),
        _le(7, "nonlocal-peak", "|asymmetry| at r=1e-3", abs(small.asymmetry), 1e-3),
    ]


def check_short_time_slope(seed: int) -> list[CriterionRecord]:
    """8: slope of the short-time rho11(t) vs Lambda_-(t) at t = 10/W."""
    model = OhmicCutoff(eta=200.0, omega_c=0.01, temperature=1.0)  # eps_p0 = 0.5
    w_rms = 1.0
    params = TwoStateParams(delta=0.01, eps=0.7, temperature=1.0)
    t, step = 10.0, 0.5
    upper = short_time_rho11(model, params, w_rms, t + step)
    lower = short_time_rho11(model, params, w_rms, t - step)
    slope = (upper - lower) / (2.0 * step)
    eps_p = model.shift(t)
    lam = peak_rate(0.01, w_rms) * math.exp(-0.5 * ((0.7 - eps_p) / w_rms) ** 2)
    return [
        _le(8, "short-time-slope", "|d rho11/dt - Lambda_-(t)| / Lambda_-(t)",
            abs(slope - lam) / lam, 0.01)
    ]


def check_multichannel(seed: int) -> list[CriterionRecord]:
    """9: channel sum vs Delta_eff shortcut; Delta_eff at the crossover point."""
    levels = WellLevels((0.0, 1.0, 2.2), (1e-3, 0.05, 0.3), (0.0, 0.0, 0.0))
    temperature, w_rms, eps_p = 0.8, 1.0, 0.3
    # without relaxation the normalized channels add up to one Gaussian of
    # amplitude Delta_eff(T), over the partition function
    gp = peak_rate(effective_delta(levels, temperature), w_rms)
    partition = sum(math.exp(-e / temperature) for e in levels.energies)
    worst = 0.0
    for eps in (-1.0, 0.3, 2.0):
        channel_sum = multichannel_rate(levels, temperature, w_rms, eps, eps_p)
        shortcut = gp * math.exp(-0.5 * ((eps - eps_p) / w_rms) ** 2) / partition
        worst = max(worst, abs(channel_sum - shortcut) / shortcut)
    records = [
        _le(9, "multichannel", "max rel |channel sum - Delta_eff shortcut|", worst, 1e-12)
    ]

    pair = WellLevels((0.0, 2.0), (0.01, 1.0), (0.0, 0.0))
    t_co = crossover_temperature(pair)
    deff = effective_delta(pair, t_co)
    records.append(
        _le(9, "multichannel", "|Delta_eff(T_co)/(Delta_0 sqrt(2)) - 1|",
            abs(deff / (0.01 * math.sqrt(2.0)) - 1.0), 1e-12)
    )
    return records


def check_determinism(seed: int, first: str | None = None) -> list[CriterionRecord]:
    """10: two full runs at the same seed render byte-identical CSV.

    `first` is the rendering of a run of criteria 1-9 already made at this
    seed (``run_all`` passes its own); without it both runs happen here.
    """
    if first is None:
        first = render_csv(_core_records(seed))
    second = render_csv(_core_records(seed))
    mismatch = 0.0 if first == second else 1.0
    return [_le(10, "determinism", "csv byte mismatch (two runs, fixed seed)", mismatch, 0.0)]


_CHECKS = {
    1: check_fdt_low_frequency,
    2: check_shift_crossover,
    3: check_detailed_balance,
    4: check_static_noise_mc,
    5: check_voigt_consistency,
    6: check_volterra,
    7: check_nonlocal_peak,
    8: check_short_time_slope,
    9: check_multichannel,
    10: check_determinism,
}


def run_criterion(criterion: int, seed: int = DEFAULT_SEED) -> list[CriterionRecord]:
    try:
        check = _CHECKS[criterion]
    except KeyError:
        raise ValueError(f"unknown criterion {criterion}; valid: 1-10") from None
    # checks probe regime corners on purpose; the validity warning is noise here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        return check(seed)


def _core_records(seed: int) -> list[CriterionRecord]:
    records = []
    for cid in range(1, 10):
        records.extend(run_criterion(cid, seed))
    return records


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionRecord]:
    core = _core_records(seed)
    return core + check_determinism(seed, first=render_csv(core))


def render_csv(records: list[CriterionRecord], seed: int | None = None) -> str:
    """Deterministic CSV rendering of validation records."""
    out = io.StringIO()
    out.write(f"# artifact = mrtkit {__version__}\n")
    if seed is not None:
        out.write(f"# seed = {seed}\n")
    out.write("criterion,name,metric,value,cmp,bound,status\n")
    for r in records:
        status = "PASS" if r.passed else "FAIL"
        metric = r.metric.replace(",", ";")
        out.write(
            f"{r.criterion},{r.name},{metric},{float(r.value)!r},{r.cmp},"
            f"{float(r.bound)!r},{status}\n"
        )
    return out.getvalue()
