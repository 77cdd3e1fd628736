"""Independent brute-force references used to validate the main modules.

Nothing here shares code with the paths it checks: the Monte Carlo
transition rate averages exact closed-system Rabi oscillations over static
Gaussian noise, the convolution reference integrates the Gaussian-
Lorentzian product directly, the refined references rerun the solvers
at much finer resolution, and the direct nonlocal reference sums the
memory-kernel history step by step in O(n^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, evolve_local, evolve_nonlocal
from .errors import RegimeError
from .rates import TwoStateParams, peak_rate
from .spectral import SpectralModel, _shift_arrays, noise_rms

__all__ = [
    "McConfig",
    "StaticNoiseEstimate",
    "EvolutionRequest",
    "static_noise_transition",
    "convolution_reference",
    "refined_reference",
    "gaussian_noise_samples",
]

# Samples are generated in fixed chunks, each from its own counter-based
# stream keyed by (seed, chunk index): every sample is a pure function of
# (seed, sample index), independent of evaluation order or parallelism.
_CHUNK = 4096


@dataclass(frozen=True)
class McConfig:
    """Static-noise Monte Carlo configuration.

    The probe time must sit in the window [5/W, 0.2/Delta] where the
    population still grows linearly: late enough that dephasing has washed
    out coherence, early enough that the perturbative rate picture holds.
    """

    sample_count: int
    seed: int
    w_rms: float
    delta: float
    eps: float
    probe_time: float

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise ValueError("seed must fit in 64 bits")
        if self.w_rms <= 0:
            raise ValueError("w_rms must be positive")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.probe_time < 5.0 / self.w_rms:
            raise RegimeError(
                f"probe_time {self.probe_time:.3g} < 5/W = {5.0 / self.w_rms:.3g}: "
                "coherent transients not yet dephased"
            )
        if self.delta > 0 and self.probe_time > 0.2 / self.delta:
            raise RegimeError(
                f"probe_time {self.probe_time:.3g} > 0.2/Delta = "
                f"{0.2 / self.delta:.3g}: linear-growth window exceeded"
            )


@dataclass(frozen=True)
class StaticNoiseEstimate:
    rate: float
    stderr: float
    sample_count: int


def gaussian_noise_samples(seed: int, count: int) -> np.ndarray:
    """Standard-normal draws, sample i a pure function of (seed, i)."""
    out = np.empty(count)
    for start in range(0, count, _CHUNK):
        chunk_index = start // _CHUNK
        stop = min(start + _CHUNK, count)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, chunk_index], dtype=np.uint64))
        )
        # a chunk is always drawn in full so in-chunk positions never shift
        block = rng.standard_normal(_CHUNK)
        out[start:stop] = block[: stop - start]
    return out


def static_noise_transition(config: McConfig) -> StaticNoiseEstimate:
    """Monte Carlo estimate of the static-noise (classical) tunneling rate.

    Each sample draws a frozen bias offset Q ~ N(0, W^2), evolves the
    closed two-level system exactly (Rabi formula), and the averaged
    occupation at the probe time divided by the probe time estimates
    Gamma = Gamma_p exp(-eps^2/2W^2).
    """
    q = config.w_rms * gaussian_noise_samples(config.seed, config.sample_count)
    if config.delta == 0.0:
        return StaticNoiseEstimate(0.0, 0.0, config.sample_count)
    rabi_sq = config.delta**2 + (config.eps + q) ** 2
    occupancy = (config.delta**2 / rabi_sq) * np.sin(
        0.5 * np.sqrt(rabi_sq) * config.probe_time
    ) ** 2
    # np.mean/np.var reduce pairwise in fixed index order
    mean = float(np.mean(occupancy))
    spread = float(np.std(occupancy, ddof=1)) if config.sample_count > 1 else 0.0
    stderr = spread / math.sqrt(config.sample_count)
    return StaticNoiseEstimate(
        rate=mean / config.probe_time,
        stderr=stderr / config.probe_time,
        sample_count=config.sample_count,
    )


def convolution_reference(
    delta_ij: float, w_rms: float, eps_grid, eps_p: float, gamma_ij: float
) -> np.ndarray:
    """Direct quadrature of the Gaussian-Lorentzian convolution rate.

    Gamma(eps) = (Delta^2 gamma / sqrt(8 pi) W)
                 * integral de' exp(-(e'-eps_p)^2/2W^2) / ((eps-e')^2 + gamma^2)

    Used to validate the Faddeeva evaluation path.  Requires gamma_ij > 0
    (the gamma = 0 limit is the plain Gaussian).
    """
    if gamma_ij <= 0:
        raise ValueError("convolution_reference requires gamma_ij > 0")
    if w_rms <= 0:
        raise ValueError("w_rms must be positive")
    from scipy.integrate import quad

    eps_grid = np.atleast_1d(np.asarray(eps_grid, dtype=float))
    prefactor = delta_ij**2 * gamma_ij / (math.sqrt(8.0 * math.pi) * w_rms)
    lo = eps_p - 45.0 * w_rms
    hi = eps_p + 45.0 * w_rms
    out = np.empty_like(eps_grid)
    for i, eps in enumerate(eps_grid):
        def integrand(x):
            gauss = math.exp(-0.5 * ((x - eps_p) / w_rms) ** 2)
            return gauss / ((eps - x) ** 2 + gamma_ij**2)

        # geometric ladder around the Lorentzian spike: lets the adaptive
        # rule zoom into widths far below the integration window
        spike = [eps]
        step = gamma_ij
        while step < 2.0 * (hi - lo):
            spike.extend((eps - step, eps + step))
            step *= 10.0
        pts = sorted(p for p in spike + [eps_p] if lo < p < hi)
        val, _ = quad(
            integrand, lo, hi, points=pts or None, epsabs=1e-300, epsrel=1e-12, limit=800
        )
        out[i] = prefactor * val
    return out


@dataclass(frozen=True, eq=False)
class EvolutionRequest:
    """Bundle of solver inputs for a reference re-run.

    kind is "local" or "nonlocal"; the relevant fields must be set for the
    chosen solver (rates for local, model/params for nonlocal).
    """

    kind: str
    rho11_0: float
    t_grid: np.ndarray
    model: SpectralModel | None = None
    params: TwoStateParams | None = None
    rate_minus: object = None
    rate_plus: object = None
    refinement: int = 16

    def __post_init__(self):
        if self.kind not in ("local", "nonlocal"):
            raise ValueError("kind must be 'local' or 'nonlocal'")
        if self.refinement < 2:
            raise ValueError("refinement must be >= 2")
        object.__setattr__(self, "t_grid", np.asarray(self.t_grid, dtype=float))


def _refined_grid(t: np.ndarray, factor: int) -> np.ndarray:
    pieces = [
        np.linspace(a, b, factor, endpoint=False) for a, b in zip(t[:-1], t[1:])
    ]
    return np.concatenate(pieces + [t[-1:]])


def refined_reference(request: EvolutionRequest) -> Trajectory:
    """Re-run an evolution at 1/refinement of the step; sample the original grid.

    For the fixed-step nonlocal scheme the refinement is a literal grid
    subdivision; for the adaptive local solver both the step ceiling and
    the tolerances are tightened accordingly.
    """
    t = request.t_grid
    fine = _refined_grid(t, request.refinement)
    if request.kind == "nonlocal":
        if request.model is None or request.params is None:
            raise ValueError("nonlocal reference needs model and params")
        full = evolve_nonlocal(request.model, request.params, request.rho11_0, fine)
    else:
        if request.rate_minus is None or request.rate_plus is None:
            raise ValueError("local reference needs rate_minus and rate_plus")
        h_fine = np.min(np.diff(fine))
        full = evolve_local(
            request.rate_minus,
            request.rate_plus,
            request.rho11_0,
            fine,
            rtol=1e-12,
            atol=1e-15,
            max_step=h_fine,
        )
    keep = slice(None, None, request.refinement)
    return Trajectory(t=full.t[keep], rho00=full.rho00[keep], rho11=full.rho11[keep])


def direct_nonlocal_reference(
    model: SpectralModel,
    params: TwoStateParams,
    rho11_0: float,
    t_grid,
    *,
    w_rms: float | None = None,
) -> np.ndarray:
    """rho11 on a uniform grid from the direct O(n^2) memory-kernel loop.

    The same product-trapezoid discretisation as ``evolve_nonlocal``, with
    every history sum taken as one dot product per step.  Inputs are taken
    as valid (constant schedules, uniform grid, resolved step); the result
    is returned unclipped.
    """
    t = np.asarray(t_grid, dtype=float)
    h = t[1] - t[0]
    delta = params.delta_schedule.initial
    eps = params.eps_schedule.initial
    w = noise_rms(model) if w_rms is None else w_rms
    gp = peak_rate(delta, w)

    n = t.size
    taus = h * np.arange(n)
    eps_p, deps = _shift_arrays(model, taus)
    lam_m = gp * np.exp(-0.5 * ((eps - eps_p) / w) ** 2)
    lam_p = gp * np.exp(-0.5 * ((eps + eps_p) / w) ** 2)
    dm = lam_m * (eps - eps_p) * deps / (w * w)
    dp = -lam_p * (eps + eps_p) * deps / (w * w)

    lam0 = lam_m[0]
    total0 = 2.0 * lam0
    y = np.empty(n)
    rhs = np.empty(n)
    y[0] = rho11_0
    rhs[0] = lam0 * (1.0 - 2.0 * y[0])
    for m in range(1, n):
        head = 0.5 * (dm[m] * (1.0 - y[0]) - dp[m] * y[0])
        if m > 1:
            window = slice(m - 1, 0, -1)
            hist = dm[window] @ (1.0 - y[1:m]) - dp[window] @ y[1:m]
        else:
            hist = 0.0
        known = lam0 + h * (head + hist)
        y[m] = (y[m - 1] + 0.5 * h * (rhs[m - 1] + known)) / (1.0 + 0.5 * h * total0)
        rhs[m] = known - total0 * y[m]
    return y
