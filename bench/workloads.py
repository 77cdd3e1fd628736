"""Seeded inputs for the four benchmark workloads.

``build(workload, seed, workdir)`` writes every INI (and, for
``tabulated-spectrum``, the spectrum CSV) into ``workdir`` and returns the
invocations of one workload pass.  The seed varies parameter values only;
grid sizes, scan lengths and the number of invocations are fixed, so two
seeds measure the same amount of work.

Every parameter range keeps a run inside the documented regime: W/Delta >= 10
(no regime warning) and, for the memory-kernel solver, a grid step no larger
than min(1/(10 omega_resp), 1/(10 Gamma_p)).  The only planned exits other
than 0 are the missing-config invocation (2) and ``validate`` (1, criterion 4
red by design).
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("cli-batch", "memory-kernel", "tabulated-spectrum", "validate")

# Gamma_p = sqrt(pi/8) Delta^2 / W
_SQRT_PI_OVER_8 = math.sqrt(math.pi / 8.0)
# Grid sizes of the two memory-kernel runs; their ratio gives the solver's
# scaling exponent.
NONLOCAL_SIZES = (8001, 32001)


@dataclass(frozen=True)
class Invocation:
    """One ``python -m mrtkit.cli`` call and what its output must satisfy."""

    name: str
    argv: tuple[str, ...]
    exit_code: int
    out: str
    check: str
    rows: int


def _ini(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for section, body in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in body.items())
        lines.append("")
    return "\n".join(lines)


def _scenario(workdir, name, scenario, sections, check, rows) -> Invocation:
    config = os.path.join(workdir, f"{name}.ini")
    out = os.path.join(workdir, f"{name}.csv")
    with open(config, "w") as handle:
        handle.write(_ini({"run": {"scenario": scenario}, **sections}))
    return Invocation(name, (scenario, "--config", config, "--out", out), 0, out, check, rows)


def _ohmic(eta, omega_c, temperature) -> dict[str, object]:
    return {"kind": "ohmic", "eta": repr(eta), "omega_c": repr(omega_c),
            "temperature": repr(temperature)}


def _w_estimate(eps_p0: float, temperature: float) -> float:
    # low-frequency FDT limit W^2 = 2 T eps_p0 (omega_c << T in every workload)
    return math.sqrt(2.0 * temperature * eps_p0)


def _cli_batch(rng: random.Random, workdir: str) -> list[Invocation]:
    temperature = 1.0
    eta = rng.uniform(150.0, 250.0)
    omega_c = rng.uniform(0.008, 0.012)
    spectral = _ohmic(eta, omega_c, temperature)
    w_est = _w_estimate(0.25 * eta * omega_c, temperature)
    delta = rng.uniform(0.0005, 0.002)
    two_state = {"delta": repr(delta), "eps": "0.0", "temperature": repr(temperature)}
    bias = {"start": "-3.0", "stop": "3.0", "steps": 201}
    delta_dyn = rng.uniform(0.01, 0.03)
    gamma_dyn = _SQRT_PI_OVER_8 * delta_dyn**2 / w_est
    dynamic_state = {"delta": repr(delta_dyn), "eps": repr(rng.uniform(0.0, 1.0)),
                     "temperature": repr(temperature)}
    # the ground level carries no intrawell relaxation; the excited ones do
    relax = [0.0, rng.uniform(0.01, 0.1), rng.uniform(0.01, 0.1)]
    levels = {f"level_{i}": f"{energy!r} {d!r} {g!r}"
              for i, (energy, d, g) in enumerate(zip((0.0, 1.0, 2.2), (1e-3, 0.05, 0.3), relax))}
    return [
        _scenario(workdir, "envelope", "envelope", {
            "spectral": spectral,
            "time-grid": {"start": "0.0", "stop": repr(rng.uniform(4.0, 6.0) / w_est),
                          "steps": 21},
        }, "envelope", 21),
        _scenario(workdir, "scan-gaussian", "mrt-scan", {
            "spectral": spectral, "two-state": two_state,
            "mrt-scan": {"shape": "gaussian", "eps_p": "auto"}, "bias-grid": bias,
        }, "scan-gaussian", 201),
        _scenario(workdir, "scan-voigt", "mrt-scan", {
            "spectral": spectral, "two-state": two_state,
            "mrt-scan": {"shape": "voigt", "eps_p": "auto", "gamma": repr(rng.uniform(0.05, 0.2))},
            "bias-grid": bias,
        }, "rates", 201),
        _scenario(workdir, "peak", "peak", {
            "spectral": spectral, "two-state": dynamic_state,
        }, "peak", 1),
        _scenario(workdir, "multichannel", "multichannel", {
            "spectral": spectral,
            "two-state": {"temperature": repr(rng.uniform(0.6, 1.0))},
            "levels": levels,
            "multichannel": {"eps_p": "auto"},
            "bias-grid": bias,
        }, "rates", 201),
        _scenario(workdir, "evolve-local", "evolve", {
            "spectral": spectral, "two-state": dynamic_state,
            "evolve": {"mode": "local", "eps_p": "auto"},
            "time-grid": {"start": "0.0", "stop": repr(rng.uniform(2.0, 4.0) / gamma_dyn),
                          "steps": 201},
        }, "evolve", 201),
        _scenario(workdir, "oracle-convolution", "oracle", {
            "oracle": {"name": "convolution", "w": repr(rng.uniform(0.8, 1.2)),
                       "delta": repr(rng.uniform(0.0005, 0.002)),
                       "gamma": repr(rng.uniform(0.05, 0.2)),
                       "eps_p": repr(rng.uniform(0.2, 0.6))},
            "bias-grid": {"start": "-2.0", "stop": "2.0", "steps": 9},
        }, "oracle-convolution", 9),
        Invocation(
            "config-error",
            ("peak", "--config", os.path.join(workdir, "missing.ini"),
             "--out", os.path.join(workdir, "config-error.csv")),
            2, os.path.join(workdir, "config-error.csv"), "config-error", 0,
        ),
    ]


def _memory_kernel(rng: random.Random, workdir: str) -> list[Invocation]:
    temperature = 1.0
    omega_c = rng.uniform(0.03, 0.05)
    eps_p0 = rng.uniform(0.3, 0.6)
    eta = 4.0 * eps_p0 / omega_c
    w_est = _w_estimate(eps_p0, temperature)
    # Gamma_p/omega_c in [0.02, 0.05]: Delta <= 0.066 < W/10
    gamma_p = rng.uniform(0.02, 0.05) * omega_c
    delta = math.sqrt(gamma_p * w_est / _SQRT_PI_OVER_8)
    two_state = {"delta": repr(delta), "eps": repr(rng.uniform(0.2, 0.8)),
                 "temperature": repr(temperature)}
    # Gamma_p < omega_c, so the resolution bound is 1/(10 omega_c)
    step = 0.1 / omega_c
    return [
        _scenario(workdir, f"nonlocal-{n}", "evolve", {
            "spectral": _ohmic(eta, omega_c, temperature), "two-state": two_state,
            "evolve": {"mode": "nonlocal"},
            "time-grid": {"start": "0.0", "stop": repr((n - 1) * step), "steps": n},
        }, "evolve", n)
        for n in NONLOCAL_SIZES
    ]


def write_spectrum(path: str, eta: float, omega_c: float, temperature: float,
                   knots: int = 1201) -> None:
    """Two-sided ohmic-cutoff spectrum with detailed balance, on +-30 omega_c."""
    upper = 30.0 * omega_c
    rows = ["omega,S"]
    for i in range(knots):
        w = -upper + 2.0 * upper * i / (knots - 1)
        if w == 0.0:
            s = 2.0 * eta * temperature
        else:
            s = 2.0 * eta * (w / -math.expm1(-w / temperature)) / (1.0 + (w / omega_c) ** 2) ** 2
        rows.append(f"{w!r},{s!r}")
    with open(path, "w") as handle:
        handle.write("\n".join(rows) + "\n")


def _tabulated(rng: random.Random, workdir: str) -> list[Invocation]:
    temperature = 1.0
    eta = rng.uniform(6.0, 10.0)
    omega_c = rng.uniform(0.016, 0.024)
    spectrum = os.path.join(workdir, "spectrum.csv")
    write_spectrum(spectrum, eta, omega_c, temperature)
    spectral = {"kind": "tabulated", "csv": spectrum, "temperature": repr(temperature)}
    w_est = _w_estimate(0.25 * eta * omega_c, temperature)
    two_state = {"delta": repr(rng.uniform(0.002, 0.004)), "eps": repr(rng.uniform(0.0, 0.1)),
                 "temperature": repr(temperature)}
    # 1/tau_R of this spectrum is about 3.5 omega_c; 0.02/omega_c keeps the
    # step below the 1/(10 omega_resp) bound with margin
    step = 0.02 / omega_c
    return [
        _scenario(workdir, "tab-scan-nonlocal", "mrt-scan", {
            "spectral": spectral, "two-state": two_state,
            "mrt-scan": {"shape": "nonlocal-corrected"},
            "bias-grid": {"start": repr(-3.0 * w_est), "stop": repr(3.0 * w_est), "steps": 11},
        }, "rates", 11),
        _scenario(workdir, "tab-evolve-nonlocal", "evolve", {
            "spectral": spectral, "two-state": two_state,
            "evolve": {"mode": "nonlocal"},
            "time-grid": {"start": "0.0", "stop": repr(200 * step), "steps": 201},
        }, "evolve", 201),
        _scenario(workdir, "tab-envelope", "envelope", {
            "spectral": spectral,
            "time-grid": {"start": "0.0", "stop": repr(rng.uniform(4.0, 6.0) / w_est),
                          "steps": 201},
        }, "envelope", 201),
    ]


def _validate(seed: int, workdir: str) -> list[Invocation]:
    out = os.path.join(workdir, "validate.csv")
    return [Invocation("validate", ("validate", "--seed", str(seed), "--out", out),
                       1, out, "validate", 0)]


def build(workload: str, seed: int, workdir: str) -> list[Invocation]:
    """Write the inputs of ``workload`` for ``seed``; return one pass of invocations."""
    if workload == "validate":
        return _validate(seed, workdir)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-batch":
        return _cli_batch(rng, workdir)
    if workload == "memory-kernel":
        return _memory_kernel(rng, workdir)
    if workload == "tabulated-spectrum":
        return _tabulated(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
