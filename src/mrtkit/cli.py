"""Configuration-driven scenario runner.

Subcommands: envelope, mrt-scan, evolve, peak, multichannel, oracle,
validate.  Scenarios are described by an INI-style config (sections of
key = value pairs, scientific notation accepted) and emit CSV whose
comment header records every input parameter and the artifact version, so
a run can be reproduced from its own output.  Physics is unit-agnostic
(hbar = k_B = 1); the declared unit label is recorded verbatim.

Exit codes: 0 success, 1 validation failure, 2 config/parse error,
3 violated physics precondition (named in the diagnostic).
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import logging
import math
import os
import sys
import warnings

import numpy as np

from . import __version__, validation
from .coherence import dephasing_result
from .dynamics import (
    evolve_local,
    evolve_nonlocal,
    nonlocal_corrected_rates,
    peak_summary,
    short_time_rho11,
)
from .errors import ConfigError, DecompositionError, DivergentMomentError, RegimeError
from .oracle import EvolutionRequest, McConfig, convolution_reference, refined_reference, static_noise_transition
from .rates import (
    RateCurve,
    TwoStateParams,
    WellLevels,
    gaussian_rate,
    multichannel_rate,
    peak_rate,
    voigt_rate,
    warn_weak_coupling,
)
from .schedules import LinearSchedule
from .spectral import OhmicCutoff, Tabulated, White, noise_rms, reorganization_shift

log = logging.getLogger("mrtkit")

_SCENARIOS = ("envelope", "mrt-scan", "evolve", "peak", "multichannel", "oracle")
_PHYSICS_ERRORS = (RegimeError, DivergentMomentError, DecompositionError, ValueError)


def _fmt(x) -> str:
    """Shortest round-trip decimal representation."""
    return repr(float(x))


class RunConfig:
    """Parsed scenario configuration plus the raw key-value pairs."""

    def __init__(self, scenario: str, parser: configparser.ConfigParser, path: str,
                 out: str | None, seed: int | None):
        self.scenario = scenario
        self.parser = parser
        self.path = path
        # effective derived quantities a scenario wants echoed in the header
        self.derived: dict[str, str] = {}
        self.out = out if out is not None else self.get("run", "out", fallback=None)
        if self.out is None:
            raise ConfigError(f"{path}: no output path ([run] out or --out)")
        self.seed = seed if seed is not None else self.get_int("run", "seed", 0)
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"{path}: seed must fit in 64 bits")
        self.units = self.get("run", "units", fallback="natural")
        declared = self.get("run", "scenario", fallback=scenario)
        if declared != scenario:
            raise ConfigError(
                f"{path}: [run] scenario = {declared} does not match subcommand {scenario}"
            )

    def get(self, section: str, key: str, fallback=None):
        return self.parser.get(section, key, fallback=fallback)

    def require(self, section: str, key: str) -> str:
        value = self.parser.get(section, key, fallback=None)
        if value is None:
            raise ConfigError(f"{self.path}: missing [{section}] {key}")
        return value

    def _convert(self, section: str, key: str, raw: str, kind):
        try:
            return kind(raw)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ConfigError(
                f"{self.path}: [{section}] {key} = {raw!r} is not {noun}"
            ) from None

    def require_float(self, section: str, key: str) -> float:
        return self._convert(section, key, self.require(section, key), float)

    def get_float(self, section: str, key: str, fallback: float | None) -> float | None:
        raw = self.get(section, key)
        return fallback if raw is None else self._convert(section, key, raw, float)

    def require_int(self, section: str, key: str) -> int:
        return self._convert(section, key, self.require(section, key), int)

    def get_int(self, section: str, key: str, fallback: int) -> int:
        raw = self.get(section, key)
        return fallback if raw is None else self._convert(section, key, raw, int)

    def require_floats(self, section: str, key: str) -> list[float]:
        """A whitespace-separated list of numbers."""
        raw = self.require(section, key)
        return [self._convert(section, key, part, float) for part in raw.split()]

    def comments(self) -> dict[str, str]:
        items = {
            "artifact": f"mrtkit {__version__}",
            "scenario": self.scenario,
            "seed": str(self.seed),
            "units": self.units,
        }
        for section in self.parser.sections():
            for key, value in self.parser.items(section):
                if (section, key) in (("run", "scenario"), ("run", "seed"), ("run", "units")):
                    continue
                items[f"{section}.{key}"] = value
        items.update(self.derived)
        return items


def load_config(scenario: str, path: str, out: str | None, seed: int | None) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as handle:
            parser.read_file(handle, source=path)
    except OSError as err:
        raise ConfigError(f"{path}: {err.strerror or err}")
    except configparser.Error as err:
        raise ConfigError(str(err))
    return RunConfig(scenario, parser, path, out, seed)


def build_model(config: RunConfig):
    kind = config.require("spectral", "kind").lower()
    if kind == "white":
        return White(
            s0=config.require_float("spectral", "s0"),
            temperature=config.get_float("spectral", "temperature", None),
        )
    if kind in ("ohmic", "ohmic-cutoff"):
        return OhmicCutoff(
            eta=config.require_float("spectral", "eta"),
            omega_c=config.require_float("spectral", "omega_c"),
            temperature=config.require_float("spectral", "temperature"),
        )
    if kind == "tabulated":
        csv_path = config.require("spectral", "csv")
        temperature = config.get_float("spectral", "temperature", None)
        try:
            return Tabulated.from_csv(csv_path, temperature)
        except OSError as err:
            raise ConfigError(
                f"{config.path}: [spectral] csv = {csv_path}: {err.strerror or err}"
            ) from None
        except ValueError as err:
            raise ConfigError(f"{config.path}: [spectral] csv = {csv_path}: {err}") from None
    raise ConfigError(f"{config.path}: unknown spectral kind {kind!r}")


def build_params(config: RunConfig) -> TwoStateParams:
    delta = LinearSchedule(
        config.require_float("two-state", "delta"),
        config.get_float("two-state", "delta_rate", 0.0),
    )
    eps = LinearSchedule(
        config.require_float("two-state", "eps"),
        config.get_float("two-state", "eps_rate", 0.0),
    )
    return TwoStateParams(
        delta=delta, eps=eps, temperature=config.require_float("two-state", "temperature")
    )


def read_grid(config: RunConfig, section: str) -> np.ndarray:
    start = config.require_float(section, "start")
    stop = config.require_float(section, "stop")
    steps = config.require_int(section, "steps")
    if steps < 2:
        raise ConfigError(f"{config.path}: [{section}] needs at least 2 grid points")
    if steps > 10**6:
        raise ConfigError(f"{config.path}: [{section}] steps capped at 1e6")
    if not stop > start:
        raise ConfigError(f"{config.path}: [{section}] stop must exceed start")
    return np.linspace(start, stop, steps)


def _resolve_eps_p(config: RunConfig, section: str, model) -> float:
    raw = config.get(section, "eps_p", fallback="auto")
    if raw.strip().lower() == "auto":
        return reorganization_shift(model)
    return config.require_float(section, "eps_p")


def write_csv(path: str, comments: dict[str, str], warnings_seen: list[str],
              columns: list[tuple[str, np.ndarray]]) -> None:
    lengths = {len(values) for _, values in columns}
    if len(lengths) != 1:
        raise ValueError("CSV columns must share one length")
    with open(path, "w", newline="") as handle:
        for key, value in comments.items():
            handle.write(f"# {key} = {value}\n")
        for message in warnings_seen:
            handle.write(f"# warning: {message}\n")
        handle.write(",".join(name for name, _ in columns) + "\n")
        for row in zip(*(values for _, values in columns)):
            handle.write(",".join(_fmt(x) for x in row) + "\n")
    log.info("wrote %s", path)


# ---------------------------------------------------------------------------
# scenarios


def run_envelope(config: RunConfig) -> list[tuple[str, np.ndarray]]:
    model = build_model(config)
    eps = LinearSchedule(
        config.get_float("two-state", "eps", 0.0),
        config.get_float("two-state", "eps_rate", 0.0),
    )
    grid = read_grid(config, "time-grid")
    results = [dephasing_result(model, eps, float(t)) for t in grid]
    return [
        ("t", grid),
        ("magnitude_ratio", np.array([r.magnitude_ratio for r in results])),
        ("phase", np.array([r.phase for r in results])),
    ]


def run_mrt_scan(config: RunConfig) -> list[tuple[str, np.ndarray]]:
    model = build_model(config)
    params = build_params(config)
    shape = config.get("mrt-scan", "shape", fallback="gaussian").lower()
    grid = read_grid(config, "bias-grid")
    w_rms = noise_rms(model)
    warn_weak_coupling(params.delta_schedule.initial, w_rms)
    gm = np.empty_like(grid)
    gp = np.empty_like(grid)
    eps_p = None
    if shape in ("gaussian", "classical"):
        eps_p = _resolve_eps_p(config, "mrt-scan", model) if shape == "gaussian" else 0.0
        for i, eps in enumerate(grid):
            point = TwoStateParams(params.delta, float(eps), params.temperature)
            gm[i] = gaussian_rate(point, w_rms, eps_p, -1)
            gp[i] = gaussian_rate(point, w_rms, eps_p, +1)
    elif shape == "voigt":
        eps_p = _resolve_eps_p(config, "mrt-scan", model)
        gamma = config.require_float("mrt-scan", "gamma")
        delta = params.delta_schedule.initial
        gm = np.asarray(voigt_rate(delta, w_rms, grid, eps_p, gamma))
        gp = np.asarray(voigt_rate(delta, w_rms, grid, -eps_p, gamma))
    elif shape == "nonlocal-corrected":
        for i, eps in enumerate(grid):
            point = TwoStateParams(params.delta, float(eps), params.temperature)
            gm[i], gp[i] = nonlocal_corrected_rates(model, point, w_rms)
    else:
        raise ConfigError(f"{config.path}: unknown mrt-scan shape {shape!r}")
    curve = RateCurve(bias=grid, gamma_minus=gm, gamma_plus=gp, shape=shape)
    extras = {"shape": curve.shape, "w_rms": _fmt(w_rms)}
    if eps_p is not None:
        extras["eps_p"] = _fmt(eps_p)
    config.derived.update(extras)
    return [
        ("eps", curve.bias),
        ("gamma_minus", curve.gamma_minus),
        ("gamma_plus", curve.gamma_plus),
    ]


def run_evolve(config: RunConfig) -> list[tuple[str, np.ndarray]]:
    model = build_model(config)
    params = build_params(config)
    mode = config.require("evolve", "mode").lower()
    grid = read_grid(config, "time-grid")
    rho11_0 = config.get_float("evolve", "rho11_0", 0.0)
    w_rms = noise_rms(model)
    warn_weak_coupling(params.delta_schedule.initial, w_rms)
    if mode == "local":
        eps_p = _resolve_eps_p(config, "evolve", model)
        minus = lambda t: gaussian_rate(params, w_rms, eps_p, -1, t)
        plus = lambda t: gaussian_rate(params, w_rms, eps_p, +1, t)
        traj = evolve_local(minus, plus, rho11_0, grid)
    elif mode == "nonlocal":
        traj = evolve_nonlocal(model, params, rho11_0, grid, w_rms=w_rms)
    elif mode == "short-time":
        rho11 = np.array(
            [short_time_rho11(model, params, w_rms, float(t)).double_quadrature for t in grid]
        )
        return [("t", grid), ("rho00", 1.0 - rho11), ("rho11", rho11)]
    else:
        raise ConfigError(f"{config.path}: unknown evolve mode {mode!r}")
    return [("t", traj.t), ("rho00", traj.rho00), ("rho11", traj.rho11)]


def run_peak(config: RunConfig) -> list[tuple[str, np.ndarray]]:
    model = build_model(config)
    params = build_params(config)
    w_rms = noise_rms(model)
    warn_weak_coupling(params.delta_schedule.initial, w_rms)
    summary = peak_summary(model, params, w_rms)
    return [
        ("gamma_peak", np.array([summary.gamma_peak])),
        ("eps_peak", np.array([summary.eps_peak])),
        ("asymmetry", np.array([summary.asymmetry])),
    ]


def _read_levels(config: RunConfig) -> WellLevels:
    if not config.parser.has_section("levels"):
        raise ConfigError(f"{config.path}: multichannel scenario needs a [levels] section")
    rows = []
    for index in range(len(config.parser.items("levels"))):
        key = f"level_{index}"
        if config.get("levels", key) is None:
            break
        parts = config.require_floats("levels", key)
        if len(parts) != 3:
            raise ConfigError(
                f"{config.path}: [levels] {key} must be 'energy delta gamma'"
            )
        rows.append(tuple(parts))
    if not rows:
        raise ConfigError(f"{config.path}: [levels] must define level_0, level_1, ...")
    return WellLevels(
        energies=tuple(r[0] for r in rows),
        deltas=tuple(r[1] for r in rows),
        relax_rates=tuple(r[2] for r in rows),
    )


def run_multichannel(config: RunConfig) -> list[tuple[str, np.ndarray]]:
    model = build_model(config)
    levels = _read_levels(config)
    temperature = config.require_float("two-state", "temperature")
    grid = read_grid(config, "bias-grid")
    w_rms = noise_rms(model)
    eps_p = _resolve_eps_p(config, "multichannel", model)
    normalized = config.get("multichannel", "normalized", fallback="true").lower() != "false"
    warn_weak_coupling(levels.deltas[0], w_rms)
    gm = np.asarray(multichannel_rate(levels, temperature, w_rms, grid, eps_p, normalized))
    gp = np.asarray(multichannel_rate(levels, temperature, w_rms, grid, -eps_p, normalized))
    return [("eps", grid), ("gamma_minus", gm), ("gamma_plus", gp)]


def _oracle_static_noise(config: RunConfig):
    w_rms = config.require_float("oracle", "w")
    delta = config.require_float("oracle", "delta")
    probe = config.require_float("oracle", "probe_time")
    samples = config.require_int("oracle", "samples")
    eps_values = config.require_floats("oracle", "eps")
    tolerance = config.get_float("oracle", "tolerance_rel", 0.05)
    gp = peak_rate(delta, w_rms)
    cols = {k: [] for k in ("eps", "estimate", "stderr", "expected", "rel_error", "status")}
    failures = 0
    for eps in eps_values:
        mc = static_noise_transition(
            McConfig(samples, config.seed, w_rms, delta, eps, probe)
        )
        expected = gp * math.exp(-0.5 * (eps / w_rms) ** 2)
        rel = abs(mc.rate - expected) / expected
        ok = rel <= tolerance
        failures += 0 if ok else 1
        cols["eps"].append(eps)
        cols["estimate"].append(mc.rate)
        cols["stderr"].append(mc.stderr)
        cols["expected"].append(expected)
        cols["rel_error"].append(rel)
        cols["status"].append(1.0 if ok else 0.0)
    return [(k, np.array(v)) for k, v in cols.items()], failures


def _oracle_convolution(config: RunConfig):
    w_rms = config.require_float("oracle", "w")
    delta = config.require_float("oracle", "delta")
    gamma = config.require_float("oracle", "gamma")
    eps_p = config.get_float("oracle", "eps_p", 0.0)
    tolerance = config.get_float("oracle", "tolerance_rel", 1e-8)
    grid = read_grid(config, "bias-grid")
    fadd = np.asarray(voigt_rate(delta, w_rms, grid, eps_p, gamma))
    conv = convolution_reference(delta, w_rms, grid, eps_p, gamma)
    rel = np.abs(fadd - conv) / conv
    status = (rel <= tolerance).astype(float)
    failures = int(np.sum(status == 0.0))
    return [
        ("eps", grid),
        ("faddeeva_rate", fadd),
        ("convolution_rate", conv),
        ("rel_error", rel),
        ("status", status),
    ], failures


def _oracle_refined(config: RunConfig, kind: str):
    model = build_model(config)
    params = build_params(config)
    grid = read_grid(config, "time-grid")
    rho11_0 = config.get_float("oracle", "rho11_0", 0.0)
    tolerance = config.get_float("oracle", "tolerance_sup", 1e-6)
    w_rms = noise_rms(model)
    if kind == "nonlocal":
        production = evolve_nonlocal(model, params, rho11_0, grid, w_rms=w_rms)
        request = EvolutionRequest(
            kind="nonlocal", rho11_0=rho11_0, t_grid=grid, model=model, params=params
        )
    else:
        eps_p = reorganization_shift(model)
        minus = lambda t: gaussian_rate(params, w_rms, eps_p, -1, t)
        plus = lambda t: gaussian_rate(params, w_rms, eps_p, +1, t)
        production = evolve_local(minus, plus, rho11_0, grid)
        request = EvolutionRequest(
            kind="local", rho11_0=rho11_0, t_grid=grid,
            rate_minus=minus, rate_plus=plus,
        )
    reference = refined_reference(request)
    sup = float(np.max(np.abs(production.rho11 - reference.rho11)))
    ok = sup <= tolerance
    return [
        ("sup_diff", np.array([sup])),
        ("tolerance", np.array([tolerance])),
        ("status", np.array([1.0 if ok else 0.0])),
    ], (0 if ok else 1)


def run_oracle(config: RunConfig):
    name = config.require("oracle", "name").lower()
    if name == "static-noise":
        return _oracle_static_noise(config)
    if name == "convolution":
        return _oracle_convolution(config)
    if name in ("refined-local", "refined-nonlocal"):
        return _oracle_refined(config, name.removeprefix("refined-"))
    raise ConfigError(f"{config.path}: unknown oracle {name!r}")


def run(config: RunConfig) -> int:
    """Dispatch a parsed configuration; write CSV; return the exit status."""
    oracle_failures = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if config.scenario == "oracle":
            columns, oracle_failures = run_oracle(config)
        elif config.scenario == "envelope":
            columns = run_envelope(config)
        elif config.scenario == "mrt-scan":
            columns = run_mrt_scan(config)
        elif config.scenario == "evolve":
            columns = run_evolve(config)
        elif config.scenario == "peak":
            columns = run_peak(config)
        elif config.scenario == "multichannel":
            columns = run_multichannel(config)
        else:
            raise ConfigError(f"unknown scenario {config.scenario!r}")
    messages = [str(w.message) for w in caught]
    write_csv(config.out, config.comments(), messages, columns)
    for message in messages:
        print(f"warning: {message}", file=sys.stderr)
    if config.scenario == "oracle":
        verdict = "PASS" if oracle_failures == 0 else f"FAIL ({oracle_failures} rows)"
        print(f"oracle {config.get('oracle', 'name')}: {verdict}")
        return 0 if oracle_failures == 0 else 1
    return 0


def run_validate(out: str | None, seed: int) -> int:
    # open the output before the suite runs, so a bad path fails at once
    try:
        sink = open(out, "w", newline="") if out else contextlib.nullcontext()
    except OSError as err:
        raise ConfigError(f"--out {out}: {err.strerror or err}") from None
    with sink as handle:
        records = validation.run_all(seed)
        criteria = sorted({r.criterion for r in records})
        all_ok = True
        for cid in criteria:
            group = [r for r in records if r.criterion == cid]
            ok = all(r.passed for r in group)
            all_ok = all_ok and ok
            name = group[0].name
            detail = "; ".join(
                f"{r.metric} = {r.value:.6g} ({r.cmp} {r.bound:g})" for r in group if not r.passed
            ) or f"{group[0].metric} = {group[0].value:.6g} ({group[0].cmp} {group[0].bound:g})"
            print(f"criterion {cid:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        if handle is not None:
            handle.write(validation.render_csv(records, seed=seed))
    if out:
        log.info("wrote %s", out)
    return 0 if all_ok else 1


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrtkit",
        description="Incoherent two-state tunneling: scenario runner and validation suite",
    )
    parser.add_argument("--version", action="version", version=f"mrtkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario from a config file")
        p.add_argument("--config", required=True, help="path to the INI-style run config")
        p.add_argument("--out", help="output CSV path (overrides [run] out)")
        p.add_argument("--seed", type=int, help="RNG seed (overrides [run] seed)")
    v = sub.add_parser("validate", help="run the full validation suite")
    v.add_argument("--out", help="write the validation records CSV here")
    v.add_argument("--seed", type=int, default=validation.DEFAULT_SEED)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("MRTKIT_LOG", "WARNING").upper())
    args = _build_argparser().parse_args(argv)
    try:
        if args.command == "validate":
            return run_validate(args.out, args.seed)
        config = load_config(args.command, args.config, args.out, args.seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except _PHYSICS_ERRORS as err:
        print(f"precondition violated: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
