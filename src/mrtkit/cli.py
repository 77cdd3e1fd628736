"""Configuration-driven scenario runner.

Subcommands: envelope, mrt-scan, evolve, peak, multichannel, oracle,
validate.  Scenarios are described by an INI-style config (sections of
key = value pairs, scientific notation accepted) and emit CSV whose
comment header records every input parameter and the artifact version, so
a run can be reproduced from its own output.  Physics is unit-agnostic
(hbar = k_B = 1); the declared unit label is recorded verbatim.

Exit codes: 0 success, 1 validation failure, 2 config/parse error
(ConfigError), 3 violated physics precondition (RegimeError, named in the
diagnostic).  Any other exception is a defect and ends with its traceback.
"""

from __future__ import annotations

import argparse
import configparser
import gc
import math
import os
import sys
import warnings

import numpy as np

from . import __version__, validation
from .coherence import dephasing_exponent
from .dynamics import (evolve_local, evolve_nonlocal, nonlocal_corrected_scan, peak_summary,
                       short_time_rho11)
from .errors import ConfigError, RegimeError
from .oracle import (McConfig, convolution_reference, refined_local_reference,
                     refined_nonlocal_reference, static_noise_transition)
from .rates import (TwoStateParams, WellLevels, _ramped_line, multichannel_rate, peak_rate,
                    voigt_rate, warn_weak_coupling)
from .schedules import LinearSchedule
from .spectral import OhmicCutoff, Tabulated, White

# rows per block of write_csv: the text of one block, not of the file, is in memory
_CSV_BLOCK = 1024


def _fmt(x) -> str:
    """Shortest round-trip decimal representation."""
    return repr(float(x))


# the default of RunConfig.value for a key that must be present
_REQUIRED = object()


def _converted(path: str, section: str, key: str, raw: str, kind):
    """kind(raw), a finite number where kind is float; a ConfigError names the key."""
    try:
        value = kind(raw)
        if kind is float and not math.isfinite(value):
            raise ValueError(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{path}: [{section}] {key} = {raw!r} is not {noun}") from None
    return value


class RunConfig:
    """Parsed scenario configuration plus the raw key-value pairs."""

    def __init__(self, scenario: str, parser: configparser.ConfigParser, path: str,
                 out: str | None, seed: int | None):
        self.scenario = scenario
        self.parser = parser
        self.path = path
        # effective derived quantities a scenario wants echoed in the header
        self.derived: dict[str, str] = {}
        self.out = out if out is not None else self.value("run", "out", default=None)
        if self.out is None:
            raise ConfigError(f"{path}: no output path ([run] out or --out)")
        # a continuation line would put a bare line among the CSV's comments
        for section in parser.sections():
            for key, value in parser.items(section):
                if "\n" in value:
                    raise ConfigError(f"{path}: [{section}] {key} spans several lines")
        self.seed = seed if seed is not None else self.value("run", "seed", int, 0)
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"{path}: seed must fit in 64 bits")
        self.units = self.value("run", "units", default="natural")
        declared = self.value("run", "scenario", default=scenario)
        if declared != scenario:
            raise ConfigError(
                f"{path}: [run] scenario = {declared} does not match subcommand {scenario}"
            )

    def value(self, section: str, key: str, kind=str, default=_REQUIRED):
        """[section] key as kind (str, int or a finite float); default if the key is absent.

        An absent key without a default is a config error.
        """
        raw = self.parser.get(section, key, fallback=None)
        if raw is None:
            if default is _REQUIRED:
                raise ConfigError(f"{self.path}: missing [{section}] {key}")
            return default
        return _converted(self.path, section, key, raw, kind)

    def positive(self, section: str, key: str) -> float:
        value = self.value(section, key, float)
        if not value > 0:
            raise ConfigError(f"{self.path}: [{section}] {key} = {value!r} must be positive")
        return value

    def floats(self, section: str, key: str) -> list[float]:
        """A whitespace-separated list of at least one number."""
        parts = self.value(section, key).split()
        if not parts:
            raise ConfigError(f"{self.path}: [{section}] {key} is empty")
        return [_converted(self.path, section, key, part, float) for part in parts]

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
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path) as handle:
            parser.read_file(handle, source=path)
    except OSError as err:
        raise ConfigError(f"{path}: {err.strerror or err}")
    except configparser.Error as err:
        raise ConfigError(str(err))
    return RunConfig(scenario, parser, path, out, seed)


def _construct(config: RunConfig, section: str, cls, **kwargs):
    """cls(**kwargs); a value the constructor rejects is a config error.

    A RegimeError, though a ValueError, names a physics precondition and passes.
    """
    try:
        return cls(**kwargs)
    except RegimeError:
        raise
    except ValueError as err:
        raise ConfigError(f"{config.path}: [{section}] {err}") from None


def build_model(config: RunConfig):
    kind = config.value("spectral", "kind").lower()
    # white and tabulated spectra use no temperature: the key is checked and
    # echoed in the header, and nothing more
    if kind == "white":
        s0 = config.value("spectral", "s0", float)
        config.value("spectral", "temperature", float, None)
        return _construct(config, "spectral", White, s0=s0)
    if kind in ("ohmic", "ohmic-cutoff"):
        return _construct(
            config, "spectral", OhmicCutoff,
            eta=config.value("spectral", "eta", float),
            omega_c=config.value("spectral", "omega_c", float),
            temperature=config.value("spectral", "temperature", float),
        )
    if kind == "tabulated":
        csv_path = config.value("spectral", "csv")
        config.value("spectral", "temperature", float, None)
        try:
            return Tabulated.from_csv(csv_path)
        except OSError as err:
            raise ConfigError(
                f"{config.path}: [spectral] csv = {csv_path}: {err.strerror or err}"
            ) from None
        except ValueError as err:
            raise ConfigError(f"{config.path}: [spectral] csv = {csv_path}: {err}") from None
    raise ConfigError(f"{config.path}: unknown spectral kind {kind!r}")


def build_params(config: RunConfig) -> TwoStateParams:
    delta = LinearSchedule(
        config.value("two-state", "delta", float),
        config.value("two-state", "delta_rate", float, 0.0),
    )
    eps = LinearSchedule(
        config.value("two-state", "eps", float),
        config.value("two-state", "eps_rate", float, 0.0),
    )
    return _construct(
        config, "two-state", TwoStateParams,
        delta=delta, eps=eps, temperature=config.value("two-state", "temperature", float),
    )


def read_grid(config: RunConfig, section: str) -> np.ndarray:
    start = config.value(section, "start", float)
    stop = config.value(section, "stop", float)
    steps = config.value(section, "steps", int)
    if steps < 2:
        raise ConfigError(f"{config.path}: [{section}] needs at least 2 grid points")
    if steps > 10**6:
        raise ConfigError(f"{config.path}: [{section}] steps capped at 1e6")
    if not stop > start:
        raise ConfigError(f"{config.path}: [{section}] stop must exceed start")
    grid = np.linspace(start, stop, steps)
    if not np.all(np.diff(grid) > 0):
        raise ConfigError(f"{config.path}: [{section}] {steps} points between {start!r} and "
                          f"{stop!r} repeat values in floating point")
    return grid


def _require_time_invariant(config: RunConfig) -> None:
    """Refuse a ramp where a scenario reads its line at t = 0 and would drop it."""
    if (config.value("two-state", "delta_rate", float, 0.0)
            or config.value("two-state", "eps_rate", float, 0.0)):
        raise RegimeError("time-invariant Hamiltonian required: delta and eps must be constant")


def _read_rho11_0(config: RunConfig, section: str) -> float:
    rho11_0 = config.value(section, "rho11_0", float, 0.0)
    if not 0.0 <= rho11_0 <= 1.0:
        raise ConfigError(f"{config.path}: [{section}] rho11_0 = {rho11_0!r} must lie in [0, 1]")
    return rho11_0


def _resolve_eps_p(config: RunConfig, section: str, model) -> float:
    raw = config.value(section, "eps_p", default="auto")
    if raw.strip().lower() == "auto":
        return model.reorganization_shift()
    return config.value(section, "eps_p", float)


def _check_writable(path: str) -> None:
    """Fail fast with a ConfigError when the output file cannot be written.

    Leaves an existing file as it is and creates no file: a new path is
    probed by creating it exclusively and removing it again.
    """
    try:
        if os.path.exists(path):
            with open(path, "a"):
                pass
        else:
            with open(path, "x"):
                pass
            os.remove(path)
    except OSError as err:
        raise ConfigError(f"output {path}: {err.strerror or err}") from None


def _log_written(path: str) -> None:
    """Log "wrote <path>" at INFO on the "mrtkit" logger.

    Without ``logging`` imported no handler can take the record, so the
    module is not loaded for it: only ``MRTKIT_LOG`` or the caller loads it.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("mrtkit").info("wrote %s", path)


def write_csv(path: str, comments: dict[str, str], warnings_seen: list[str],
              columns: list[tuple[str, np.ndarray]]) -> None:
    """Write the comment header, the warnings, a header row and the columns as CSV.

    Every value is ``repr(float(x))``, the shortest decimal that reads back
    to the same double, so the bytes equal a row-by-row rendering of that
    form.  Rows go out in blocks of ``_CSV_BLOCK``: each column of a block
    becomes Python floats and their text at once, and only one block's text
    is held, whatever the length of the columns.
    """
    lengths = {len(values) for _, values in columns}
    if len(lengths) != 1:
        raise ValueError("CSV columns must share one length")
    rows = lengths.pop()
    with open(path, "w", newline="") as handle:
        for key, value in comments.items():
            handle.write(f"# {key} = {value}\n")
        for message in warnings_seen:
            handle.write(f"# warning: {message}\n")
        handle.write(",".join(name for name, _ in columns) + "\n")
        for start in range(0, rows, _CSV_BLOCK):
            texts = [map(repr, np.asarray(values[start:start + _CSV_BLOCK], dtype=float).tolist())
                     for _, values in columns]
            handle.write("\n".join(map(",".join, zip(*texts))) + "\n")
    _log_written(path)


# ---------------------------------------------------------------------------
# scenarios


def run_envelope(config: RunConfig) -> list[tuple[str, np.ndarray]]:
    model = build_model(config)
    eps = LinearSchedule(
        config.value("two-state", "eps", float, 0.0),
        config.value("two-state", "eps_rate", float, 0.0),
    )
    grid = read_grid(config, "time-grid")
    # math.exp row by row: np.exp may differ in the last bit
    magnitude = [math.exp(-x) for x in dephasing_exponent(model, grid).tolist()]
    return [("t", grid), ("magnitude_ratio", np.array(magnitude)), ("phase", -eps.integral(grid))]


def run_mrt_scan(config: RunConfig) -> list[tuple[str, np.ndarray]]:
    model = build_model(config)
    params = build_params(config)
    shape = config.value("mrt-scan", "shape", default="gaussian").lower()
    grid = read_grid(config, "bias-grid")
    w_rms = model.noise_rms()
    warn_weak_coupling(params.delta_schedule.initial, w_rms)
    eps_p = None
    if shape in ("gaussian", "classical", "voigt"):
        _require_time_invariant(config)
        # the Gaussian is the zero-width Voigt line; classical is it at eps_p = 0
        eps_p = 0.0 if shape == "classical" else _resolve_eps_p(config, "mrt-scan", model)
        gamma = config.value("mrt-scan", "gamma", float) if shape == "voigt" else 0.0
        if gamma < 0:
            raise ConfigError(f"{config.path}: [mrt-scan] gamma = {gamma!r} must be nonnegative")
        delta = params.delta_schedule.initial
        gm = voigt_rate(delta, w_rms, grid, eps_p, gamma)
        gp = voigt_rate(delta, w_rms, grid, -eps_p, gamma)
    elif shape == "nonlocal-corrected":
        gm, gp = nonlocal_corrected_scan(model, params, w_rms, grid)
    else:
        raise ConfigError(f"{config.path}: unknown mrt-scan shape {shape!r}")
    extras = {"shape": shape, "w_rms": _fmt(w_rms)}
    if eps_p is not None:
        extras["eps_p"] = _fmt(eps_p)
    config.derived.update(extras)
    return [("eps", grid), ("gamma_minus", gm), ("gamma_plus", gp)]


def _local_rates(params: TwoStateParams, w_rms: float, eps_p: float):
    """(Gamma_-, Gamma_+) of the shifted-Gaussian line shape at shift eps_p.

    Numbers for a time-invariant Hamiltonian, functions of t for a ramp.
    """
    delta, eps = params.delta_schedule, params.eps_schedule
    if delta.is_constant and eps.is_constant:
        return (voigt_rate(delta.initial, w_rms, eps.initial, eps_p, 0.0),
                voigt_rate(delta.initial, w_rms, eps.initial, -eps_p, 0.0))
    return (lambda t: _ramped_line(params, w_rms, t, eps_p),
            lambda t: _ramped_line(params, w_rms, t, -eps_p))


def run_evolve(config: RunConfig) -> list[tuple[str, np.ndarray]]:
    model = build_model(config)
    params = build_params(config)
    mode = config.value("evolve", "mode").lower()
    grid = read_grid(config, "time-grid")
    rho11_0 = _read_rho11_0(config, "evolve")
    w_rms = model.noise_rms()
    warn_weak_coupling(params.delta_schedule.initial, w_rms)
    if mode == "local":
        rates = _local_rates(params, w_rms, _resolve_eps_p(config, "evolve", model))
        traj = evolve_local(*rates, rho11_0, grid)
    elif mode == "nonlocal":
        traj = evolve_nonlocal(model, params, rho11_0, grid, w_rms=w_rms)
    elif mode == "short-time":
        rho11 = np.array([short_time_rho11(model, params, w_rms, float(t)) for t in grid])
        return [("t", grid), ("rho00", 1.0 - rho11), ("rho11", rho11)]
    else:
        raise ConfigError(f"{config.path}: unknown evolve mode {mode!r}")
    return [("t", traj.t), ("rho00", traj.rho00), ("rho11", traj.rho11)]


def run_peak(config: RunConfig) -> list[tuple[str, np.ndarray]]:
    model = build_model(config)
    params = build_params(config)
    summary = peak_summary(model, params, model.noise_rms())
    return [
        ("gamma_peak", np.array([summary.gamma_peak])),
        ("eps_peak", np.array([summary.eps_peak])),
        ("asymmetry", np.array([summary.asymmetry])),
    ]


def _read_levels(config: RunConfig) -> WellLevels:
    if not config.parser.has_section("levels"):
        raise ConfigError(f"{config.path}: multichannel scenario needs a [levels] section")
    options = config.parser.options("levels")
    keys = [f"level_{index}" for index in range(len(options))]
    if not keys or set(keys) != set(options):
        raise ConfigError(f"{config.path}: [levels] must define level_0, level_1, ... "
                          "without gaps, and nothing else")
    rows = []
    for key in keys:
        parts = config.floats("levels", key)
        if len(parts) != 3:
            raise ConfigError(
                f"{config.path}: [levels] {key} must be 'energy delta gamma'"
            )
        rows.append(tuple(parts))
    return _construct(
        config, "levels", WellLevels,
        energies=tuple(r[0] for r in rows),
        deltas=tuple(r[1] for r in rows),
        relax_rates=tuple(r[2] for r in rows),
    )


def run_multichannel(config: RunConfig) -> list[tuple[str, np.ndarray]]:
    model = build_model(config)
    levels = _read_levels(config)
    temperature = config.positive("two-state", "temperature")
    _require_time_invariant(config)
    grid = read_grid(config, "bias-grid")
    w_rms = model.noise_rms()
    eps_p = _resolve_eps_p(config, "multichannel", model)
    raw = config.value("multichannel", "normalized", default="true")
    normalized = config.parser.BOOLEAN_STATES.get(raw.lower())
    if normalized is None:
        raise ConfigError(f"{config.path}: [multichannel] normalized = {raw!r} is not a boolean")
    warn_weak_coupling(levels.deltas[0], w_rms)
    gm = np.asarray(multichannel_rate(levels, temperature, w_rms, grid, eps_p, normalized))
    gp = np.asarray(multichannel_rate(levels, temperature, w_rms, grid, -eps_p, normalized))
    return [("eps", grid), ("gamma_minus", gm), ("gamma_plus", gp)]


def _oracle_static_noise(config: RunConfig):
    w_rms = config.positive("oracle", "w")
    delta = config.positive("oracle", "delta")
    probe = config.value("oracle", "probe_time", float)
    samples = config.value("oracle", "samples", int)
    biases = config.floats("oracle", "eps")
    mc_config = _construct(config, "oracle", McConfig, sample_count=samples, seed=config.seed,
                           w_rms=w_rms, delta=delta, probe_time=probe)
    tolerance = config.value("oracle", "tolerance_rel", float, 0.05)
    gp = peak_rate(delta, w_rms)
    # e^{-z^2/2} is 0 from |z| = 39 on; the cap keeps z^2 from overflowing
    closed = [gp * math.exp(-0.5 * min(abs(eps / w_rms), 40.0) ** 2) for eps in biases]
    for eps, expected in zip(biases, closed):
        if not 0.0 < expected < math.inf:
            raise RegimeError(f"closed static-noise rate at eps = {eps!r} is {expected!r}")
    cols = {k: [] for k in ("eps", "estimate", "stderr", "expected", "rel_error", "status")}
    for eps, expected, mc in zip(biases, closed, static_noise_transition(mc_config, biases)):
        rel = abs(mc.rate - expected) / expected
        cols["eps"].append(eps)
        cols["estimate"].append(mc.rate)
        cols["stderr"].append(mc.stderr)
        cols["expected"].append(expected)
        cols["rel_error"].append(rel)
        cols["status"].append(1.0 if rel <= tolerance else 0.0)
    return [(k, np.array(v)) for k, v in cols.items()]


def _oracle_convolution(config: RunConfig):
    w_rms = config.positive("oracle", "w")
    delta = config.positive("oracle", "delta")
    gamma = config.positive("oracle", "gamma")
    eps_p = config.value("oracle", "eps_p", float, 0.0)
    tolerance = config.value("oracle", "tolerance_rel", float, 1e-8)
    grid = read_grid(config, "bias-grid")
    fadd = np.asarray(voigt_rate(delta, w_rms, grid, eps_p, gamma))
    conv = convolution_reference(delta, w_rms, grid, eps_p, gamma)
    rel = np.abs(fadd - conv) / conv
    return [
        ("eps", grid),
        ("faddeeva_rate", fadd),
        ("convolution_rate", conv),
        ("rel_error", rel),
        ("status", (rel <= tolerance).astype(float)),
    ]


def _oracle_refined(config: RunConfig, kind: str):
    model = build_model(config)
    params = build_params(config)
    grid = read_grid(config, "time-grid")
    rho11_0 = _read_rho11_0(config, "oracle")
    tolerance = config.value("oracle", "tolerance_sup", float, 1e-6)
    w_rms = model.noise_rms()
    if kind == "nonlocal":
        production = evolve_nonlocal(model, params, rho11_0, grid, w_rms=w_rms)
        reference = refined_nonlocal_reference(model, params, rho11_0, grid)
    else:
        rates = _local_rates(params, w_rms, model.reorganization_shift())
        production = evolve_local(*rates, rho11_0, grid)
        reference = refined_local_reference(*rates, rho11_0, grid)
    sup = float(np.max(np.abs(production.rho11 - reference.rho11)))
    return [
        ("sup_diff", np.array([sup])),
        ("tolerance", np.array([tolerance])),
        ("status", np.array([1.0 if sup <= tolerance else 0.0])),
    ]


def run_oracle(config: RunConfig) -> list[tuple[str, np.ndarray]]:
    """The columns of one oracle; its verdict is the ``status`` column."""
    name = config.value("oracle", "name").lower()
    if name == "static-noise":
        return _oracle_static_noise(config)
    if name == "convolution":
        return _oracle_convolution(config)
    if name in ("refined-local", "refined-nonlocal"):
        return _oracle_refined(config, name.removeprefix("refined-"))
    raise ConfigError(f"{config.path}: unknown oracle {name!r}")


# The subcommands that run from a config file, each to its list of CSV columns.
_RUNNERS = {"envelope": run_envelope, "mrt-scan": run_mrt_scan, "evolve": run_evolve,
            "peak": run_peak, "multichannel": run_multichannel, "oracle": run_oracle}


def run(config: RunConfig) -> int:
    """Dispatch a parsed configuration; write CSV; return the exit status."""
    _check_writable(config.out)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        columns = _RUNNERS[config.scenario](config)
    # a warning raised at several layers is reported once
    messages = list(dict.fromkeys(str(w.message) for w in caught))
    write_csv(config.out, config.comments(), messages, columns)
    for message in messages:
        print(f"warning: {message}", file=sys.stderr)
    if config.scenario != "oracle":
        return 0
    failures = int(np.sum(dict(columns)["status"] == 0.0))
    verdict = "PASS" if failures == 0 else f"FAIL ({failures} rows)"
    print(f"oracle {config.value('oracle', 'name')}: {verdict}")
    return 0 if failures == 0 else 1


def run_validate(out: str | None, seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise ConfigError(f"--seed {seed}: seed must fit in 64 bits")
    # a bad path fails at once; an existing file is kept until the suite ends
    if out:
        _check_writable(out)
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
    if out:
        with open(out, "w", newline="") as handle:
            handle.write(validation.render_csv(records, seed=seed))
        _log_written(out)
    return 0 if all_ok else 1


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrtkit",
        description="Incoherent two-state tunneling: scenario runner and validation suite",
    )
    parser.add_argument("--version", action="version", version=f"mrtkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} scenario from a config file")
        p.add_argument("--config", required=True, help="path to the INI-style run config")
        p.add_argument("--out", help="output CSV path (overrides [run] out)")
        p.add_argument("--seed", type=int, help="RNG seed (overrides [run] seed)")
    v = sub.add_parser("validate", help="run the full validation suite")
    v.add_argument("--out", help="write the validation records CSV here")
    v.add_argument("--seed", type=int, default=validation.DEFAULT_SEED)
    return parser


def _configure_logging() -> None:
    """Set the log level from ``MRTKIT_LOG``; unset, ``logging`` is not even imported."""
    level = os.environ.get("MRTKIT_LOG")
    if level is None:
        return
    import logging

    # getLevelName maps a level name to its number and anything else to a string
    if not isinstance(logging.getLevelName(level.upper()), int):
        raise ConfigError(f"MRTKIT_LOG = {level!r} is not a log level "
                          "(DEBUG, INFO, WARNING, ERROR or CRITICAL)")
    logging.basicConfig(level=level.upper())


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        _configure_logging()
        if args.command == "validate":
            return run_validate(args.out, args.seed)
        return run(load_config(args.command, args.config, args.out, args.seed))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except RegimeError as err:
        print(f"precondition violated: {err}", file=sys.stderr)
        return 3


def entry() -> int:
    """The ``mrtkit`` program: ``main()`` on ``sys.argv``, after ``gc.freeze()``.

    Freezing moves every object alive after the imports into the collector's
    permanent generation, so the collections the interpreter runs at exit do
    not walk the import-time heap (about 15 ms per run on a 2-CPU Xeon);
    reference counting still frees it, and stdio is still flushed.  ``main``
    leaves the collector as it finds it, for callers that run it in process.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
