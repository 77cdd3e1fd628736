"""Per-layer metrics from the spans and counters of one traced pass.

A span is ``(name, start, end, parent, invocation)``; ``parent`` indexes the
enclosing span of the same invocation, or is -1.  Times named ``.s`` are
inclusive seconds summed over the pass, ``.self_s`` excludes the part of a
span its children cover, and ``.calls`` counts spans.
"""

from __future__ import annotations

import math

# Per-layer metrics, in the order BENCHMARK.json lists them.
SUMMED = (
    "spectral.noise_rms", "spectral.reorganization_shift", "spectral.noise_moments",
    "spectral.shift_function", "spectral.shift_function_derivative",
    "coherence.dephasing_exponent", "rates.voigt_rate", "rates.multichannel_rate",
    "dynamics.evolve_nonlocal", "dynamics.nonlocal_corrected_rates",
    "dynamics.evolve_local", "dynamics.peak_summary", "dynamics.short_time_rho11",
    "oracle.static_noise_transition", "oracle.convolution_reference",
    "oracle.refined_reference", "cli.write_csv",
)
CALLED = (
    "spectral.shift_function", "spectral.shift_function_derivative",
    "coherence.dephasing_exponent", "rates.gaussian_rate",
    "dynamics.nonlocal_corrected_rates",
)
COUNTERS = ("quad.calls", "quad.evals", "spectral.eval_spectral_density.calls",
            "cli.csv_rows", "cli.csv_bytes", "dynamics.evolve_nonlocal.steps")
CRITERION_10 = ("validation.check_determinism", "validation.run_criterion[10]")


def metric_names() -> list[str]:
    names = ["import.total_s", "import.scipy_s", "cli.main.self_s"]
    names += [f"{n}.s" for n in SUMMED] + [f"{n}.calls" for n in CALLED]
    names += list(COUNTERS)
    names += ["dynamics.evolve_nonlocal.self_s", "dynamics.evolve_nonlocal.steps_per_s",
              "dynamics.evolve_nonlocal.scaling_exp"]
    names += [f"validation.criterion_{c:02d}.s" for c in range(1, 11)]
    names += ["validation.run_criterion.calls", "trace.overhead_s", "trace.uncovered_s"]
    return names


def unit(name: str) -> str:
    if name.endswith("steps_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name == "cli.csv_bytes":
        return "bytes"
    if name.endswith("scaling_exp"):
        return "1"
    return "count"


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _inside(spans, index: int, names) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def import_times(importtime_lines) -> tuple[float, float]:
    """(mrtkit import, scipy import) seconds from ``-X importtime`` output.

    Each is the summed cumulative time of the outermost entries of that
    package, so nested submodules are not counted twice.
    """
    entries = []
    for line in importtime_lines:
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        raw = fields[2].rstrip("\n")
        name = raw.strip()
        depth = len(raw) - len(raw.lstrip(" "))
        entries.append((depth, int(fields[1]) * 1e-6, name))
    totals = {"mrtkit": 0.0, "scipy": 0.0}
    # children are printed before their parent, deeper indented; walk the
    # entries from the end so each parent is seen before its children
    open_packages: list[tuple[int, str]] = []
    for depth, cumulative, name in reversed(entries):
        while open_packages and open_packages[-1][0] >= depth:
            open_packages.pop()
        package = name.split(".")[0]
        if package in totals and not any(p == package for _, p in open_packages):
            totals[package] += cumulative
        open_packages.append((depth, package))
    return totals["mrtkit"], totals["scipy"]


def pass_metrics(invocations) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``invocations`` holds, per invocation: its spans, counters, the
    ``-X importtime`` lines and the process wall time seen by the parent.
    """
    m = {name: 0.0 for name in metric_names()}
    nonlocal_runs = []
    for inv in invocations:
        spans, counters = inv["spans"], inv["counters"]
        selfs = self_times(spans)
        covered = 0.0
        nonlocal_time = 0.0
        for index, (name, start, end, parent, _) in enumerate(spans):
            duration = end - start
            if parent < 0:
                covered += duration
            if name in SUMMED:
                m[f"{name}.s"] += duration
            if name in CALLED:
                m[f"{name}.calls"] += 1
            if name == "cli.main":
                m["cli.main.self_s"] += selfs[index]
            if name == "dynamics.evolve_nonlocal":
                m["dynamics.evolve_nonlocal.self_s"] += selfs[index]
                nonlocal_time += duration
            if name.startswith("validation.run_criterion["):
                m["validation.run_criterion.calls"] += 1
            criterion_10 = name in CRITERION_10
            if criterion_10 or name.startswith("validation.run_criterion["):
                if not _inside(spans, index, CRITERION_10):
                    cid = 10 if criterion_10 else int(name[-3:-1])
                    m[f"validation.criterion_{cid:02d}.s"] += duration
        for name in COUNTERS:
            m[name] += counters.get(name, 0)
        total, scipy = import_times(inv["importtime"])
        m["import.total_s"] += total
        m["import.scipy_s"] += scipy
        m["trace.uncovered_s"] += inv["wall"] - covered
        steps = counters.get("dynamics.evolve_nonlocal.steps", 0)
        if steps:
            nonlocal_runs.append((steps, nonlocal_time))
    if m["dynamics.evolve_nonlocal.s"] > 0:
        m["dynamics.evolve_nonlocal.steps_per_s"] = (
            m["dynamics.evolve_nonlocal.steps"] / m["dynamics.evolve_nonlocal.s"])
    if len(nonlocal_runs) >= 2:
        (n_small, t_small), (n_large, t_large) = min(nonlocal_runs), max(nonlocal_runs)
        if n_large > n_small and t_small > 0:
            m["dynamics.evolve_nonlocal.scaling_exp"] = (
                math.log(t_large / t_small) / math.log(n_large / n_small))
    return m
