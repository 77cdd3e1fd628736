"""Output checks for one invocation; every violation makes it a failure.

``check(inv, code, stdout, reference)`` returns a list of violation messages.
Besides exit code, header and row count, each scenario's own invariant is
checked: trace preservation and 0 <= rho11 <= 1 on trajectories, detailed
balance ln(G-/G+) = 2 eps eps_p / W^2 on gaussian scans, and for
``validate`` that criterion 4, red by design, is the only red criterion.
With ``reference`` given (the default seed), every column is also compared
with the stored reference output at the tolerances below.
"""

from __future__ import annotations

import math
import os

HEADERS = {
    "envelope": ["t", "magnitude_ratio", "phase"],
    "scan-gaussian": ["eps", "gamma_minus", "gamma_plus"],
    "rates": ["eps", "gamma_minus", "gamma_plus"],
    "peak": ["gamma_peak", "eps_peak", "asymmetry"],
    "evolve": ["t", "rho00", "rho11"],
    "oracle-convolution": ["eps", "faddeeva_rate", "convolution_rate", "rel_error", "status"],
    "validate": ["criterion", "name", "metric", "value", "cmp", "bound", "status"],
}
TRACE_TOL = 1e-12
# ROADMAP tolerances against the stored reference, as (abs, rel):
# |new - ref| <= abs + rel * |ref|.  The memory-kernel solver must agree to
# sup |d rho11| <= 1e-12; closed forms and ohmic quadrature to 1e-9
# relative (QUADPACK runs at epsrel 1e-11); tabulated-spectrum quantities
# come from knot-aligned quadrature whose rewrite may move them by 1e-6.
# The peak asymmetry is a third moment that nearly cancels; its quadrature
# carries an absolute error floor near 1e-10.
DEFAULT_TOL = (0.0, 1e-9)
TOLERANCES = {
    "peak": {"asymmetry": (1e-9, 1e-9)},
    "nonlocal": {"rho00": (1e-12, 0.0), "rho11": (1e-12, 0.0)},
    "tab-": {"*": (1e-12, 1e-6), "rho00": (1e-8, 0.0), "rho11": (1e-8, 0.0)},
    "evolve-local": {"rho00": (1e-10, 0.0), "rho11": (1e-10, 0.0)},
    "envelope": {"phase": (1e-12, 1e-9)},
    "oracle-convolution": {"rel_error": (1e-8, 0.0)},
}
# A reference stores short outputs whole and long ones as every STRIDE-th
# row plus the last.
STRIDE = 64


def read_csv(path: str):
    """(comments, warnings, header, rows) of a CSV written by mrtkit."""
    comments, warnings, header, rows = {}, [], None, []
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("# warning: "):
                warnings.append(line[len("# warning: "):])
            elif line.startswith("# "):
                key, _, value = line[2:].partition(" = ")
                comments[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, warnings, header, rows


def sample(rows: list) -> list:
    """The rows a reference stores."""
    if len(rows) <= 4 * STRIDE:
        return list(rows)
    picked = rows[::STRIDE]
    if rows and (len(rows) - 1) % STRIDE:
        picked.append(rows[-1])
    return picked


def _floats(rows, errors):
    try:
        return [[float(x) for x in row] for row in rows]
    except ValueError as err:
        errors.append(f"non-numeric cell: {err}")
        return []


def _check_numeric(inv, comments, values, errors) -> None:
    kind = inv.check
    if any(not math.isfinite(x) for row in values for x in row):
        errors.append("non-finite value")
        return
    if kind == "envelope":
        if any(not 0.0 < r[1] <= 1.0 for r in values):
            errors.append("magnitude_ratio outside (0, 1]")
    elif kind in ("rates", "scan-gaussian"):
        if any(r[1] <= 0.0 or r[2] <= 0.0 for r in values):
            errors.append("non-positive rate")
        if kind == "scan-gaussian" and not errors:
            w2 = float(comments["w_rms"]) ** 2
            eps_p = float(comments["eps_p"])
            worst = max(abs(math.log(gm / gp) - 2.0 * eps * eps_p / w2)
                        for eps, gm, gp in values)
            if worst > 1e-9:
                errors.append(f"detailed balance violated by {worst:.3g}")
    elif kind == "peak":
        if values[0][0] <= 0.0:
            errors.append("non-positive peak rate")
    elif kind == "evolve":
        drift = max(abs(r[1] + r[2] - 1.0) for r in values)
        if drift > TRACE_TOL:
            errors.append(f"trace rho00 + rho11 off by {drift:.3g}")
        if any(not 0.0 <= r[2] <= 1.0 for r in values):
            errors.append("rho11 outside [0, 1]")
    elif kind == "oracle-convolution":
        if any(r[4] != 1.0 for r in values):
            errors.append("oracle row marked failed")


def _check_validate(rows, stdout, errors) -> None:
    red = {int(r[0]) for r in rows if r[-1] == "FAIL"}
    seen = {int(r[0]) for r in rows}
    if seen != set(range(1, 11)):
        errors.append(f"criteria present: {sorted(seen)}")
    if red != {4}:
        errors.append(f"red criteria {sorted(red)}, expected only criterion 4")
    printed_red = {line.split()[1] for line in stdout.splitlines() if "[FAIL]" in line}
    if printed_red != {"04"}:
        errors.append(f"report lists red criteria {sorted(printed_red)}")


def _tolerance(inv_name: str, column: str) -> tuple[float, float]:
    for prefix, table in TOLERANCES.items():
        if inv_name.startswith(prefix):
            return table.get(column, table.get("*", DEFAULT_TOL))
    return DEFAULT_TOL


def reference_cells(inv, rows):
    """What the reference stores of an output: numbers, or validate's verdicts."""
    picked = sample(rows)
    if inv.check == "validate":
        return [[r[0], r[2], r[-1]] for r in picked]
    return [[float(x) for x in r] for r in picked]


def _check_reference(inv, header, rows, reference, errors) -> None:
    if reference["rows"] != len(rows):
        errors.append(f"reference has {reference['rows']} rows, output {len(rows)}")
        return
    cells = reference_cells(inv, rows)
    if inv.check == "validate":
        if cells != reference["cells"]:
            errors.append("validate verdicts differ from reference")
        return
    for j, column in enumerate(header):
        absolute, relative = _tolerance(inv.name, column)
        for new_row, old_row in zip(cells, reference["cells"]):
            new, old = new_row[j], old_row[j]
            if abs(new - old) > absolute + relative * abs(old):
                errors.append(f"{column} = {new!r} differs from reference {old!r}")
                break


def check(inv, code: int, stdout: str, reference=None) -> list[str]:
    """Violations of one invocation's contract; empty when it succeeded."""
    errors = []
    if code != inv.exit_code:
        errors.append(f"exit {code}, expected {inv.exit_code}")
    if inv.check == "config-error":
        if os.path.exists(inv.out):
            errors.append("config error still wrote output")
        return errors
    if not os.path.exists(inv.out):
        return errors + ["output missing"]
    try:
        comments, warnings, header, rows = read_csv(inv.out)
    except (OSError, UnicodeDecodeError) as err:
        return errors + [f"unreadable output: {err}"]
    if warnings:
        errors.append(f"unexpected warnings: {warnings}")
    if header != HEADERS[inv.check]:
        return errors + [f"header {header}"]
    if inv.check == "validate":
        _check_validate(rows, stdout, errors)
    else:
        if len(rows) != inv.rows:
            return errors + [f"{len(rows)} rows, expected {inv.rows}"]
        values = _floats(rows, errors)
        if values and any(len(v) != len(header) for v in values):
            return errors + ["ragged row"]
        if values:
            _check_numeric(inv, comments, values, errors)
    if reference is not None and not errors:
        _check_reference(inv, header, rows, reference, errors)
    return errors
