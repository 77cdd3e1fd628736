"""Import contract: SciPy is loaded only by the functions that call into it.

Each case runs in a fresh interpreter and reports the ``scipy`` modules in
``sys.modules`` afterwards.  Startup, config errors and every tabulated
scenario need NumPy alone; a Voigt line shape is the positive control that
the probe does see a SciPy import.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mrtkit

SRC = str(Path(mrtkit.__file__).resolve().parents[1])

PROBE = """\
import json, sys
code = None
{body}
print(json.dumps({{"code": code, "scipy": sorted(m for m in sys.modules
                                                if m == "scipy" or m.startswith("scipy."))}}))
"""


def run_probe(body: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def cli_body(argv) -> str:
    return f"from mrtkit.cli import main\ncode = main({list(argv)!r})"


def write_spectrum(path, eta=8.0, omega_c=0.02, temperature=1.0, knots=241):
    """Two-sided ohmic-cutoff spectrum with detailed balance, on +-30 omega_c."""
    rows = ["omega,S"]
    for i in range(knots):
        w = 30.0 * omega_c * (2.0 * i / (knots - 1) - 1.0)
        if w == 0.0:
            s = 2.0 * eta * temperature
        else:
            s = 2.0 * eta * (w / -math.expm1(-w / temperature)) / (1.0 + (w / omega_c) ** 2) ** 2
        rows.append(f"{w!r},{s!r}")
    path.write_text("\n".join(rows) + "\n")


def tabulated_config(tmp_path, scenario, body):
    spectrum = tmp_path / "spectrum.csv"
    write_spectrum(spectrum)
    config = tmp_path / "run.ini"
    config.write_text(
        f"[run]\nscenario = {scenario}\nout = {tmp_path / 'out.csv'}\n\n"
        f"[spectral]\nkind = tabulated\ncsv = {spectrum}\ntemperature = 1.0\n\n"
        "[two-state]\ndelta = 0.003\neps = 0.05\ntemperature = 1.0\n\n" + body
    )
    return str(config)


@pytest.mark.parametrize(
    "body",
    ["import mrtkit", "import mrtkit.cli",
     "from mrtkit.cli import main\ntry:\n    main(['--version'])\nexcept SystemExit as e:\n"
     "    code = e.code"],
    ids=["import-mrtkit", "import-cli", "version"],
)
def test_startup_imports_no_scipy(body):
    assert run_probe(body)["scipy"] == []


def test_config_error_imports_no_scipy(tmp_path):
    report = run_probe(cli_body(["mrt-scan", "--config", str(tmp_path / "absent.ini")]))
    assert report == {"code": 2, "scipy": []}


@pytest.mark.parametrize(
    "scenario, body",
    [
        ("mrt-scan", "[mrt-scan]\nshape = nonlocal-corrected\n\n"
                     "[bias-grid]\nstart = -0.5\nstop = 0.5\nsteps = 3\n"),
        ("evolve", "[evolve]\nmode = nonlocal\n\n"
                   "[time-grid]\nstart = 0.0\nstop = 40.0\nsteps = 41\n"),
        ("envelope", "[time-grid]\nstart = 0.0\nstop = 10.0\nsteps = 3\n"),
    ],
    ids=["scan-nonlocal-corrected", "evolve-nonlocal", "envelope"],
)
def test_tabulated_scenarios_import_no_scipy(tmp_path, scenario, body):
    config = tabulated_config(tmp_path, scenario, body)
    report = run_probe(cli_body([scenario, "--config", config]))
    assert report == {"code": 0, "scipy": []}
    assert (tmp_path / "out.csv").exists()


def test_probe_sees_a_scipy_import():
    report = run_probe("from mrtkit.rates import faddeeva\nfaddeeva(1j)")
    assert "scipy.special" in report["scipy"]
