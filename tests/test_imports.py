"""Import contract: the package runs on NumPy alone; SciPy serves the tests.

Each case runs in a fresh interpreter and reports the ``scipy`` modules in
``sys.modules`` afterwards, and whether ``numpy.ma``, ``numpy.polynomial``,
``numpy.random`` and ``_hashlib`` (OpenSSL, which ``numpy.random`` pulls in
through ``secrets``) are among them.  Startup, config errors, every tabulated scenario, the
ohmic moments, the ohmic envelope, peak, nonlocal and local evolve
(constant rates and a ramped bias), gaussian, classical, voigt and
nonlocal-corrected scans, multichannel sums with relaxation, the
convolution oracle and the full memory-correction oracle load no SciPy.
With SciPy blocked (``sys.modules["scipy"] = None`` before mrtkit is
imported) ``validate``, short-time evolve and the refined-local (ramped
bias) and static-noise oracles still run.  None of the CLI runs loads
``numpy.ma``, ``numpy.polynomial``, ``numpy.random`` or ``_hashlib``, and
neither does importing the CLI: the static-noise Monte Carlo draws its
samples without ``numpy.random``.  A probe body that imports
``scipy.integrate`` itself is the positive control that the probe sees a
SciPy import, one that calls ``np.unique`` the control that it sees
``numpy.ma``, one that touches ``np.polynomial`` the control for
``numpy.polynomial``, and one that touches ``np.random`` the control for
``numpy.random`` and ``_hashlib``.  Importing the CLI leaves the sampler's
tables (``mrtkit._philox``) unloaded.  A static check parses the sources: no
module of the package imports SciPy or refers to ``numpy.random``, the
package itself refers to every private top-level function and class it
defines (none is kept for the tests alone), and the relative imports between
its modules (those under ``if TYPE_CHECKING:`` included) form no cycle.
Every ``__all__`` entry of the package's layers resolves.  Importing the
package defaults ``OPENBLAS_THREAD_TIMEOUT`` to 4 and keeps a value the user
set; with two OpenBLAS threads, the idle worker then spends no CPU time
after a threaded product (a preset timeout of 28 is the control).
"""

import ast
import importlib
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
{block}
{body}
print(json.dumps({{"code": code, "scipy": sorted(
    m for m, module in sys.modules.items()
    if module is not None and (m == "scipy" or m.startswith("scipy."))),
    "numpy_ma": "numpy.ma" in sys.modules,
    "numpy_polynomial": "numpy.polynomial" in sys.modules,
    "numpy_random": "numpy.random" in sys.modules,
    "hashlib": "_hashlib" in sys.modules}}))
"""
# an import of scipy or any submodule raises ImportError after this line
BLOCK_SCIPY = 'sys.modules["scipy"] = None'
# the report of a run that loaded none of SciPy, numpy.ma, numpy.polynomial,
# numpy.random and _hashlib
NO_EXTRAS = {"scipy": [], "numpy_ma": False, "numpy_polynomial": False,
             "numpy_random": False, "hashlib": False}


def run_probe(body: str, block_scipy: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    script = PROBE.format(block=BLOCK_SCIPY if block_scipy else "", body=body)
    done = subprocess.run(
        [sys.executable, "-c", script],
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


@pytest.mark.parametrize(
    "body, loaded",
    [("import mrtkit.cli", False), ("import numpy as np\nnp.polynomial", True)],
    ids=["import-cli", "positive-control"],
)
def test_startup_loads_no_numpy_polynomial(body, loaded):
    assert run_probe(body)["numpy_polynomial"] is loaded


@pytest.mark.parametrize(
    "body, loaded",
    [("import mrtkit.cli", False), ("import numpy as np\nnp.random", True)],
    ids=["import-cli", "positive-control"],
)
def test_startup_loads_no_numpy_random(body, loaded):
    report = run_probe(body)
    assert (report["numpy_random"], report["hashlib"]) == (loaded, loaded)


def test_startup_skips_the_sampler_tables():
    # mrtkit._philox and its tables load on the first Monte Carlo draw
    assert run_probe("import mrtkit.cli\ncode = 'mrtkit._philox' in sys.modules")["code"] is False


def test_config_error_imports_no_scipy(tmp_path):
    report = run_probe(cli_body(["mrt-scan", "--config", str(tmp_path / "absent.ini")]))
    assert report == {"code": 2, **NO_EXTRAS}


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
    assert report == {"code": 0, **NO_EXTRAS}
    assert (tmp_path / "out.csv").exists()


def ohmic_config(tmp_path, scenario, body, ramp=""):
    config = tmp_path / "run.ini"
    config.write_text(
        f"[run]\nscenario = {scenario}\nout = {tmp_path / 'out.csv'}\n\n"
        "[spectral]\nkind = ohmic\neta = 8.0\nomega_c = 0.02\ntemperature = 1.0\n\n"
        f"[two-state]\ndelta = 0.003\neps = 0.05\ntemperature = 1.0\n{ramp}\n" + body
    )
    return str(config)


_BIAS_GRID = "[bias-grid]\nstart = -0.5\nstop = 0.5\nsteps = 3\n"


@pytest.mark.parametrize(
    "scenario, body",
    [
        ("evolve", "[evolve]\nmode = nonlocal\n\n"
                   "[time-grid]\nstart = 0.0\nstop = 40.0\nsteps = 41\n"),
        ("mrt-scan", "[mrt-scan]\nshape = gaussian\neps_p = auto\n\n" + _BIAS_GRID),
        ("mrt-scan", "[mrt-scan]\nshape = classical\n\n" + _BIAS_GRID),
        ("mrt-scan", "[mrt-scan]\nshape = nonlocal-corrected\n\n" + _BIAS_GRID),
        ("envelope", "[time-grid]\nstart = 0.0\nstop = 5.0\nsteps = 21\n"),
        ("peak", ""),
        ("mrt-scan", "[mrt-scan]\nshape = voigt\neps_p = auto\ngamma = 0.1\n\n" + _BIAS_GRID),
        ("multichannel", "[levels]\nlevel_0 = 0.0 0.003 0.0\nlevel_1 = 0.5 0.05 0.2\n\n"
                         "[multichannel]\neps_p = auto\n\n" + _BIAS_GRID),
    ],
    ids=["evolve-nonlocal", "scan-gaussian", "scan-classical", "scan-nonlocal-corrected",
         "envelope", "peak", "scan-voigt", "multichannel"],
)
def test_ohmic_scenarios_import_no_scipy(tmp_path, scenario, body):
    config = ohmic_config(tmp_path, scenario, body)
    report = run_probe(cli_body([scenario, "--config", config]))
    assert report == {"code": 0, **NO_EXTRAS}
    assert (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("ramp", ["", "eps_rate = 0.01\n"], ids=["constant", "ramped-bias"])
def test_local_evolve_imports_no_scipy(tmp_path, ramp):
    config = ohmic_config(tmp_path, "evolve", "[evolve]\nmode = local\neps_p = auto\n\n"
                          "[time-grid]\nstart = 0.0\nstop = 40.0\nsteps = 41\n", ramp)
    report = run_probe(cli_body(["evolve", "--config", config]))
    assert report == {"code": 0, **NO_EXTRAS}
    assert (tmp_path / "out.csv").exists()


def test_convolution_oracle_imports_no_integrator(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        f"[run]\nscenario = oracle\nout = {tmp_path / 'out.csv'}\n\n"
        "[oracle]\nname = convolution\nw = 1.0\ndelta = 0.001\ngamma = 0.1\neps_p = 0.4\n\n"
        + _BIAS_GRID
    )
    report = run_probe(cli_body(["oracle", "--config", str(config)]))
    assert report == {"code": 0, **NO_EXTRAS}


def test_ohmic_moments_import_no_scipy():
    body = ("from mrtkit import OhmicCutoff\n"
            "model = OhmicCutoff(eta=1.0, omega_c=1.0, temperature=0.1)\n"
            "model.noise_rms(), model.reorganization_shift(), model.tau_r()")
    assert run_probe(body)["scipy"] == []


def test_corrected_rates_reference_imports_no_scipy():
    body = ("from mrtkit import OhmicCutoff, TwoStateParams, corrected_rates_reference\n"
            "corrected_rates_reference(OhmicCutoff(eta=10.0, omega_c=1.0, temperature=0.2),\n"
            "                          TwoStateParams(0.4, 2.5, 0.2), 1.0)")
    assert run_probe(body)["scipy"] == []


def test_probe_sees_a_scipy_import():
    assert "scipy.integrate" in run_probe("import scipy.integrate")["scipy"]


def test_probe_sees_numpy_ma_loaded_by_unique():
    # np.unique checks for masked input, which imports numpy.ma on first use
    assert run_probe("import numpy as np\nnp.unique(np.array([1.0, 1.0]))")["numpy_ma"]


def test_blocked_probe_refuses_a_scipy_import():
    body = ("try:\n    import scipy.integrate\nexcept ImportError:\n    code = 'blocked'")
    assert run_probe(body, block_scipy=True) == {"code": "blocked", **NO_EXTRAS}


def test_validate_runs_without_scipy(tmp_path):
    out = tmp_path / "validation.csv"
    report = run_probe(cli_body(["validate", "--out", str(out)]), block_scipy=True)
    assert report == {"code": 1, **NO_EXTRAS}
    rows = [line.split(",") for line in out.read_text().splitlines()
            if line and line[0].isdigit()]
    assert {row[0] for row in rows} == {str(c) for c in range(1, 11)}
    # criterion 4 alone is red, by design; its sampler-check rows pass
    assert {row[0] for row in rows if row[-1] == "FAIL"} == {"4"}
    assert all(row[-1] == "PASS" for row in rows if "sampler check" in row[2])


@pytest.mark.parametrize(
    "scenario, body",
    [
        ("evolve", "[evolve]\nmode = short-time\n\n"
                   "[time-grid]\nstart = 0.0\nstop = 10.0\nsteps = 5\n"),
        ("oracle", "[oracle]\nname = refined-local\n\n"
                   "[time-grid]\nstart = 0.0\nstop = 40.0\nsteps = 21\n"),
    ],
    ids=["evolve-short-time", "oracle-refined-local"],
)
def test_ohmic_scenarios_run_without_scipy(tmp_path, scenario, body):
    config = ohmic_config(tmp_path, scenario, body, ramp="eps_rate = 0.01\n")
    report = run_probe(cli_body([scenario, "--config", config]), block_scipy=True)
    assert report == {"code": 0, **NO_EXTRAS}
    assert (tmp_path / "out.csv").exists()


def static_noise_config(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        f"[run]\nscenario = oracle\nout = {tmp_path / 'out.csv'}\nseed = 3\n\n"
        "[oracle]\nname = static-noise\nw = 1.0\ndelta = 0.01\nprobe_time = 18.0\n"
        "samples = 20000\neps = 0.0 1.0\ntolerance_rel = 0.5\n"
    )
    return str(config)


def test_static_noise_oracle_runs_without_scipy(tmp_path):
    report = run_probe(cli_body(["oracle", "--config", static_noise_config(tmp_path)]),
                       block_scipy=True)
    assert report == {"code": 0, **NO_EXTRAS}
    assert (tmp_path / "out.csv").exists()


def test_static_noise_oracle_loads_no_numpy_random(tmp_path):
    # its Monte Carlo draws 5 chunks without numpy.random, so without OpenSSL
    report = run_probe(cli_body(["oracle", "--config", static_noise_config(tmp_path)]))
    assert report == {"code": 0, **NO_EXTRAS}
    assert (tmp_path / "out.csv").exists()


def blas_env(timeout: str | None) -> dict:
    """This environment with two OpenBLAS threads and the timeout as given (None: unset)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env.update(PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="2")
    if timeout is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = timeout
    return env


@pytest.mark.parametrize("timeout, expected", [(None, "4"), ("12", "12")],
                         ids=["unset", "user-set"])
def test_import_defaults_the_openblas_thread_timeout(timeout, expected):
    script = 'import os, mrtkit\nprint(os.environ["OPENBLAS_THREAD_TIMEOUT"])'
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=blas_env(timeout), timeout=120, check=True)
    assert done.stdout.strip() == expected


# CPU seconds of every thread but the main one, after mrtkit is imported, one
# threaded matrix-vector product has run and the main thread has slept 0.3 s.
# OpenBLAS threads a gemv from 2304 x GEMM_MULTITHREAD_THRESHOLD elements:
# 9 216 by default, 460 800 in the scipy-openblas build of NumPy's wheels.
WORKER_PROBE = """\
import os, time
import mrtkit
import numpy as np
np.ones((1000, 1000)) @ np.ones(1000)
time.sleep(0.3)
ticks = 0
for task in os.listdir("/proc/self/task"):
    if int(task) != os.getpid():
        with open(f"/proc/self/task/{task}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])
print(ticks / os.sysconf("SC_CLK_TCK"))
"""


def worker_cpu_s(timeout: str | None) -> float:
    import numpy as np

    if not sys.platform.startswith("linux"):
        pytest.skip("reads per-thread CPU time from /proc")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    if "openblas" not in blas.lower():
        pytest.skip(f"NumPy's BLAS is {blas}, not OpenBLAS")
    done = subprocess.run([sys.executable, "-c", WORKER_PROBE], capture_output=True,
                          text=True, env=blas_env(timeout), timeout=120, check=True)
    return float(done.stdout)


def test_idle_blas_worker_sleeps():
    # OpenBLAS's default lets a worker busy-wait 2^28 cycles after it starts
    # and after each threaded call: 0.18-0.19 s in this probe on a 2-CPU machine
    assert worker_cpu_s(None) < 0.02


def test_probe_sees_a_spinning_worker():
    # a user's own timeout wins: 28 is OpenBLAS's default
    if sys.platform.startswith("linux") and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts no worker thread on one CPU")
    assert worker_cpu_s("28") > 0.02


# (module, top-level function or None for anywhere in the module) that may import SciPy
SCIPY_SITES: set[tuple[str, str | None]] = set()


def scipy_imports(tree: ast.Module) -> list[tuple[str | None, int]]:
    """(enclosing top-level function or None, line) of every SciPy import."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""] if child.level == 0 else []
            else:
                names = []
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                found.append((owner, child.lineno))
            top = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, child.name if owner is None and top else owner)

    visit(tree, None)
    return found


def test_scipy_is_imported_only_at_known_sites():
    stray = []
    for path in sorted(Path(SRC, "mrtkit").glob("*.py")):
        for owner, line in scipy_imports(ast.parse(path.read_text(), str(path))):
            if (path.stem, None) not in SCIPY_SITES and (path.stem, owner) not in SCIPY_SITES:
                stray.append(f"{path.name}:{line} ({owner or 'module level'})")
    assert stray == []


def test_static_check_sees_a_scipy_import():
    tree = ast.parse("import numpy\ndef f():\n    from scipy.special import wofz\n")
    assert scipy_imports(tree) == [("f", 3)]


def numpy_random_references(tree: ast.Module) -> list[int]:
    """Lines that import ``numpy.random`` or read ``np.random``/``numpy.random``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.random") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = node.level == 0 and (
                module.startswith("numpy.random")
                or module == "numpy" and any(a.name == "random" for a in node.names))
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "random"
                   and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
        if hit:
            found.append(node.lineno)
    return sorted(found)


def test_no_module_refers_to_numpy_random():
    stray = [f"{path.name}:{line}"
             for path in sorted(Path(SRC, "mrtkit").glob("*.py"))
             for line in numpy_random_references(ast.parse(path.read_text(), str(path)))]
    assert stray == []


def test_static_check_sees_numpy_random():
    tree = ast.parse("import numpy as np\nimport numpy.random\nfrom numpy import random\n"
                     "from numpy.random import Philox\nnp.random.default_rng\n"
                     "numpy.random.Generator\nnp.randomize\nrng.random()\n")
    assert numpy_random_references(tree) == [2, 3, 4, 5, 6]


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """module.name of each private top-level function or class the package never refers to.

    A reference is a name read in the defining module, a relative
    ``from .module import name``, or an attribute ``<anything>.name``.
    """
    defined, referenced = [], set()
    for module, text in sources.items():
        tree = ast.parse(text, module)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add((module, node.id))
            elif isinstance(node, ast.Attribute):
                referenced.add((None, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                referenced.update((node.module, alias.name) for alias in node.names)
    return sorted(f"{module}.{name}" for module, name in defined
                  if (module, name) not in referenced and (None, name) not in referenced)


def test_package_uses_its_private_functions():
    # a private helper that only the tests call is dead code in the package
    sources = {path.stem: path.read_text() for path in Path(SRC, "mrtkit").glob("*.py")}
    assert unreferenced_private(sources) == []


def test_static_check_sees_an_unreferenced_private_function():
    sources = {
        "a": "def _local():\n    pass\n\ndef _unused():\n    pass\n\nclass _Imported:\n"
             "    pass\n\ndef _read():\n    pass\n\n_local()\n",
        "b": "from .a import _Imported\nfrom . import a\na._read()\n\ndef _orphan():\n    pass\n",
    }
    assert unreferenced_private(sources) == ["a._unused", "b._orphan"]


def relative_imports(sources: dict[str, str]) -> dict[str, set[str]]:
    """Module -> the package modules it imports relatively, anywhere in its source.

    Imports under ``if TYPE_CHECKING:`` count too: a cycle hidden from the
    interpreter is still a cycle between the modules.  ``from . import x``
    names the module ``x`` if there is one, else the package's ``__init__``.
    """
    graph = {}
    for module, text in sources.items():
        targets = set()
        for node in ast.walk(ast.parse(text, module)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    targets.add(node.module.split(".")[0])
                else:
                    targets.update(a.name if a.name in sources else "__init__"
                                   for a in node.names)
        graph[module] = targets - {module}
    return graph


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of the graph as a path [a, ..., a], or [] if it is acyclic."""
    state = {}

    def visit(node, path):
        state[node] = "open"
        for target in sorted(graph.get(node, ())):
            if state.get(target) == "open":
                return path[path.index(target):] + [target]
            if target not in state:
                found = visit(target, path + [target])
                if found:
                    return found
        state[node] = "done"
        return []

    for start in sorted(graph):
        if start not in state:
            found = visit(start, [start])
            if found:
                return found
    return []


def test_relative_imports_are_acyclic():
    sources = {path.stem: path.read_text() for path in Path(SRC, "mrtkit").glob("*.py")}
    graph = relative_imports(sources)
    assert "quadrature" in graph["spectral"] and "spectral" in graph["coherence"]
    assert import_cycle(graph) == []


def test_cycle_check_sees_a_type_checking_import():
    sources = {
        "a": "from .b import f\n",
        "b": "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from .a import g\n",
        "c": "from . import a, __version__\n",
    }
    graph = relative_imports(sources)
    assert graph == {"a": {"b"}, "b": {"a"}, "c": {"a", "__init__"}}
    assert import_cycle(graph) == ["a", "b", "a"]


# the layers whose ``__all__`` names a tracer wraps one by one with getattr
TRACED_LAYERS = ("spectral", "coherence", "rates", "dynamics", "oracle", "validation", "cli")


@pytest.mark.parametrize("name", ["mrtkit", *(f"mrtkit.{layer}" for layer in TRACED_LAYERS)])
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    assert [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)] == []
    exec(f"from {name} import *", {})


def test_package_exports_are_listed_by_their_layer():
    # the package has no __all__ of its own: what it re-exports from a traced
    # layer must be in that layer's __all__
    unlisted = []
    for name in dir(mrtkit):
        owner = getattr(getattr(mrtkit, name), "__module__", None) or ""
        layer = owner.removeprefix("mrtkit.")
        if layer in TRACED_LAYERS and name not in importlib.import_module(owner).__all__:
            unlisted.append(f"{owner}.{name}")
    assert unlisted == []
