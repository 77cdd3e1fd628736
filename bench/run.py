"""Fresh-process benchmark of the mrtkit CLI.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Every invocation is a new
``python -m mrtkit.cli ...`` process started in ``src/`` with ``PYTHONPATH``
pointing there (nothing is installed), by one client in a sequential closed
loop.  A pass runs every invocation of the workload once; passes repeat for
``--seconds``.  Outputs are checked after each pass, outside the timed span.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced passes with passes run through ``bench/trace_child.py`` and reports
the per-layer metrics.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import marshal
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

REFERENCE_SEED = 0
REFERENCE = os.path.join(BENCH, "reference.json")
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# -X importtime is for the traced child only: its cost belongs to trace.overhead_s
TRACED = [sys.executable, "-X", "importtime", os.path.join(BENCH, "trace_child.py")]


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


@dataclass
class Pass:
    wall: float
    children: list

    @property
    def cpu(self) -> float:
        return sum(c.cpu for c in self.children)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.children)


def child_env() -> dict[str, str]:
    threads = str(len(os.sched_getaffinity(0)))
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": SRC,
           "PYTHONHASHSEED": "0", "PYTHONNOUSERSITE": "1"}
    env.update({name: threads for name in THREAD_VARS})
    return env


def spawn(cmd: list[str], env: dict[str, str], log: str) -> Child:
    """Run one process from src/; wall time from spawn to exit, with rusage."""
    with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=SRC, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log + ".out", errors="replace") as out, open(log + ".err", errors="replace") as err:
        return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     proc.returncode, out.read(), err.read())


def run_pass(invocations, env, workdir, traced=False) -> Pass:
    commands = []
    for index, inv in enumerate(invocations):
        spans = os.path.join(workdir, f"{index}.spans")
        for stale in (inv.out, spans):
            if os.path.exists(stale):
                os.remove(stale)
        if traced:
            commands.append([*TRACED, spans, str(index), *inv.argv])
        else:
            commands.append([sys.executable, "-m", "mrtkit.cli", *inv.argv])
    logs = [os.path.join(workdir, f"{index}.log") for index in range(len(commands))]
    start = time.perf_counter()
    children = [spawn(cmd, env, log) for cmd, log in zip(commands, logs)]
    return Pass(time.perf_counter() - start, children)


def check_pass(invocations, result: Pass, reference, compare_untraced=False) -> list[str]:
    """One message per failed invocation."""
    failures = []
    for inv, child in zip(invocations, result.children):
        try:
            errors = checks.check(inv, child.code, child.stdout,
                                  None if reference is None else reference[inv.name])
        except (KeyError, ValueError, IndexError, ZeroDivisionError) as err:
            errors = [f"malformed output: {err!r}"]
        if compare_untraced and os.path.exists(inv.out):
            if not filecmp.cmp(inv.out, inv.out + ".untraced", shallow=False):
                errors.append("traced output differs from untraced output")
        if errors:
            tail = child.stderr.strip().splitlines()[-1:] or [""]
            failures.append(f"{inv.name}: {'; '.join(errors)} [{tail[0]}]")
    return failures


def keep_untraced(invocations) -> None:
    for inv in invocations:
        if os.path.exists(inv.out):
            shutil.copyfile(inv.out, inv.out + ".untraced")


def tail_stat(values) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, pct, beyond).

    Below 21 samples no percentile above the median has ten samples beyond
    it, and the (lower) median is reported instead.
    """
    ordered = sorted(values)
    index = max(len(ordered) - 11, (len(ordered) - 1) // 2)
    pct = 100.0 * index / (len(ordered) - 1) if len(ordered) > 1 else 0.0
    return ordered[index], pct, len(ordered) - 1 - index


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit, dirty = None, None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*args):
            return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                                  text=True).stdout.strip()
        try:
            commit = git("rev-parse", "HEAD") or None
            dirty = bool(git("status", "--porcelain"))
        except OSError:
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "commit": commit, "dirty": dirty,
            "child_env": child_env()}


def timed_loop(seconds: float, step) -> None:
    """Call ``step`` while the next call would end less than half a call after
    ``seconds``, so that on average the loop measures for ``seconds``."""
    begin = time.perf_counter()
    durations = []
    while True:
        started = time.perf_counter()
        step()
        durations.append(time.perf_counter() - started)
        if time.perf_counter() - begin + 0.5 * statistics.median(durations) > seconds:
            return


def end_to_end(invocations, env, workdir, seconds, reference):
    setups = []
    for index in range(SETUP_REPEATS):
        child = spawn([sys.executable, "-c", "import mrtkit.cli"], env,
                      os.path.join(workdir, f"setup{index}"))
        if child.code != 0:
            raise RuntimeError(f"import mrtkit.cli failed: {child.stderr.strip()}")
        setups.append(child.wall)
    passes, failures = [], []

    def step():
        passes.append(run_pass(invocations, env, workdir))
        failures.extend(check_pass(invocations, passes[-1], reference))

    timed_loop(seconds, step)
    walls = [p.wall for p in passes]
    tail, pct, beyond = tail_stat(walls)
    n = len(passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {SETUP_REPEATS} fresh imports"),
        "run_s": (statistics.median(walls), "s", f"median of {n} passes"),
        "run_tail_s": (tail, "s", f"p{pct:.0f} of {n} passes, {beyond} beyond it"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s", "median user+sys per pass"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB",
                        "median over passes of the largest child ru_maxrss"),
    }
    return metrics, n * len(invocations), failures


def load_spans(path: str) -> dict:
    # a child killed before writing its spans has already failed its checks
    try:
        with open(path, "rb") as handle:
            return marshal.load(handle)
    except (OSError, EOFError, ValueError):
        return {"spans": [], "counters": {}}


def per_layer(invocations, env, workdir, seconds, reference):
    plain, traced, layer_rows, failures = [], [], [], []

    def step():
        plain.append(run_pass(invocations, env, workdir))
        failures.extend(check_pass(invocations, plain[-1], reference))
        keep_untraced(invocations)
        traced.append(run_pass(invocations, env, workdir, traced=True))
        failures.extend(check_pass(invocations, traced[-1], reference, compare_untraced=True))
        layer_rows.append(layers.pass_metrics([
            {**load_spans(os.path.join(workdir, f"{i}.spans")),
             "importtime": child.stderr.splitlines(), "wall": child.wall}
            for i, child in enumerate(traced[-1].children)
        ]))

    timed_loop(seconds, step)
    metrics = {}
    for name in layers.metric_names():
        metrics[name] = (statistics.median(row[name] for row in layer_rows),
                         layers.unit(name), f"median of {len(traced)} traced passes")
    overhead = (statistics.median(p.wall for p in traced)
                - statistics.median(p.wall for p in plain))
    metrics["trace.overhead_s"] = (overhead, "s", "traced minus untraced median pass")
    return metrics, 2 * len(traced) * len(invocations), failures


def load_reference(workload: str, seed: int):
    if seed != REFERENCE_SEED:
        return None
    with open(REFERENCE) as handle:
        stored = json.load(handle)
    return {key.split("/", 1)[1]: entry for key, entry in stored.items()
            if key.startswith(workload + "/")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mrtkit", "cli.py")):
        print(f"no mrtkit sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    env = child_env()
    print("# env " + json.dumps(environment(), sort_keys=True))
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        invocations = workloads.build(args.workload, args.seed, workdir)
        reference = load_reference(args.workload, args.seed)
        # untimed warm-up: byte-code caches exist before anything is timed
        spawn([sys.executable, "-m", "mrtkit.cli", *invocations[0].argv], env,
              os.path.join(workdir, "warmup"))
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failures = measure(invocations, env, workdir, args.seconds,
                                               reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} invocations, {len(failures)} failed")
    for name, (value, unit, how) in metrics.items():
        print(f"{name:40s} {value:>14.6g} {unit:6s} {how}")
    if not args.trace:
        print(f"{'failed_frac':40s} {len(failures) / attempted:>14.6g} {'1':6s} "
              f"{len(failures)} of {attempted} invocations")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
