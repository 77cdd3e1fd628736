"""Traced CLI child: ``python trace_child.py <spans-file> <invocation-id> <cli args...>``.

Imports ``mrtkit.cli`` inside an ``import`` span, wraps the public functions
of every mrtkit layer in each module namespace that binds them, calls
``cli.main(argv)`` and exits with its status.  Spans (name, start, end,
parent index, invocation id) stay in memory and are written with ``marshal``
at exit, together with the counters, for ``bench/layers.py`` to aggregate.

A wrapper only times the call and forwards arguments and results
unchanged, so traced output is byte-identical to untraced output.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import marshal
import os
import sys
import time

import layers

# Layers whose public functions (``__all__``) are wrapped, plus names that
# the metrics need but ``__all__`` does not list.
LAYERS = ("spectral", "coherence", "rates", "dynamics", "oracle", "validation", "cli")
EXTRA = {"cli": ("main", "write_csv"), "validation": ("check_determinism",)}
# Point evaluators called once per quadrature node (about 10^5 times in a
# tabulated run) are counted, not spanned: a span each would dominate the
# time it measures.
COUNTED = ("spectral.eval_spectral_density",)


class Tracer:
    def __init__(self, invocation: int):
        self.invocation = invocation
        self.spans: list = []
        self.stack: list[int] = []
        self.counters = dict.fromkeys(layers.COUNTERS, 0)

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, self.invocation])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name, label=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(label(args, kwargs) if label else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, kwargs)
            return result
        return wrapper

    def wrap_counted(self, fn, name):
        counters, key = self.counters, f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)
        return counted

    def wrap_quad(self, quad):
        counters = self.counters

        @functools.wraps(quad)
        def counted_quad(func, *args, **kwargs):
            counters["quad.calls"] += 1

            def integrand(*x):
                counters["quad.evals"] += 1
                return func(*x)

            return quad(integrand, *args, **kwargs)
        return counted_quad

    def _after_write_csv(self, args, kwargs):
        path = args[0] if args else kwargs["path"]
        columns = args[3] if len(args) > 3 else kwargs["columns"]
        self.counters["cli.csv_rows"] += len(columns[0][1])
        self.counters["cli.csv_bytes"] += os.path.getsize(path)

    def _after_evolve_nonlocal(self, args, kwargs):
        grid = args[3] if len(args) > 3 else kwargs["t_grid"]
        self.counters["dynamics.evolve_nonlocal.steps"] += len(grid)

    def install(self) -> None:
        """Replace every binding of a wrapped function in every mrtkit module."""
        package = [m for n, m in list(sys.modules.items())
                   if n == "mrtkit" or n.startswith("mrtkit.")]
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"mrtkit.{layer}"]
            names = [*getattr(module, "__all__", ()), *EXTRA.get(layer, ())]
            for name in names:
                fn = getattr(module, name)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                label = f"{layer}.{name}"
                if label in COUNTED:
                    replacements[id(fn)] = self.wrap_counted(fn, label)
                else:
                    replacements[id(fn)] = self.wrap(fn, label, **self._hooks(layer, name))
        quad = importlib.import_module("scipy.integrate").quad
        replacements[id(quad)] = self.wrap_quad(quad)
        for module in package:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])

    def _hooks(self, layer: str, name: str) -> dict:
        if (layer, name) == ("cli", "write_csv"):
            return {"after": self._after_write_csv}
        if (layer, name) == ("dynamics", "evolve_nonlocal"):
            return {"after": self._after_evolve_nonlocal}
        if (layer, name) == ("validation", "run_criterion"):
            return {"label": lambda args, kwargs:
                    f"validation.run_criterion[{args[0] if args else kwargs['criterion']:02d}]"}
        return {}

    def dump(self, path: str) -> None:
        with open(path, "wb") as handle:
            marshal.dump({"spans": [tuple(s) for s in self.spans],
                          "counters": self.counters}, handle)


def main() -> int:
    spans_path, invocation, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer(invocation)
    code = 1
    try:
        index = tracer.open("import")
        cli = importlib.import_module("mrtkit.cli")
        tracer.close(index)
        tracer.install()
        code = cli.main(argv)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
