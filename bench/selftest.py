"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Covers the self-time arithmetic on a synthetic span tree, the output checker
on corrupted outputs, and byte-identical output of traced and untraced
invocations (this last test starts real CLI processes, about 20 s).
"""

from __future__ import annotations

import filecmp
import os
import shutil
import tempfile
import unittest

import checks
import layers
import run
import workloads


def span(name, start, end, parent, invocation=0):
    return (name, start, end, parent, invocation)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        spans = [
            span("cli.main", 0.0, 10.0, -1),
            span("dynamics.evolve_nonlocal", 1.0, 4.0, 0),
            span("spectral.noise_rms", 2.0, 3.0, 1),
            span("cli.write_csv", 3.5, 6.0, 0),  # overlaps its sibling by 0.5
        ]
        self.assertEqual(layers.self_times(spans), [5.0, 2.0, 1.0, 2.5])

    def test_pass_metrics_from_synthetic_invocations(self):
        small = {
            "spans": [span("import", 0.0, 0.5, -1), span("cli.main", 0.5, 2.5, -1),
                      span("dynamics.evolve_nonlocal", 0.6, 1.6, 1),
                      span("cli.write_csv", 1.7, 2.2, 1)],
            "counters": {"dynamics.evolve_nonlocal.steps": 1000, "quad.calls": 2},
            # -X importtime prints a module after the modules it imported
            "importtime": ["import time: self [us] | cumulative | imported package",
                           "import time:        20 |     100000 |     scipy",
                           "import time:        50 |     300000 |   scipy.integrate",
                           "import time:       100 |     400000 | mrtkit"],
            "wall": 3.0,
        }
        large = {**small, "spans": [span("import", 0.0, 0.5, -1),
                                    span("cli.main", 0.5, 5.5, -1),
                                    span("dynamics.evolve_nonlocal", 0.6, 4.6, 1)],
                 "counters": {"dynamics.evolve_nonlocal.steps": 2000}}
        m = layers.pass_metrics([small, large])
        self.assertAlmostEqual(m["cli.main.self_s"], (2.0 - 1.5) + (5.0 - 4.0))
        self.assertAlmostEqual(m["dynamics.evolve_nonlocal.s"], 5.0)
        self.assertEqual(m["dynamics.evolve_nonlocal.steps"], 3000)
        self.assertAlmostEqual(m["dynamics.evolve_nonlocal.steps_per_s"], 600.0)
        self.assertAlmostEqual(m["dynamics.evolve_nonlocal.scaling_exp"], 2.0)
        self.assertAlmostEqual(m["cli.write_csv.s"], 0.5)
        self.assertEqual(m["quad.calls"], 2)
        self.assertAlmostEqual(m["import.total_s"], 0.8)
        self.assertAlmostEqual(m["import.scipy_s"], 0.6)
        self.assertAlmostEqual(m["trace.uncovered_s"], (3.0 - 2.5) + (3.0 - 5.5))

    def test_criterion_reruns_inside_criterion_10_are_not_charged_to_1_to_9(self):
        spans = [
            span("cli.main", 0.0, 10.0, -1),
            span("validation.run_criterion[06]", 0.0, 2.0, 0),
            span("validation.check_determinism", 2.0, 9.0, 0),
            span("validation.run_criterion[06]", 2.0, 4.0, 2),
            span("validation.run_criterion[06]", 4.0, 6.0, 2),
        ]
        m = layers.pass_metrics([{"spans": spans, "counters": {}, "importtime": [],
                                  "wall": 10.0}])
        self.assertEqual(m["validation.criterion_06.s"], 2.0)
        self.assertEqual(m["validation.criterion_10.s"], 7.0)
        self.assertEqual(m["validation.run_criterion.calls"], 3)

    def test_tail_is_highest_percentile_with_ten_beyond(self):
        self.assertEqual(run.tail_stat(list(range(40))), (29, 100.0 * 29 / 39, 10))
        self.assertEqual(run.tail_stat(list(range(21))), (10, 50.0, 10))
        self.assertEqual(run.tail_stat([3.0, 1.0, 2.0]), (2.0, 50.0, 1))


class Checker(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.WORK, exist_ok=True)
        self.workdir = tempfile.mkdtemp(dir=run.WORK)
        self.out = os.path.join(self.workdir, "evolve.csv")
        self.inv = workloads.Invocation("evolve-local", ("evolve",), 0, self.out, "evolve", 3)

    def tearDown(self):
        shutil.rmtree(self.workdir)

    def write(self, rows, header="t,rho00,rho11"):
        with open(self.out, "w") as handle:
            handle.write("# scenario = evolve\n" + header + "\n")
            handle.writelines(",".join(repr(x) for x in row) + "\n" for row in rows)

    def test_valid_trajectory_passes(self):
        self.write([(0.0, 1.0, 0.0), (1.0, 0.75, 0.25), (2.0, 0.5, 0.5)])
        self.assertEqual(checks.check(self.inv, 0, ""), [])

    def test_violated_trace_fails(self):
        self.write([(0.0, 1.0, 0.0), (1.0, 0.7, 0.25), (2.0, 0.5, 0.5)])
        self.assertTrue(checks.check(self.inv, 0, ""))

    def test_rho11_outside_unit_interval_fails(self):
        self.write([(0.0, 1.0, 0.0), (1.0, -0.25, 1.25), (2.0, 0.5, 0.5)])
        self.assertTrue(checks.check(self.inv, 0, ""))

    def test_short_file_fails(self):
        self.write([(0.0, 1.0, 0.0), (1.0, 0.75, 0.25)])
        self.assertTrue(checks.check(self.inv, 0, ""))

    def test_wrong_header_fails(self):
        self.write([(0.0, 1.0, 0.0)] * 3, header="t,rho11,rho00")
        self.assertTrue(checks.check(self.inv, 0, ""))

    def test_wrong_exit_code_fails(self):
        self.write([(0.0, 1.0, 0.0), (1.0, 0.75, 0.25), (2.0, 0.5, 0.5)])
        self.assertTrue(checks.check(self.inv, 3, ""))

    def test_missing_output_fails(self):
        self.assertTrue(checks.check(self.inv, 0, ""))

    def test_reference_mismatch_fails(self):
        rows = [(0.0, 1.0, 0.0), (1.0, 0.75, 0.25), (2.0, 0.5, 0.5)]
        self.write(rows)
        reference = {"rows": 3, "cells": [list(r) for r in rows]}
        self.assertEqual(checks.check(self.inv, 0, "", reference), [])
        reference["cells"][1] = [1.0, 0.75 - 1e-9, 0.25 + 1e-9]
        self.assertTrue(checks.check(self.inv, 0, "", reference))

    def test_validate_needs_criterion_4_alone_red(self):
        inv = workloads.Invocation("validate", ("validate",), 1, self.out, "validate", 0)
        header = "criterion,name,metric,value,cmp,bound,status"

        def report(red):
            with open(self.out, "w") as handle:
                handle.write("# seed = 1\n" + header + "\n")
                for cid in range(1, 11):
                    status = "FAIL" if cid in red else "PASS"
                    handle.write(f"{cid},c{cid},m,0.0,<=,1.0,{status}\n")
            return "".join(f"criterion {cid:02d} [{'FAIL' if cid in red else 'PASS'}] c\n"
                           for cid in range(1, 11))

        self.assertEqual(checks.check(inv, 1, report({4})), [])
        self.assertTrue(checks.check(inv, 1, report({4, 6})))
        self.assertTrue(checks.check(inv, 1, report(set())))
        self.assertTrue(checks.check(inv, 0, report({4})))


class TracedOutput(unittest.TestCase):
    def test_traced_and_untraced_outputs_are_byte_identical(self):
        os.makedirs(run.WORK, exist_ok=True)
        workdir = tempfile.mkdtemp(dir=run.WORK)
        try:
            invocations = [inv for inv in workloads.build("cli-batch", 0, workdir)
                           if inv.check != "config-error"]
            invocations.append(workloads.build("tabulated-spectrum", 0, workdir)[1])
            env = run.child_env()
            plain = run.run_pass(invocations, env, workdir)
            self.assertEqual(run.check_pass(invocations, plain, None), [])
            run.keep_untraced(invocations)
            traced = run.run_pass(invocations, env, workdir, traced=True)
            self.assertEqual(run.check_pass(invocations, traced, None), [])
            for inv in invocations:
                self.assertTrue(filecmp.cmp(inv.out, inv.out + ".untraced", shallow=False),
                                inv.name)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
