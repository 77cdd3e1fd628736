"""Regenerate ``bench/reference.json`` from the program in ``src/``.

    python3 bench/make_reference.py

Runs one untraced pass of every workload at the reference seed, requires
every output check to pass, and stores each invocation's output (long
outputs subsampled, see ``checks.sample``).  Runs at the reference seed then
compare against these outputs at the tolerances in ``checks.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import checks
import run
import workloads


def main() -> int:
    env = run.child_env()
    os.makedirs(run.WORK, exist_ok=True)
    reference = {}
    for workload in workloads.WORKLOADS:
        workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=run.WORK)
        try:
            invocations = workloads.build(workload, run.REFERENCE_SEED, workdir)
            failures = run.check_pass(invocations, run.run_pass(invocations, env, workdir), None)
            if failures:
                print("\n".join(failures), file=sys.stderr)
                return 1
            reference[workload] = {}
            for inv in invocations:
                rows = checks.read_csv(inv.out)[3] if os.path.exists(inv.out) else []
                reference[workload][inv.name] = {"rows": len(rows),
                                                 "cells": checks.reference_cells(inv, rows)}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    # one invocation per line keeps the file small and its diffs readable
    lines = [f"  {json.dumps(f'{w}/{name}')}: {json.dumps(entry)}"
             for w, entries in reference.items() for name, entry in entries.items()]
    with open(run.REFERENCE, "w") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
