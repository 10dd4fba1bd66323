"""Regenerate ``perfbench/reference.json`` from the current program.

    python3 perfbench/make_reference.py

Runs one untraced pass of every variant of every workload and stores,
per operation, the sha256 of its stdout and its parsed values.  Writes
nothing if any invariant fails.  Regenerate only when a change is meant
to alter computed values, and say so where the change is described.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import run, workloads  # noqa: E402


def main() -> int:
    env = run.child_env()
    jobs = min(2, os.cpu_count() or 1)
    workdir = run.RESULTS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    table = {}
    failures = []
    try:
        run.warm_up(env, workdir)
        for workload in workloads.WORKLOADS:
            table[workload] = {}
            for variant in range(workloads.VARIANTS):
                ops = workloads.operations(workload, variant, jobs)
                record = run.run_pass(ops, env, workdir, None)
                table[workload][str(variant)] = {
                    op["op"]: {"sha256": op["sha256"], "values": op["values"]}
                    for op in record["ops"]
                }
                for op in record["ops"]:
                    failures += [f"{workload}/{variant}/{op['op']}: {f}" for f in op["failures"]]
                print(f"{workload} variant {variant}: {record['wall']:.2f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    workloads.REFERENCE_PATH.write_text(json.dumps(
        {"variants": workloads.VARIANTS, "workloads": table}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
