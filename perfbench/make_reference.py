"""Regenerate perfbench/reference/<workload>.json: one cycle of op outputs per seed.

    python3 perfbench/make_reference.py [workload ...]

Run it only at a commit whose outputs are the accepted ones: afterwards every
benchmark run on a stored seed compares each op against these records.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run

# The default seed, the held-out seed and the seeds 1-9 a ten-seed run uses.
REFERENCE_SEEDS = tuple(range(10)) + (run.HELD_OUT_SEED,)


def cycle_records(workloads, workload: str, seed: int) -> list:
    workdir = tempfile.mkdtemp(prefix="reference-", dir=run.OUT)
    try:
        records = []
        for op in workloads.WORKLOADS[workload](seed, workdir):
            record = op.record(op.run())
            problem = op.check(record)
            if problem is not None:
                raise RuntimeError(f"{op.label}: {problem}")
            records.append(record)
        return records
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(names) -> int:
    workloads = run._import_program()
    os.makedirs(run.OUT, exist_ok=True)
    for workload in names or run.WORKLOAD_NAMES:
        doc = {"workload": workload,
               "seeds": {str(seed): cycle_records(workloads, workload, seed)
                         for seed in REFERENCE_SEEDS}}
        with open(workloads.reference_path(workload), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=None, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {workloads.reference_path(workload)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
