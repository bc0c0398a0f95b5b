"""Alternating-subprocess A/B harness shared by the layer benches in bench/.

A layer bench is a script that defines a worker, a function of the repeat
count that imports fslab, times its items and returns {key: [seconds, ...]},
and calls `main` with it.  Each round runs the worker in a fresh
single-threaded subprocess that imports fslab from one checkout's src/.
With --compare, the other checkout (label "parent") and this one (label
"change") alternate within every round, so that slow phases of a shared
machine fall on both.  An item's time in a round is the minimum of its
repeats, which drops the repeats that a busy machine slowed; its time per
label is the median of those minima over the rounds.  The JSON file holds
every sample (by round), the median per label, the parent/change ratio of
the medians, the checkouts' git state and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def time_call(fn, repeats: int) -> list:
    """Seconds per call of fn() over `repeats` calls, after one warm-up call."""
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


def _git(src_root: str, *args) -> str | None:
    try:
        done = subprocess.run(["git", "-C", src_root, *args], capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _run_worker(script: str, checkout: str, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    for name in THREAD_VARS:
        env[name] = "1"
    done = subprocess.run([sys.executable, script, "--worker", "--repeats", str(repeats)],
                          env=env, capture_output=True, text=True, check=True, cwd=checkout)
    return json.loads(done.stdout)


def _median(values: list) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def _provenance(checkout: str) -> dict:
    return {"path_name": os.path.basename(os.path.abspath(checkout)),
            "git_sha": _git(checkout, "rev-parse", "HEAD"),
            "uncommitted_changes": bool(_git(checkout, "status", "--porcelain", "--", "src"))}


def _machine() -> dict:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu_model": cpu, "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy_version, "threads": {name: "1" for name in THREAD_VARS}}


def main(argv, *, bench: str, description: str, script: str, worker, what: dict) -> int:
    """Command line of a layer bench: `--out FILE [--compare CHECKOUT]`.

    `script` is the bench's own file, run again with --worker in each
    subprocess; `what` describes the items and is stored with the rounds.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--compare", help="checkout whose src/ is timed as 'parent'")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(worker(args.repeats), sys.stdout)
        return 0
    if not args.out:
        parser.error("--out is required")

    script = os.path.abspath(script)
    checkouts = {"change": ROOT}
    if args.compare:
        checkouts = {"parent": args.compare, "change": ROOT}
    samples = {label: {} for label in checkouts}
    for _ in range(args.rounds):
        for label, checkout in checkouts.items():
            for key, values in _run_worker(script, checkout, args.repeats).items():
                samples[label].setdefault(key, []).append(values)

    report = {
        "bench": bench,
        "unit": "s",
        "what": dict(what, rounds=args.rounds, repeats_per_round=args.repeats),
        "machine": _machine(),
        "checkouts": {label: _provenance(path) for label, path in checkouts.items()},
        "median": {label: {key: _median([min(values) for values in rounds])
                           for key, rounds in per.items()}
                   for label, per in samples.items()},
        "samples": samples,
    }
    if "parent" in samples:
        report["speedup"] = {key: report["median"]["parent"][key] / value
                             for key, value in report["median"]["change"].items()}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    width = max(len(key) for key in report["median"]["change"])
    for key, value in report["median"]["change"].items():
        line = f"{key:<{width}}  change {value * 1e3:9.3f} ms"
        if "speedup" in report:
            line += (f"  parent {report['median']['parent'][key] * 1e3:9.3f} ms"
                     f"  speedup {report['speedup'][key]:5.2f}x")
        print(line)
    return 0
