"""fslab benchmark: four closed-loop workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload picard --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Each workload runs in one process on one thread with one client: an op starts
when the previous one ends.  With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it wraps each layer's public functions (see tracer.py)
and reports per-layer metrics instead.  Every op's output is checked.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
Everything the run leaves behind goes to perfbench/out/.
"""

from __future__ import annotations

import os
import sys

# Single-threaded by construction: BLAS pools are pinned before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import tempfile
import time

import gauge

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("picard", "solve_cli", "estimates", "dispersive")
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
SETUP_PROBES = 4
# A run measures at least MIN_SAMPLES ops, so the tail percentile has at
# least ten samples beyond it.
MIN_SAMPLES = 50
TAIL_PERCENTILE = 80
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    f"latency_p{TAIL_PERCENTILE}_s": "s",
    "peak_rss_mib": "MiB",
}
PROBE_TIMEOUT_S = 150


def _import_program():
    """Import fslab from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "fslab", "__init__.py")):
        raise SystemExit(f"perfbench: no fslab sources under {SRC}")
    sys.path.insert(0, SRC)
    import fslab

    if not os.path.abspath(fslab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: fslab imported from {fslab.__file__}, not {SRC}")
    import workloads

    return workloads


def _percentile(values: list, q: int) -> float:
    """The q-th percentile, interpolated between the closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Outcome:
    """Failures of the checked ops of one run."""

    def __init__(self, workloads, ops, references):
        self.workloads, self.ops, self.references = workloads, ops, references
        self.attempted = 0
        self.problems = []

    def run_op(self, index: int, timer=None) -> tuple:
        """Run op `index`; returns (latency_s, output record or None)."""
        op = self.ops[index]
        self.attempted += 1
        start = time.perf_counter()
        try:
            with timer(self.attempted) if timer else contextlib.nullcontext():
                raw = op.run()
        except Exception as exc:  # a failed op counts against error_rate; the run goes on
            self.problems.append(f"{op.label}: raised {exc!r}")
            return time.perf_counter() - start, None
        latency = time.perf_counter() - start
        record = op.record(raw)
        ref = self.references[index] if self.references else None
        problem = self.workloads.check_op(op, record, ref)
        if problem is not None:
            self.problems.append(f"{op.label}: {problem}")
        return latency, record


def _run_cycle(outcome: Outcome, timeline, kind: str, timer=None) -> list:
    """Run every op of the cycle once; returns the output records."""
    records = []
    for index in range(len(outcome.ops)):
        latency, record = outcome.run_op(index, timer)
        timeline.add(kind, latency)
        records.append(record)
    return records


def _setup_probe(workload: str, seed: int) -> tuple:
    """Set-up time of a fresh process, wall-clock and in reference seconds.

    The wall time runs from the start of the process to ready-for-the-first-
    timed-op.  The speed around it is the median of the kernel timings the
    probe takes after it is ready and of one timing here before and after.
    """
    before = gauge.calibration_kernel()
    started = time.time()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    report = json.loads(stdout.strip().splitlines()[-1])
    wall = report["ready"] - started
    kernel = report["kernel_s"] + [before, gauge.calibration_kernel()]
    return wall, gauge.reference_time(wall, kernel)


def _setup(workloads, workload: str, seed: int, workdir: str):
    ops = workloads.WORKLOADS[workload](seed, workdir)
    outcome = Outcome(workloads, ops, workloads.load_references(workload, seed))
    outcome.run_op(0)  # the untimed cold op
    return outcome


def _probe_setup(args) -> int:
    workloads = _import_program()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        outcome = _setup(workloads, args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ready = time.time()
    if outcome.problems:
        print("\n".join(outcome.problems), file=sys.stderr)
        return 1
    kernel = [gauge.calibration_kernel() for _ in range(3)]
    print(json.dumps({"ready": ready, "kernel_s": kernel}))
    return 0


def _end_to_end(outcome: Outcome, seconds: float, probe) -> dict:
    """Whole cycles until `seconds` of ops and MIN_SAMPLES ops are done.

    The set-up probes run between cycles (their time is not counted), so the
    median of set-up times samples the machine's state across the whole run.
    """
    timeline, setups = gauge.Timeline(), [probe()]
    measured, cycles = 0.0, 0
    while measured < seconds or len(timeline.wall("op")) < MIN_SAMPLES:
        cycle_start = time.perf_counter()
        _run_cycle(outcome, timeline, "op")
        measured += time.perf_counter() - cycle_start
        cycles += 1
        if len(setups) < SETUP_PROBES:
            setups.append(probe())
    while len(setups) < SETUP_PROBES:
        setups.append(probe())

    def summary(latencies: list) -> dict:
        return {
            "ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            f"latency_p{TAIL_PERCENTILE}_s": _percentile(latencies, TAIL_PERCENTILE),
        }

    latencies = timeline.reference("op")
    tail = _percentile(latencies, TAIL_PERCENTILE)
    return {
        "metrics": {"setup_s": statistics.median(ref for _, ref in setups),
                    **summary(latencies)},
        "wall_clock_metrics": {"setup_s": statistics.median(wall for wall, _ in setups),
                               **summary(timeline.wall("op"))},
        "samples": len(latencies),
        "samples_beyond_tail": sum(1 for x in latencies if x > tail),
        "cycles": cycles,
        "measured_s": measured,
        "latencies_s": latencies,
        "wall_latencies_s": timeline.wall("op"),
        "setup_samples_s": [ref for _, ref in setups],
        "wall_setup_samples_s": [wall for wall, _ in setups],
        "calibration_s": timeline.calibration,
    }


def _traced(outcome: Outcome, seconds: float, workload: str, spans_path: str) -> dict:
    """Alternate untraced and traced passes over the cycle until `seconds` pass."""
    import tracer as tracing

    tracer = tracing.Tracer()
    timeline = gauge.Timeline()
    identical, repeat_counts, pass_counts = True, True, None
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        plain_records = _run_cycle(outcome, timeline, "plain")
        first_span = len(tracer.spans)
        with tracer:
            traced_records = _run_cycle(outcome, timeline, "traced", timer=tracer.op)
        identical &= json.dumps(plain_records) == json.dumps(traced_records)
        counts = tracing.call_counts(tracer.spans[first_span:])
        repeat_counts &= pass_counts is None or counts == pass_counts
        pass_counts = counts
    tracer.write(spans_path)
    metrics = tracing.summarize(tracer)
    plain, traced = timeline.reference("plain"), timeline.reference("traced")
    plain_rate, traced_rate = len(plain) / sum(plain), len(traced) / sum(traced)
    metrics["trace.ops_per_s_delta"] = traced_rate - plain_rate
    metrics["trace.overhead_share"] = 1.0 - traced_rate / plain_rate
    shapes = tracing.shape_checks(workload, metrics)
    return {
        "metrics": metrics,
        "units": tracing.per_layer_metric_units(),
        "traced_passes": len(traced) // len(outcome.ops),
        "outputs_identical_under_tracing": identical,
        "calls_repeat_across_passes": repeat_counts,
        "group_self_shares": tracing.group_totals(metrics),
        "shape_checks": [{"claim": c, "measured": m, "passed": bool(p)} for c, m, p in shapes],
        "spans_file": os.path.relpath(spans_path, ROOT),
    }


def _run_workload(args) -> int:
    started = time.perf_counter()
    workloads = _import_program()
    import provenance

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        outcome = _setup(workloads, args.workload, args.seed, workdir)
        ready_s = time.perf_counter() - started
        if args.trace:
            result = _traced(outcome, args.seconds, args.workload,
                             os.path.join(OUT, f"spans-{stem}.json"))
            units = result.pop("units")
        else:
            result = _end_to_end(outcome, args.seconds,
                                 lambda: _setup_probe(args.workload, args.seed))
            result["metrics"]["peak_rss_mib"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(outcome.problems)
    correct = failed == 0 and result.get("outputs_identical_under_tracing", True) \
        and result.get("calls_repeat_across_passes", True)
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run": {
            "run_seconds": args.seconds,
            "ops_per_cycle": len(outcome.ops),
            "reference_checked": outcome.references is not None,
            "tail_percentile": TAIL_PERCENTILE,
            "main_process_ready_s": ready_s,
            **{k: v for k, v in result.items() if k != "metrics"},
        },
        "error_rate": failed / outcome.attempted,
        "problems": outcome.problems,
        "provenance": provenance.collect(ROOT),
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    _print_table(args.workload, metrics, failed, outcome.attempted)
    for line in outcome.problems[:20]:
        print(f"FAILED {line}")
    for name, value in result.get("wall_clock_metrics", {}).items():
        print(f"{args.workload:<11} {'wall ' + name:<48} {value:>14.6g} {units[name]}")
    for shape in result.get("shape_checks", []):
        print(f"shape {'PASS' if shape['passed'] else 'FAIL'}: {shape['claim']} "
              f"(measured {shape['measured']:.4g})")
    run = detail["run"]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "provenance": detail["provenance"],
                      "run": {k: v for k, v in run.items() if not isinstance(v, list)}}))
    print(json.dumps({"correct": bool(correct), "attempted": outcome.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _print_table(label: str, metrics: dict, failed: int, attempted: int) -> None:
    for name, m in metrics.items():
        print(f"{label:<11} {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"{label:<11} {'error_rate':<48} {failed / attempted:>14.6g} fraction "
          f"({failed}/{attempted})")


def _run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"perfbench: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        _print_table(workload, result["metrics"], result["failed"], result["attempted"])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        return _probe_setup(args)
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
