"""Tests of the benchmark itself: reference gate, tracer and output contract.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import fslab
import gauge
import run
import tracer as tracing
import workloads
from fslab import lp, norms, solver, spectral

ROOT = run.ROOT
RUN_PY = os.path.join(run.HERE, "run.py")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600, check=False)
    return proc


# ---------------------------------------------------------------------------
# reference gate

@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_stored_references_pass_their_own_checks(workload, tmp_path):
    ops = workloads.WORKLOADS[workload](run.DEFAULT_SEED, str(tmp_path))
    for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
        refs = workloads.load_references(workload, seed)
        assert refs is not None and len(refs) == len(ops)
        for op, ref in zip(ops, refs):
            assert op.check(ref) is None
            assert workloads.compare_to_reference(copy.deepcopy(ref), ref) is None


def _bumped(record, path, delta):
    """Copy of `record` with `delta` added to the field at `path`."""
    rec = copy.deepcopy(record)
    node = rec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += delta
    return rec


def _field(record, path):
    for key in path:
        record = record[key]
    return record


@pytest.mark.parametrize("workload,path", [
    ("picard", ("digest", "l2")),
    ("picard", ("digest", "max_abs")),
    ("picard", ("apriori_ratio",)),
    ("solve_cli", ("diff_fsigma", 0)),
    ("estimates", ("cstar",)),
    ("estimates", ("items", "worst_ratio", 1)),
    ("dispersive", ("peak",)),
])
def test_perturbed_reference_is_flagged(workload, path):
    ref = workloads.load_references(workload, run.DEFAULT_SEED)[0]
    value = _field(ref, path)
    assert workloads.compare_to_reference(_bumped(ref, path, 1e-9 * value), ref) is not None
    assert workloads.compare_to_reference(_bumped(ref, path, 1e-14 * value), ref) is None


def test_iteration_count_and_small_differences_are_compared():
    ref = workloads.load_references("picard", run.DEFAULT_SEED)[0]
    assert workloads.compare_to_reference(_bumped(ref, ("iterations",), 1), ref) is not None
    # the last successive difference is ~1e-11 of the first; it is compared at
    # the scale of the first one
    first, last = ref["diff_linf_l2"][0], len(ref["diff_linf_l2"]) - 1
    bumped = _bumped(ref, ("diff_linf_l2", last), 1e-9 * first)
    assert workloads.compare_to_reference(bumped, ref) is not None
    bumped = _bumped(ref, ("diff_linf_l2", last), 1e-14 * first)
    assert workloads.compare_to_reference(bumped, ref) is None


def test_missing_field_is_flagged():
    ref = workloads.load_references("picard", run.DEFAULT_SEED)[0]
    rec = copy.deepcopy(ref)
    del rec["digest"]["max_abs"]
    assert workloads.compare_to_reference(rec, ref) is not None


# ---------------------------------------------------------------------------
# tracer

def _originals():
    import numpy.fft as npfft

    return {
        "solver.f_sigma_norm": (solver, "f_sigma_norm", norms.f_sigma_norm),
        "norms.cone_cutoff_values": (norms, "cone_cutoff_values", lp.cone_cutoff_values),
        "spectral.cumulative_simpson": (spectral, "cumulative_simpson",
                                        spectral.cumulative_simpson),
        "fslab.free_evolution": (fslab, "free_evolution", spectral.free_evolution),
        "ConeAtlas.multiplier": (lp.ConeAtlas, "multiplier", lp.ConeAtlas.multiplier),
        "numpy.fft.fftn": (npfft, "fftn", npfft.fftn),
        "numpy.fft.ifftshift": (npfft, "ifftshift", npfft.ifftshift),
    }


def test_tracer_patches_every_holder_and_restores_originals():
    originals = _originals()
    with tracing.Tracer():
        for holder, attr, original in originals.values():
            patched = vars(holder)[attr]
            assert patched is not original
            assert patched.__wrapped__ is original
    for holder, attr, original in originals.values():
        assert vars(holder)[attr] is original


def test_tracer_restores_originals_after_an_exception():
    originals = _originals()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            1 / 0
    for holder, attr, original in originals.values():
        assert vars(holder)[attr] is original


def _small_ops(tmp_path):
    """Cheap ops that touch every layer: the two cheapest of each workload."""
    ops = []
    for name in run.WORKLOAD_NAMES:
        built = workloads.WORKLOADS[name](run.DEFAULT_SEED, str(tmp_path / name))
        ops += built[:1] if name != "dispersive" else built[:2]
    return ops


def _run_ops(ops, tracer=None):
    records = []
    for i, op in enumerate(ops):
        if tracer is None:
            raw = op.run()
        else:
            with tracer.op(i):
                raw = op.run()
        records.append(op.record(raw))
    return records


def test_outputs_are_bit_identical_under_tracing_and_counts_repeat(tmp_path):
    (tmp_path / "solve_cli").mkdir()
    ops = _small_ops(tmp_path)
    plain = _run_ops(ops)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer:
            traced = _run_ops(ops, tracer)
        assert json.dumps(traced) == json.dumps(plain)
        counts.append(tracing.call_counts(tracer.spans))
    assert counts[0] == counts[1]
    assert counts[0]["op"] == len(ops)
    for name in ("fft.transform", "solver.picard_solve", "norms.verify_estimate",
                 "oscillatory.dispersive_peak", "cli.main", "fslb_io.write_fslb"):
        assert counts[0][name] > 0


def test_self_time_subtracts_direct_children_only():
    spans = [["op", 0.0, 10.0, -1, 0], ["a", 1.0, 6.0, 0, 0], ["b", 2.0, 3.0, 1, 0],
             ["c", 7.0, 9.0, 0, 0]]
    assert tracing.self_times(spans) == [3.0, 4.0, 1.0, 2.0]


# ---------------------------------------------------------------------------
# output contract of run.py

def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metrics_the_runs_report():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        tracing.per_layer_metric_units()


def test_end_to_end_run_prints_every_metric():
    proc = _run(RUN_PY, "--workload", "dispersive", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_passes_its_workload_shape_checks(workload):
    proc = _run(RUN_PY, "--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(tracing.per_layer_metric_units())
    with open(os.path.join(run.OUT, f"result-{workload}-seed0-trace1.json"),
              encoding="utf-8") as fh:
        detail = json.load(fh)
    assert detail["run"]["outputs_identical_under_tracing"]
    assert all(shape["passed"] for shape in detail["run"]["shape_checks"]), \
        detail["run"]["shape_checks"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("perfbench/run.py", "--workload", "picard", "--seed", "0",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_timeline_scales_wall_time_by_the_kernel_speed_around_each_event():
    timeline = gauge.Timeline()
    timeline.calibration = [0.002, 0.004, 0.004, 0.004, 0.002]
    timeline.events = [("op", 1.0, 1), ("plain", 3.0, 2), ("op", 2.0, 3)]
    # each event uses the median of the two kernel timings on either side
    assert timeline.reference("op") == pytest.approx([0.5, 1.0])
    assert timeline.reference("plain") == pytest.approx([1.5])
    assert timeline.wall("op") == [1.0, 2.0]


def test_percentile_interpolates():
    assert run._percentile([1.0, 2.0, 3.0, 4.0, 5.0], 80) == pytest.approx(4.2)
    assert run._percentile([float(x) for x in range(11)], 50) == pytest.approx(5.0)
