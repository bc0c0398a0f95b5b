"""Outside-in tracer: spans around the public functions of each fslab layer.

The tracer patches functions from outside the package: every fslab module
namespace that holds a listed function gets a wrapper (names imported with
`from .x import f` are patched where they are used), plus the numpy.fft
transforms and shifts.  `uninstall` puts every original back.

A span is (name, start, end, parent, op id).  Spans stay in memory and are
written out once, when the run ends.  A layer's self time is its span minus
the spans of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

import numpy as np

# (layer.function, owner "module[:Class]", attributes wrapped under that name)
FUNCTIONS = (
    ("fft.transform", "numpy.fft", ("fftn", "ifftn", "fft", "ifft")),
    ("fft.shift", "numpy.fft", ("fftshift", "ifftshift")),
    ("spectral.spacetime_dft", "fslab.spectral", ("spacetime_dft",)),
    ("spectral.spacetime_idft", "fslab.spectral", ("spacetime_idft",)),
    ("spectral.free_evolution", "fslab.spectral", ("free_evolution",)),
    ("spectral.duhamel_integral", "fslab.spectral", ("duhamel_integral",)),
    ("spectral.cumulative_simpson", "fslab.spectral", ("cumulative_simpson",)),
    ("spectral.fractional_multiplier", "fslab.spectral", ("fractional_multiplier",)),
    ("spectral.modulation_offset", "fslab.spectral", ("modulation_offset",)),
    ("spectral.hdot_norm", "fslab.spectral", ("hdot_norm",)),
    ("solver.picard_solve", "fslab.solver", ("picard_solve",)),
    ("solver.duhamel_map", "fslab.solver", ("duhamel_map",)),
    ("solver.residual_check", "fslab.solver", ("residual_check",)),
    ("norms.verify_estimate", "fslab.norms", ("verify_estimate",)),
    ("norms.f_sigma_norm", "fslab.norms", ("f_sigma_norm",)),
    ("norms.n_sigma_norm", "fslab.norms", ("n_sigma_norm",)),
    ("norms.mixed_norm", "fslab.norms", ("mixed_norm",)),
    ("lp.ConeAtlas.multiplier", "fslab.lp:ConeAtlas", ("multiplier",)),
    ("lp.cone_cutoff_values", "fslab.lp", ("cone_cutoff_values",)),
    ("lp.max_modulation_index", "fslab.lp", ("max_modulation_index",)),
    ("bumps.smooth_step", "fslab.bumps", ("smooth_step",)),
    ("bumps.eta_bump", "fslab.bumps", ("eta_bump",)),
    ("bumps.phi_shell", "fslab.bumps", ("phi_shell",)),
    ("bumps.chi_box", "fslab.bumps", ("chi_box",)),
    ("oscillatory.dispersive_peak", "fslab.oscillatory", ("dispersive_peak",)),
    ("oscillatory.angular_factor", "fslab.oscillatory", ("angular_factor",)),
    ("oscillatory.bessel_j", "fslab.oscillatory", ("bessel_j",)),
    ("fslb_io.write_fslb", "fslab.fslb_io", ("write_fslb",)),
    ("reports.save_json", "fslab.reports", ("save_json",)),
    ("cli.main", "fslab.cli", ("main",)),
)

# Functions whose array argument is counted in bytes: name -> parameter name.
ARRAY_ARG = {
    "fft.transform": "a",
    "fft.shift": "x",
    "bumps.smooth_step": "x",
    "fslb_io.write_fslb": "array",
}


def _grid_key(grid) -> tuple:
    return (grid.n, grid.m, grid.box_length)


# Cache keys: two calls with equal keys compute the same result, so a cache
# would have removed the second one.
REPEAT_KEYS = {
    "spectral.free_evolution": lambda a: (
        _grid_key(a["u0"].grid), a["u0"].values.tobytes(), a["t0"], a["dt"],
        a["num_frames"], a["s"]),
    "spectral.fractional_multiplier": lambda a: (
        _grid_key(a["grid"]), a["beta"], a.get("zero_mode_policy", "zero_out")),
    "lp.ConeAtlas.multiplier": lambda a: (
        a["self"].n, a["self"].margin, a["self"].directions.tobytes(),
        a["self"].plateau_cos, a["self"].support_cos, _grid_key(a["grid"]), a["index"]),
}

EXTRA_METRICS = (
    ("solver.iterations_per_op", "count"),
    ("solver.fsigma_diag_share", "fraction"),
    ("oscillatory.angular_factor.points_per_op", "count"),
    ("spectral.free_evolution.repeat_share", "fraction"),
    ("spectral.fractional_multiplier.repeat_share", "fraction"),
    ("lp.ConeAtlas.multiplier.repeat_share", "fraction"),
    ("trace.ops_per_s_delta", "1/s"),
    ("trace.overhead_share", "fraction"),
)


def per_layer_metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name, _, _ in FUNCTIONS:
        units[f"{name}.calls_per_op"] = "count"
        units[f"{name}.self_share"] = "fraction"
        if name in ARRAY_ARG:
            units[f"{name}.mb_per_op"] = "MB"
    units.update(EXTRA_METRICS)
    return units


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans while installed; `op` marks the root span of one op."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.counters = {}       # name -> number (bytes, points, iterations, repeats)
        self._stack = []
        self._op_id = -1
        self._seen = {}          # per-op repeat keys, name -> set
        self._patched = []       # (holder, attribute, original)

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        holders = [m for n, m in sorted(sys.modules.items())
                   if n == "fslab" or n.startswith("fslab.")]
        for name, owner, attrs in FUNCTIONS:
            owner_obj = _resolve(owner)
            for attr in attrs:
                original = getattr(owner_obj, attr)
                wrapper = self._wrap(name, original)
                targets = [owner_obj] if inspect.isclass(owner_obj) else \
                    [owner_obj] + [m for m in holders if m is not owner_obj]
                for holder in targets:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        array_arg = ARRAY_ARG.get(name)
        array_pos = list(signature.parameters).index(array_arg) if array_arg else None
        repeat_key = REPEAT_KEYS.get(name)
        counts_points = name == "oscillatory.angular_factor"
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if array_arg is not None:
                value = args[array_pos] if len(args) > array_pos else kwargs[array_arg]
                counters[name + ".bytes"] = counters.get(name + ".bytes", 0) + (
                    value.nbytes if isinstance(value, np.ndarray) else np.asarray(value).nbytes)
            if repeat_key is not None or counts_points:
                self._count_arguments(name, signature.bind(*args, **kwargs).arguments,
                                      repeat_key)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op_id]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if name == "solver.picard_solve":
                counters["solver.iterations"] = \
                    counters.get("solver.iterations", 0) + result.iterations
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count_arguments(self, name, arguments, repeat_key) -> None:
        counters = self.counters
        if repeat_key is None:
            counters[name + ".points"] = counters.get(name + ".points", 0) \
                + int(np.size(arguments["rho"]))
            return
        seen = self._seen.setdefault(name, set())
        key = repeat_key(arguments)
        if key in seen:
            counters[name + ".repeats"] = counters.get(name + ".repeats", 0) + 1
        seen.add(key)

    # -- ops ------------------------------------------------------------------

    def op(self, op_id: int):
        return _OpSpan(self, op_id)

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"names": names, "columns": ["name", "start", "end", "parent", "op"],
               "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _OpSpan:
    def __init__(self, tracer: Tracer, op_id: int):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        t = self.tracer
        t._op_id = self.op_id
        t._seen = {}
        self.record = ["op", 0.0, 0.0, -1, self.op_id]
        t._stack.append(len(t.spans))
        t.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer._op_id = -1
        return False


# ---------------------------------------------------------------------------
# statistics over the recorded spans

def call_counts(spans: list) -> dict:
    counts = {}
    for span in spans:
        counts[span[0]] = counts.get(span[0], 0) + 1
    return counts


def self_times(spans: list) -> list:
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def _has_ancestor(spans: list, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics of the traced ops, without the trace.* overhead pair."""
    spans = tracer.spans
    in_ops = [(span, own) for span, own in zip(spans, self_times(spans)) if span[4] >= 0]
    ops = sum(1 for span, _ in in_ops if span[0] == "op")
    op_time = sum(span[2] - span[1] for span, _ in in_ops if span[0] == "op")
    calls, self_total = {}, {}
    for span, own in in_ops:
        calls[span[0]] = calls.get(span[0], 0) + 1
        self_total[span[0]] = self_total.get(span[0], 0.0) + own

    c = tracer.counters
    metrics = {}
    for name, _, _ in FUNCTIONS:
        metrics[f"{name}.calls_per_op"] = calls.get(name, 0) / ops
        metrics[f"{name}.self_share"] = self_total.get(name, 0.0) / op_time
        if name in ARRAY_ARG:
            metrics[f"{name}.mb_per_op"] = c.get(f"{name}.bytes", 0) / 1e6 / ops
    picard_time = sum(s[2] - s[1] for s in spans if s[0] == "solver.picard_solve")
    fsigma_time = sum(s[2] - s[1] for i, s in enumerate(spans)
                      if s[0] == "norms.f_sigma_norm"
                      and _has_ancestor(spans, i, "solver.picard_solve"))
    metrics["solver.iterations_per_op"] = c.get("solver.iterations", 0) / ops
    metrics["solver.fsigma_diag_share"] = fsigma_time / picard_time if picard_time else 0.0
    metrics["oscillatory.angular_factor.points_per_op"] = \
        c.get("oscillatory.angular_factor.points", 0) / ops
    for name in REPEAT_KEYS:
        n = calls.get(name, 0)
        metrics[f"{name}.repeat_share"] = c.get(f"{name}.repeats", 0) / n if n else 0.0
    return metrics


def group_totals(metrics: dict, stat: str = "self_share") -> dict:
    """A per-function statistic summed per module group (fft, spectral, solver, ...)."""
    groups = {}
    for name, _, _ in FUNCTIONS:
        group = name.split(".", 1)[0]
        groups[group] = groups.get(group, 0.0) + metrics[f"{name}.{stat}"]
    return groups


def shape_checks(workload: str, metrics: dict) -> list:
    """(claim, measured, passed) for what the workload's `why` says it stresses."""
    share, calls = group_totals(metrics), group_totals(metrics, "calls_per_op")
    if workload == "picard":
        core = share["fft"] + share["spectral"] + share["solver"]
        return [("fft + spectral + solver self share >= 0.80", core, core >= 0.80),
                ("norms calls per op == 0", calls["norms"], calls["norms"] == 0)]
    if workload == "solve_cli":
        norm_layer = share["norms"] + share["bumps"] + share["lp"]
        others = {g: v for g, v in share.items() if g not in ("norms", "bumps", "lp")}
        largest = max(others, key=others.get)
        return [(f"norms + bumps + lp self share > largest other group ({largest})",
                 norm_layer, norm_layer > others[largest])]
    if workload == "estimates":
        return [("solver calls per op == 0", calls["solver"], calls["solver"] == 0)]
    if workload == "dispersive":
        return [("oscillatory self share >= 0.90", share["oscillatory"],
                 share["oscillatory"] >= 0.90),
                ("fft calls per op == 0", calls["fft"], calls["fft"] == 0)]
    raise ValueError(f"unknown workload {workload!r}")
