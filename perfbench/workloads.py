"""The four benchmark workloads: seeded inputs, one op each, and output checks.

Every workload is a fixed *cycle* of ops built from the workload seed.  A run
repeats whole cycles, so the mix of op sizes is the same in every run and
ops_per_s and the latency percentiles do not depend on where a run stops.

Ops look the fslab functions up through their module at call time (never
through a reference captured at build time), so the tracer's patches are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fslab import cli, fslb_io, norms, oscillatory, solver

PICARD_CYCLE = 16
SOLVE_CLI_CYCLE = 8
ACCEPTANCE_KINDS = ("embedding", "linfty_l2", "smoothing", "maximal",
                    "homogeneous", "inhomogeneous", "trilinear")
DISPERSIVE_CONFIGS = ((2, 0.75), (3, 0.75), (2, 0.9))
DISPERSIVE_STRATA = 48
DISPERSIVE_T_RANGE = (10.0, 1000.0)

# The equivalence rule: outputs agree with the stored reference to 1e-12,
# relative to the scale of the quantity compared.
REL_TOL = 1e-12


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    record: Callable[[object], dict]
    check: Callable[[dict], str | None]


# ---------------------------------------------------------------------------
# output digests

_DIGEST_WEIGHTS: dict = {}


def _weights(shape) -> np.ndarray:
    w = _DIGEST_WEIGHTS.get(shape)
    if w is None:
        rng = np.random.default_rng(20250326)
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        w /= np.linalg.norm(w)
        _DIGEST_WEIGHTS[shape] = w
    return w


def trajectory_digest(values: np.ndarray) -> dict:
    """Numbers that pin a complex array: its l2 norm, its max modulus and its
    normalised projection on a fixed random direction (|proj| <= 1)."""
    l2 = float(np.linalg.norm(values))
    proj = complex(np.vdot(_weights(values.shape), values)) / max(l2, 1e-300)
    return {"l2": l2, "max_abs": float(np.max(np.abs(values))),
            "proj": [proj.real, proj.imag]}


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# picard: the Picard loop alone

def _solve_summary(summary: dict, trajectory: np.ndarray) -> dict:
    return {
        "converged": bool(summary["converged"]),
        "iterations": int(summary["iterations"]),
        "diff_linf_l2": [float(d) for d in summary["diff_linf_l2"]],
        "diff_fsigma": [float(d) for d in summary["diff_fsigma"]],
        "duhamel_residual": float(summary["duhamel_residual"]),
        "apriori_ratio": float(summary["apriori_ratio"]),
        "data_hdot": float(summary["data_hdot"]),
        "digest": trajectory_digest(trajectory),
    }


def _check_solve(rec: dict, tolerance: float) -> str | None:
    if not rec["converged"]:
        return "solve did not converge"
    if not rec["duhamel_residual"] <= 10.0 * tolerance:
        return f"residual {rec['duhamel_residual']:.3e} above 10 x tolerance"
    if not _finite(rec["apriori_ratio"], rec["digest"]["l2"], *rec["diff_fsigma"]):
        return "non-finite solve diagnostics"
    return None


def picard_ops(seed: int, workdir: str) -> list:
    cfg = solver.SolveConfig(n=2, m=32, num_frames=64, t_half=2.0, epsilon=1.0,
                             tolerance=1e-10, quadrature="simpson")
    spec = solver.default_nonlinearity(0.75)
    ops = []
    for data_seed in np.random.default_rng(seed).integers(0, 2**31 - 1, PICARD_CYCLE):
        u0 = solver.gaussian_spectrum_data(cfg.grid, cfg.sigma, cfg.epsilon,
                                           seed=int(data_seed))
        ops.append(Op(
            label=f"picard u0_seed={int(data_seed)}",
            run=lambda u0=u0: solver.picard_solve(u0, spec, cfg, fsigma_diffs=False),
            record=lambda res: _solve_summary(res.summary(), res.trajectory.values),
            check=lambda rec: _check_solve(rec, cfg.tolerance)))
    return ops


# ---------------------------------------------------------------------------
# solve_cli: `fslab solve` in-process, F^sigma diagnostic on

SOLVE_CLI_TOLERANCE = 1e-10


def _solve_cli_config(data_seed: int) -> dict:
    """The README config at m=16 and 32 frames."""
    return {
        "grid": {"n": 2, "m": 16, "box_length": 2.0 * math.pi},
        "time": {"t_half": 2.0, "frames": 32},
        "equation": {"s": 0.75},
        "nonlinearity": {"terms": [{"beta": 0.5, "pattern": ["plain", "conjugate", "plain"],
                                    "coeff": [1.0, 0.0]}]},
        "picard": {"max_iterations": 25, "tolerance": SOLVE_CLI_TOLERANCE,
                   "quadrature": "simpson", "epsilon": 1.0e-2, "seed": 0,
                   "zero_mode_policy": "zero_out"},
        "initial_data": {"kind": "gaussian_spectrum", "seed": data_seed},
        "output": {"directory": "out"},
    }


def _run_cli(argv: list) -> tuple:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        rc = cli.main(argv)
    return rc, sink.getvalue()


def _read_cli_outputs(out_dir: str, rc_and_stdout: tuple) -> dict:
    rc, stdout = rc_and_stdout
    with open(os.path.join(out_dir, "solve_report.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    traj = fslb_io.read_fslb(os.path.join(out_dir, "solution.fslb"))
    rec = _solve_summary(summary, traj)
    rec["exit_code"] = rc
    rec["stdout_ok"] = "converged=True" in stdout
    return rec


def _check_cli(rec: dict) -> str | None:
    if rec["exit_code"] != 0 or not rec["stdout_ok"]:
        return f"fslab solve exited {rec['exit_code']}"
    if not rec["diff_fsigma"]:
        return "F^sigma diagnostic missing"
    return _check_solve(rec, SOLVE_CLI_TOLERANCE)


def solve_cli_ops(seed: int, workdir: str) -> list:
    import yaml

    ops = []
    for i, data_seed in enumerate(np.random.default_rng(seed).integers(0, 2**31 - 1,
                                                                        SOLVE_CLI_CYCLE)):
        cfg_path = os.path.join(workdir, f"cfg_{i}.yaml")
        out_dir = os.path.join(workdir, f"out_{i}")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(_solve_cli_config(int(data_seed)), fh)
        argv = ["solve", "--config", cfg_path, "--out", out_dir]
        ops.append(Op(
            label=f"solve_cli initial_data.seed={int(data_seed)}",
            run=lambda argv=argv: _run_cli(argv),
            record=lambda res, out_dir=out_dir: _read_cli_outputs(out_dir, res),
            check=_check_cli))
    return ops


# ---------------------------------------------------------------------------
# estimates: the verification bench on the criterion-09 families

def acceptance_family(kind: str, n: int):
    t_half = 2.0 if kind == "inhomogeneous" else 1.0
    if n == 2:
        return norms.InputFamily(n=2, m=16, num_frames=32, t_half=t_half, shells=(1, 2, 3))
    return norms.InputFamily(n=3, m=8, num_frames=32, t_half=t_half, shells=(1, 2))


def _estimate_record(report) -> dict:
    return {"cstar": float(report.cstar), "skipped": int(report.skipped),
            "items": {name: [float(item["min"]), float(item["max"]), float(item["cstar"])]
                      for name, item in sorted(report.items.items())}}


def _check_estimate(rec: dict) -> str | None:
    return None if math.isfinite(rec["cstar"]) else "C* is not finite"


def estimates_ops(seed: int, workdir: str) -> list:
    draw_seeds = iter(np.random.default_rng(seed).integers(0, 2**31 - 1,
                                                           2 * len(ACCEPTANCE_KINDS)))
    ops = []
    for n in (2, 3):
        for kind in ACCEPTANCE_KINDS:
            family, draw_seed = acceptance_family(kind, n), int(next(draw_seeds))
            ops.append(Op(
                label=f"estimates {kind} n={n} seed={draw_seed}",
                run=lambda kind=kind, family=family, draw_seed=draw_seed:
                    norms.verify_estimate(kind, family, s=0.75, draws=1, seed=draw_seed),
                record=_estimate_record,
                check=_check_estimate))
    return ops


# ---------------------------------------------------------------------------
# dispersive: the radial Gauss-Kronrod / Bessel quadrature alone

def dispersive_times(rng) -> list:
    """Log-uniform t in [10, 1000], one draw in each of DISPERSIVE_STRATA equal strata.

    Op cost grows about tenfold per decade of t.  Stratifying keeps the cost
    of a cycle and its latency percentiles nearly independent of the seed,
    while each t is still log-uniform.
    """
    lo, hi = (math.log10(t) for t in DISPERSIVE_T_RANGE)
    width = (hi - lo) / DISPERSIVE_STRATA
    return [10.0 ** (lo + width * (j + float(rng.random()))) for j in range(DISPERSIVE_STRATA)]


def _check_peak(rec: dict) -> str | None:
    peak = rec["peak"]
    return None if math.isfinite(peak) and peak > 0.0 else f"bad peak {peak}"


def dispersive_ops(seed: int, workdir: str) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for n, s in DISPERSIVE_CONFIGS:
        spec = oscillatory.PhaseIntegralSpec(n=n, s=s, cutoff="annulus_dyadic", k=0)
        for t in dispersive_times(rng):
            ops.append(Op(
                label=f"dispersive n={n} s={s} t={t:.6g}",
                run=lambda spec=spec, t=t: oscillatory.dispersive_peak(spec, t),
                record=lambda peak: {"peak": float(peak)},
                check=_check_peak))
    return ops


WORKLOADS = {
    "picard": picard_ops,
    "solve_cli": solve_cli_ops,
    "estimates": estimates_ops,
    "dispersive": dispersive_ops,
}


# ---------------------------------------------------------------------------
# comparison with the stored reference outputs

# Scale of each compared field.  Relative comparison is against
# max(|reference|, scale): the successive differences shrink to ~1e-11 of the
# first one, so they are compared at the scale of the first difference; the
# residual is already normalised by ||u0|| and sits at rounding level.
def _field_scale(path: str, ref_record: dict) -> float:
    if path.startswith("diff_linf_l2"):
        return abs(ref_record["diff_linf_l2"][0]) if ref_record["diff_linf_l2"] else 0.0
    if path.startswith("diff_fsigma"):
        return abs(ref_record["diff_fsigma"][0]) if ref_record["diff_fsigma"] else 0.0
    if path == "duhamel_residual" or path.startswith("digest.proj"):
        return 1.0
    return 0.0


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key], f"{prefix}{key}.")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), obj


def compare_to_reference(record: dict, reference: dict) -> str | None:
    """None when `record` matches `reference`, else a description of the first mismatch."""
    got = dict(_flatten(record))
    want = dict(_flatten(reference))
    if got.keys() != want.keys():
        return f"output fields differ: {sorted(got.keys() ^ want.keys())[:4]}"
    for path, b in want.items():
        a = got[path]
        if isinstance(b, float) or isinstance(a, float):
            a, b = float(a), float(b)
            if a == b or (math.isnan(a) and math.isnan(b)):
                continue
            scale = max(abs(b), _field_scale(path, reference))
            if not (math.isfinite(a) and math.isfinite(b)) or abs(a - b) > REL_TOL * scale:
                return f"{path}: {a!r} != reference {b!r}"
        elif a != b:
            return f"{path}: {a!r} != reference {b!r}"
    return None


def reference_path(workload: str) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference",
                        f"{workload}.json")


def load_references(workload: str, seed: int) -> list | None:
    """Reference records of one cycle for `seed`, or None if none are stored."""
    try:
        with open(reference_path(workload), encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return None
    return doc["seeds"].get(str(seed))


def check_op(op: Op, record: dict, reference: dict | None) -> str | None:
    problem = op.check(record)
    if problem is None and reference is not None:
        problem = compare_to_reference(record, reference)
    return problem
