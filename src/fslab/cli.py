"""Command-line surface: solve, verify, norms, dispersive, report.

Exit codes: 0 success, 1 a check failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import cone, fslb_io, norms, oscillatory, reports, solver
from .spectral import Field, Grid, Trajectory

USAGE_ERROR = 2
CHECK_FAILED = 1

VERIFY_SUITES = ("nprops", "factorization", "norms", "estimates", "dispersive",
                 "measure", "all")
ESTIMATE_ACCEPTANCE_KINDS = ("embedding", "linfty_l2", "smoothing", "maximal",
                             "homogeneous", "inhomogeneous", "trilinear")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process; parsing leaves it unchanged."""
    p = argparse.ArgumentParser(prog="fslab", description=__doc__)
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("solve", help="run the Picard solver from a config file")
    sp.add_argument("--config", required=True, help="YAML config path")
    sp.add_argument("--out", default=None, help="output directory (overrides config)")

    vp = sub.add_parser("verify", help="run a verification suite")
    vp.add_argument("suite", choices=VERIFY_SUITES)
    vp.add_argument("--s", type=float, default=0.75)
    vp.add_argument("--k", type=int, default=6)
    vp.add_argument("--n", type=int, default=2)
    vp.add_argument("--samples", type=int, default=10000)
    vp.add_argument("--draws", type=int, default=16)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--out", default=".", help="directory for report files")

    np_ = sub.add_parser("norms", help="evaluate a norm of a stored trajectory")
    np_.add_argument("--in", dest="in_path", required=True, help="FSLB trajectory file")
    np_.add_argument("--kind", required=True,
                     choices=("xk", "yk", "zk", "fsigma", "nsigma", "mixed"))
    np_.add_argument("--k", type=int, default=None)
    np_.add_argument("--s", type=float, default=0.75)
    np_.add_argument("--sigma", type=float, default=None)
    np_.add_argument("--e-axis", type=int, default=0)
    np_.add_argument("--p", default="2")
    np_.add_argument("--q", default="2")
    np_.add_argument("--box-length", type=float, default=2.0 * np.pi)
    np_.add_argument("--t0", type=float, default=None)
    np_.add_argument("--dt", type=float, default=None)
    np_.add_argument("--out", default=None, help="write the report here instead of stdout")

    dp = sub.add_parser("dispersive", help="stationary-phase decay sweep")
    dp.add_argument("--n", type=int, default=2)
    dp.add_argument("--s", type=float, default=0.75)
    dp.add_argument("--k", type=int, default=0)
    dp.add_argument("--cutoff", default="annulus_dyadic",
                    choices=("ball", "annulus_dyadic", "annulus_shift"))
    dp.add_argument("--t-min", type=float, default=10.0)
    dp.add_argument("--t-max", type=float, default=1000.0)
    dp.add_argument("--points", type=int, default=9)
    dp.add_argument("--out", default=".", help="directory for sweep table + summary")

    rp = sub.add_parser("report", help="aggregate report files into a summary")
    rp.add_argument("--dir", required=True, help="directory of *.json reports")
    rp.add_argument("--out", default=None)
    return p


def _report_path(directory: str, name: str) -> str:
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, name)


def _cmd_solve(args) -> int:
    try:
        cfg, spec, extras = solver.load_config(args.config)
    except FileNotFoundError:
        print(f"fslab: config file not found: {args.config}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, KeyError, TypeError) as exc:
        print(f"fslab: bad config: {exc}", file=sys.stderr)
        return USAGE_ERROR

    out_dir = args.out or extras["output"].get("directory", ".")
    os.makedirs(out_dir, exist_ok=True)

    init = extras["initial_data"]
    grid = cfg.grid
    if init.get("kind", "gaussian_spectrum") == "file":
        try:
            arr = fslb_io.read_fslb(init["path"])
        except FileNotFoundError:
            print(f"fslab: initial data file not found: {init['path']}", file=sys.stderr)
            return USAGE_ERROR
        u0 = Field(grid, arr)
    else:
        u0 = solver.gaussian_spectrum_data(
            grid, cfg.sigma, cfg.epsilon, seed=int(init.get("seed", cfg.seed)),
            width=float(init.get("width", 2.0)))

    try:
        result = solver.picard_solve(u0, spec, cfg)
    except solver.PicardDivergenceError as exc:
        print(f"fslab: {exc}", file=sys.stderr)
        if exc.result is not None:
            reports.save_json(_report_path(out_dir, "solve_report.json"),
                              exc.result.summary())
        return CHECK_FAILED

    fslb_io.write_fslb(_report_path(out_dir, "solution.fslb"), result.trajectory.values)
    fslb_io.write_fslb(_report_path(out_dir, "initial_data.fslb"), u0.values)
    reports.save_json(_report_path(out_dir, "solve_report.json"), result.summary())
    print(f"solve: converged={result.converged} iterations={result.iterations} "
          f"residual={result.duhamel_residual:.3e} apriori={result.apriori_ratio:.3f}")
    return 0 if result.converged else CHECK_FAILED


def _norm_identity_suite(seed: int, n: int, s: float) -> dict:
    """Quick structural self-checks of the norm layer."""
    rng = np.random.default_rng(seed)
    fam = norms.InputFamily(n=n, m=16, num_frames=32, shells=(1, 2))
    traj, k, _ = fam.draw(0, s, seed)
    lam = 2.0 + rng.random()
    scaled = Trajectory(traj.grid, traj.t0, traj.dt, lam * traj.values)
    xk1 = norms.xk_norm(traj, k, s, window="none")
    xk2 = norms.xk_norm(scaled, k, s, window="none")
    zk = norms.zk_upper(traj, k, s, window="none")
    checks = {
        "xk_homogeneous": abs(xk2 - lam * xk1) <= 1e-9 * max(xk2, 1e-9),
        "zk_le_xk": zk.value <= xk1 * (1 + 1e-12),
    }
    return {"check_id": "norm_identities", "passed": all(checks.values()),
            "checks": checks, "seed": seed}


def _estimate_family(kind: str, n: int) -> norms.InputFamily | None:
    """The family `verify estimates --n n` draws from: verify_estimate's
    default at n = 2, and m = 8 with shells 1 and 2 in any other dimension."""
    if n == 2:
        return None
    return norms.InputFamily(n=n, m=8, t_half=2.0 if kind == "inhomogeneous" else 1.0,
                             shells=(1, 2))


def _cmd_verify(args) -> int:
    out = args.out
    failed = False
    produced = []

    def emit(name, payload, ok):
        nonlocal failed
        path = _report_path(out, name)
        reports.save_json(path, payload)
        produced.append(path)
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}")
        if not ok:
            failed = True

    suite = args.suite
    if suite in ("nprops", "all"):
        params = cone.ConeParams(k=args.k, s=args.s)
        rep = cone.verify_n_properties(params, num_samples=args.samples, seed=args.seed)
        emit("nprops_report.json", rep, bool(rep.passed))
    if suite in ("factorization", "all"):
        params = cone.ConeParams(k=args.k, s=args.s)
        rep = cone.verify_factorization_envelope(params, num_samples=args.samples,
                                                 seed=args.seed)
        emit("factorization_report.json", rep, bool(rep.passed))
    if suite in ("norms", "all"):
        rep = _norm_identity_suite(args.seed, args.n, args.s)
        emit("norms_report.json", rep, rep["passed"])
    if suite in ("estimates", "all"):
        for kind in ESTIMATE_ACCEPTANCE_KINDS:
            rep = norms.verify_estimate(kind, _estimate_family(kind, args.n), s=args.s,
                                        draws=args.draws, seed=args.seed)
            emit(f"estimate_{kind}_report.json", rep, bool(rep.passed))
    if suite in ("dispersive", "all"):
        spec = oscillatory.PhaseIntegralSpec(n=args.n, s=min(args.s, 0.95),
                                             cutoff="annulus_dyadic", k=0)
        fit = oscillatory.fit_dispersive_decay(spec, np.geomspace(10.0, 1000.0, 9))
        ok = fit.passes(args.n)
        emit("dispersive_report.json",
             {"check_id": "dispersive_decay", "n": args.n, "s": min(args.s, 0.95),
              "slope": fit.slope, "target": -args.n / 2.0, "residual": fit.residual,
              "passed": ok}, ok)
    if suite in ("measure", "all"):
        sweep = oscillatory.sigma_measure_sweep(s_values=(args.s,), k_max=8)
        ok = np.isfinite(sweep["cstar"]) and sweep["cstar"] < 8.0
        emit("measure_report.json",
             {"check_id": "sigma_measure_sweep", "cstar": sweep["cstar"],
              "passed": ok}, ok)
    if not produced:
        print("fslab: nothing to verify", file=sys.stderr)
        return USAGE_ERROR
    return CHECK_FAILED if failed else 0


def _parse_pq(raw: str) -> float:
    if raw in ("inf", "infty", "oo"):
        return np.inf
    v = float(raw)
    if v not in (1.0, 2.0):
        raise ValueError("p and q must be 1, 2 or inf")
    return v


def _cmd_norms(args) -> int:
    try:
        arr = fslb_io.read_fslb(args.in_path)
    except FileNotFoundError:
        print(f"fslab: input not found: {args.in_path}", file=sys.stderr)
        return USAGE_ERROR
    except fslb_io.FslbFormatError as exc:
        print(f"fslab: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if arr.ndim < 2:
        print("fslab: expected a trajectory array (time, space...)", file=sys.stderr)
        return USAGE_ERROR
    T = arr.shape[0]
    n = arr.ndim - 1
    m = arr.shape[1]
    grid = Grid(n, m, args.box_length)
    dt = args.dt if args.dt is not None else 2.0 / T
    t0 = args.t0 if args.t0 is not None else -dt * (T // 2)
    traj = Trajectory(grid, t0, dt, arr)

    kind = args.kind
    sigma = args.sigma if args.sigma is not None else (n - 2.0 * args.s) / 2.0
    if kind in ("xk", "yk", "zk") and args.k is None:
        print("fslab: --k is required for shell norms", file=sys.stderr)
        return USAGE_ERROR
    if kind == "xk":
        report = reports.NormReport("xk", {"k": args.k, "s": args.s},
                                    norms.xk_norm(traj, args.k, args.s))
    elif kind == "yk":
        report = reports.NormReport(
            "yk", {"k": args.k, "s": args.s, "e_axis": args.e_axis},
            norms.yk_norm(traj, args.k, args.e_axis, args.s))
    elif kind == "zk":
        report = norms.zk_upper(traj, args.k, args.s)
    elif kind == "fsigma":
        report = reports.NormReport("fsigma", {"sigma": sigma, "s": args.s},
                                    norms.f_sigma_norm(traj, sigma, args.s))
    elif kind == "nsigma":
        report = reports.NormReport("nsigma", {"sigma": sigma, "s": args.s},
                                    norms.n_sigma_norm(traj, sigma, args.s))
    else:
        spec = norms.MixedNormSpec(e_axis=args.e_axis, p=_parse_pq(args.p),
                                   q=_parse_pq(args.q))
        report = reports.NormReport(
            "mixed", {"e_axis": args.e_axis, "p": str(spec.p), "q": str(spec.q)},
            norms.mixed_norm(traj, spec))
    if args.out:
        reports.save_json(args.out, report)
    else:
        print(report.to_json())
    return 0


def _cmd_dispersive(args) -> int:
    spec = oscillatory.PhaseIntegralSpec(n=args.n, s=args.s, cutoff=args.cutoff,
                                         k=args.k, ell=args.k)
    ts = np.geomspace(args.t_min, args.t_max, args.points)
    fit = oscillatory.fit_dispersive_decay(spec, ts)
    rows = list(zip(fit.abscissae.tolist(), fit.values.tolist()))
    os.makedirs(args.out, exist_ok=True)
    reports.save_csv(os.path.join(args.out, "dispersive_sweep.csv"), rows,
                     header=["t", "peak_abs"])
    summary = {"check_id": "dispersive_decay", "n": args.n, "s": args.s,
               "cutoff": args.cutoff, "k": args.k, "slope": fit.slope,
               "intercept": fit.intercept, "residual": fit.residual,
               "target_slope": -args.n / 2.0, "passed": fit.passes(args.n)}
    reports.save_json(os.path.join(args.out, "dispersive_summary.json"), summary)
    print(f"slope {fit.slope:.3f} (target {-args.n / 2.0:.2f}); "
          f"{'PASS' if summary['passed'] else 'FAIL'}")
    return 0 if summary["passed"] else CHECK_FAILED


def _cmd_report(args) -> int:
    directory = args.dir
    if not os.path.isdir(directory):
        print(f"fslab: not a directory: {directory}", file=sys.stderr)
        return USAGE_ERROR
    entries = []
    failed = 0
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(directory, name), "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (json.JSONDecodeError, OSError):
            continue
        passed = doc.get("passed")
        entries.append({"file": name, "check_id": doc.get("check_id", name),
                        "passed": passed,
                        "cstar": doc.get("cstar")})
        if passed is False:
            failed += 1
    summary = {"directory": directory, "reports": entries,
               "total": len(entries), "failed": failed}
    if args.out:
        reports.save_json(args.out, summary)
    else:
        print(json.dumps(summary, indent=2))
    return CHECK_FAILED if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "norms":
            return _cmd_norms(args)
        if args.command == "dispersive":
            return _cmd_dispersive(args)
        if args.command == "report":
            return _cmd_report(args)
    except ValueError as exc:
        print(f"fslab: {exc}", file=sys.stderr)
        return USAGE_ERROR
    parser.print_usage(sys.stderr)
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
