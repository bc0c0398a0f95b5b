"""Layer bench for the Duhamel time operator: before/after timings in one JSON file.

Times, single-threaded, on the picard benchmark's problem (s = 3/4, the
model nonlinearity, Simpson rule, epsilon 1, tolerance 1e-10) at
(n, m, T) = (2, 32, 64) and (3, 32, 64):

  duhamel_integral  one call on a random forcing
  free_evolution    one call on the solve's data
  duhamel_map       one public Picard step (builds its own time operator)
  picard_step       one step inside picard_solve: the solve's wall time over
                    its steps (iterations plus the final residual step)

Usage:

  python bench/duhamel.py --out BENCH.json
  python bench/duhamel.py --out BENCH.json --compare /path/to/other/checkout

Each timing runs in a fresh subprocess that imports fslab from one
checkout's src/.  With --compare, the other checkout (label "parent") and
this one (label "change") run in alternating rounds so that slow phases of a
shared machine fall on both; the file holds every sample, the median per
label and the parent/change ratio of the medians.
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
SIZES = ((2, 32, 64), (3, 32, 64))
ITEMS = ("duhamel_integral", "free_evolution", "duhamel_map", "picard_step")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _worker(repeats: int) -> dict:
    """Samples in seconds per item and size, for the fslab on sys.path."""
    import numpy as np
    from fslab import solver, spectral

    out = {}
    for n, m, frames in SIZES:
        cfg = solver.SolveConfig(n=n, m=m, num_frames=frames, t_half=2.0, epsilon=1.0,
                                 tolerance=1e-10, quadrature="simpson")
        spec = solver.default_nonlinearity(cfg.s)
        u0 = solver.gaussian_spectrum_data(cfg.grid, cfg.sigma, cfg.epsilon, seed=0)
        t0 = -cfg.t_half
        rng = np.random.default_rng(1)
        shape = (frames,) + cfg.grid.shape
        forcing = spectral.Trajectory(cfg.grid, t0, cfg.dt,
                                      rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        free = spectral.free_evolution(u0, t0, cfg.dt, frames, cfg.s)
        steps = []

        def solve():
            res = solver.picard_solve(u0, spec, cfg, fsigma_diffs=False)
            steps.append(res.iterations + 1)

        calls = {
            "duhamel_integral": lambda: spectral.duhamel_integral(forcing, cfg.s, rule="simpson"),
            "free_evolution": lambda: spectral.free_evolution(u0, t0, cfg.dt, frames, cfg.s),
            "duhamel_map": lambda: solver.duhamel_map(free, u0, spec, cfg),
            "picard_step": solve,
        }
        size = f"n{n}_m{m}_T{frames}"
        for item in ITEMS:
            calls[item]()                      # warm the symbol cache
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                calls[item]()
                samples.append(time.perf_counter() - start)
            if item == "picard_step":
                samples = [t / k for t, k in zip(samples, steps[1:])]
            out[f"{item}.{size}"] = samples
    return out


def _git(src_root: str, *args) -> str | None:
    try:
        done = subprocess.run(["git", "-C", src_root, *args], capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _run_worker(checkout: str, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    for name in THREAD_VARS:
        env[name] = "1"
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker",
                           "--repeats", str(repeats)],
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
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu_model": cpu, "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "threads": {name: "1" for name in THREAD_VARS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--compare", help="checkout whose src/ is timed as 'parent'")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(_worker(args.repeats), sys.stdout)
        return 0
    if not args.out:
        parser.error("--out is required")

    checkouts = {"change": ROOT}
    if args.compare:
        checkouts = {"parent": args.compare, "change": ROOT}
    samples = {label: {} for label in checkouts}
    for _ in range(args.rounds):
        for label, checkout in checkouts.items():
            for key, values in _run_worker(checkout, args.repeats).items():
                samples[label].setdefault(key, []).extend(values)

    report = {
        "bench": "duhamel",
        "unit": "s",
        "what": {"sizes": ["n{}_m{}_T{}".format(*size) for size in SIZES], "items": ITEMS,
                 "rounds": args.rounds, "repeats_per_round": args.repeats},
        "machine": _machine(),
        "checkouts": {label: _provenance(path) for label, path in checkouts.items()},
        "median": {label: {key: _median(v) for key, v in per.items()}
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


if __name__ == "__main__":
    sys.exit(main())
