"""Layer bench for the resolution norms: before/after timings in one JSON file.

Times, single-threaded, f_sigma_norm and n_sigma_norm (sigma = (n - 2s)/2,
s = 3/4, the axis cone atlas, tapered window) on the first Picard
difference of a solve from Gaussian-spectrum data (epsilon 1e-2, Simpson
rule, t_half 2), the input `fslab solve` hands its per-iteration
diagnostic, at (n, m, T):

  (2, 16, 32)    the solve_cli benchmark's size, and the estimates family n = 2
  (3, 8, 32)     the estimates family n = 3
  (2, 128, 128)  past desk scale
  (3, 32, 64)    past desk scale
  (4, 16, 32)    past desk scale, in the dimension the theorems assume

Two more items at every size time the modulation table the norms reduce
against: `modulation_build` one uncached lp._build_modulation_weights (the
worker builds one table on a small grid first, so that no one-time import
falls into the timing), and `modulation_reduce` one resolved_sums of the
cached table on |S|^2 of the difference's tapered spectrum.

At the large sizes each norm is timed once per round after its warm-up
call, and two more items time one whole picard_solve each, without a
warm-up: `solve` with the F^sigma diagnostic off and `solve_fsigma` with it
on (the `fslab solve` default), so the ratio of the two is the
diagnostic's cost.

Usage:

  python bench/norms.py --out BENCH.json
  python bench/norms.py --out BENCH.json --compare /path/to/other/checkout

Each round runs in a fresh subprocess that imports fslab from one
checkout's src/; bench/harness.py alternates the checkouts and writes the
file (every sample by round, the median over the rounds of each round's
minimum per label, and the parent/change ratio).
"""

from __future__ import annotations

import sys
import time

import harness

DESK_SIZES = ((2, 16, 32), (3, 8, 32))
LARGE_SIZES = ((2, 128, 128), (3, 32, 64), (4, 16, 32))
ITEMS = ("f_sigma", "n_sigma", "modulation_build", "modulation_reduce", "solve",
         "solve_fsigma")


def _worker(repeats: int) -> dict:
    """Samples in seconds per item and size, for the fslab on sys.path."""
    from fslab import lp, norms, solver, spectral

    lp._build_modulation_weights(spectral.Grid(2, 8, 1.0), 8, 0.25, 0.75)
    out = {}
    for n, m, frames in DESK_SIZES + LARGE_SIZES:
        large = (n, m, frames) in LARGE_SIZES
        cfg = solver.SolveConfig(n=n, m=m, num_frames=frames, t_half=2.0, epsilon=1e-2,
                                 quadrature="simpson")
        spec = solver.default_nonlinearity(cfg.s)
        u0 = solver.gaussian_spectrum_data(cfg.grid, cfg.sigma, cfg.epsilon, seed=0)
        free = spectral.free_evolution(u0, -cfg.t_half, cfg.dt, frames, cfg.s)
        step = solver.duhamel_map(free, u0, spec, cfg)
        diff = spectral.Trajectory(cfg.grid, free.t0, cfg.dt, step.values - free.values)
        size = f"n{n}_m{m}_T{frames}"
        for item, norm in (("f_sigma", norms.f_sigma_norm), ("n_sigma", norms.n_sigma_norm)):
            out[f"{item}.{size}"] = harness.time_call(
                lambda norm=norm: norm(diff, cfg.sigma, cfg.s), 1 if large else repeats)
        out[f"modulation_build.{size}"] = harness.time_call(
            lambda: lp._build_modulation_weights(cfg.grid, frames, cfg.dt, cfg.s), repeats)
        table = lp.modulation_weights(cfg.grid, frames, cfg.dt, cfg.s)
        values = spectral.spacetime_dft(diff, window="taper").values.reshape(frames, -1)
        power = values.real**2 + values.imag**2
        out[f"modulation_reduce.{size}"] = harness.time_call(
            lambda: table.resolved_sums(power), repeats)
        if large:
            for item, fsigma_diffs in (("solve", False), ("solve_fsigma", True)):
                start = time.perf_counter()
                solver.picard_solve(u0, spec, cfg, fsigma_diffs=fsigma_diffs)
                out[f"{item}.{size}"] = [time.perf_counter() - start]
    return out


def main(argv=None) -> int:
    sizes = ["n{}_m{}_T{}".format(*size) for size in DESK_SIZES + LARGE_SIZES]
    return harness.main(argv, bench="norms", description=__doc__.split("\n")[0],
                        script=__file__, worker=_worker,
                        what={"sizes": sizes, "items": ITEMS,
                              "large_sizes": sizes[len(DESK_SIZES):]})


if __name__ == "__main__":
    sys.exit(main())
