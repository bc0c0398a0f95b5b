"""Layer bench for the Duhamel time operator: before/after timings in one JSON file.

Times, single-threaded, on the picard benchmark's problem (s = 3/4, the
model nonlinearity, Simpson rule, epsilon 1, tolerance 1e-10) at
(n, m, T) = (2, 32, 64) and (3, 32, 64):

  fft_pair          D^{1/2} of the frames (apply_fractional_values): one
                    forward and one inverse transform of the (T, m^n) batch
                    and one multiply, the transform backend's share of a step
  duhamel_integral  one call on a random forcing
  free_evolution    one call on the solve's data
  duhamel_map       one public Picard step (builds its own time operator)
  picard_step       one step inside picard_solve: the solve's wall time over
                    its steps (iterations plus the final residual step)

Usage:

  python bench/duhamel.py --out BENCH.json
  python bench/duhamel.py --out BENCH.json --compare /path/to/other/checkout

Each timing runs in a fresh subprocess that imports fslab from one
checkout's src/; bench/harness.py alternates the checkouts and writes the
file (every sample by round, the median over the rounds of each round's
minimum per label, and the parent/change ratio).
"""

from __future__ import annotations

import sys

import harness

SIZES = ((2, 32, 64), (3, 32, 64), (4, 16, 32))
ITEMS = ("phase_table", "fft_pair", "square_pair", "duhamel_integral", "free_evolution",
         "duhamel_map", "picard_step")


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
        square = np.abs(forcing.values) ** 2
        free = spectral.free_evolution(u0, t0, cfg.dt, frames, cfg.s)
        steps = []

        def solve():
            res = solver.picard_solve(u0, spec, cfg, fsigma_diffs=False)
            steps.append(res.iterations + 1)

        calls = {
            "phase_table": lambda: spectral.DuhamelOperator(cfg.grid, t0, cfg.dt, frames, cfg.s,
                                                            "simpson"),
            "fft_pair": lambda: spectral.apply_fractional_values(forcing.values, cfg.grid, 0.5),
            "square_pair": lambda: spectral.apply_fractional_values(square, cfg.grid, -0.5),
            "duhamel_integral": lambda: spectral.duhamel_integral(forcing, cfg.s, rule="simpson"),
            "free_evolution": lambda: spectral.free_evolution(u0, t0, cfg.dt, frames, cfg.s),
            "duhamel_map": lambda: solver.duhamel_map(free, u0, spec, cfg),
            "picard_step": solve,
        }
        size = f"n{n}_m{m}_T{frames}"
        for item in ITEMS:
            samples = harness.time_call(calls[item], repeats)   # warms the symbol cache
            if item == "picard_step":
                samples = [t / k for t, k in zip(samples, steps[1:])]
            out[f"{item}.{size}"] = samples
    return out


def main(argv=None) -> int:
    return harness.main(argv, bench="duhamel", description=__doc__.split("\n")[0],
                        script=__file__, worker=_worker,
                        what={"sizes": ["n{}_m{}_T{}".format(*size) for size in SIZES],
                              "items": ITEMS})


if __name__ == "__main__":
    sys.exit(main())
