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
                    its steps (iterations plus the final residual step).
                    The steps of a solve no longer cost the same: every
                    iteration runs on the active frames (where the cut-off
                    and the quadrature reach), the final residual step on
                    the |t| < 1 rows and the columns they read, without the
                    iterate's inverse transform, so this is an average
  picard_solve      at (2, 32, 64) only: the 16 seeded solves of the picard
                    benchmark workload (F^sigma diagnostic off) in one sample

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
# the picard workload: its problem, its 16 data seeds drawn from workload seed 0
PICARD_SIZE, PICARD_SOLVES, PICARD_SEED = (2, 32, 64), 16, 0


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
        if (n, m, frames) == PICARD_SIZE:
            seeds = np.random.default_rng(PICARD_SEED).integers(0, 2**31 - 1, PICARD_SOLVES)
            data = [solver.gaussian_spectrum_data(cfg.grid, cfg.sigma, cfg.epsilon,
                                                  seed=int(seed)) for seed in seeds]
            calls["picard_solve"] = lambda: [solver.picard_solve(u, spec, cfg, fsigma_diffs=False)
                                             for u in data]
        size = f"n{n}_m{m}_T{frames}"
        for item in calls:
            samples = harness.time_call(calls[item], repeats)   # warms the symbol cache
            if item == "picard_step":
                samples = [t / k for t, k in zip(samples, steps[1:])]
            out[f"{item}.{size}"] = samples
    return out


def main(argv=None) -> int:
    return harness.main(argv, bench="duhamel", description=__doc__.split("\n")[0],
                        script=__file__, worker=_worker,
                        what={"sizes": ["n{}_m{}_T{}".format(*size) for size in SIZES],
                              "items": ITEMS + ("picard_solve",)})


if __name__ == "__main__":
    sys.exit(main())
