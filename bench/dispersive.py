"""Layer bench for the dispersive radial kernel: before/after timings in one JSON file.

Times, single-threaded, the pieces of `oscillatory.dispersive_peak` on the
dispersive benchmark's cutoff (annulus_dyadic, k = 0, s = 3/4):

  bessel_j.nu{0,0.5}          J_nu on 133 000 arguments in [1000, 3800], the
                              size and range of one ridge integral's nodes
  radial_integral.n{2,3}      one ridge `_radial_integral` at t = 1000 and
                              |x| = 2 s t, with the zero-phase scale given
  dispersive_peak.n{2,3}_t*   one `dispersive_peak` at t in {10, 100, 1000}
  smooth_step                 the cut-off's `bumps.smooth_step` on 133 000
                              points in [-0.5, 1.5]

Usage:

  python bench/dispersive.py --out BENCH.json
  python bench/dispersive.py --out BENCH.json --compare /path/to/other/checkout

Each timing runs in a fresh subprocess that imports fslab from one
checkout's src/; bench/harness.py alternates the checkouts and writes the
file (every sample by round, the median over the rounds of each round's
minimum per label, and the parent/change ratio).
"""

from __future__ import annotations

import functools
import sys

import harness

S = 0.75
DIMENSIONS = (2, 3)
TIMES = (10.0, 100.0, 1000.0)
RIDGE_T = 1000.0
BESSEL_POINTS = 133_000


def _worker(repeats: int) -> dict:
    """Samples in seconds per item, for the fslab on sys.path."""
    import numpy as np
    from fslab import bumps, oscillatory

    x = np.linspace(0.5, 1.9, BESSEL_POINTS) * 2000.0
    calls = {f"bessel_j.nu{nu:g}": functools.partial(oscillatory.bessel_j, nu, x)
             for nu in (0.0, 0.5)}
    calls["smooth_step"] = functools.partial(bumps.smooth_step,
                                             np.linspace(-0.5, 1.5, BESSEL_POINTS))
    for n in DIMENSIONS:
        spec = oscillatory.PhaseIntegralSpec(n=n, s=S, cutoff="annulus_dyadic", k=0)
        cutoff, rlo, rhi = spec.radial_cutoff()
        scale = abs(oscillatory._radial_integral(n, S, cutoff, rlo, rhi, 0.0, 0.0))
        calls[f"radial_integral.n{n}_t{RIDGE_T:g}"] = functools.partial(
            oscillatory._radial_integral, n, S, cutoff, rlo, rhi, 2.0 * S * RIDGE_T, RIDGE_T,
            scale=scale)
        for t in TIMES:
            calls[f"dispersive_peak.n{n}_t{t:g}"] = functools.partial(
                oscillatory.dispersive_peak, spec, t)
    return {key: harness.time_call(fn, repeats) for key, fn in calls.items()}


def main(argv=None) -> int:
    return harness.main(argv, bench="dispersive", description=__doc__.split("\n")[0],
                        script=__file__, worker=_worker,
                        what={"s": S, "dimensions": DIMENSIONS, "times": TIMES,
                              "ridge_t": RIDGE_T, "bessel_points": BESSEL_POINTS})


if __name__ == "__main__":
    sys.exit(main())
