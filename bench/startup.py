"""Start-up bench: the cost of a fresh process's first fslab work, in one JSON file.

Every sample is a new python process (single-threaded, fslab from one
checkout's src/), timed from the `import fslab, fslab.cli` statement:

  import               the import alone (time.perf_counter around it)
  import_solve         the import plus a first picard_solve at the picard
                       benchmark's size (n = 2, m = 32, 64 frames, s = 3/4,
                       epsilon 1, Simpson rule, F^sigma diagnostic off)
  import_solve_fsigma  the import plus a first solve at the solve_cli
                       benchmark's size (m = 16, 32 frames, epsilon 1e-2)
                       with the per-iteration F^sigma diagnostic on, which
                       builds the modulation table
  process              wall time of a whole `python -c "import fslab,
                       fslab.cli"`, interpreter start and exit included

Usage:

  python bench/startup.py --out BENCH.json
  python bench/startup.py --out BENCH.json --compare /path/to/other/checkout

bench/harness.py alternates the checkouts round by round and writes the
file (every sample by round, the median over the rounds of each round's
minimum per label, and the parent/change ratio).  A round's worker runs
one discarded probe first, so that every timed process finds the
checkout's byte code compiled and its files in the page cache.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import harness

ITEMS = ("import", "import_solve", "import_solve_fsigma", "process")

PROBE = """
import json, time
start = time.perf_counter()
import fslab, fslab.cli
imported = time.perf_counter()
from fslab import solver
if {fsigma}:
    cfg = solver.SolveConfig(n=2, m=16, num_frames=32, t_half=2.0, epsilon=1e-2,
                             quadrature="simpson")
else:
    cfg = solver.SolveConfig(n=2, m=32, num_frames=64, t_half=2.0, epsilon=1.0,
                             tolerance=1e-10, quadrature="simpson")
u0 = solver.gaussian_spectrum_data(cfg.grid, cfg.sigma, cfg.epsilon, seed=0)
solver.picard_solve(u0, solver.default_nonlinearity(cfg.s), cfg, fsigma_diffs={fsigma})
print(json.dumps([imported - start, time.perf_counter() - start]))
"""


def _probe(fsigma: bool) -> list:
    done = subprocess.run([sys.executable, "-c", PROBE.format(fsigma=fsigma)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def _process() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import fslab, fslab.cli"], check=True)
    return time.perf_counter() - start


def _worker(repeats: int) -> dict:
    """Samples in seconds per item, each from a fresh process of the fslab on sys.path."""
    _probe(False)
    out = {item: [] for item in ITEMS}
    for _ in range(repeats):
        imported, solved = _probe(False)
        out["import"].append(imported)
        out["import_solve"].append(solved)
        out["import_solve_fsigma"].append(_probe(True)[1])
        out["process"].append(_process())
    return out


def main(argv=None) -> int:
    return harness.main(argv, bench="startup", description=__doc__.split("\n")[0],
                        script=__file__, worker=_worker, what={"items": ITEMS})


if __name__ == "__main__":
    sys.exit(main())
