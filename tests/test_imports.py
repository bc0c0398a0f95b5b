"""`import fslab` and the paths that need no sparse table leave scipy unloaded.

scipy costs a fresh process about 0.2 s and 50 MiB to import.  The package
uses it for one thing, the sparse modulation-weight table, and imports it
where that table is built; a module-level scipy import anywhere in the
package fails here.  The check runs in a fresh interpreter, because this
test process has scipy loaded already (the tests use it as an oracle).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

import fslab, fslab.cli
from fslab import lp, oscillatory, solver

seen = {"import": scipy_modules()}
cfg = solver.SolveConfig(n=2, m=8, num_frames=16, t_half=2.0, epsilon=1.0,
                         tolerance=1e-10, quadrature="simpson")
u0 = solver.gaussian_spectrum_data(cfg.grid, cfg.sigma, cfg.epsilon, seed=0)
result = solver.picard_solve(u0, solver.default_nonlinearity(cfg.s), cfg, fsigma_diffs=False)
assert result.converged
seen["picard_solve"] = scipy_modules()
spec = oscillatory.PhaseIntegralSpec(n=2, s=0.75, cutoff="annulus_dyadic", k=0)
assert oscillatory.dispersive_peak(spec, 10.0) > 0.0
seen["dispersive_peak"] = scipy_modules()
lp.modulation_weights(cfg.grid, cfg.num_frames, cfg.dt, cfg.s)
seen["modulation_weights"] = scipy_modules()
print(json.dumps(seen))
"""


def test_no_scipy_until_the_modulation_table():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, check=True)
    seen = json.loads(done.stdout)
    assert seen["import"] == []
    assert seen["picard_solve"] == []
    assert seen["dispersive_peak"] == []
    # the probe sees scipy once something loads it
    assert "scipy.sparse" in seen["modulation_weights"]
