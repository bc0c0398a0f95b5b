"""fslab runs without scipy: the import, a solve with its F^sigma diagnostic,
an estimate draw and the dispersive kernel.

scipy costs a fresh process about 0.2 s and 50 MiB to import, and the
package needs it nowhere: it is a test dependency only, the oracle of the
quadrature rules and of the Bessel kernel.  The probe runs in a fresh
interpreter whose import system refuses every scipy module, because this
test process has scipy loaded already.  A scipy import anywhere on these
paths, at module level or inside a function, fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, NoScipy())

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

import fslab, fslab.cli
from fslab import lp, norms, oscillatory, solver

seen = {"import": scipy_modules()}
cfg = solver.SolveConfig(n=2, m=8, num_frames=16, t_half=2.0, epsilon=1.0,
                         tolerance=1e-10, quadrature="simpson")
u0 = solver.gaussian_spectrum_data(cfg.grid, cfg.sigma, cfg.epsilon, seed=0)
result = solver.picard_solve(u0, solver.default_nonlinearity(cfg.s), cfg, fsigma_diffs=True)
assert result.converged
assert len(result.diff_fsigma) == result.iterations > 0
assert all(value > 0.0 for value in result.diff_fsigma[:1])
seen["picard_solve"] = scipy_modules()
family = norms.InputFamily(n=2, m=8, num_frames=16, shells=(1,))
report = norms.verify_estimate("embedding", family, draws=1, seed=0)
assert report.cstar > 0.0
seen["verify_estimate"] = scipy_modules()
spec = oscillatory.PhaseIntegralSpec(n=2, s=0.75, cutoff="annulus_dyadic", k=0)
assert oscillatory.dispersive_peak(spec, 10.0) > 0.0
seen["dispersive_peak"] = scipy_modules()
lp.modulation_weights(cfg.grid, cfg.num_frames, cfg.dt, cfg.s)
seen["modulation_weights"] = scipy_modules()
try:
    import scipy
except ImportError:
    seen["blocked"] = True
else:
    seen["blocked"] = False
print(json.dumps(seen))
"""


def test_no_scipy_on_any_run_time_path():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["import"] == []
    assert seen["picard_solve"] == []
    assert seen["verify_estimate"] == []
    assert seen["dispersive_peak"] == []
    assert seen["modulation_weights"] == []
    # the probe's import system does refuse scipy
    assert seen["blocked"] is True
