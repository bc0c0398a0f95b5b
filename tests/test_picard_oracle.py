"""picard_solve against the all-frames loop it replaced, kept here as the oracle.

The solve computes each step on the frames where the weights psi(t_i) Q[i, j]
reach (DuhamelOperator.active) and its final residual step on the rows with
|t| < 1 and the columns they read (DuhamelOperator.inner), from spectra.  The
oracle transforms, multiplies and integrates all T frames in every step,
builds the whole T u for the residual and transforms the iterate for the
a-priori ratio.  Every iterate and every difference of two iterates, the
one the F^sigma diagnostic receives included, must be the oracle's bit for
bit; the residual, the a-priori ratio and the sup-in-time differences are
sums taken in another order and agree to 1e-12 of their scales.
"""

import numpy as np
import pytest

from fslab import solver
from fslab.solver import (
    NonlinearitySpec,
    NonlinearityTerm,
    SolveConfig,
    _nonlinearity_values,
    _StepArrays,
    default_nonlinearity,
    gaussian_spectrum_data,
    picard_solve,
)
from fslab.spectral import DuhamelOperator, Trajectory, _fftn, hdot_norm, hdot_norms


# ---------------------------------------------------------------------------
# oracle: the loop as it was before the frame ranges, every frame every step

def oracle_integral_spectrum(op, forcing, out, work):
    """DuhamelOperator.integral_spectrum on all T frames."""
    T = op.num_frames
    W = _fftn(forcing, axes=op._axes, out=work)
    H = np.conjugate(op.phases, out=out)
    W *= H
    np.matmul(op._weights, W.reshape(T, -1).view(np.float64),
              out=H.reshape(T, -1).view(np.float64))
    H *= op.phases
    H *= -1j
    return H


def oracle_duhamel_step(v, op, free, spec, config, arrays, data_hat=None, H=None):
    if not spec.terms:
        return free, None
    out = arrays.frames[1] if v.values is arrays.frames[0] else arrays.frames[0]
    spectrum = None
    if data_hat is not None and any(term.pattern[2] == "plain" for term in spec.terms):
        spectrum = op.spectrum(data_hat, H, work=out)
    forcing = _nonlinearity_values(v.values, v.grid, spec, config.zero_mode_policy,
                                   spectrum, arrays)
    H = oracle_integral_spectrum(op, forcing, out=arrays.duhamel, work=forcing)
    frames = op.frames(H, out=out)
    frames += free.values
    return Trajectory(v.grid, v.t0, v.dt, frames), H


def oracle_linf_l2_inner(u, v):
    vals = u.values - v.values
    mask = np.abs(u.times) < 1.0
    axes = tuple(range(1, u.grid.n + 1))
    return float(np.max(np.sqrt(np.sum(np.abs(vals[mask]) ** 2, axis=axes)
                                * u.grid.dx**u.grid.n)))


def oracle_picard_solve(u0, spec, config):
    """(summary, iterates, differences) of the all-frames loop.

    `differences` are copies of the arrays the loop measured, which are the
    arrays it hands to the F^sigma diagnostic.
    """
    g = u0.grid
    data_hdot = hdot_norm(u0, config.sigma)
    op = DuhamelOperator(g, -config.t_half, config.dt, config.num_frames, config.s,
                         config.quadrature)
    free = op.free(u0)
    data_hat = op.data_spectrum(u0)
    arrays = _StepArrays(free.values.shape)
    current, H = free, None
    ref = max(u0.l2_norm(), 1e-300)
    diffs, iterates, differences = [], [], []
    converged = False
    iterations = 0
    for it in range(1, config.max_iterations + 1):
        nxt, H = oracle_duhamel_step(current, op, free, spec, config, arrays, data_hat, H)
        diff = np.subtract(nxt.values, current.values, out=arrays.forcing)
        d = Trajectory(g, -config.t_half, config.dt, diff).linf_l2()
        iterates.append(nxt.values.copy())
        differences.append(diff.copy())
        diffs.append(d)
        current = nxt
        iterations = it
        if d <= config.tolerance * ref:
            converged = True
            break
    Tu = oracle_duhamel_step(current, op, free, spec, config, arrays, data_hat, H)[0]
    residual = oracle_linf_l2_inner(current, Tu) / ref
    inner = np.abs(current.times) < 1.0
    apriori = float(np.max(hdot_norms(current.values[inner], g, config.sigma))) / data_hdot
    summary = {"converged": converged, "iterations": iterations, "diff_linf_l2": diffs,
               "duhamel_residual": residual, "apriori_ratio": apriori}
    return summary, iterates, differences


# ---------------------------------------------------------------------------

def _recorded_solve(monkeypatch, u0, spec, cfg):
    """picard_solve with copies of each iterate and of each array F^sigma receives."""
    iterates, differences = [], []
    step, fsigma = solver._duhamel_step, solver.f_sigma_norm

    def recorded_step(*args, **kwargs):
        result = step(*args, **kwargs)
        if not kwargs.get("residual"):
            iterates.append(result[0].values.copy())
        return result

    def recorded_fsigma(traj, *args, **kwargs):
        differences.append(traj.values.copy())
        return fsigma(traj, *args, **kwargs)

    monkeypatch.setattr(solver, "_duhamel_step", recorded_step)
    monkeypatch.setattr(solver, "f_sigma_norm", recorded_fsigma)
    res = picard_solve(u0, spec, cfg, fsigma_diffs=True)
    monkeypatch.undo()
    return res, iterates, differences


# the first term is not a |u|^2 term, and two have a conjugate u3
MULTI_TERM = NonlinearitySpec((
    NonlinearityTerm(-0.25, ("plain", "plain", "conjugate"), 0.3),
    NonlinearityTerm(0.25, ("conjugate", "plain", "conjugate"), 0.5 - 0.25j),
    NonlinearityTerm(0.5),
))


@pytest.mark.parametrize("nm", [(2, 16), (3, 8)], ids=lambda nm: f"n{nm[0]}")
@pytest.mark.parametrize("frames", [16, 32, 64])
@pytest.mark.parametrize("t_half", [1.0, 2.0])
@pytest.mark.parametrize("rule", ["trapezoid", "simpson"])
@pytest.mark.parametrize("multi", [False, True], ids=["model", "multi_term"])
def test_solve_is_the_all_frames_loop(monkeypatch, nm, frames, t_half, rule, multi):
    n, m = nm
    cfg = SolveConfig(n=n, m=m, s=0.75, t_half=t_half, num_frames=frames, epsilon=0.5,
                      tolerance=1e-10, quadrature=rule, max_iterations=40)
    spec = MULTI_TERM if multi else default_nonlinearity(cfg.s)
    u0 = gaussian_spectrum_data(cfg.grid, cfg.sigma, cfg.epsilon, seed=frames + n)
    want, want_iterates, want_differences = oracle_picard_solve(u0, spec, cfg)
    res, iterates, differences = _recorded_solve(monkeypatch, u0, spec, cfg)

    assert want["converged"] and res.converged
    assert res.iterations == want["iterations"] == len(iterates)
    for got, expected in zip(iterates, want_iterates):
        assert np.array_equal(got, expected)
    assert np.array_equal(res.trajectory.values, want_iterates[-1])
    assert len(differences) == len(want_differences) == res.iterations
    for got, expected in zip(differences, want_differences):
        assert np.array_equal(got, expected)
    scale = want["diff_linf_l2"][0]
    assert np.max(np.abs(np.subtract(res.diff_linf_l2, want["diff_linf_l2"]))) <= 1e-12 * scale
    assert res.duhamel_residual == pytest.approx(want["duhamel_residual"], abs=1e-12)
    assert res.apriori_ratio == pytest.approx(want["apriori_ratio"], rel=1e-12)


@pytest.mark.parametrize("nm", [(2, 16), (3, 8)], ids=lambda nm: f"n{nm[0]}")
@pytest.mark.parametrize("t_half", [1.0, 2.0])
def test_unconverged_residual_is_the_all_frames_loops(monkeypatch, nm, t_half):
    """One iteration at large data leaves a residual far above rounding, so
    the Parseval sum and its scale are checked, not only its smallness."""
    n, m = nm
    cfg = SolveConfig(n=n, m=m, s=0.75, t_half=t_half, num_frames=32, epsilon=4.0,
                      quadrature="simpson", max_iterations=1)
    u0 = gaussian_spectrum_data(cfg.grid, cfg.sigma, cfg.epsilon, seed=n)
    want, want_iterates, _ = oracle_picard_solve(u0, MULTI_TERM, cfg)
    res, iterates, _ = _recorded_solve(monkeypatch, u0, MULTI_TERM, cfg)
    assert not res.converged and res.iterations == 1
    assert np.array_equal(res.trajectory.values, want_iterates[-1])
    assert want["duhamel_residual"] > 1e-3
    assert res.duhamel_residual == pytest.approx(want["duhamel_residual"], rel=1e-12)
    assert res.apriori_ratio == pytest.approx(want["apriori_ratio"], rel=1e-12)


@pytest.mark.parametrize("frames, t_half, active, rows, cols", [
    (64, 2.0, (2, 63), (17, 48), (16, 49)),
    (32, 2.0, (0, 32), (9, 24), (8, 25)),
    (32, 1.0, (0, 32), (1, 32), (0, 32)),
])
def test_frame_ranges_of_the_weights(frames, t_half, active, rows, cols):
    """The active frames are where a row or a column of psi Q is nonzero, and
    the inner columns are what the |t| < 1 rows read (Simpson)."""
    cfg = SolveConfig(n=2, m=8, t_half=t_half, num_frames=frames)
    op = DuhamelOperator(cfg.grid, -t_half, cfg.dt, frames, cfg.s, "simpson")
    assert op.active == slice(*active)
    assert op.inner == (slice(*rows), slice(*cols))
    nonzero = op._weights != 0.0
    outside = np.ones(frames, bool)
    outside[op.active] = False
    assert not nonzero[outside].any() and not nonzero[:, outside].any()
    inner = np.abs(op.times) < 1.0
    assert np.array_equal(np.flatnonzero(inner), np.arange(*rows))
    read = np.flatnonzero(nonzero[inner].any(axis=0))
    assert cols[0] <= read.min() and read.max() < cols[1]


def test_integral_spectrum_is_zero_outside_the_active_frames():
    cfg = SolveConfig(n=2, m=8, t_half=2.0, num_frames=64)
    op = DuhamelOperator(cfg.grid, -cfg.t_half, cfg.dt, cfg.num_frames, cfg.s, "simpson")
    rng = np.random.default_rng(6)
    forcing = rng.standard_normal((64,) + cfg.grid.shape) + 0j
    out = np.full(forcing.shape, np.nan, complex)
    H = op.integral_spectrum(forcing, out=out)
    assert H is out
    assert not H[:2].any() and not H[63:].any()
    assert np.array_equal(H, oracle_integral_spectrum(op, forcing.copy(), None, None))
    # the inner block is the same rows of H, from the forcing on the inner columns
    rows, cols = op.inner
    hidden = forcing.copy()
    hidden[: cols.start] = np.nan
    hidden[cols.stop:] = np.nan
    assert np.array_equal(op.integral_spectrum(hidden, block=op.inner), H[rows])
