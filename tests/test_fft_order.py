"""The FFT-order convention: centred at the public boundary, native inside.

The spectral helpers are pinned bit for bit against the hand-written
centred-order shift sequences they replaced, which are kept here as
oracles.  The Duhamel integral is the exception: its matrix form sums the
quadrature in a different order, so it is pinned to 1e-14 of the oracle's
scale.  The nonlinearity's |u|^2 takes the real transforms, so F(u) is
pinned to 1e-14 of the oracle's scale, and both are held to a long-double
direct DFT.  The phase table takes one exp per |xi| class and is pinned bit
for bit against the pointwise exp.  The transforms are numpy.fft's, each
written into one result array; that is pinned bit for bit against numpy's
own call.  A source scan
keeps fftshift / ifftshift and every transform inside spectral.py, on
numpy.fft and without workers=.
"""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

import fslab
from fslab import solver
from fslab.bumps import time_cutoff
from fslab.solver import (
    NonlinearitySpec,
    NonlinearityTerm,
    SolveConfig,
    _nonlinearity_values,
    apply_nonlinearity,
    default_nonlinearity,
    gaussian_spectrum_data,
    picard_solve,
)
from fslab.spectral import (
    DuhamelOperator,
    Field,
    Trajectory,
    ZeroModeError,
    _fftn,
    _ifftn,
    _phase_table,
    apply_fractional,
    apply_fractional_values,
    apply_spatial_multiplier,
    dft_forward,
    duhamel_integral,
    evolve_spectrum,
    fractional_multiplier,
    free_evolution,
    make_grid,
)


# ---------------------------------------------------------------------------
# oracles: the centred-order sequences as first written, and the quadrature
# helpers duhamel_integral used before it called scipy on the complex array

def _cumulative_trapezoid_from(values: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid along axis 0 starting from index 0."""
    out = np.zeros_like(values)
    if values.shape[0] > 1:
        steps = 0.5 * dt * (values[1:] + values[:-1])
        out[1:] = np.cumsum(steps, axis=0)
    return out


def _cumulative_simpson_from(values: np.ndarray, dt: float) -> np.ndarray:
    out = np.zeros_like(values)
    if values.shape[0] > 1:
        re = cumulative_simpson(values.real, dx=dt, axis=0, initial=0.0)
        im = cumulative_simpson(values.imag, dx=dt, axis=0, initial=0.0)
        out[:] = re + 1j * im
    return out


def oracle_spatial_multiplier(values, grid, mult):
    axes = tuple(range(values.ndim - grid.n, values.ndim))
    spec = np.fft.fftshift(np.fft.fftn(values, axes=axes), axes=axes)
    return np.fft.ifftn(np.fft.ifftshift(mult * spec, axes=axes), axes=axes)


def oracle_evolve(spec0, grid, times, omega):
    axes = tuple(range(1, grid.n + 1))
    phases = np.exp(1j * times.reshape((-1,) + (1,) * grid.n) * omega[None, ...])
    return np.fft.ifftn(np.fft.ifftshift(phases * spec0[None, ...], axes=axes),
                        axes=axes) / grid.dx**grid.n


def oracle_phase_table(times, native_omega):
    """The pointwise table: one exp per lattice point and time."""
    tshape = (-1,) + (1,) * native_omega.ndim
    return np.exp(1j * np.reshape(times, tshape) * native_omega[None, ...])


def oracle_free_evolution(u0, t0, dt, num_frames, s):
    g = u0.grid
    spec0 = dft_forward(u0).values
    times = t0 + dt * np.arange(num_frames)
    return oracle_evolve(spec0, g, times, g.freq_norm ** (2.0 * s))


def oracle_duhamel(forcing, s, rule):
    g = forcing.grid
    times = forcing.times
    i0 = int(np.argmin(np.abs(times)))
    w2s = g.freq_norm ** (2.0 * s)
    axes = tuple(range(1, g.n + 1))
    spec = np.fft.fftshift(np.fft.fftn(forcing.values, axes=axes), axes=axes)
    tshape = (-1,) + (1,) * g.n
    W = np.exp(-1j * times.reshape(tshape) * w2s[None, ...]) * spec
    accumulate = _cumulative_trapezoid_from if rule == "trapezoid" else _cumulative_simpson_from
    H = np.zeros_like(W)
    H[i0:] = accumulate(W[i0:], forcing.dt)
    if i0 > 0:
        H[: i0 + 1] = -accumulate(W[i0::-1], forcing.dt)[::-1]
    psi = time_cutoff(times)
    out = -1j * psi.reshape(tshape) * np.exp(1j * times.reshape(tshape) * w2s[None, ...]) * H
    return np.fft.ifftn(np.fft.ifftshift(out, axes=axes), axes=axes)


def assert_close_to_oracle(values, oracle, rel=1e-14):
    """Max-abs deviation at most `rel` of the oracle's max-abs."""
    assert values.shape == oracle.shape
    assert np.max(np.abs(values - oracle)) <= rel * np.max(np.abs(oracle))


def oracle_nonlinearity(u, spec):
    g = u.grid
    vals = u.values[None, ...]
    axes = tuple(range(1, g.n + 1))
    conj = {"plain": (lambda a: a), "conjugate": np.conj}

    def mult(arr, beta):
        sp = np.fft.fftshift(np.fft.fftn(arr, axes=axes), axes=axes)
        m = fractional_multiplier(g, beta)
        return np.fft.ifftn(np.fft.ifftshift(m[None, ...] * sp, axes=axes), axes=axes)

    out = np.zeros_like(vals)
    for term in spec.terms:
        f1, f2, f3 = (conj[p](vals) for p in term.pattern)
        out = out + term.coeff * mult(f1 * f2, -term.beta) * mult(f3, term.beta)
    return out[0]


# A direct DFT in long double: the transforms' rounding sits far below it,
# so the distance to it is the float64 kernel's own error.

LONG_PI = np.longdouble("3.14159265358979323846264338327950288")


def _long_dft_matrix(m: int, sign: int) -> np.ndarray:
    turns = (np.outer(np.arange(m), np.arange(m)) % m).astype(np.longdouble) / m
    angle = 2 * LONG_PI * turns
    return np.cos(angle) + sign * 1j * np.sin(angle)


def _long_multiplier(values, grid, mult):
    """ifftn(ifftshift(mult) * fftn(values)) over the trailing n axes, by direct DFT."""
    forward, inverse = _long_dft_matrix(grid.m, -1), _long_dft_matrix(grid.m, 1)
    spec = values.astype(np.clongdouble)
    lead = spec.ndim - grid.n
    for axis in range(lead, spec.ndim):
        spec = np.moveaxis(np.tensordot(forward, spec, axes=([1], [axis])), 0, axis)
    spec = spec * np.fft.ifftshift(mult).astype(np.longdouble)
    for axis in range(lead, spec.ndim):
        spec = np.moveaxis(np.tensordot(inverse, spec, axes=([1], [axis])), 0, axis)
    return spec / grid.npoints


def long_fractional_of_square(u, grid, beta):
    """D^{-beta} |u|^2 in long double."""
    square = u.real.astype(np.longdouble) ** 2 + u.imag.astype(np.longdouble) ** 2
    return _long_multiplier(square, grid, fractional_multiplier(grid, -beta))


def long_nonlinearity(u, grid, beta):
    """(D^{-beta} |u|^2) D^beta u in long double."""
    return (long_fractional_of_square(u, grid, beta)
            * _long_multiplier(u, grid, fractional_multiplier(grid, beta)))


def relative_error(values, oracle) -> float:
    """Max-abs deviation over the oracle's max-abs, in long double."""
    return float(np.max(np.abs(values - oracle)) / np.max(np.abs(oracle)))


# ---------------------------------------------------------------------------

GRIDS = [make_grid(1, 16, 2.0 * np.pi), make_grid(2, 8, 2.0 * np.pi),
         make_grid(3, 8, 5.0)]


def _values(grid, rng, frames):
    shape = ((frames,) if frames else ()) + grid.shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"n{g.n}")
@pytest.mark.parametrize("frames", [0, 8], ids=["field", "frames"])
def test_spatial_multiplier_matches_oracle(grid, frames):
    rng = np.random.default_rng(grid.n)
    vals = _values(grid, rng, frames)
    for mult in (fractional_multiplier(grid, -0.5), np.exp(1j * grid.freq_norm)):
        assert np.array_equal(apply_spatial_multiplier(vals, grid, mult),
                              oracle_spatial_multiplier(vals, grid, mult))


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"n{g.n}")
@pytest.mark.parametrize("frames", [1, 8], ids=["one_time", "times"])
def test_evolve_spectrum_matches_oracle(grid, frames):
    rng = np.random.default_rng(grid.n + 10)
    spec0 = _values(grid, rng, 0)
    times = -0.5 + 0.125 * np.arange(frames)
    omega = grid.freq_norm ** 1.5 + 3.0
    assert np.array_equal(evolve_spectrum(spec0, grid, times, omega),
                          oracle_evolve(spec0, grid, times, omega))


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"n{g.n}")
def test_free_evolution_matches_oracle(grid):
    u0 = Field(grid, _values(grid, np.random.default_rng(3), 0))
    traj = free_evolution(u0, -1.0, 0.0625, 32, 0.75)
    assert np.array_equal(traj.values, oracle_free_evolution(u0, -1.0, 0.0625, 32, 0.75))


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"n{g.n}")
@pytest.mark.parametrize("rule", ["trapezoid", "simpson"])
def test_duhamel_integral_matches_oracle(grid, rule):
    forcing = Trajectory(grid, -1.0, 0.0625, _values(grid, np.random.default_rng(4), 32))
    out = duhamel_integral(forcing, 0.75, rule=rule)
    assert_close_to_oracle(out.values, oracle_duhamel(forcing, 0.75, rule))


@pytest.mark.parametrize("rule", ["trapezoid", "simpson"])
@pytest.mark.parametrize("frames, t0", [(1, 0.0), (8, -0.4375), (8, 0.0), (16, -0.9375)],
                         ids=["single", "last", "first", "last16"])
def test_duhamel_integral_edge_frames_match_oracle(rule, frames, t0):
    # t = 0 on the first or the last frame leaves a one-frame integral on
    # one side, which must contribute zeros as the oracle's length guard did
    grid = GRIDS[1]
    forcing = Trajectory(grid, t0, 0.0625, _values(grid, np.random.default_rng(6), frames))
    out = duhamel_integral(forcing, 0.75, rule=rule)
    assert_close_to_oracle(out.values, oracle_duhamel(forcing, 0.75, rule))
    i0 = int(np.argmin(np.abs(forcing.times)))
    assert not np.any(out.values[i0])


@pytest.mark.parametrize("grid", GRIDS[1:], ids=lambda g: f"n{g.n}")
def test_nonlinearity_matches_oracle(grid):
    u = Field(grid, _values(grid, np.random.default_rng(5), 0))
    specs = (default_nonlinearity(0.75),
             NonlinearitySpec((NonlinearityTerm(-0.25, ("conjugate", "plain", "conjugate"),
                                                0.5 - 1j),)))
    # both terms hold u conj(u), whose D^{-beta} takes the real transforms
    for spec in specs:
        assert_close_to_oracle(apply_nonlinearity(u, spec, 0.75).values,
                               oracle_nonlinearity(u, spec))


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"n{g.n}")
def test_real_path_meets_long_double_oracle(grid):
    """D^{-beta}|u|^2 and F(u) to 1e-14 of a long-double direct DFT.

    The complex path, which the real one replaced for |u|^2, is held to the
    same oracle and bound.
    """
    u = _values(grid, np.random.default_rng(11), 4)
    beta = 0.5
    square = u.real**2 + u.imag**2
    real_path = apply_fractional_values(square, grid, -beta)
    assert not np.iscomplexobj(real_path)
    oracle = long_fractional_of_square(u, grid, beta)
    assert relative_error(real_path, oracle) <= 1e-14
    complex_path = apply_fractional_values(square + 0j, grid, -beta)
    assert np.iscomplexobj(complex_path)
    assert relative_error(complex_path, oracle) <= 1e-14

    spec = default_nonlinearity(0.75)
    oracle = long_nonlinearity(u, grid, beta)
    assert relative_error(_nonlinearity_values(u, grid, spec, "zero_out"), oracle) <= 1e-14
    parent = np.stack([oracle_nonlinearity(Field(grid, frame), spec) for frame in u])
    assert relative_error(parent, oracle) <= 1e-14


@pytest.mark.parametrize("shape, axes", [((16,), None), ((8, 8), None), ((4, 8, 8), (1, 2)),
                                         ((4, 8, 8, 8), (1, 2, 3)), ((8, 16), (0,))],
                         ids=["1d", "2d", "frames2", "frames3", "time"])
def test_one_array_transforms_are_numpys(shape, axes):
    rng = np.random.default_rng(len(shape))
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for ours, numpys in ((_fftn, np.fft.fftn), (_ifftn, np.fft.ifftn)):
        assert np.array_equal(ours(vals, axes), numpys(vals, axes=axes))
        assert np.array_equal(ours(vals.real, axes), numpys(vals.real, axes=axes))
        own = vals.copy()
        assert ours(own, axes, out=own) is own
        assert np.array_equal(own, numpys(vals, axes=axes))


@pytest.mark.parametrize("grid", GRIDS[1:], ids=lambda g: f"n{g.n}")
def test_nonlinearity_from_spectrum_is_bit_identical(grid):
    vals = _values(grid, np.random.default_rng(8), 8)
    spectrum = np.fft.fftn(vals, axes=tuple(range(1, grid.n + 1)))
    kept = spectrum.copy()
    specs = (default_nonlinearity(0.75),
             NonlinearitySpec((NonlinearityTerm(0.3, ("plain", "plain", "plain"), 2.0),
                               NonlinearityTerm(-0.25, ("conjugate", "plain", "conjugate"),
                                                0.5 - 1j))))
    for spec in specs:
        assert np.array_equal(_nonlinearity_values(vals, grid, spec, "zero_out", spectrum),
                              _nonlinearity_values(vals, grid, spec, "zero_out"))
    assert np.array_equal(spectrum, kept)


@pytest.mark.parametrize("grid", GRIDS[1:], ids=lambda g: f"n{g.n}")
def test_nonlinearity_in_step_arrays_is_bit_identical(grid):
    """F(u) formed in a solve's arrays equals F(u) in fresh ones, term by term."""
    vals = _values(grid, np.random.default_rng(9), 8)
    spectrum = np.fft.fftn(vals, axes=tuple(range(1, grid.n + 1)))
    spec = NonlinearitySpec((
        NonlinearityTerm(-0.25, ("conjugate", "plain", "conjugate"), 0.5 - 1j),
        NonlinearityTerm(0.5),
        NonlinearityTerm(0.3, ("plain", "plain", "conjugate"), 2.0),
    ))
    for given in (None, spectrum):
        fresh = _nonlinearity_values(vals, grid, spec, "zero_out", given)
        arrays = solver._StepArrays(vals.shape)
        formed = _nonlinearity_values(vals, grid, spec, "zero_out", given, arrays)
        assert formed is arrays.forcing
        assert np.array_equal(formed, fresh)


def test_picard_step_takes_five_frame_transforms(monkeypatch):
    """|u|^2 there and back in the real transforms, D^beta u's inverse, the
    forcing's forward transform and the iterate's inverse per step, each on
    the active frames; the final residual step takes the first four on the
    inner columns and no inverse of the iterate."""
    cfg = SolveConfig(n=2, m=16, num_frames=64, epsilon=0.5, tolerance=1e-14)
    u0 = gaussian_spectrum_data(cfg.grid, cfg.sigma, cfg.epsilon, seed=1)
    op = DuhamelOperator(cfg.grid, -cfg.t_half, cfg.dt, cfg.num_frames, cfg.s, cfg.quadrature)
    # frames 2-62 are active, and the rows 17-47 (|t| < 1) read columns 16-48
    active, inner = 61, 33
    assert op.active == slice(2, 63) and op.inner == (slice(17, 48), slice(16, 49))
    counts = {}

    def counting(name, inner):
        def counted(x, *args, **kwargs):
            # every batch of frames, full or half spectra, of any length
            if np.ndim(x) == 3 and np.shape(x)[1:] in (cfg.grid.shape, (cfg.m, cfg.m // 2 + 1)):
                key = (name, np.shape(x)[0])
                counts[key] = counts.get(key, 0) + 1
            return inner(x, *args, **kwargs)
        return counted

    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    per_solve = []
    for iterations in (1, 2):
        counts.clear()
        cfg.max_iterations = iterations
        res = picard_solve(u0, default_nonlinearity(cfg.s), cfg, fsigma_diffs=False)
        assert res.iterations == iterations and not res.converged
        per_solve.append(dict(counts))
    # the free evolution takes one inverse of all 64 frames; every step fftn 1,
    # rfftn 1, ifftn 2 and irfftn 1 of the active frames; the residual step
    # fftn 1, rfftn 1, ifftn 1 and irfftn 1 of the inner columns
    for steps, counted in zip((1, 2), per_solve):
        assert counted == {("ifftn", 64): 1,
                           ("fftn", active): steps, ("rfftn", active): steps,
                           ("ifftn", active): 2 * steps, ("irfftn", active): steps,
                           ("fftn", inner): 1, ("rfftn", inner): 1,
                           ("ifftn", inner): 1, ("irfftn", inner): 1}


def test_picard_steps_allocate_no_frame_batch(monkeypatch):
    """After the first, no step allocates an array as large as the frames.

    The largest allocation left is numpy's own: irfftn's inverse along the
    leading axes makes a half spectrum, about half the frames' size.  At
    m=32 the frames also outsize numpy's fixed 8192-element ufunc buffer,
    which the complex-by-real product of a step fills.
    """
    cfg = SolveConfig(n=2, m=32, num_frames=32, epsilon=0.5, tolerance=1e-14,
                      max_iterations=4)
    u0 = gaussian_spectrum_data(cfg.grid, cfg.sigma, cfg.epsilon, seed=1)
    frame_bytes = cfg.num_frames * cfg.grid.npoints * np.dtype(complex).itemsize
    step = solver._duhamel_step
    peaks = []

    def traced(*args, **kwargs):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = step(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return result

    monkeypatch.setattr(solver, "_duhamel_step", traced)
    tracemalloc.start()
    try:
        res = picard_solve(u0, default_nonlinearity(cfg.s), cfg, fsigma_diffs=False)
    finally:
        tracemalloc.stop()
    assert res.iterations == 4 and len(peaks) == 5
    assert max(peaks[1:]) < frame_bytes


def test_free_evolution_allocates_one_frame_batch():
    """The free evolution forms P * u0_hat in the array it returns and
    inverts it there: its allocations peak near one frame batch."""
    grid = make_grid(2, 32, 2.0 * np.pi)
    op = DuhamelOperator(grid, -2.0, 0.0625, 64, 0.75)
    u0 = Field(grid, _values(grid, np.random.default_rng(5), 0))
    frame_bytes = op.phases.nbytes
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        traj = op.free(u0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert frame_bytes <= peak < 1.5 * frame_bytes
    assert np.array_equal(traj.values, oracle_free_evolution(u0, -2.0, 0.0625, 64, 0.75))


PHASE_GRIDS = [make_grid(1, 32, 2.0 * np.pi), make_grid(2, 16, 2.0 * np.pi),
               make_grid(3, 8, 5.0), make_grid(4, 8, 2.0 * np.pi)]
# the three omega forms of the callers: the dispersion, a modulated shell
# and the static data
OMEGAS = {"dispersion": lambda w2s: w2s, "modulated": lambda w2s: w2s + 1.5 * 2.0**2,
          "static": np.zeros_like}


@pytest.mark.parametrize("grid", PHASE_GRIDS, ids=lambda g: f"n{g.n}")
@pytest.mark.parametrize("form", sorted(OMEGAS))
@pytest.mark.parametrize("s", [0.75, 0.9])
def test_phase_table_matches_pointwise_exp(grid, form, s):
    times = -2.0 + 0.0625 * np.arange(64)
    native = np.fft.ifftshift(OMEGAS[form](grid.freq_norm ** (2.0 * s)))
    assert np.array_equal(_phase_table(times, native), oracle_phase_table(times, native))
    spec0 = _values(grid, np.random.default_rng(12), 0)
    omega = np.fft.fftshift(native)
    assert np.array_equal(evolve_spectrum(spec0, grid, times, omega),
                          oracle_evolve(spec0, grid, times, omega))


@pytest.mark.parametrize("grid", PHASE_GRIDS, ids=lambda g: f"n{g.n}")
def test_operator_phases_match_pointwise_exp(grid):
    op = DuhamelOperator(grid, -2.0, 0.0625, 64, 0.75, "simpson")
    native = np.fft.ifftshift(grid.freq_norm ** 1.5)
    assert np.array_equal(op.phases, oracle_phase_table(op.times, native))


# A numpy.fft transform (the shifts are permutations and stay allowed),
# scipy.fft in any spelling, and a workers= argument.
NUMPY_TRANSFORM = re.compile(r"\b(?:np|numpy)\.fft\.i?[rh]?fft[n2]?\b"
                             r"|\bfrom\s+numpy(?:\.fft)?\s+import\b.*\bi?[rh]?fft[n2]?\b")
SCIPY_FFT = re.compile(r"\bscipy\.fft\b|\bfrom\s+scipy\s+import\b.*\bfft\b")
WORKERS = re.compile(r"\bworkers\s*=")


def test_backend_scan_patterns():
    for line in ("np.fft.fftn(a)", "numpy.fft.irfft(a)", "from numpy.fft import ifftn",
                 "from numpy import fft"):
        assert NUMPY_TRANSFORM.search(line), line
    for line in ("np.fft.fftshift(a)", "np.fft.ifftshift(a, axes=0)", "_fftn(a, axes)"):
        assert not NUMPY_TRANSFORM.search(line), line
    for line in ("import scipy.fft", "from scipy.fft import fftn", "from scipy import fft"):
        assert SCIPY_FFT.search(line), line
    assert not SCIPY_FFT.search("from scipy.integrate import cumulative_simpson")
    assert WORKERS.search("scipy.fft.fftn(a, workers=2)")


def test_one_transform_backend():
    package = Path(fslab.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if (SCIPY_FFT.search(line) or WORKERS.search(line)
                    or (path.name != "spectral.py" and NUMPY_TRANSFORM.search(line))):
                offenders.append(f"{path.name}:{lineno}")
    assert offenders == [], ("transforms are numpy.fft's, called from spectral.py only and "
                             f"single-threaded: {offenders}")


def test_fft_shifts_only_in_spectral_module():
    package = Path(fslab.__file__).parent
    offenders = [f"{path.name}:{lineno}"
                 for path in sorted(package.glob("*.py")) if path.name != "spectral.py"
                 for lineno, line in enumerate(path.read_text().splitlines(), 1)
                 if re.search(r"\bi?fftshift\b", line)]
    assert offenders == [], f"FFT order is decided in spectral.py only: {offenders}"


@pytest.mark.parametrize("grid", GRIDS[1:], ids=lambda g: f"n{g.n}")
def test_one_reject_check_for_fractional_and_nonlinearity(grid):
    rng = np.random.default_rng(7)
    u = Field(grid, _values(grid, rng, 0) + 0.5)
    spec = default_nonlinearity(0.75)
    with pytest.raises(ZeroModeError, match="nonzero mean"):
        apply_fractional(u, -0.5, zero_mode_policy="reject")
    with pytest.raises(ZeroModeError, match="nonzero mean"):
        apply_nonlinearity(u, spec, 0.75, zero_mode_policy="reject")
    # zero_out keeps both on the oracles: D^beta bit for bit, and F(u),
    # whose |u|^2 takes the real transforms, to 1e-14 of its scale
    mult = fractional_multiplier(grid, -0.5)
    assert np.array_equal(apply_fractional(u, -0.5).values,
                          oracle_spatial_multiplier(u.values, grid, mult))
    assert_close_to_oracle(apply_nonlinearity(u, spec, 0.75).values,
                           oracle_nonlinearity(u, spec))
    # data with zero mean passes the reject check unchanged
    mean_zero = Field(grid, u.values - u.values.mean())
    assert np.array_equal(apply_fractional(mean_zero, -0.5, zero_mode_policy="reject").values,
                          apply_fractional(mean_zero, -0.5).values)
