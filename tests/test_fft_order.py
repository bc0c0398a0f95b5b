"""The FFT-order convention: centred at the public boundary, native inside.

The spectral helpers are pinned bit for bit against the hand-written
centred-order shift sequences they replaced, which are kept here as
oracles.  A source scan keeps fftshift / ifftshift inside spectral.py.
"""

import re
from pathlib import Path

import numpy as np
import pytest

import fslab
from fslab.bumps import time_cutoff
from fslab.solver import (
    NonlinearitySpec,
    NonlinearityTerm,
    apply_nonlinearity,
    default_nonlinearity,
)
from fslab.spectral import (
    Field,
    Trajectory,
    _cumulative_simpson_from,
    _cumulative_trapezoid_from,
    apply_spatial_multiplier,
    dft_forward,
    duhamel_integral,
    evolve_spectrum,
    fractional_multiplier,
    free_evolution,
    make_grid,
)


# ---------------------------------------------------------------------------
# oracles: the centred-order sequences as first written

def oracle_spatial_multiplier(values, grid, mult):
    axes = tuple(range(values.ndim - grid.n, values.ndim))
    spec = np.fft.fftshift(np.fft.fftn(values, axes=axes), axes=axes)
    return np.fft.ifftn(np.fft.ifftshift(mult * spec, axes=axes), axes=axes)


def oracle_evolve(spec0, grid, times, omega):
    axes = tuple(range(1, grid.n + 1))
    phases = np.exp(1j * times.reshape((-1,) + (1,) * grid.n) * omega[None, ...])
    return np.fft.ifftn(np.fft.ifftshift(phases * spec0[None, ...], axes=axes),
                        axes=axes) / grid.dx**grid.n


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


def oracle_nonlinearity(u, spec):
    g = u.grid
    vals = u.values[None, ...]
    axes = tuple(range(1, g.n + 1))
    conj = {"plain": (lambda a: a), "conjugate": np.conj}

    def mult(arr, beta):
        sp = np.fft.fftshift(np.fft.fftn(arr, axes=axes), axes=axes)
        m = fractional_multiplier(g, beta, "zero_out")
        return np.fft.ifftn(np.fft.ifftshift(m[None, ...] * sp, axes=axes), axes=axes)

    out = np.zeros_like(vals)
    for term in spec.terms:
        f1, f2, f3 = (conj[p](vals) for p in term.pattern)
        out = out + term.coeff * mult(f1 * f2, -term.beta) * mult(f3, term.beta)
    return out[0]


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
    assert np.array_equal(out.values, oracle_duhamel(forcing, 0.75, rule))


@pytest.mark.parametrize("grid", GRIDS[1:], ids=lambda g: f"n{g.n}")
def test_nonlinearity_matches_oracle(grid):
    u = Field(grid, _values(grid, np.random.default_rng(5), 0))
    specs = (default_nonlinearity(0.75),
             NonlinearitySpec((NonlinearityTerm(-0.25, ("conjugate", "plain", "conjugate"),
                                                0.5 - 1j),)))
    for spec in specs:
        assert np.array_equal(apply_nonlinearity(u, spec, 0.75).values,
                              oracle_nonlinearity(u, spec))


def test_fft_shifts_only_in_spectral_module():
    package = Path(fslab.__file__).parent
    offenders = [f"{path.name}:{lineno}"
                 for path in sorted(package.glob("*.py")) if path.name != "spectral.py"
                 for lineno, line in enumerate(path.read_text().splitlines(), 1)
                 if re.search(r"\bi?fftshift\b", line)]
    assert offenders == [], f"FFT order is decided in spectral.py only: {offenders}"
