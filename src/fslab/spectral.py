"""Periodic grids, discrete Fourier transforms and the fractional propagator.

Conventions (fixed once, used everywhere):

* space:  F f(xi)  = sum_x e^{-i xi.x} f(x) dx^n,   xi in (2pi/L)*{-m/2..m/2-1}^n
* time:   F u(tau) = sum_t e^{+i tau t} u(t) dt,    tau in (2pi/(T dt))*{-T/2..T/2-1}
* inverses scaled so that the roundtrip is exact to rounding.

The opposite sign on the time axis places the free wave e^{i t |xi|^{2s}}
on the characteristic tau = -|xi|^{2s}, which is the convention the
modulation projections are built on.  With these normalizations Parseval
reads ||f||_{L2}^2 = sum |Ff|^2 / L^n (plus a 1/(T dt) factor in time).

FFT order is decided in this module only.  Spectra cross the public boundary
(dft_forward, dft_inverse, SpacetimeSpectrum, and every multiplier built from
Grid.freq_1d / Grid.freq_norm) in centred order, zero mode in the middle.
Internal spatial round trips (apply_spatial_multiplier, evolve_spectrum,
duhamel_integral) stay in FFT-native order from end to end: only the
grid-sized multiplier is shifted, never a (T, m^n) batch of frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import cumulative_simpson

from .bumps import time_cutoff, window_weights

__all__ = [
    "ZeroModeError",
    "Grid",
    "Field",
    "Trajectory",
    "SpacetimeSpectrum",
    "make_grid",
    "dft_forward",
    "dft_inverse",
    "fractional_symbol",
    "fractional_multiplier",
    "apply_fractional",
    "linear_propagate",
    "apply_spatial_multiplier",
    "evolve_spectrum",
    "free_evolution",
    "spacetime_dft",
    "spacetime_idft",
    "modulation_offset",
    "hdot_norm",
    "duhamel_integral",
]


class ZeroModeError(ValueError):
    """Negative-order multiplier hit the xi = 0 mode with no policy to apply."""


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Periodic lattice truncation of R^n: m points per axis on [0, L)^n."""

    n: int
    m: int
    box_length: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("spatial dimension must be >= 1")
        if not _is_power_of_two(self.m) or self.m < 4:
            raise ValueError("points per axis must be a power of two >= 4")
        if not self.box_length > 0:
            raise ValueError("box length must be positive")

    @property
    def dx(self) -> float:
        return self.box_length / self.m

    @property
    def shape(self) -> tuple:
        return (self.m,) * self.n

    @property
    def npoints(self) -> int:
        return self.m**self.n

    @cached_property
    def freq_1d(self) -> np.ndarray:
        """Frequency lattice per axis in centered order: (2pi/L)*{-m/2..m/2-1}."""
        return (2.0 * np.pi / self.box_length) * np.arange(-self.m // 2, self.m // 2)

    @cached_property
    def freq_norm(self) -> np.ndarray:
        """|xi| on the full lattice, shape (m,)*n, centered order."""
        sq = np.zeros(self.shape)
        for axis in range(self.n):
            shape = [1] * self.n
            shape[axis] = self.m
            sq = sq + (self.freq_1d**2).reshape(shape)
        return np.sqrt(sq)

    def freq_component(self, axis: int) -> np.ndarray:
        shape = [1] * self.n
        shape[axis] = self.m
        return self.freq_1d.reshape(shape)

    def freq_dot(self, e: np.ndarray) -> np.ndarray:
        """<xi, e> on the lattice for a direction vector e."""
        e = np.asarray(e, dtype=float)
        out = np.zeros(self.shape)
        for axis in range(self.n):
            if e[axis] != 0.0:
                out = out + e[axis] * self.freq_component(axis)
        return out

    def coords_1d(self) -> np.ndarray:
        return self.dx * np.arange(self.m)


@dataclass
class Field:
    """Complex lattice function; `values` has shape grid.shape (row-major)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape:
            if self.values.size == self.grid.npoints:
                self.values = self.values.reshape(self.grid.shape)
            else:
                raise ValueError("field size does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field entries must be finite")

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.dx**self.grid.n))

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


@dataclass
class Trajectory:
    """Uniformly sampled time sequence of fields; values shape (T, m, ..., m)."""

    grid: Grid
    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape[1:] != self.grid.shape:
            raise ValueError("trajectory frames do not match grid")
        if not _is_power_of_two(self.values.shape[0]):
            raise ValueError("frame count must be a power of two")
        if not self.dt > 0:
            raise ValueError("dt must be positive")

    @property
    def num_frames(self) -> int:
        return self.values.shape[0]

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.num_frames)

    def frame(self, i: int) -> Field:
        return Field(self.grid, self.values[i])

    def l2_norms(self) -> np.ndarray:
        """Spatial L2 norm per frame."""
        axes = tuple(range(1, self.grid.n + 1))
        return np.sqrt(np.sum(np.abs(self.values) ** 2, axis=axes) * self.grid.dx**self.grid.n)

    def linf_l2(self) -> float:
        return float(np.max(self.l2_norms()))

    def l2_spacetime(self) -> float:
        return float(np.sqrt(np.sum(self.l2_norms() ** 2) * self.dt))

    def copy(self) -> "Trajectory":
        return Trajectory(self.grid, self.t0, self.dt, self.values.copy())


@dataclass
class SpacetimeSpectrum:
    """(n+1)-dimensional spectrum of a (windowed) trajectory.

    values has shape (T, m, ..., m) with the tau axis first, both axes in
    centered order.  Produced by spacetime_dft only.
    """

    grid: Grid
    t0: float
    dt: float
    window: str
    values: np.ndarray

    @property
    def num_frames(self) -> int:
        return self.values.shape[0]

    @property
    def taus(self) -> np.ndarray:
        T = self.num_frames
        return (2.0 * np.pi / (T * self.dt)) * np.arange(-T // 2, T // 2)

    def l2_spacetime(self) -> float:
        """Space-time L2 norm of the underlying trajectory, via Parseval."""
        c = self.grid.box_length**self.grid.n * self.num_frames * self.dt
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) / c))

    def copy(self) -> "SpacetimeSpectrum":
        return SpacetimeSpectrum(self.grid, self.t0, self.dt, self.window, self.values.copy())


def make_grid(n: int, m: int, box_length: float) -> Grid:
    return Grid(n=int(n), m=int(m), box_length=float(box_length))


def dft_forward(f: Field) -> Field:
    """Forward transform with kernel e^{-i xi.x} dx^n, centered output."""
    g = f.grid
    spec = np.fft.fftshift(np.fft.fftn(f.values)) * g.dx**g.n
    return Field(g, spec)


def dft_inverse(F: Field) -> Field:
    """Inverse transform with kernel e^{+i xi.x} (dxi/2pi)^n; exact roundtrip."""
    g = F.grid
    vals = np.fft.ifftn(np.fft.ifftshift(F.values)) / g.dx**g.n
    return Field(g, vals)


def fractional_symbol(xi, beta: float) -> float:
    """Symbol |xi|^beta of D^beta at a single frequency point."""
    norm = float(np.linalg.norm(np.atleast_1d(np.asarray(xi, dtype=float))))
    if norm == 0.0 and beta < 0:
        raise ZeroModeError("D^beta with beta < 0 is undefined at xi = 0")
    return float(norm**beta)


def fractional_multiplier(grid: Grid, beta: float, zero_mode_policy: str = "zero_out") -> np.ndarray:
    """Lattice array |xi|^beta with the zero mode handled per policy."""
    if zero_mode_policy not in ("zero_out", "reject"):
        raise ValueError("zero_mode_policy must be 'zero_out' or 'reject'")
    norm = grid.freq_norm
    zero = norm == 0.0
    if beta >= 0:
        return norm**beta
    mult = np.zeros_like(norm)
    mult[~zero] = norm[~zero] ** beta
    return mult


def apply_fractional(f: Field, beta: float, zero_mode_policy: str = "zero_out") -> Field:
    """Fourier multiplier D^beta = |nabla|^beta on a field."""
    spec = dft_forward(f)
    if beta < 0 and zero_mode_policy == "reject":
        zero_idx = tuple([f.grid.m // 2] * f.grid.n)
        total = np.linalg.norm(spec.values)
        if total > 0 and abs(spec.values[zero_idx]) > 1e-13 * total:
            raise ZeroModeError("negative-order multiplier on a field with nonzero mean")
    mult = fractional_multiplier(f.grid, beta, zero_mode_policy)
    return dft_inverse(Field(f.grid, mult * spec.values))


def linear_propagate(f: Field, t: float, s: float) -> Field:
    """Free propagator e^{i t D^{2s}}: each mode times e^{i t |xi|^{2s}}."""
    if not (0.5 < s <= 1.0):
        raise ValueError("order s must lie in (1/2, 1]")
    spec = dft_forward(f)
    phase = np.exp(1j * t * f.grid.freq_norm ** (2.0 * s))
    return dft_inverse(Field(f.grid, phase * spec.values))


def apply_spatial_multiplier(values: np.ndarray, grid: Grid, mult: np.ndarray) -> np.ndarray:
    """Fourier multiplier mult(xi) over the trailing n axes of `values`.

    `mult` is grid-sized in centred order; only it is shifted to FFT-native
    order, so `values` may carry any leading (time) axes at no extra copy.
    """
    axes = tuple(range(values.ndim - grid.n, values.ndim))
    return np.fft.ifftn(np.fft.ifftshift(mult) * np.fft.fftn(values, axes=axes), axes=axes)


def evolve_spectrum(spec0: np.ndarray, grid: Grid, times: np.ndarray,
                    omega: np.ndarray) -> np.ndarray:
    """Frames dft_inverse(e^{i t omega(xi)} spec0) for each t in `times`.

    spec0 and omega are grid-sized in centred order; the result has shape
    (len(times),) + grid.shape.
    """
    tshape = (-1,) + (1,) * grid.n
    phases = np.exp(1j * np.reshape(times, tshape) * np.fft.ifftshift(omega)[None, ...])
    return np.fft.ifftn(phases * np.fft.ifftshift(spec0)[None, ...],
                        axes=tuple(range(1, grid.n + 1))) / grid.dx**grid.n


def free_evolution(u0: Field, t0: float, dt: float, num_frames: int, s: float) -> Trajectory:
    """Trajectory of e^{i t D^{2s}} u0 on a uniform frame lattice."""
    g = u0.grid
    times = t0 + dt * np.arange(num_frames)
    frames = evolve_spectrum(dft_forward(u0).values, g, times, g.freq_norm ** (2.0 * s))
    return Trajectory(g, t0, dt, frames)


def _window_array(u: Trajectory, window: str) -> np.ndarray:
    if window == "none":
        return np.ones(u.num_frames)
    if window == "taper":
        return window_weights(u.times, fraction=0.1)
    if window.startswith("taper:"):
        return window_weights(u.times, fraction=float(window.split(":", 1)[1]))
    raise ValueError(f"unknown window '{window}'")


def spacetime_dft(u: Trajectory, window: str = "taper") -> SpacetimeSpectrum:
    """Transform of the (optionally tapered) trajectory in all n+1 variables."""
    g = u.grid
    T = u.num_frames
    w = _window_array(u, window)
    vals = u.values * w.reshape((-1,) + (1,) * g.n)
    spatial_axes = tuple(range(1, g.n + 1))
    spec = np.fft.fftshift(np.fft.fftn(vals, axes=spatial_axes), axes=spatial_axes) * g.dx**g.n
    # time axis uses the opposite kernel e^{+i tau t}; realized by ifft * T
    spec = np.fft.fftshift(np.fft.ifft(spec, axis=0), axes=0) * T * u.dt
    taus = (2.0 * np.pi / (T * u.dt)) * np.arange(-T // 2, T // 2)
    spec *= np.exp(1j * taus * u.t0).reshape((-1,) + (1,) * g.n)
    return SpacetimeSpectrum(g, u.t0, u.dt, window, spec)


def spacetime_idft(S: SpacetimeSpectrum) -> Trajectory:
    """Inverse of spacetime_dft; returns the windowed trajectory."""
    g = S.grid
    T = S.num_frames
    taus = S.taus
    vals = S.values * np.exp(-1j * taus * S.t0).reshape((-1,) + (1,) * g.n)
    vals = np.fft.fft(np.fft.ifftshift(vals, axes=0), axis=0) / (T * S.dt)
    spatial_axes = tuple(range(1, g.n + 1))
    vals = np.fft.ifftn(np.fft.ifftshift(vals, axes=spatial_axes), axes=spatial_axes) / g.dx**g.n
    return Trajectory(g, S.t0, S.dt, vals)


def modulation_offset(S: SpacetimeSpectrum, s: float) -> np.ndarray:
    """Distance to the characteristic: r(xi,tau) = tau + |xi|^{2s}, shape of values."""
    g = S.grid
    w2s = g.freq_norm ** (2.0 * s)
    return S.taus.reshape((-1,) + (1,) * g.n) + w2s[None, ...]


def hdot_norm(f: Field, sigma: float) -> float:
    """Lattice homogeneous Sobolev seminorm; the zero mode is excluded."""
    g = f.grid
    spec = dft_forward(f).values
    norm = g.freq_norm
    nz = norm > 0
    weight = np.zeros_like(norm)
    weight[nz] = norm[nz] ** (2.0 * sigma)
    return float(np.sqrt(np.sum(weight * np.abs(spec) ** 2) / g.box_length**g.n))


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


def duhamel_integral(forcing: Trajectory, s: float, rule: str = "trapezoid") -> Trajectory:
    """Windowed Duhamel term -i psi(t) int_0^t e^{i(t-t')D^{2s}} F(t') dt'.

    The integral runs along the frame lattice (signed for t < 0) in the
    interaction picture: W(t') = e^{-i t' D^{2s}} F(t') is accumulated by the
    chosen quadrature rule and propagated forward once per frame.  t = 0 must
    be a frame time.  Works in FFT-native order from end to end.
    """
    if rule not in ("trapezoid", "simpson"):
        raise ValueError("quadrature rule must be 'trapezoid' or 'simpson'")
    g = forcing.grid
    times = forcing.times
    i0 = int(np.argmin(np.abs(times)))
    if abs(times[i0]) > 1e-9 * forcing.dt:
        raise ValueError("t = 0 must lie on the frame lattice")

    w2s = np.fft.ifftshift(g.freq_norm ** (2.0 * s))
    spatial_axes = tuple(range(1, g.n + 1))
    spec = np.fft.fftn(forcing.values, axes=spatial_axes)
    tshape = (-1,) + (1,) * g.n
    W = np.exp(-1j * times.reshape(tshape) * w2s[None, ...]) * spec

    accumulate = _cumulative_trapezoid_from if rule == "trapezoid" else _cumulative_simpson_from
    H = np.zeros_like(W)
    H[i0:] = accumulate(W[i0:], forcing.dt)
    if i0 > 0:
        back = accumulate(W[i0::-1], forcing.dt)
        H[: i0 + 1] = -back[::-1]

    psi = time_cutoff(times)
    out = -1j * psi.reshape(tshape) * np.exp(1j * times.reshape(tshape) * w2s[None, ...]) * H
    vals = np.fft.ifftn(out, axes=spatial_axes)
    return Trajectory(g, forcing.t0, forcing.dt, vals)
