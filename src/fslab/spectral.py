"""Periodic grids, discrete Fourier transforms and the fractional propagator.

Conventions (fixed once, used everywhere):

* space:  F f(xi)  = sum_x e^{-i xi.x} f(x) dx^n,   xi in (2pi/L)*{-m/2..m/2-1}^n
* time:   F u(tau) = sum_t e^{+i tau t} u(t) dt,    tau in (2pi/(T dt))*{-T/2..T/2-1}
* inverses scaled so that the roundtrip is exact to rounding.

The opposite sign on the time axis places the free wave e^{i t |xi|^{2s}}
on the characteristic tau = -|xi|^{2s}, which is the convention the
modulation projections are built on.  With these normalizations Parseval
reads ||f||_{L2}^2 = sum |Ff|^2 / L^n (plus a 1/(T dt) factor in time).

The transforms are numpy.fft's, called from this module only, so every
transform runs on one thread.  An n-D transform writes all its axes into one
result array (_fftn, _ifftn, and rfftn in apply_fractional_values): left to
itself numpy allocates a new result per axis, and on a (64, 32, 32) batch of
frames the page faults of those allocations took longer than the transform.
D^beta of real data (the |u|^2 of the nonlinearity) takes the real
transforms on the half spectrum and stays real.

FFT order is decided in this module only.  Spectra cross the public boundary
(dft_forward, dft_inverse, spatial_spectrum, idft_phases, SpacetimeSpectrum,
and every multiplier built from Grid.freq_1d / Grid.freq_norm) in centred
order, zero mode in the middle.
Internal spatial round trips (apply_spatial_multiplier, evolve_spectrum,
DuhamelOperator) stay in FFT-native order from end to end: only the
grid-sized multiplier is shifted, never a (T, m^n) batch of frames, and the
fractional multipliers keep a cached FFT-native copy so that D^beta shifts
nothing at all.

Every time-independent spatial multiplier is applied by
apply_spatial_multiplier, or for D^beta by apply_fractional_values, to a
field or to all frames at once; the 'reject' zero-mode policy is
check_zero_mode.

The linear time evolution of a frame lattice is one DuhamelOperator: a phase
table e^{i t |xi|^{2s}}, the signed cumulative quadrature rule as a (T, T)
matrix, and the time cut-off.  Every phase table takes one exp per distinct
value of omega(|xi|) and gathers it onto the lattice.  free_evolution and
duhamel_integral each build one; a Picard solve builds one and reuses it
for every step.  The solver carries each iterate's Duhamel part as the
spectrum H that DuhamelOperator.integral_spectrum returns, so that D^beta of
the iterate (apply_fractional_values with
spectrum=DuhamelOperator.spectrum(...)) takes one inverse transform and no
forward one.  The frame-sized results of apply_fractional_values and of the
operator's methods can be written into the caller's arrays (out=, work=).

Symbols that depend only on the lattice (multipliers, modulation-weight
tables, cone partitions, shell weight tables) are memoized in one bounded
cache, keyed by value and handed out read-only; see cached_symbol.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bumps import time_cutoff, window_weights

__all__ = [
    "ZeroModeError",
    "Grid",
    "Field",
    "Trajectory",
    "SpacetimeSpectrum",
    "make_grid",
    "cached_symbol",
    "symbol_cache_info",
    "spatial_spectrum",
    "idft_phases",
    "dft_forward",
    "dft_inverse",
    "fractional_symbol",
    "fractional_multiplier",
    "check_zero_mode",
    "apply_fractional",
    "apply_fractional_values",
    "linear_propagate",
    "apply_spatial_multiplier",
    "evolve_spectrum",
    "free_evolution",
    "spacetime_dft",
    "spacetime_dft_from_spatial",
    "spacetime_idft",
    "partial_idft",
    "offset_lattice",
    "modulation_offset",
    "hdot_norm",
    "hdot_norms",
    "hdot_norms_from_spectrum",
    "DuhamelOperator",
    "cumulative_trapezoid",
    "cumulative_simpson",
    "duhamel_quadrature",
    "duhamel_integral",
]


class ZeroModeError(ValueError):
    """Negative-order multiplier hit the xi = 0 mode with no policy to apply."""


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


def _member_arrays(value):
    """The ndarrays a cached value holds: itself, or its array tuple members."""
    for member in (value if isinstance(value, tuple) else (value,)):
        if isinstance(member, np.ndarray):
            yield member


class _SymbolCache:
    """Least-recently-used store of read-only arrays under a byte budget.

    A value is an array or a tuple of arrays (other tuple members are kept
    as they are).  A value larger than the whole budget is returned
    uncached.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self._entries: OrderedDict = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._lock = threading.Lock()

    def get(self, key: tuple, build):
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return hit[0]
            self._misses += 1
        value = build()
        size = 0
        for arr in _member_arrays(value):
            arr.setflags(write=False)
            size += arr.nbytes
        if size > self.max_bytes:
            return value
        with self._lock:
            if key not in self._entries:
                self._entries[key] = (value, size)
                self._bytes += size
            while self._bytes > self.max_bytes:
                _, (_, evicted) = self._entries.popitem(last=False)
                self._bytes -= evicted
        return value

    def info(self) -> dict:
        with self._lock:
            return {"entries": {key: size for key, (_, size) in self._entries.items()},
                    "bytes": self._bytes, "budget": self.max_bytes,
                    "hits": self._hits, "misses": self._misses}


# Lattice symbols at desk sizes take well under a megabyte each; the budget
# holds the tables of a few grids at once without growing with a long run.
_SYMBOLS = _SymbolCache(max_bytes=64 * 2**20)


def cached_symbol(key: tuple, build):
    """build(), memoized under `key` in the one process-wide symbol cache.

    The key must hold plain values (a Grid, numbers, strings, bytes), never
    object identities, so equal inputs share an entry however they were
    built.  Arrays in the result are read-only: a caller that needs to
    write makes its own copy.
    """
    return _SYMBOLS.get(key, build)


def symbol_cache_info() -> dict:
    """A snapshot of the symbol cache, least recently used entry first.

    `entries` maps each key to its size in bytes; `bytes` is their total,
    `budget` the byte budget, and `hits` and `misses` count the lookups
    since the process started (a miss is a call that built its value).
    """
    return _SYMBOLS.info()


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

    def l2_norms(self) -> np.ndarray:
        """Spatial L2 norm per frame."""
        axes = tuple(range(1, self.grid.n + 1))
        return np.sqrt(np.sum(np.abs(self.values) ** 2, axis=axes) * self.grid.dx**self.grid.n)

    def linf_l2(self) -> float:
        return float(np.max(self.l2_norms()))

    def l2_spacetime(self) -> float:
        return float(np.sqrt(np.sum(self.l2_norms() ** 2) * self.dt))


@dataclass
class SpacetimeSpectrum:
    """(n+1)-dimensional spectrum of a (windowed) trajectory.

    values has shape (T, m, ..., m) with the tau axis first, both axes in
    centered order.  Produced by spacetime_dft (or spacetime_dft_from_spatial).
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
        return _tau_lattice(self.num_frames, self.dt)

    def l2_spacetime(self) -> float:
        """Space-time L2 norm of the underlying trajectory, via Parseval."""
        c = self.grid.box_length**self.grid.n * self.num_frames * self.dt
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) / c))


def _tau_lattice(num_frames: int, dt: float) -> np.ndarray:
    """Temporal frequencies (2pi/(T dt))*{-T/2..T/2-1}, centred order."""
    return (2.0 * np.pi / (num_frames * dt)) * np.arange(-num_frames // 2, num_frames // 2)


def make_grid(n: int, m: int, box_length: float) -> Grid:
    return Grid(n=int(n), m=int(m), box_length=float(box_length))


def _fftn(values: np.ndarray, axes=None, out: np.ndarray | None = None) -> np.ndarray:
    """numpy.fft.fftn of `values` over `axes`, every axis written into one array.

    The result is numpy's own, bit for bit.  `out` may be `values` itself
    when the caller gives its input up.
    """
    if out is None:
        out = np.empty(values.shape, np.result_type(values.dtype, 1j))
    return np.fft.fftn(values, axes=axes, out=out)


def _ifftn(values: np.ndarray, axes=None, out: np.ndarray | None = None) -> np.ndarray:
    """numpy.fft.ifftn of `values` in one result array; see _fftn."""
    if out is None:
        out = np.empty(values.shape, np.result_type(values.dtype, 1j))
    return np.fft.ifftn(values, axes=axes, out=out)


def spatial_spectrum(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Unscaled transform sum_x e^{-i xi.x} f(x) over the trailing n axes, centred order.

    One call transforms every frame of a trajectory; dft_forward is this
    times dx^n on a single field.
    """
    axes = tuple(range(values.ndim - grid.n, values.ndim))
    return np.fft.fftshift(_fftn(values, axes=axes), axes=axes)


def idft_phases(grid: Grid) -> np.ndarray:
    """(m, m) matrix E[p, j] = e^{i xi_j x_p} / m, xi_j in centred order (read-only, cached).

    Contracting a centred spectrum with E along every spatial axis is the
    unscaled inverse transform (ifftn); contracting with a block of
    columns evaluates it from the spectrum on that block alone.
    """
    def build():
        m = grid.m
        # the phase index (j - m/2) p mod m is exact in integers
        turns = (np.outer(np.arange(m), np.arange(m) - m // 2) % m) / m
        return np.exp(2j * np.pi * turns) / m
    return cached_symbol(("idft_phases", grid.m), build)


def dft_forward(f: Field) -> Field:
    """Forward transform with kernel e^{-i xi.x} dx^n, centered output."""
    g = f.grid
    return Field(g, spatial_spectrum(f.values, g) * g.dx**g.n)


def dft_inverse(F: Field) -> Field:
    """Inverse transform with kernel e^{+i xi.x} (dxi/2pi)^n; exact roundtrip."""
    g = F.grid
    vals = _ifftn(np.fft.ifftshift(F.values)) / g.dx**g.n
    return Field(g, vals)


def fractional_symbol(xi, beta: float) -> float:
    """Symbol |xi|^beta of D^beta at a single frequency point."""
    norm = float(np.linalg.norm(np.atleast_1d(np.asarray(xi, dtype=float))))
    if norm == 0.0 and beta < 0:
        raise ZeroModeError("D^beta with beta < 0 is undefined at xi = 0")
    return float(norm**beta)


def fractional_multiplier(grid: Grid, beta: float) -> np.ndarray:
    """Lattice array |xi|^beta with the zero mode set to 0 for beta < 0 (read-only, cached).

    Both zero-mode policies share the array; 'reject' is enforced on the
    data by check_zero_mode before the array is applied.
    """
    return cached_symbol(("fractional", grid, float(beta)),
                         lambda: _fractional_values(grid, beta))


def _fractional_values(grid: Grid, beta: float) -> np.ndarray:
    norm = grid.freq_norm
    zero = norm == 0.0
    if beta >= 0:
        return norm**beta
    mult = np.zeros_like(norm)
    mult[~zero] = norm[~zero] ** beta
    return mult


def check_zero_mode(values: np.ndarray, grid: Grid, beta: float, zero_mode_policy: str) -> None:
    """Under 'reject', raise ZeroModeError if D^beta (beta < 0) meets a nonzero mean.

    Each field's zero mode (sum over the trailing n axes) is compared with
    1e-13 times its spectral l2 norm, sqrt(m^n) ||f||_2 by Parseval.
    """
    if beta >= 0 or zero_mode_policy != "reject":
        return
    axes = tuple(range(values.ndim - grid.n, values.ndim))
    mean = np.abs(np.sum(values, axis=axes))
    total = np.sqrt(grid.npoints * np.sum(np.abs(values) ** 2, axis=axes))
    if np.any(mean > 1e-13 * total):
        raise ZeroModeError(f"D^{beta:g} on data with nonzero mean "
                            f"(|mean| = {np.max(mean) / grid.npoints:.3e}) under 'reject'")


def apply_fractional_values(values: np.ndarray, grid: Grid, beta: float,
                            zero_mode_policy: str = "zero_out",
                            spectrum: np.ndarray | None = None,
                            out: np.ndarray | None = None,
                            work: np.ndarray | None = None) -> np.ndarray:
    """D^beta over the trailing n axes of `values` (a field or all frames at once).

    The zero-mode policy is checked on the data first; the multiplier is the
    cached FFT-native copy of fractional_multiplier, so nothing is shifted.
    Real `values` take the real transforms (rfftn, the multiplier on the
    half spectrum, irfftn) and give a real array; complex ones the complex
    transforms.  `spectrum`, when given with complex values, is their
    spectrum as DuhamelOperator.spectrum returns it, and takes the place of
    the forward transform.  The result is written into `out` and, for real
    values, the half spectrum into `work`, each allocated when not given;
    `out` may be `values` itself when the caller gives its input up.
    """
    if zero_mode_policy not in ("zero_out", "reject"):
        raise ValueError("zero_mode_policy must be 'zero_out' or 'reject'")
    check_zero_mode(values, grid, beta, zero_mode_policy)
    if np.iscomplexobj(values):
        return _apply_native_multiplier(values, grid, _fractional_native(grid, beta),
                                        spectrum, out)
    half = cached_symbol(("fractional_half", grid, float(beta)),
                         lambda: _fractional_native(grid, beta)[..., : grid.m // 2 + 1].copy())
    axes = tuple(range(values.ndim - grid.n, values.ndim))
    if work is None:
        # one array for every axis of the forward transform; see _fftn
        work = np.empty(values.shape[:-1] + half.shape[-1:], complex)
    product = np.fft.rfftn(values, axes=axes, out=work)
    product *= half
    return np.fft.irfftn(product, s=grid.shape, axes=axes, out=out)


def _fractional_native(grid: Grid, beta: float) -> np.ndarray:
    """fractional_multiplier in FFT-native order (read-only, cached)."""
    return cached_symbol(("fractional_native", grid, float(beta)),
                         lambda: np.fft.ifftshift(fractional_multiplier(grid, beta)))


def apply_fractional(f: Field, beta: float, zero_mode_policy: str = "zero_out") -> Field:
    """Fourier multiplier D^beta = |nabla|^beta on a field."""
    return Field(f.grid, apply_fractional_values(f.values, f.grid, beta, zero_mode_policy))


def linear_propagate(f: Field, t: float, s: float) -> Field:
    """Free propagator e^{i t D^{2s}}: each mode times e^{i t |xi|^{2s}}."""
    if not (0.5 < s <= 1.0):
        raise ValueError("order s must lie in (1/2, 1]")
    phase = np.exp(1j * t * f.grid.freq_norm ** (2.0 * s))
    return Field(f.grid, apply_spatial_multiplier(f.values, f.grid, phase))


def apply_spatial_multiplier(values: np.ndarray, grid: Grid, mult: np.ndarray) -> np.ndarray:
    """Fourier multiplier mult(xi) over the trailing n axes of `values`.

    `mult` is grid-sized in centred order; only it is shifted to FFT-native
    order, so `values` may carry any leading (time) axes at no extra copy.
    """
    return _apply_native_multiplier(values, grid, np.fft.ifftshift(mult))


def _apply_native_multiplier(values: np.ndarray, grid: Grid, native: np.ndarray,
                             spectrum: np.ndarray | None = None,
                             out: np.ndarray | None = None) -> np.ndarray:
    """ifftn(native * fftn(values)) over the trailing n axes, in `out` if given.

    `spectrum` is fftn(values) if known.
    """
    axes = tuple(range(values.ndim - grid.n, values.ndim))
    if spectrum is None:
        spectrum = _fftn(values, axes=axes, out=out)
        product = np.multiply(native, spectrum, out=spectrum)
    else:
        product = np.multiply(native, spectrum, out=out)
    # the product is this call's own array, so the inverse may overwrite it
    return _ifftn(product, axes, out=product)


def _phase_table(times: np.ndarray, native_omega: np.ndarray) -> np.ndarray:
    """e^{i t omega(xi)} for each t in `times`; omega grid-sized in FFT-native order.

    Every omega the callers pass is a function of |xi|, which takes few
    distinct values on the lattice (135 of 1024 points at n=2, m=32), so the
    exponential is taken once per distinct value and gathered onto the
    lattice.  Each entry is the exp of the same argument as pointwise, so
    the table is the pointwise one bit for bit.
    """
    values, classes = np.unique(native_omega, return_inverse=True)
    table = np.exp(1j * np.reshape(times, (-1, 1)) * values[None, :])
    return np.take(table, classes.reshape(native_omega.shape), axis=1)


def evolve_spectrum(spec0: np.ndarray, grid: Grid, times: np.ndarray,
                    omega: np.ndarray) -> np.ndarray:
    """Frames dft_inverse(e^{i t omega(xi)} spec0) for each t in `times`.

    spec0 and omega are grid-sized in centred order; the result has shape
    (len(times),) + grid.shape.
    """
    phases = _phase_table(times, np.fft.ifftshift(omega))
    phases *= np.fft.ifftshift(spec0)[None, ...]
    return _ifftn(phases, tuple(range(1, grid.n + 1)), out=phases) / grid.dx**grid.n


def free_evolution(u0: Field, t0: float, dt: float, num_frames: int, s: float) -> Trajectory:
    """Trajectory of e^{i t D^{2s}} u0 on a uniform frame lattice."""
    return DuhamelOperator(u0.grid, t0, dt, num_frames, s).free(u0)


def _window_array(u: Trajectory, window: str) -> np.ndarray:
    if window == "none":
        return np.ones(u.num_frames)
    if window == "taper":
        return window_weights(u.times)
    raise ValueError(f"unknown window '{window}'")


def spacetime_dft(u: Trajectory, window: str = "taper") -> SpacetimeSpectrum:
    """Transform of the (optionally tapered) trajectory in all n+1 variables."""
    w = _window_array(u, window)
    vals = u.values * w.reshape((-1,) + (1,) * u.grid.n)
    return _time_transform(spatial_spectrum(vals, u.grid), u, window)


def spacetime_dft_from_spatial(spec: np.ndarray, u: Trajectory) -> SpacetimeSpectrum:
    """spacetime_dft(u, window="none") given spec = spatial_spectrum(u.values, u.grid).

    Only the time transform is left to do, so a caller that needs both
    spectra of one trajectory transforms its frames in space once.
    """
    return _time_transform(spec, u, "none")


def _time_transform(spec: np.ndarray, u: Trajectory, window: str) -> SpacetimeSpectrum:
    """The time stage of spacetime_dft, from the spatial spectrum of the windowed frames."""
    g = u.grid
    T = u.num_frames
    spec = spec * g.dx**g.n
    # time axis uses the opposite kernel e^{+i tau t}; realized by ifft * T
    spec = np.fft.fftshift(np.fft.ifft(spec, axis=0), axes=0) * T * u.dt
    taus = _tau_lattice(T, u.dt)
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
    vals = np.fft.ifftshift(vals, axes=spatial_axes)
    vals = _ifftn(vals, spatial_axes, out=vals) / g.dx**g.n
    return Trajectory(g, S.t0, S.dt, vals)


def partial_idft(values: np.ndarray, axis: int) -> np.ndarray:
    """Unscaled inverse transform of a centred spectrum along one axis only.

    The centring is not undone: it multiplies each point of the result by a
    unimodular factor, so only the moduli of the result are meaningful.
    """
    return np.fft.ifft(values, axis=axis)


def offset_lattice(grid: Grid, num_frames: int, dt: float, s: float) -> np.ndarray:
    """r(tau, xi) = tau + |xi|^{2s} on the lattice of a T-frame, step-dt spectrum.

    A T-vector broadcast against the cached |xi|^{2s}; the result is not cached.
    """
    w2s = fractional_multiplier(grid, 2.0 * s)
    return _tau_lattice(num_frames, dt).reshape((-1,) + (1,) * grid.n) + w2s[None, ...]


def modulation_offset(S: SpacetimeSpectrum, s: float) -> np.ndarray:
    """Distance to the characteristic: r(xi,tau) = tau + |xi|^{2s}, shape of values."""
    return offset_lattice(S.grid, S.num_frames, S.dt, s)


def _hdot_weight(grid: Grid, sigma: float) -> np.ndarray:
    """|xi|^{2 sigma} with the zero mode set to 0, FFT-native order (read-only, cached)."""
    def build():
        norm = grid.freq_norm
        nz = norm > 0
        weight = np.zeros_like(norm)
        weight[nz] = norm[nz] ** (2.0 * sigma)
        return np.fft.ifftshift(weight)
    return cached_symbol(("hdot_weight", grid, float(sigma)), build)


def hdot_norms(values: np.ndarray, grid: Grid, sigma: float) -> np.ndarray:
    """hdot_norm of every field over the trailing n axes, from one transform."""
    axes = tuple(range(values.ndim - grid.n, values.ndim))
    spec = _fftn(values, axes=axes)
    power = spec.real**2 + spec.imag**2
    scale = grid.dx ** (2 * grid.n) / grid.box_length**grid.n
    return np.sqrt(np.sum(_hdot_weight(grid, sigma) * power, axis=axes) * scale)


def hdot_norms_from_spectrum(spectrum: np.ndarray, grid: Grid, sigma: float) -> np.ndarray:
    """hdot_norms of the frames whose unscaled FFT-native spectrum is `spectrum`.

    Each frame's weighted sum takes one pass over the real view of its
    spectrum, so the norms agree with hdot_norms to rounding, not bit for bit.
    """
    flat = spectrum.reshape(spectrum.shape[0], -1, 1).view(np.float64)
    sums = np.einsum("ijk,ijk,j->i", flat, flat, _hdot_weight(grid, sigma).reshape(-1))
    return np.sqrt(sums * grid.dx ** (2 * grid.n) / grid.box_length**grid.n)


def hdot_norm(f: Field, sigma: float) -> float:
    """Lattice homogeneous Sobolev seminorm; the zero mode is excluded."""
    return float(hdot_norms(f.values, f.grid, sigma))


def _running_sums(intervals: np.ndarray) -> np.ndarray:
    """The interval integrals summed in sequence along axis 0, behind a zero."""
    out = np.zeros((intervals.shape[0] + 1,) + intervals.shape[1:], intervals.dtype)
    np.cumsum(intervals, axis=0, out=out[1:])
    return out


def cumulative_trapezoid(y: np.ndarray, *, dx: float) -> np.ndarray:
    """scipy.integrate.cumulative_trapezoid(y, dx=dx, axis=0, initial=0), bit for bit.

    The same arithmetic in the same order: the interval integrals
    dx * (y[i + 1] + y[i]) / 2.0, summed in sequence behind a zero.
    """
    return _running_sums(dx * (y[1:] + y[:-1]) / 2.0)


def cumulative_simpson(y: np.ndarray, *, dx: float) -> np.ndarray:
    """scipy.integrate.cumulative_simpson(y, dx=dx, axis=0, initial=0), bit for bit.

    Each interval integral comes from the parabola through three neighbouring
    samples, d / 3 * (5 f1 / 4 + 2 f2 - f3 / 4).  As in scipy, the even
    intervals take the parabola ahead of them, the odd ones and the last one
    the parabola behind (the same formula on the reversed samples), and the
    integrals are summed in sequence behind a zero.  Below 3 samples it is
    the trapezoid rule.
    """
    if y.shape[0] < 3:
        sums = cumulative_trapezoid(y, dx=dx)
    else:
        def ahead(f):
            return dx / 3 * (5 * f[:-2] / 4 + 2 * f[1:-1] - f[2:] / 4)

        forward, backward = ahead(y), ahead(y[::-1])[::-1]
        intervals = np.empty((y.shape[0] - 1,) + y.shape[1:], forward.dtype)
        intervals[:-1:2] = forward[::2]
        intervals[1::2] = backward[::2]
        intervals[-1] = backward[-1]
        sums = _running_sums(intervals)
    # scipy adds `initial` to the sums, which turns a -0.0 into 0.0
    return sums + 0.0


def _check_rule(rule: str) -> None:
    if rule not in ("trapezoid", "simpson"):
        raise ValueError("quadrature rule must be 'trapezoid' or 'simpson'")


def duhamel_quadrature(num_frames: int, i0: int, dt: float, rule: str) -> np.ndarray:
    """The signed cumulative rule from frame i0 as a (T, T) matrix (read-only, cached).

    Row i holds the weights of int_{t_i0}^{t_i} over the frames (minus
    int_{t_i}^{t_i0} for i < i0): cumulative_trapezoid or cumulative_simpson,
    the arithmetic of scipy's equal-interval rule (initial=0), pinned bit for
    bit in the tests, applied to the identity, forward from i0 and, reversed,
    backward from it.  Row i0 is exactly zero.
    """
    _check_rule(rule)

    def build():
        accumulate = cumulative_trapezoid if rule == "trapezoid" else cumulative_simpson
        Q = np.zeros((num_frames, num_frames))
        if i0 > 0:
            Q[: i0 + 1, : i0 + 1] = -accumulate(np.eye(i0 + 1), dx=dt)[::-1, ::-1]
        Q[i0:, i0:] = accumulate(np.eye(num_frames - i0), dx=dt)
        return Q
    return cached_symbol(("duhamel_quadrature", int(num_frames), int(i0), float(dt), rule),
                         build)


class DuhamelOperator:
    """The linear time operator of one frame lattice t_i = t0 + i dt, i < num_frames.

    It holds the phase table P = e^{i t |xi|^{2s}}, shape (T,) + grid.shape
    in FFT-native order, and applies

        free(u0)         e^{i t D^{2s}} u0                     = ifftn(P * u0_hat)
        integral(F)      -i psi(t) int_0^t e^{i(t-t')D^{2s}} F(t') dt'
                                                  = ifftn(H),
        integral_spectrum(F)   H = -i psi P * (W @ (conj(P) * F_hat))

    where W = psi(t_i) Q[i, j] are the weights, Q is duhamel_quadrature
    (shared through the symbol cache) and psi the time cut-off, both built
    on the first integral, which needs t = 0 on a frame.  P is as large as a
    trajectory, so it lives as long as the operator and never enters the
    symbol cache.

    Two frame ranges are read off the nonzero pattern of W:
    `active`, the frames whose row or column of W is nonzero, and `inner`,
    the rows with |t| < 1 (where psi = 1) with the columns they read.  H
    vanishes outside the active frames, and an integral transforms,
    multiplies and integrates the active frames only; the other frames of
    H are written as 0.  So a Picard iterate free(u0) + frames(H) equals
    the free evolution outside the active frames, and a step needs the
    forcing on the active frames only.  On the block of W it applies, the
    product is the full product's bit for bit.

    A Picard iterate free(u0) + frames(H) has the spectrum
    spectrum(data_spectrum(u0), H) = P * u0_hat + H, so a caller that keeps
    H needs no forward transform of the iterate.
    """

    def __init__(self, grid: Grid, t0: float, dt: float, num_frames: int, s: float,
                 rule: str = "trapezoid"):
        _check_rule(rule)
        self.grid, self.t0, self.dt, self.rule = grid, t0, dt, rule
        self.times = t0 + dt * np.arange(num_frames)
        self.phases = _phase_table(self.times, np.fft.ifftshift(grid.freq_norm ** (2.0 * s)))
        self._axes = tuple(range(1, grid.n + 1))

    @property
    def num_frames(self) -> int:
        return self.times.size

    @cached_property
    def _weights(self) -> np.ndarray:
        """psi(t_i) Q[i, j]: the quadrature rows scaled by the cut-off."""
        times = self.times
        i0 = int(np.argmin(np.abs(times)))
        if abs(times[i0]) > 1e-9 * self.dt:
            raise ValueError("t = 0 must lie on the frame lattice")
        Q = duhamel_quadrature(self.num_frames, i0, self.dt, self.rule)
        return time_cutoff(times)[:, None] * Q

    @cached_property
    def active(self) -> slice:
        """The span of the frames whose row or column of the weights is nonzero."""
        nonzero = self._weights != 0.0
        return _span(np.any(nonzero, axis=1) | np.any(nonzero, axis=0))

    @cached_property
    def inner(self) -> tuple:
        """(rows, cols): the rows with |t| < 1, and the span of those rows and
        of the columns their weights read."""
        rows = np.abs(self.times) < 1.0
        cols = _span(rows | np.any(self._weights[rows] != 0.0, axis=0))
        return _span(rows), cols

    def data_spectrum(self, u0: Field) -> np.ndarray:
        """u0_hat: the unscaled spectrum of the data, FFT-native order."""
        return _fftn(u0.values)

    def frames(self, spectrum: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The frames whose unscaled FFT-native spectrum is `spectrum` (one inverse transform).

        They are written into `out` if given.
        """
        return _ifftn(spectrum, axes=self._axes, out=out)

    def spectrum(self, data_hat: np.ndarray, duhamel: np.ndarray | None = None,
                 work: np.ndarray | None = None, frames: slice = slice(None)) -> np.ndarray:
        """P * data_hat + duhamel: the spectrum of the frames free(u0) + frames(duhamel).

        `data_hat` is data_spectrum(u0) and `duhamel` an integral_spectrum,
        both on the frames `frames` (all by default).  The sum is formed in
        the `duhamel` array, which the caller gives up; P * data_hat is formed
        in `work` (allocated when not given), which is the result when there
        is no `duhamel`.
        """
        free_part = np.multiply(self.phases[frames], data_hat, out=work)
        if duhamel is None:
            return free_part
        duhamel += free_part
        return duhamel

    def free(self, u0: Field) -> Trajectory:
        """The free evolution e^{i t D^{2s}} u0 on the frames, in one frame-sized array."""
        g = self.grid
        spectrum = self.spectrum(self.data_spectrum(u0) * g.dx**g.n)
        frames = self.frames(spectrum, out=spectrum)
        frames /= g.dx**g.n
        return Trajectory(g, self.t0, self.dt, frames)

    def integral_spectrum(self, forcing: np.ndarray, out: np.ndarray | None = None,
                          work: np.ndarray | None = None,
                          block: tuple | None = None) -> np.ndarray:
        """H, the FFT-native spectrum of the Duhamel term of the forcing frames.

        All arrays hold all T frames.  By default H is formed on the active
        frames from the forcing there, written as 0 elsewhere, and returned
        whole.  With `block` = (rows, cols), such as `inner`, H is formed on
        `rows` from the forcing on `cols`, which must hold every column
        those rows read, and out[rows] is returned; the rest of `out` is
        scratch.  H is written into `out` and the forcing's spectrum into
        `work`, each allocated when not given; `work` may be `forcing`
        itself when the caller gives the forcing up.  Only the forcing on
        the columns used is read.
        """
        T = self.num_frames
        if forcing.shape[0] != T:
            raise ValueError("forcing frames do not match the operator's lattice")
        rows, cols = (self.active, self.active) if block is None else block
        if out is None:
            out = np.empty(forcing.shape, complex)
        W = _fftn(forcing[cols], axes=self._axes,
                  out=None if work is None else work[cols])
        # conj(P) is held in H's array until the product is taken
        W *= np.conjugate(self.phases[cols], out=out[cols])
        H = out[rows]
        # the real weights act on the real and imaginary parts alike
        points = self.grid.npoints
        np.matmul(self._weights[rows, cols], W.reshape(-1, points).view(np.float64),
                  out=H.reshape(-1, points).view(np.float64))
        H *= self.phases[rows]
        H *= -1j
        if block is not None:
            return H
        out[: rows.start] = 0.0
        out[rows.stop:] = 0.0
        return out

    def integral(self, forcing: Trajectory) -> Trajectory:
        """The windowed Duhamel term of a forcing on the same frames."""
        H = self.integral_spectrum(forcing.values)
        return Trajectory(self.grid, forcing.t0, forcing.dt, self.frames(H))


def _span(mask: np.ndarray) -> slice:
    """The slice from the first to the last True entry of `mask` (empty if none)."""
    index = np.flatnonzero(mask)
    return slice(int(index[0]), int(index[-1]) + 1) if index.size else slice(0, 0)


def duhamel_integral(forcing: Trajectory, s: float, rule: str = "trapezoid") -> Trajectory:
    """Windowed Duhamel term -i psi(t) int_0^t e^{i(t-t')D^{2s}} F(t') dt'.

    The integral runs along the frame lattice (signed for t < 0) in the
    interaction picture, by the arithmetic of scipy's equal-interval rule
    (pinned bit for bit in the tests) in matrix form; see DuhamelOperator.
    t = 0 must be a frame time.
    """
    op = DuhamelOperator(forcing.grid, forcing.t0, forcing.dt, forcing.num_frames, s, rule)
    return op.integral(forcing)
