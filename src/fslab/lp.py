"""Littlewood-Paley projections, box tilings and the directional cone atlas.

A projection is its multiplier, applied by project(X, mult) to a centred
spectrum: dyadic shells Delta_k (dyadic_shell), modulation shells Q_j
measured from the characteristic tau = -|xi|^{2s} (modulation_shell of
modulation_offset), boxes P_{k,l} (box_multiplier) and cone cutoffs theta_e
(ConeAtlas.multiplier, or cone_cutoff_values).  signed_axis is the one rule
from a direction to a lattice axis; an atlas applies it once (signed_axes)
and is identified in the symbol cache by its values (key).

The grid-only symbols (dyadic shells, the cone partition table, the
modulation-weight table and the per-shell weight tables of the X_k / Y_k^e
kernels) come from the one symbol cache in spectral.py, the modulation
table per |xi| class.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

from . import bumps
from .spectral import (
    Field,
    Grid,
    SpacetimeSpectrum,
    Trajectory,
    _tau_lattice,
    cached_symbol,
    fractional_multiplier,
    modulation_offset,
    spacetime_dft,
    spacetime_idft,
)

__all__ = [
    "ConeAtlas",
    "ModulationWeights",
    "build_cone_atlas",
    "cone_cutoff_values",
    "project",
    "box_lattice",
    "box_centers",
    "box_multiplier",
    "dyadic_shell",
    "modulation_shell",
    "modulation_split",
    "modulation_weights",
    "max_modulation_index",
    "ShellTable",
    "shell_table",
    "signed_axis",
    "y_gate",
]


def _sphere_candidates(n: int, count: int, seed: int) -> np.ndarray:
    """Dense candidate set on S^{n-1} for the greedy cap covering."""
    if n == 2:
        angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if n == 3:
        # Fibonacci sphere
        i = np.arange(count) + 0.5
        z = 1.0 - 2.0 * i / count
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        golden = np.pi * (3.0 - np.sqrt(5.0))
        th = golden * i
        return np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    axes = np.concatenate([np.eye(n), -np.eye(n)], axis=0)
    return np.concatenate([axes, pts], axis=0)


@dataclass(eq=False)
class ConeAtlas:
    """Finite direction set on S^{n-1} with a smooth partition of unity.

    Each theta_e is supported in the cap {<omega, e> >= margin}; the bumps
    plateau inside the covering radius, so the normalizing denominator is
    bounded away from zero everywhere on the sphere.  Atlases compare by
    identity; `key` holds the values that the symbol cache compares.
    """

    n: int
    margin: float
    directions: np.ndarray
    plateau_cos: float
    support_cos: float

    @property
    def num_directions(self) -> int:
        return self.directions.shape[0]

    @cached_property
    def key(self) -> tuple:
        """The atlas's values as plain numbers: its identity in the symbol cache."""
        return (self.n, self.margin, self.plateau_cos, self.support_cos,
                tuple(map(tuple, self.directions.tolist())))

    @cached_property
    def signed_axes(self) -> tuple:
        """signed_axis of every direction; the Y_k^e kernels take no other atlas."""
        return tuple(signed_axis(e, self.n) for e in self.directions)

    def _raw_bumps(self, omegas: np.ndarray) -> np.ndarray:
        """Unnormalized cap bumps, shape (num_directions, num_points)."""
        dots = self.directions @ omegas.T
        width = self.plateau_cos - self.support_cos
        return bumps.smooth_step((dots - self.support_cos) / width)

    def partition_values(self, omegas) -> np.ndarray:
        """theta_e at unit vectors; rows sum to 1.  Shape (K, num_points)."""
        omegas = np.atleast_2d(np.asarray(omegas, dtype=float))
        raw = self._raw_bumps(omegas)
        total = raw.sum(axis=0)
        if np.any(total <= 0.0):
            raise ValueError("cone atlas does not cover the sphere; rebuild with smaller margin")
        return raw / total

    def multipliers(self, grid: Grid) -> np.ndarray:
        """theta_e(xi/|xi|) for every direction, shape (K,) + grid.shape; zero mode gets 0.

        Built once per grid and atlas key, then served read-only from the
        symbol cache.
        """
        return cached_symbol(("cone_atlas", grid, self.key),
                             lambda: self._multiplier_table(grid))

    def _multiplier_table(self, grid: Grid) -> np.ndarray:
        norm = grid.freq_norm
        flat = np.stack([grid.freq_component(a) * np.ones(grid.shape) for a in range(grid.n)],
                        axis=-1).reshape(-1, grid.n)
        nz = norm.reshape(-1) > 0
        omegas = flat[nz] / norm.reshape(-1)[nz, None]
        out = np.zeros((self.num_directions, grid.npoints))
        out[:, nz] = self.partition_values(omegas)
        return out.reshape((self.num_directions,) + grid.shape)

    def multiplier(self, grid: Grid, index: int) -> np.ndarray:
        """theta_e(xi/|xi|) on the frequency lattice for one direction (read-only)."""
        return self.multipliers(grid)[index]


def build_cone_atlas(n: int, margin: float) -> ConeAtlas:
    """Greedy cap covering of S^{n-1} with caps of angular radius acos(margin).

    The covering (plateau) radius is 70% of the support radius, so every
    unit vector lies in the plateau of at least one cap and the normalized
    bumps form a partition of unity supported in {<omega,e> >= margin}.
    """
    if n < 2:
        raise ValueError("cone atlas needs n >= 2")
    if not 0.0 < margin < 1.0:
        raise ValueError("margin must lie in (0, 1)")
    alpha_support = np.arccos(margin)
    alpha_plateau = 0.7 * alpha_support

    if n == 2:
        K = int(np.ceil(np.pi / alpha_plateau))
        angles = 2.0 * np.pi * np.arange(K) / K
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        count = 4000 if n == 3 else 20000
        cands = _sphere_candidates(n, count, 0)
        # greedy packing at 0.85*plateau leaves room for candidate discreteness
        cos_pack = np.cos(0.85 * alpha_plateau)
        chosen = []
        for c in cands:
            if not chosen or np.max(np.asarray(chosen) @ c) < cos_pack:
                chosen.append(c)
        dirs = np.asarray(chosen)

    atlas = ConeAtlas(
        n=n,
        margin=float(margin),
        directions=dirs,
        plateau_cos=float(np.cos(alpha_plateau)),
        support_cos=float(margin),
    )
    # fail fast if the greedy covering left a hole
    probe = _sphere_candidates(n, 2048 if n > 2 else 720, 1)
    atlas.partition_values(probe)
    return atlas


def cone_cutoff_values(grid: Grid, e, margin: float) -> np.ndarray:
    """Standalone smooth cone cutoff along direction e (not tied to an atlas).

    Supported in {<xi/|xi|, e> >= margin}, equal to 1 on a strictly smaller
    cap; the zero mode gets 0.
    """
    e = np.asarray(e, dtype=float)
    e = e / np.linalg.norm(e)
    norm = grid.freq_norm
    dots = grid.freq_dot(e)
    out = np.zeros(grid.shape)
    nz = norm > 0
    plateau = min(0.5 * (margin + 1.0), margin + 0.2 * (1.0 - margin) + 0.1)
    plateau = min(plateau, 1.0 - 1e-3)
    width = plateau - margin
    out[nz] = bumps.smooth_step((dots[nz] / norm[nz] - margin) / width)
    return out


def signed_axis(e, n: int) -> tuple:
    """(axis, sign) of e, an axis index 0 <= e < n (sign +1) or a vector along
    one of +-e_axis in R^n; any other e raises ValueError."""
    if isinstance(e, (int, np.integer)):
        if not 0 <= e < n:
            raise ValueError(f"axis index {e} out of range for n = {n}")
        return int(e), 1.0
    unit = np.asarray(e, dtype=float)
    length = np.linalg.norm(unit)
    if unit.shape == (n,) and length > 0.0:
        unit = unit / length
        axis = int(np.argmax(np.abs(unit)))
        sign = float(np.sign(unit[axis]))
        if np.linalg.norm(unit - sign * np.eye(n)[axis]) <= 1e-9:
            return axis, sign
    raise ValueError(f"direction {tuple(np.ravel(e).tolist())} is not a signed lattice axis "
                     f"of R^{n}; rotated evaluation not enabled")


def dyadic_shell(grid: Grid, k: int) -> np.ndarray:
    """Symbol phi(|xi| / 2^k) of Delta_k on the lattice (read-only, cached)."""
    return cached_symbol(("dyadic_shell", grid, k),
                         lambda: bumps.phi_shell(grid.freq_norm / 2.0**k))


def modulation_shell(r, j: int):
    """Symbol of the modulation shell Q_j at offsets r = tau + |xi|^{2s}.

    eta(r) for j = 0 and phi(r / 2^j) above, so the shells telescope to 1.
    """
    if j == 0:
        return bumps.eta_bump(r)
    return bumps.phi_shell(r / 2.0**j)


def project(X, mult: np.ndarray):
    """mult * X for a frequency-side Field or a SpacetimeSpectrum X.

    A spatial symbol is grid-shaped; a Q_j symbol is shaped (T,) + grid and
    takes a SpacetimeSpectrum only.
    """
    if isinstance(X, SpacetimeSpectrum):
        return SpacetimeSpectrum(X.grid, X.t0, X.dt, X.window, mult * X.values)
    if not isinstance(X, Field) or np.shape(mult) != X.grid.shape:
        raise TypeError("project takes a Field (frequency side) with a grid-shaped "
                        "multiplier, or a SpacetimeSpectrum")
    return Field(X.grid, mult * X.values)


def box_lattice(grid: Grid, k: int) -> tuple:
    """Per-axis box centres and their chi table, (axis_vals, table).

    axis_vals = 2^k * {-lmax..lmax} holds every centre whose chi-box meets the
    grid; table[i] = chi((xi - axis_vals[i]) / 2^k) on the centred axis.
    """
    scale = 2.0**k
    ximax = float(np.max(np.abs(grid.freq_1d)))
    lmax = int(np.floor((ximax + scale * 2.0 / 3.0) / scale))
    axis_vals = scale * np.arange(-lmax, lmax + 1)
    return axis_vals, bumps.chi_box((grid.freq_1d[None, :] - axis_vals[:, None]) / scale)


def box_centers(grid: Grid, k: int) -> list:
    """Box lattice 2^k Z^n restricted to centers whose chi-box meets the grid."""
    axis_vals, _ = box_lattice(grid, k)
    grids = np.meshgrid(*([axis_vals] * grid.n), indexing="ij")
    return [tuple(float(g[idx]) for g in grids) for idx in np.ndindex(grids[0].shape)]


def box_multiplier(grid: Grid, k: int, l) -> np.ndarray:
    """Symbol of P_{k,l}: the outer product of the box_lattice rows of centre l.

    l must be one of box_centers(grid, k); anything else raises ValueError.
    """
    axis_vals, table = box_lattice(grid, k)
    if len(l) != grid.n or not np.all(np.isin(l, axis_vals)):
        raise ValueError(f"box centre {tuple(l)} is not on the box lattice of k = {k}")
    return reduce(np.multiply.outer, [table[np.flatnonzero(axis_vals == c)[0]] for c in l])


def max_modulation_index(grid: Grid, dt: float, num_frames: int, s: float) -> int:
    """Largest modulation bin representable on the tau lattice.

    Chosen so that eta(r / 2^{jmax}) = 1 for every representable offset r,
    so that Q_0 .. Q_jmax sum to exactly 1 on the lattice.
    """
    tau_max = np.pi / dt
    r_max = tau_max + float(np.max(grid.freq_norm)) ** (2.0 * s)
    return max(1, int(np.ceil(np.log2(max(r_max, 2.0) / 1.5))))


class ModulationWeights(NamedTuple):
    """Squared Q_j symbols on one (tau, xi) lattice, per |xi| class, for X_k-type reductions.

    Q_j reads xi only through r = tau + |xi|^{2s}.  `classes` maps each
    lattice point (centred order, flattened) to its class of equal
    |xi|^{2s}; at the offset r of each (tau, class), `lower` is the lowest
    shell j that r meets and `squares[tau, :, class]` holds Q_j(r)^2 and
    Q_{j+1}(r)^2.  phi(r / 2^j) is nonzero only for 0.75 * 2^j < |r| <
    1.9 * 2^j and eta(r) only for |r| < 1.9, so each offset meets at most two
    consecutive shells; a missed shell weighs 0, and `lower` stops at
    j_max - 1.  The Q_j telescope to exactly 1 on the whole lattice, so no
    remainder is left over.
    """

    j_max: int
    classes: np.ndarray
    lower: np.ndarray
    squares: np.ndarray

    def resolved_sums(self, power: np.ndarray) -> np.ndarray:
        """sum_tau |Q_j f^|^2 at every (j, xi), shape (j_max + 1, m^n), from power = |f^|^2.

        The (tau, shell pair, xi) terms are added into their (j, xi) bins one
        block of frames at a time, in tau-major order, so that each bin adds
        its terms in ascending tau."""
        npoints = self.classes.size
        sums = np.zeros((self.j_max + 1) * npoints)
        power = power.reshape(len(self.lower), 1, npoints)
        step = max(1, _BLOCK_TERMS // (2 * npoints))
        for start in range(0, len(self.lower), step):
            frames = slice(start, start + step)
            bins = np.take(self.lower[frames, None, :] + _SHELL_PAIR, self.classes, axis=2)
            bins *= npoints
            bins += np.arange(npoints)
            terms = np.take(self.squares[frames], self.classes, axis=2)
            terms *= power[frames]
            np.add.at(sums, bins.ravel(), terms.ravel())
        return sums.reshape(self.j_max + 1, npoints)


_SHELL_PAIR = np.arange(2)[:, None]
# terms per block of frames (at least one frame per block): the temporaries
# of a call are two block-sized arrays, not two of 2 T m^n entries
_BLOCK_TERMS = 2**14


def modulation_weights(grid: Grid, num_frames: int, dt: float, s: float) -> ModulationWeights:
    """Modulation-weight table for Q_0 .. Q_jmax, built once per (grid, T, dt, s)."""
    key = ("modulation_weights", grid, int(num_frames), float(dt), float(s))
    return cached_symbol(key, lambda: _build_modulation_weights(grid, num_frames, dt, s))


def _build_modulation_weights(grid: Grid, num_frames: int, dt: float,
                              s: float) -> ModulationWeights:
    values, classes = np.unique(fractional_multiplier(grid, 2.0 * s), return_inverse=True)
    # the offsets of offset_lattice, once per (tau, class)
    r = _tau_lattice(num_frames, dt)[:, None] + values[None, :]
    size = np.abs(r)
    j_max = max_modulation_index(grid, dt, num_frames, s)
    # lower starts at j_max - 1, so that an offset that meets Q_jmax alone
    # holds it in the upper slot
    lower = np.full(r.shape, j_max - 1)
    squares = np.zeros((num_frames, 2, values.size))
    mult_sum = np.zeros_like(r)
    for j in range(j_max + 1):
        # Q_j vanishes exactly off 2^{j-1} < |r| < 2^{j+1} (j >= 1; |r| < 2 for
        # j = 0), so only those offsets are evaluated
        band = size < 2.0 ** (j + 1)
        if j > 0:
            band &= size > 2.0 ** (j - 1)
        tau, cls = np.nonzero(band)
        mult = modulation_shell(r[tau, cls], j)
        mult_sum[tau, cls] += mult
        nonzero = mult != 0.0
        tau, cls = tau[nonzero], cls[nonzero]
        lower[tau, cls] = np.minimum(lower[tau, cls], j)
        squares[tau, j - lower[tau, cls], cls] = mult[nonzero] ** 2
    if np.any(mult_sum != 1.0):
        raise ValueError(f"modulation shells Q_0 .. Q_{j_max} do not sum to 1 on the lattice")
    return ModulationWeights(j_max, classes.ravel(), lower, squares)


def _shell_gate(grid: Grid, k: int) -> np.ndarray:
    """Support gate of X_k: 2^{k-1} <= |xi| <= 2^{k+1}, the closed hull of supp phi_k."""
    norm = grid.freq_norm
    return (norm >= 2.0 ** (k - 1)) & (norm <= 2.0 ** (k + 1))


def y_gate(grid: Grid, k: int, axis: int, sign: float, margin: float) -> np.ndarray:
    """Support gate of Y_k^e, e = sign * (unit vector of `axis`): the shell
    gate, <xi, e> > 0 and <xi, e> >= margin 2^{k-1}, the floor matching the
    lower edge of the shell."""
    dots = sign * grid.freq_component(axis) * np.ones(grid.shape)
    return _shell_gate(grid, k) & (dots > 0) & (dots >= margin * 2.0 ** (k - 1))


class ShellTable(NamedTuple):
    """The weights of every X_k and Y_k^e of one shell, on the points they live on.

    `index` selects the table's points from the flattened m^n lattice
    (centred order): for a localized table the points where phi_k is
    nonzero (all inside 1/2 < |xi| / 2^k < 2), so a lattice point lies in at
    most two tables; slice(None) for the whole lattice with no shell bump.
    Branch 0 is the all-X branch, branch 1 + e the atlas cone e; `axes[e]`
    is that cone's lattice axis.  `amplitude[e]` is phi_k theta_e (theta_e
    unlocalized) and `squares` the squared amplitudes of every branch
    (phi_k^2, then phi_k^2 theta_e^2).  `off_gate` is True off a branch's
    support gate: row 0 off _shell_gate(k), the X gate of every branch, row
    1 + e off y_gate of cone e.  `lines[a]` packs a localized table's points
    into the lattice lines along axis a that hold any of them: the i-th
    point goes to row lines[a, i] = l m + xi_a of a (num_lines[a] m)-row
    array, l the rank of its line, so a transform along a skips the empty
    lines.  The whole lattice is transformed as it is (lines is None).
    """

    index: np.ndarray | slice
    axes: tuple
    amplitude: np.ndarray
    squares: np.ndarray
    off_gate: np.ndarray
    lines: np.ndarray | None
    num_lines: tuple | None


def shell_table(grid: Grid, k: int, atlas: ConeAtlas | None, localized: bool) -> ShellTable:
    """The ShellTable of shell k and `atlas` (None: the all-X branch only).

    A localized table is cached whole.  The whole-lattice table is
    assembled per call: its amplitudes are the cached atlas multipliers and
    only its gate rows, the one part that depends on k, are cached.
    """
    atlas_key = None if atlas is None else atlas.key
    if localized:
        key = ("shell_table", grid, int(k), atlas_key)
        return cached_symbol(key, lambda: _build_shell_table(grid, k, atlas))
    axes, thetas = _atlas_axes(atlas), _thetas(grid, atlas)
    off_gate = cached_symbol(("shell_gates", grid, int(k), atlas_key),
                             lambda: ~_gates(grid, k, atlas))
    squares = np.concatenate([np.ones((1, grid.npoints)), thetas**2])
    return ShellTable(slice(None), axes, thetas, squares, off_gate, None, None)


def _atlas_axes(atlas: ConeAtlas | None) -> tuple:
    return () if atlas is None else tuple(axis for axis, _ in atlas.signed_axes)


def _thetas(grid: Grid, atlas: ConeAtlas | None) -> np.ndarray:
    """theta_e on the flattened lattice, shape (K, m^n); K = 0 without an atlas."""
    if atlas is None:
        return np.zeros((0, grid.npoints))
    return atlas.multipliers(grid).reshape(atlas.num_directions, -1)


def _gates(grid: Grid, k: int, atlas: ConeAtlas | None) -> np.ndarray:
    """_shell_gate(k), then y_gate of every atlas cone, shape (1 + K, m^n)."""
    gates = [_shell_gate(grid, k)]
    if atlas is not None:
        gates += [y_gate(grid, k, axis, sign, atlas.margin) for axis, sign in atlas.signed_axes]
    return np.stack(gates).reshape(len(gates), -1)


def _build_shell_table(grid: Grid, k: int, atlas: ConeAtlas | None) -> ShellTable:
    bump = dyadic_shell(grid, k).ravel()
    index = np.flatnonzero(bump)
    bump = bump[index]
    amplitude = bump * _thetas(grid, atlas)[:, index]
    squares = np.concatenate([bump[None, :], amplitude]) ** 2
    off_gate = ~_gates(grid, k, atlas)[:, index]
    coords = np.unravel_index(index, grid.shape)
    lines, num_lines = [], []
    for a in range(grid.n):
        perp = [c for b, c in enumerate(coords) if b != a]
        line = (np.ravel_multi_index(perp, (grid.m,) * (grid.n - 1)) if perp
                else np.zeros_like(coords[a]))
        ranks, rank = np.unique(line, return_inverse=True)
        lines.append(rank * grid.m + coords[a])
        num_lines.append(ranks.size)
    return ShellTable(index, _atlas_axes(atlas), amplitude, squares, off_gate,
                      np.stack(lines), tuple(num_lines))


def modulation_split(u: Trajectory, s: float, j_max: int | None = None,
                     window: str = "taper"):
    """Split a trajectory into modulation shells Q_0 .. Q_jmax plus remainder.

    Returns (pieces, remainder) where pieces is a list of (j, Trajectory).
    The pieces and remainder sum back to the windowed trajectory.  A warning
    is issued when the remainder carries more than 1% of the energy (the tau
    lattice was too coarse for the data).
    """
    S = spacetime_dft(u, window=window)
    if j_max is None:
        j_max = max_modulation_index(u.grid, u.dt, u.num_frames, s)
    r = modulation_offset(S, s)
    total = np.zeros_like(S.values)
    pieces = []
    for j in range(j_max + 1):
        piece = project(S, modulation_shell(r, j))
        total += piece.values
        pieces.append((j, spacetime_idft(piece)))
    rem_vals = S.values - total
    remainder = spacetime_idft(SpacetimeSpectrum(S.grid, S.t0, S.dt, S.window, rem_vals))
    energy = np.sum(np.abs(S.values) ** 2)
    rem_energy = np.sum(np.abs(rem_vals) ** 2)
    if energy > 0 and rem_energy > 1e-2 * energy:
        warnings.warn(
            f"modulation remainder holds {rem_energy / energy:.1%} of the energy; "
            "tau lattice too coarse", stacklevel=2)
    return pieces, remainder
