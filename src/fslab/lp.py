"""Littlewood-Paley projections, box tilings and the directional cone atlas.

All projections act by pointwise multiplication on a centered spectrum:
dyadic shells Delta_k and their cumulative Delta_{<=k}, modulation shells
Q_j measured from the characteristic tau = -|xi|^{2s}, box projections
P_{k,l} built from translated chi cutoffs, and cone cutoffs theta_e from a
finite partition of unity on the unit sphere.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import bumps
from .spectral import (
    Field,
    Grid,
    SpacetimeSpectrum,
    Trajectory,
    modulation_offset,
    spacetime_dft,
    spacetime_idft,
)

__all__ = [
    "ConeAtlas",
    "ProjectionSpec",
    "build_cone_atlas",
    "cone_cutoff_values",
    "project",
    "box_centers",
    "modulation_shell",
    "modulation_split",
    "max_modulation_index",
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


@dataclass
class ConeAtlas:
    """Finite direction set on S^{n-1} with a smooth partition of unity.

    Each theta_e is supported in the cap {<omega, e> >= margin}; the bumps
    plateau inside the covering radius, so the normalizing denominator is
    bounded away from zero everywhere on the sphere.
    """

    n: int
    margin: float
    directions: np.ndarray
    plateau_cos: float
    support_cos: float

    @property
    def num_directions(self) -> int:
        return self.directions.shape[0]

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

    def multiplier(self, grid: Grid, index: int) -> np.ndarray:
        """theta_e(xi/|xi|) on the frequency lattice; zero mode gets 0."""
        norm = grid.freq_norm
        flat = np.stack([grid.freq_component(a) * np.ones(grid.shape) for a in range(grid.n)],
                        axis=-1).reshape(-1, grid.n)
        nz = norm.reshape(-1) > 0
        omegas = flat[nz] / norm.reshape(-1)[nz, None]
        vals = self.partition_values(omegas)[index]
        out = np.zeros(grid.npoints)
        out[nz] = vals
        return out.reshape(grid.shape)

    def export_document(self) -> dict:
        return {
            "n": self.n,
            "margin": self.margin,
            "num_directions": self.num_directions,
            "directions": self.directions.tolist(),
            "plateau_cos": self.plateau_cos,
            "support_cos": self.support_cos,
            "bumps": {"eta": bumps._ETA.params(), "chi": bumps._CHI.params()},
        }


def build_cone_atlas(n: int, margin: float, seed: int = 0) -> ConeAtlas:
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
        cands = _sphere_candidates(n, count, seed)
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
    probe = _sphere_candidates(n, 2048 if n > 2 else 720, seed + 1)
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


@dataclass
class ProjectionSpec:
    """Which multiplier to apply: dyadic / dyadic_leq / modulation / box / cone."""

    kind: str
    k: int | None = None
    j: int | None = None
    l: tuple | None = None
    e: int | np.ndarray | None = None
    s: float | None = None
    margin: float | None = None
    atlas: ConeAtlas | None = None
    atlas_index: int | None = None

    def __post_init__(self):
        kinds = ("dyadic", "dyadic_leq", "modulation", "box", "cone")
        if self.kind not in kinds:
            raise ValueError(f"kind must be one of {kinds}")
        if self.kind in ("dyadic", "dyadic_leq") and self.k is None:
            raise ValueError("dyadic projection needs k")
        if self.kind == "modulation" and (self.j is None or self.s is None):
            raise ValueError("modulation projection needs j and s")
        if self.kind == "box" and (self.k is None or self.l is None):
            raise ValueError("box projection needs k and l")
        if self.kind == "cone":
            if self.atlas is not None:
                if self.atlas_index is None:
                    raise ValueError("cone projection from an atlas needs atlas_index")
            elif self.e is None or self.margin is None:
                raise ValueError("standalone cone projection needs e and margin")


def _spatial_multiplier(grid: Grid, spec: ProjectionSpec) -> np.ndarray:
    if spec.kind == "dyadic":
        return bumps.phi_shell(grid.freq_norm / 2.0**spec.k)
    if spec.kind == "dyadic_leq":
        return bumps.eta_bump(grid.freq_norm / 2.0**spec.k)
    if spec.kind == "box":
        scale = 2.0**spec.k
        mult = np.ones(grid.shape)
        for axis in range(grid.n):
            mult = mult * bumps.chi_box((grid.freq_component(axis) - spec.l[axis]) / scale)
        return mult
    if spec.kind == "cone":
        if spec.atlas is not None:
            return spec.atlas.multiplier(grid, spec.atlas_index)
        return cone_cutoff_values(grid, spec.e, spec.margin)
    raise ValueError(f"not a spatial projection: {spec.kind}")


def modulation_shell(r, j: int):
    """Symbol of the modulation shell Q_j at offsets r = tau + |xi|^{2s}.

    eta(r) for j = 0 and phi(r / 2^j) above, so the shells telescope to 1.
    """
    if j == 0:
        return bumps.eta_bump(r)
    return bumps.phi_shell(r / 2.0**j)


def project(X, spec: ProjectionSpec):
    """Apply the named cutoff to a frequency-side Field or a SpacetimeSpectrum."""
    if spec.kind == "modulation":
        if not isinstance(X, SpacetimeSpectrum):
            raise TypeError("modulation projections Q_j need a SpacetimeSpectrum")
        mult = modulation_shell(modulation_offset(X, spec.s), spec.j)
        return SpacetimeSpectrum(X.grid, X.t0, X.dt, X.window, mult * X.values)
    mult = _spatial_multiplier(X.grid, spec)
    if isinstance(X, SpacetimeSpectrum):
        return SpacetimeSpectrum(X.grid, X.t0, X.dt, X.window, mult[None, ...] * X.values)
    if isinstance(X, Field):
        return Field(X.grid, mult * X.values)
    raise TypeError("project expects a Field (frequency side) or SpacetimeSpectrum")


def box_centers(grid: Grid, k: int) -> list:
    """Box lattice 2^k Z^n restricted to centers whose chi-box meets the grid."""
    scale = 2.0**k
    ximax = float(np.max(np.abs(grid.freq_1d)))
    lmax = int(np.floor((ximax + scale * 2.0 / 3.0) / scale))
    axis_vals = scale * np.arange(-lmax, lmax + 1)
    grids = np.meshgrid(*([axis_vals] * grid.n), indexing="ij")
    return [tuple(float(g[idx]) for g in grids) for idx in np.ndindex(grids[0].shape)]


def max_modulation_index(grid: Grid, dt: float, num_frames: int, s: float) -> int:
    """Largest modulation bin representable on the tau lattice.

    Chosen so that eta(r / 2^{jmax}) = 1 for every representable offset r,
    making the telescoped remainder vanish identically.
    """
    tau_max = np.pi / dt
    r_max = tau_max + float(np.max(grid.freq_norm)) ** (2.0 * s)
    return max(1, int(np.ceil(np.log2(max(r_max, 2.0) / 1.5))))


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
        mult = modulation_shell(r, j)
        piece = mult * S.values
        total += piece
        pieces.append((j, spacetime_idft(SpacetimeSpectrum(S.grid, S.t0, S.dt, S.window, piece))))
    rem_vals = S.values - total
    remainder = spacetime_idft(SpacetimeSpectrum(S.grid, S.t0, S.dt, S.window, rem_vals))
    energy = np.sum(np.abs(S.values) ** 2)
    rem_energy = np.sum(np.abs(rem_vals) ** 2)
    if energy > 0 and rem_energy > 1e-2 * energy:
        warnings.warn(
            f"modulation remainder holds {rem_energy / energy:.1%} of the energy; "
            "tau lattice too coarse", stacklevel=2)
    return pieces, remainder
