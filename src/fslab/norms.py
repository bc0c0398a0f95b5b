"""Adapted space-time norms and the measured-ratio estimate suites.

The norms follow the resolution-space hierarchy: modulation-weighted X_k,
cone-localized Y_k^e of the Schroedinger operator in mixed L^1_e L^2, the
two-branch upper bound for the infimum norm Z_k, and the dyadically
weighted solution / forcing norms F^sigma and N^sigma.  verify_estimate
draws seeded random input families and reports the worst LHS/RHS ratio for
each inequality, with a stability flag under doubling the family.

Caveat recorded in every report: the estimates are checked as inequality
shapes at desk scale n in {2, 3}; the theorems they come from assume n >= 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bumps
from .lp import (
    ConeAtlas,
    cone_cutoff_values,
    max_modulation_index,
    modulation_shell,
)
from .reports import NormReport, RatioReport
from .spectral import (
    Field,
    Grid,
    SpacetimeSpectrum,
    Trajectory,
    apply_spatial_multiplier,
    dft_inverse,
    duhamel_integral,
    evolve_spectrum,
    fractional_multiplier,
    hdot_norm,
    modulation_offset,
    spacetime_dft,
    spacetime_idft,
)

__all__ = [
    "MixedNormSpec",
    "mixed_norm",
    "axis_cone_atlas",
    "xk_norm",
    "yk_norm",
    "zk_upper",
    "f_sigma_norm",
    "n_sigma_norm",
    "InputFamily",
    "verify_estimate",
    "ESTIMATE_KINDS",
    "DIMENSION_CAVEAT",
]

DIMENSION_CAVEAT = ("inequality shapes checked at n in {2,3}; "
                    "the source theorems assume n >= 4")

SUPPORT_TOL = 1e-8


@dataclass(frozen=True)
class MixedNormSpec:
    """Mixed L^p along one lattice axis, L^q over the remaining axes and time."""

    e_axis: int
    p: float
    q: float

    def __post_init__(self):
        for v in (self.p, self.q):
            if v not in (1, 2, np.inf):
                raise ValueError("p and q must be 1, 2 or inf")


def _axis_from_direction(e, n: int) -> int:
    """Snap a direction to a signed lattice axis; reject anything else."""
    if isinstance(e, (int, np.integer)):
        if not 0 <= e < n:
            raise ValueError("axis index out of range")
        return int(e)
    e = np.asarray(e, dtype=float)
    e = e / np.linalg.norm(e)
    axis = int(np.argmax(np.abs(e)))
    snapped = np.zeros(n)
    snapped[axis] = np.sign(e[axis])
    if np.linalg.norm(e - snapped) > 1e-9:
        raise ValueError("direction is not a lattice axis; rotated evaluation not enabled")
    return axis


def mixed_norm(u: Trajectory, spec: MixedNormSpec) -> float:
    """Discrete mixed norm: inner l^q over (e-perp, t), outer l^p along e.

    The inner sum carries the cell weight dx^{n-1} dt, the outer one dx;
    p or q = inf is the unweighted maximum.
    """
    g = u.grid
    axis = _axis_from_direction(spec.e_axis, g.n)
    vals = np.abs(np.moveaxis(u.values, 1 + axis, 0))
    inner_axes = tuple(range(1, vals.ndim))
    inner_weight = g.dx ** (g.n - 1) * u.dt
    if spec.q == 1:
        inner = np.sum(vals, axis=inner_axes) * inner_weight
    elif spec.q == 2:
        inner = np.sqrt(np.sum(vals**2, axis=inner_axes) * inner_weight)
    else:
        inner = np.max(vals, axis=inner_axes)
    if spec.p == 1:
        return float(np.sum(inner) * g.dx)
    if spec.p == 2:
        return float(np.sqrt(np.sum(inner**2) * g.dx))
    return float(np.max(inner))


def _default_cone_margin(n: int) -> float:
    """Cone margin 0.5, capped below 1/sqrt(n) so the axis atlas stays valid."""
    return min(0.5, 1.0 / np.sqrt(n) - 0.05)


def axis_cone_atlas(n: int, margin: float | None = None) -> ConeAtlas:
    """Cone atlas over the 2n signed axes; only these admit mixed norms.

    Valid when margin < 1/sqrt(n) (the worst diagonal direction must land in
    some plateau); the default margin is 0.5 capped accordingly.
    """
    worst = 1.0 / np.sqrt(n)
    if margin is None:
        margin = _default_cone_margin(n)
    if margin >= worst - 0.01:
        raise ValueError(f"axis atlas needs margin < 1/sqrt(n) = {worst:.3f}")
    dirs = np.concatenate([np.eye(n), -np.eye(n)], axis=0)
    plateau_cos = margin + 0.8 * (worst - margin)
    return ConeAtlas(n=n, margin=float(margin), directions=dirs,
                     plateau_cos=float(plateau_cos), support_cos=float(margin))


# ---------------------------------------------------------------------------
# internal spectrum-side norm kernels (public ops wrap these)

def _shell_indicator(grid: Grid, k: int) -> np.ndarray:
    norm = grid.freq_norm
    return (norm >= 2.0 ** (k - 1)) & (norm <= 2.0 ** (k + 1))


def _relative_mass_outside(S: SpacetimeSpectrum, indicator: np.ndarray) -> float:
    total = float(np.sum(np.abs(S.values) ** 2))
    if total == 0.0:
        return 0.0
    out = float(np.sum(np.abs(S.values * (~indicator)[None, ...]) ** 2))
    return np.sqrt(out / total)


def _xk_from_spectrum(S: SpacetimeSpectrum, k: int, s: float):
    """X_k = sum_j 2^{j/2} ||Q_j f||_{L2} + penalized remainder, or inf."""
    if _relative_mass_outside(S, _shell_indicator(S.grid, k)) > SUPPORT_TOL:
        return float("inf")
    total_l2 = float(np.sum(np.abs(S.values) ** 2))
    if total_l2 == 0.0:
        return 0.0
    c = S.grid.box_length**S.grid.n * S.num_frames * S.dt
    r = modulation_offset(S, s)
    j_max = max_modulation_index(S.grid, S.dt, S.num_frames, s)
    value = 0.0
    mult_sum = np.zeros_like(r)
    for j in range(j_max + 1):
        mult = modulation_shell(r, j)
        mult_sum += mult
        piece = float(np.sqrt(np.sum((mult**2) * np.abs(S.values) ** 2) / c))
        value += 2.0 ** (j / 2.0) * piece
    rem = float(np.sqrt(np.sum(((1.0 - mult_sum) ** 2) * np.abs(S.values) ** 2) / c))
    value += 2.0 ** (j_max / 2.0) * rem
    return value


def _schrodinger_apply(S: SpacetimeSpectrum, s: float) -> SpacetimeSpectrum:
    """(i d_t + D^{2s} + i) as the space-time multiplier -(tau+|xi|^{2s}) + i."""
    symbol = -modulation_offset(S, s) + 1j
    return SpacetimeSpectrum(S.grid, S.t0, S.dt, S.window, symbol * S.values)


def _cone_gate_indicator(grid: Grid, k: int, axis: int, sign: float, margin: float) -> np.ndarray:
    dots = sign * grid.freq_component(axis) * np.ones(grid.shape)
    return (dots > 0) & (dots >= margin * 2.0 ** (k - 1))


def _yk_from_spectrum(S: SpacetimeSpectrum, k: int, e, s: float, margin: float = 0.5):
    """Y_k^e = 2^{-k(2s-1)/2} || (i d_t + D^{2s} + i) f ||_{L^1_e L^2}, or inf.

    The cone support gate uses the floor margin * 2^{k-1}, matching the lower
    edge of the dyadic shell supp Delta_k.
    """
    g = S.grid
    if isinstance(e, (int, np.integer)):
        axis, sign = int(e), 1.0
    else:
        e_arr = np.asarray(e, dtype=float)
        axis = _axis_from_direction(e_arr, g.n)
        sign = float(np.sign(e_arr[axis]))
    if float(np.sum(np.abs(S.values) ** 2)) == 0.0:
        return 0.0
    shell = _shell_indicator(g, k)
    cone = _cone_gate_indicator(g, k, axis, sign, margin)
    if _relative_mass_outside(S, shell & cone) > SUPPORT_TOL:
        return float("inf")
    g_traj = spacetime_idft(_schrodinger_apply(S, s))
    spec = MixedNormSpec(e_axis=axis, p=1, q=2)
    return 2.0 ** (-k * (2.0 * s - 1.0) / 2.0) * mixed_norm(g_traj, spec)


def _cone_projected(S: SpacetimeSpectrum, atlas: ConeAtlas, index: int) -> SpacetimeSpectrum:
    mult = atlas.multiplier(S.grid, index)
    return SpacetimeSpectrum(S.grid, S.t0, S.dt, S.window, mult[None, ...] * S.values)


def _zk_from_spectrum(S: SpacetimeSpectrum, k: int, s: float,
                      atlas: ConeAtlas | None):
    """Two-branch upper bound for the Z_k infimum; returns (value, metadata).

    Candidates: the all-X branch X_k(f), and the cone split
    sum_e min(X_k(theta_e f), Y_k^e(theta_e f)).  An upper bound by the
    definition of the infimum; never claimed to be the infimum itself.
    """
    x_all = _xk_from_spectrum(S, k, s)
    branches = {"all_x": x_all}
    meta = {"branch_values": branches, "cone_choices": None}
    total_mass = float(np.sum(np.abs(S.values) ** 2))
    if atlas is not None and total_mass > 0.0:
        cone_total = 0.0
        choices = []
        for i in range(atlas.num_directions):
            Se = _cone_projected(S, atlas, i)
            # roundoff crumbs from the partition normalization count as empty
            if float(np.sum(np.abs(Se.values) ** 2)) <= 1e-24 * total_mass:
                choices.append("empty")
                continue
            xe = _xk_from_spectrum(Se, k, s)
            e = atlas.directions[i]
            axis = int(np.argmax(np.abs(e)))
            sign = float(np.sign(e[axis]))
            ye = _yk_from_spectrum(Se, k, sign * np.eye(S.grid.n)[axis], s, margin=atlas.margin)
            best = min(xe, ye)
            choices.append("Y" if ye <= xe else "X")
            cone_total += best
        branches["cone_split"] = cone_total
        meta["cone_choices"] = choices
    value = min(branches.values())
    meta["winner"] = min(branches, key=branches.get)
    return value, meta


def _shell_range(grid: Grid) -> range:
    xi_min = 2.0 * np.pi / grid.box_length
    xi_max = float(np.max(grid.freq_norm))
    k_lo = int(np.floor(np.log2(xi_min))) - 1
    k_hi = int(np.ceil(np.log2(xi_max))) + 1
    return range(k_lo, k_hi + 1)


def _fsigma_from_spectrum(S: SpacetimeSpectrum, sigma: float, s: float,
                          atlas: ConeAtlas | None) -> float:
    g = S.grid
    total = 0.0
    for k in _shell_range(g):
        mult = bumps.phi_shell(g.freq_norm / 2.0**k)
        piece = mult[None, ...] * S.values
        if not np.any(piece):
            continue
        Sk = SpacetimeSpectrum(g, S.t0, S.dt, S.window, piece)
        zk, _ = _zk_from_spectrum(Sk, k, s, atlas)
        total += (2.0 ** (k * sigma) * zk) ** 2
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# public norm operations

def xk_norm(u: Trajectory, k: int, s: float, window: str = "taper") -> float:
    """Modulation-weighted norm of a dyadic-shell trajectory (inf if support fails)."""
    return _xk_from_spectrum(spacetime_dft(u, window=window), k, s)


def yk_norm(u: Trajectory, k: int, e, s: float, cone_margin: float = 0.5,
            window: str = "taper") -> float:
    """Cone-localized L^1_e L^2 norm of the Schroedinger operator (inf on gate failure)."""
    return _yk_from_spectrum(spacetime_dft(u, window=window), k, e, s, margin=cone_margin)


def zk_upper(u: Trajectory, k: int, s: float, atlas: ConeAtlas | None = None,
             window: str = "taper") -> NormReport:
    """Computable upper bound for the Z_k infimum with the winning branch recorded."""
    if atlas is None and u.grid.n >= 2:
        atlas = axis_cone_atlas(u.grid.n)
    value, meta = _zk_from_spectrum(spacetime_dft(u, window=window), k, s, atlas)
    return NormReport(kind="zk_upper", params={"k": k, "s": s}, value=value, metadata=meta)


def f_sigma_norm(u: Trajectory, sigma: float, s: float, atlas: ConeAtlas | None = None,
                 window: str = "taper") -> float:
    """Solution resolution norm (sum_k 2^{2 k sigma} ||Delta_k u||_{Z_k}^2)^{1/2}."""
    if atlas is None and u.grid.n >= 2:
        atlas = axis_cone_atlas(u.grid.n)
    return _fsigma_from_spectrum(spacetime_dft(u, window=window), sigma, s, atlas)


def n_sigma_norm(F: Trajectory, sigma: float, s: float, atlas: ConeAtlas | None = None,
                 window: str = "taper") -> float:
    """Forcing resolution norm: F^sigma-type sum of (i d_t + D^{2s} + i)^{-1} Delta_k F."""
    if atlas is None and F.grid.n >= 2:
        atlas = axis_cone_atlas(F.grid.n)
    S = spacetime_dft(F, window=window)
    inv = S.values / (-modulation_offset(S, s) + 1j)
    Sinv = SpacetimeSpectrum(S.grid, S.t0, S.dt, S.window, inv)
    return _fsigma_from_spectrum(Sinv, sigma, s, atlas)


# ---------------------------------------------------------------------------
# input families for the ratio checks

@dataclass
class InputFamily:
    """Seeded random-trajectory families on dyadic shells.

    Draw kinds cycle deterministically: static shell data, free evolutions,
    modulated shells at prescribed j, and cone-localized free evolutions.
    All trajectories are returned already tapered in time; downstream norms
    run with window='none'.  The cone margin defaults to the axis atlas's
    default for dimension n.
    """

    n: int = 2
    m: int = 16
    box_length: float = 2.0 * np.pi
    num_frames: int = 32
    t_half: float = 1.0
    shells: tuple = (1, 2, 3)
    margin: float | None = None
    taper_fraction: float = 0.1

    def __post_init__(self):
        if self.margin is None:
            self.margin = _default_cone_margin(self.n)
        self._grid = Grid(self.n, self.m, self.box_length)

    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def dt(self) -> float:
        return 2.0 * self.t_half / self.num_frames

    @property
    def t0(self) -> float:
        return -self.t_half

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.num_frames)

    def describe(self) -> dict:
        return {"n": self.n, "m": self.m, "box_length": self.box_length,
                "num_frames": self.num_frames, "t_half": self.t_half,
                "shells": list(self.shells), "margin": self.margin}

    def shell_spectrum(self, rng, k: int) -> np.ndarray:
        """Gaussian coefficients times the Delta_k shell bump (centered order).

        The unpaired Nyquist row is zeroed so that frequency reflection (and
        with it complex conjugation) acts exactly on the lattice.
        """
        g = self.grid
        coeff = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        spec = coeff * bumps.phi_shell(g.freq_norm / 2.0**k)
        for axis in range(g.n):
            idx = [slice(None)] * g.n
            idx[axis] = 0
            spec[tuple(idx)] = 0.0
        return spec

    def _trajectory_from_phase(self, spec0: np.ndarray, omega: np.ndarray) -> Trajectory:
        """Frames ifft( e^{i t omega(xi)} spec0 ), tapered in time."""
        g = self.grid
        frames = evolve_spectrum(spec0, g, self.times, omega)
        w = bumps.window_weights(self.times, self.taper_fraction)
        return Trajectory(g, self.t0, self.dt, frames * w.reshape((-1,) + (1,) * g.n))

    def static(self, rng, k: int) -> Trajectory:
        spec0 = self.shell_spectrum(rng, k)
        return self._trajectory_from_phase(spec0, np.zeros(self.grid.shape))

    def free(self, rng, k: int, s: float, cone_axis: int | None = None,
             cone_sign: float = 1.0) -> Trajectory:
        spec0 = self.shell_spectrum(rng, k)
        if cone_axis is not None:
            e = np.zeros(self.n)
            e[cone_axis] = cone_sign
            spec0 = spec0 * cone_cutoff_values(self.grid, e, self.margin)
        return self._trajectory_from_phase(spec0, self.grid.freq_norm ** (2.0 * s))

    def modulated(self, rng, k: int, s: float, j: int,
                  cone_axis: int | None = None, cone_sign: float = 1.0) -> Trajectory:
        """Shell data oscillating at modulation offset 1.5 * 2^j off the characteristic."""
        spec0 = self.shell_spectrum(rng, k)
        if cone_axis is not None:
            e = np.zeros(self.n)
            e[cone_axis] = cone_sign
            spec0 = spec0 * cone_cutoff_values(self.grid, e, self.margin)
        omega = self.grid.freq_norm ** (2.0 * s) + 1.5 * 2.0**j
        return self._trajectory_from_phase(spec0, omega)

    def draw(self, index: int, s: float, seed: int,
             cone_axis: int | None = None) -> tuple:
        """Deterministic draw number `index`; returns (trajectory, k, label)."""
        rng = np.random.default_rng((seed, index))
        k = self.shells[index % len(self.shells)]
        kind = index % 3
        if kind == 0:
            return self.free(rng, k, s, cone_axis=cone_axis), k, "free"
        if kind == 1:
            j = 1 + (index // 3) % 3
            return self.modulated(rng, k, s, j, cone_axis=cone_axis), k, f"modulated_j{j}"
        if cone_axis is None:
            return self.static(rng, k), k, "static"
        return self.free(rng, k, s, cone_axis=cone_axis, cone_sign=-1.0), k, "free_cone_neg"


# ---------------------------------------------------------------------------
# estimate kinds

def _ratio_guarded(lhs: float, rhs: float):
    if not np.isfinite(rhs) or rhs <= 0.0:
        return None
    return lhs / rhs


def _kind_embedding(family, s, atlas, seed, index, collect):
    # cone-localized data along +axis so the Y gate is satisfiable
    axis = index % family.n
    rng = np.random.default_rng((seed, index))
    k = family.shells[index % len(family.shells)]
    if index % 3 == 0:
        traj = family.free(rng, k, s, cone_axis=axis)
    else:
        j = 1 + (index // 3) % 3
        traj = family.modulated(rng, k, s, j, cone_axis=axis)
    S = spacetime_dft(traj, window="none")
    y = _yk_from_spectrum(S, k, axis, s, margin=family.margin)
    if not np.isfinite(y) or y <= 0.0:
        return None
    r = modulation_offset(S, s)
    best = None
    j_top = max_modulation_index(family.grid, family.dt, family.num_frames, s)
    for j in range(min(j_top, 8) + 1):
        mult = modulation_shell(r, j)
        Sj = SpacetimeSpectrum(S.grid, S.t0, S.dt, S.window, mult * S.values)
        lhs = _xk_from_spectrum(Sj, k, s)
        rhs = min(2.0 ** (k * s) * 2.0 ** (-j / 2.0), 1.0) * y
        ratio = _ratio_guarded(lhs, rhs)
        if ratio is not None:
            collect("embedding", ratio)
            best = ratio if best is None else max(best, ratio)
    return best


def _kind_linfty_l2(family, s, atlas, seed, index, collect):
    traj, k, label = family.draw(index, s, seed)
    S = spacetime_dft(traj, window="none")
    zk, _ = _zk_from_spectrum(S, k, s, atlas)
    lhs = traj.linf_l2()
    ratio = _ratio_guarded(lhs, zk)
    if ratio is not None:
        collect("linfty_l2", ratio)
    return ratio


def _conjugate_trajectory(traj: Trajectory) -> Trajectory:
    return Trajectory(traj.grid, traj.t0, traj.dt, np.conj(traj.values))


def _kind_smoothing(family, s, atlas, seed, index, collect):
    traj, k, label = family.draw(index, s, seed)
    S = spacetime_dft(traj, window="none")
    zk, _ = _zk_from_spectrum(S, k, s, atlas)
    rhs = 2.0 ** (-k * (2.0 * s - 1.0) / 2.0) * zk
    axis = index % family.n
    best = None
    for tag, tr in (("f", traj), ("conj", _conjugate_trajectory(traj))):
        St = spacetime_dft(tr, window="none")
        for sign in (1.0, -1.0):
            e = np.zeros(family.n)
            e[axis] = sign
            mult = cone_cutoff_values(family.grid, e, family.margin)
            piece = spacetime_idft(SpacetimeSpectrum(
                St.grid, St.t0, St.dt, St.window, mult[None, ...] * St.values))
            lhs = mixed_norm(piece, MixedNormSpec(e_axis=axis, p=np.inf, q=2))
            ratio = _ratio_guarded(lhs, rhs)
            if ratio is not None:
                collect(f"smoothing_{tag}", ratio)
                best = ratio if best is None else max(best, ratio)
    return best


def _box_l2_linf_sum(traj: Trajectory, k1: int, axis: int, k: int | None = None) -> float:
    """l^2 over box centers of ||P_{k1,l} f||_{L^2_e L^inf}.

    Boxes whose chi support cannot meet the dyadic shell of the data (when k
    is given) are pruned before any multiplier is built.
    """
    S = spacetime_dft(traj, window="none")
    g = traj.grid
    total = 0.0
    spec = MixedNormSpec(e_axis=axis, p=2, q=np.inf)
    scale = 2.0**k1
    ximax = float(np.max(np.abs(g.freq_1d)))
    lmax = int(np.floor((ximax + scale * 2.0 / 3.0) / scale))
    axis_vals = scale * np.arange(-lmax, lmax + 1)
    # chi((xi - l)/2^{k1}) per axis for every center value at once
    table = bumps.chi_box((g.freq_1d[None, :] - axis_vals[:, None]) / scale)
    box_radius = (2.0 / 3.0) * scale * np.sqrt(g.n)
    for idx in np.ndindex(*([axis_vals.size] * g.n)):
        center = axis_vals[list(idx)]
        if k is not None:
            cnorm = float(np.linalg.norm(center))
            if cnorm < 2.0 ** (k - 1) - box_radius or cnorm > 2.0 ** (k + 1) + box_radius:
                continue
        rows = [table[idx[a]] for a in range(g.n)]
        mult = rows[0]
        for r in rows[1:]:
            mult = np.multiply.outer(mult, r)
        if not np.any(mult):
            continue
        piece_vals = mult[None, ...] * S.values
        piece = spacetime_idft(SpacetimeSpectrum(S.grid, S.t0, S.dt, S.window, piece_vals))
        total += mixed_norm(piece, spec) ** 2
    return float(np.sqrt(total))


def _kind_maximal(family, s, atlas, seed, index, collect):
    traj, k, label = family.draw(index, s, seed)
    S = spacetime_dft(traj, window="none")
    zk, _ = _zk_from_spectrum(S, k, s, atlas)
    axis = index % family.n
    nn = family.n
    best = None
    for tag, tr in (("f", traj), ("conj", _conjugate_trajectory(traj))):
        lhs = mixed_norm(tr, MixedNormSpec(e_axis=axis, p=2, q=np.inf))
        ratio = _ratio_guarded(lhs, 2.0 ** (k * (nn - 1) / 2.0) * zk)
        if ratio is not None:
            collect("maximal_global", ratio)
            best = ratio if best is None else max(best, ratio)
    for k1 in (k - 2, k):
        lhs = _box_l2_linf_sum(traj, k1, axis, k=k)
        rhs = (2.0 ** (k * (nn - 1) / 2.0) * 2.0 ** (-(k - k1) * (nn - 2) / 2.0)
               * (1.0 + abs(k - k1)) * zk)
        ratio = _ratio_guarded(lhs, rhs)
        if ratio is not None:
            collect("maximal_box", ratio)
            best = ratio if best is None else max(best, ratio)
    return best


def _kind_ds_commute(family, s, atlas, seed, index, collect):
    # single-shell data so the neighbor-sum side is a genuine two-sided match
    rng = np.random.default_rng((seed, index, 7))
    g = family.grid
    ell = family.shells[index % len(family.shells)]
    spec0 = family.shell_spectrum(rng, ell)
    traj = family._trajectory_from_phase(spec0, g.freq_norm ** (2.0 * s))
    beta = (2.0 * s - 1.0) if index % 2 == 0 else -(2.0 * s - 1.0) / 2.0
    axis = index % family.n
    pq = [(1, 2), (2, 2), (np.inf, 2), (2, np.inf)][index % 4]
    spec = MixedNormSpec(e_axis=axis, p=pq[0], q=pq[1])

    def filtered(mult):
        return Trajectory(g, traj.t0, traj.dt, apply_spatial_multiplier(traj.values, g, mult))

    shell_mult = bumps.phi_shell(g.freq_norm / 2.0**ell)
    frac = fractional_multiplier(g, beta, "zero_out")
    lhs = mixed_norm(filtered(frac * shell_mult), spec)
    rhs = 0.0
    for lp in (ell - 1, ell, ell + 1):
        rhs += mixed_norm(filtered(bumps.phi_shell(g.freq_norm / 2.0**lp)), spec)
    rhs *= 2.0 ** (ell * beta)
    ratio = _ratio_guarded(lhs, rhs)
    if ratio is not None:
        collect("ds_commute", ratio)
    return ratio


def _kind_multiplier_bound(family, s, atlas, seed, index, collect):
    traj, k, label = family.draw(index, s, seed)
    S = spacetime_dft(traj, window="none")
    zk, _ = _zk_from_spectrum(S, k, s, atlas)
    if not np.isfinite(zk) or zk <= 0.0:
        return None
    g = family.grid
    if index % 3 == 0:
        # lattice-shift modulation: kernel is a point mass, L1 norm exactly 1
        shift = ((index // 3) % g.m) * g.dx
        mult = np.exp(1j * shift * g.freq_component(0) * np.ones(g.shape))
    else:
        rng = np.random.default_rng((seed, index, 13))
        center = rng.normal(scale=2.0 ** (k - 1), size=g.n)
        width = 2.0 ** (k - 1 + (index % 2))
        sq = np.zeros(g.shape)
        for a in range(g.n):
            sq = sq + (g.freq_component(a) - center[a]) ** 2 * np.ones(g.shape)
        mult = bumps.eta_bump(np.sqrt(sq) / width).astype(complex)
    kernel = dft_inverse(Field(g, mult.astype(complex)))
    l1 = float(np.sum(np.abs(kernel.values)) * g.dx**g.n)
    Sm = SpacetimeSpectrum(S.grid, S.t0, S.dt, S.window, mult[None, ...] * S.values)
    zk_m, _ = _zk_from_spectrum(Sm, k, s, atlas)
    ratio = _ratio_guarded(zk_m, l1 * zk)
    if ratio is not None:
        collect("multiplier_bound", ratio)
    return ratio


def _kind_homogeneous(family, s, atlas, seed, index, collect, sigma=None):
    g = family.grid
    rng = np.random.default_rng((seed, index))
    k = family.shells[index % len(family.shells)]
    if sigma is None:
        sigma = (family.n - 2.0 * s) / 2.0
    spec0 = family.shell_spectrum(rng, k)
    if index % 3 == 2 and len(family.shells) > 1:
        spec0 = spec0 + family.shell_spectrum(rng, family.shells[(index + 1) % len(family.shells)])
    u0 = dft_inverse(Field(g, spec0))
    traj = family._trajectory_from_phase(spec0, g.freq_norm ** (2.0 * s))
    lhs = _fsigma_from_spectrum(spacetime_dft(traj, window="none"), sigma, s, atlas)
    rhs = hdot_norm(u0, sigma)
    ratio = _ratio_guarded(lhs, rhs)
    if ratio is not None:
        collect("homogeneous", ratio)
    return ratio


def _kind_inhomogeneous(family, s, atlas, seed, index, collect, sigma=None):
    if sigma is None:
        sigma = (family.n - 2.0 * s) / 2.0
    traj, k, label = family.draw(index, s, seed)
    u = duhamel_integral(traj, s, rule="simpson")
    lhs = _fsigma_from_spectrum(spacetime_dft(u, window="none"), sigma, s, atlas)
    rhs = n_sigma_norm(traj, sigma, s, atlas, window="none")
    ratio = _ratio_guarded(lhs, rhs)
    if ratio is not None:
        collect("inhomogeneous", ratio)
    return ratio


def _kind_trilinear(family, s, atlas, seed, index, collect, sigma=None,
                    beta=None, pattern=None):
    if sigma is None:
        sigma = (family.n - 2.0 * s) / 2.0
    rng = np.random.default_rng((seed, index, 3))
    ks = family.shells
    k1, k2, k3 = (ks[index % len(ks)], ks[(index // 2) % len(ks)],
                  ks[(index // 4) % len(ks)])
    if beta is None:
        betas = (2.0 * s - 1.0, -(2.0 * s - 1.0) / 2.0, 0.5 * (2.0 * s - 1.0))
        beta = betas[index % 3]
    if pattern is None:
        patterns = (("plain", "conjugate", "plain"), ("plain", "plain", "plain"),
                    ("conjugate", "plain", "conjugate"))
        pattern = patterns[(index // 3) % 3]
    trajs = []
    for k_i, lbl in ((k1, 0), (k2, 1), (k3, 2)):
        r = np.random.default_rng((seed, index, lbl))
        spec0 = family.shell_spectrum(r, k_i)
        trajs.append(family._trajectory_from_phase(spec0, family.grid.freq_norm ** (2.0 * s)))

    g = family.grid
    factors = [np.conj(t.values) if c == "conjugate" else t.values
               for t, c in zip(trajs, pattern)]
    inner = apply_spatial_multiplier(factors[0] * factors[1], g,
                                     fractional_multiplier(g, -beta, "zero_out"))
    d3 = apply_spatial_multiplier(factors[2], g, fractional_multiplier(g, beta, "zero_out"))
    G = Trajectory(g, trajs[0].t0, trajs[0].dt, inner * d3)

    lhs = n_sigma_norm(G, sigma, s, atlas, window="none")
    s0 = (family.n - 2.0 * s) / 2.0
    specs = [spacetime_dft(t, window="none") for t in trajs]
    f_sig = [_fsigma_from_spectrum(S, sigma, s, atlas) for S in specs]
    if sigma == s0:
        f_s0 = f_sig
    else:
        f_s0 = [_fsigma_from_spectrum(S, s0, s, atlas) for S in specs]
    rhs = (f_sig[0] * f_s0[1] * f_s0[2] + f_s0[0] * f_sig[1] * f_s0[2]
           + f_s0[0] * f_s0[1] * f_sig[2])
    ratio = _ratio_guarded(lhs, rhs)
    if ratio is not None:
        collect("trilinear", ratio)
    return ratio


ESTIMATE_KINDS = {
    "embedding": _kind_embedding,
    "linfty_l2": _kind_linfty_l2,
    "smoothing": _kind_smoothing,
    "maximal": _kind_maximal,
    "ds_commute": _kind_ds_commute,
    "multiplier_bound": _kind_multiplier_bound,
    "homogeneous": _kind_homogeneous,
    "inhomogeneous": _kind_inhomogeneous,
    "trilinear": _kind_trilinear,
}


def default_family(kind: str, n: int = 2, m: int = 16, num_frames: int = 32) -> InputFamily:
    """Family defaults per kind; the Duhamel kinds need the [-2,2] window."""
    if kind in ("inhomogeneous",):
        return InputFamily(n=n, m=m, num_frames=max(num_frames, 32), t_half=2.0,
                           shells=(1, 2, 3))
    return InputFamily(n=n, m=m, num_frames=num_frames, t_half=1.0, shells=(1, 2, 3))


def verify_estimate(kind: str, family: InputFamily | None = None, *, s: float = 0.75,
                    atlas: ConeAtlas | None = None, draws: int = 64, seed: int = 0,
                    sigma: float | None = None) -> RatioReport:
    """Worst-ratio sweep for one estimate kind over 2*draws seeded draws.

    C* over the first `draws` is compared with C* over all 2*draws; the
    report passes when the worst ratio is finite and grows by < 25% under
    that doubling.  Draws whose right-hand side vanishes are skipped and
    counted.
    """
    if kind not in ESTIMATE_KINDS:
        raise ValueError(f"unknown estimate kind '{kind}'; choose from {sorted(ESTIMATE_KINDS)}")
    if family is None:
        family = default_family(kind)
    if atlas is None and family.n >= 2:
        atlas = axis_cone_atlas(family.n, family.margin)

    fn = ESTIMATE_KINDS[kind]
    kwargs = {}
    if kind in ("homogeneous", "inhomogeneous", "trilinear"):
        kwargs["sigma"] = sigma

    report = RatioReport(check_id=f"estimate_{kind}",
                         params={"kind": kind, "s": s, "sigma": sigma,
                                 "family": family.describe()},
                         seed=seed)
    buckets: dict = {}

    def collect(name, value):
        buckets.setdefault(name, []).append(float(value))

    per_draw = []
    skipped = 0
    for i in range(2 * draws):
        out = fn(family, s, atlas, seed, i, collect, **kwargs)
        if out is None:
            skipped += 1
            per_draw.append(np.nan)
        else:
            per_draw.append(out)

    per_draw = np.asarray(per_draw)
    first = per_draw[:draws]
    valid_first = first[np.isfinite(first)]
    valid_all = per_draw[np.isfinite(per_draw)]
    if valid_all.size == 0:
        report.notes.append("all draws skipped (zero right-hand sides)")
        report.passed = False
        return report

    cstar_half = float(valid_first.max()) if valid_first.size else float("nan")
    cstar_full = float(valid_all.max())
    stable = bool(np.isfinite(cstar_half) and cstar_full <= 1.25 * cstar_half)

    for name, vals in buckets.items():
        report.record_item(name, vals)
    report.draws = 2 * draws
    report.skipped = skipped
    report.cstar = cstar_full
    report.stable = stable
    report.passed = bool(np.isfinite(cstar_full)) and stable
    report.items["worst_ratio"] = {"min": float(valid_all.min()), "max": cstar_full,
                                   "cstar": cstar_full}
    report.params["cstar_first_half"] = cstar_half
    report.notes.append(DIMENSION_CAVEAT)
    report.notes.append("Z_k values are the two-branch upper bound (surrogate)")
    return report
