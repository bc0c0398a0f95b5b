"""Adapted space-time norms and the measured-ratio estimate suites.

The norms follow the resolution-space hierarchy: modulation-weighted X_k,
cone-localized Y_k^e of the Schroedinger operator in mixed L^1_e L^2, the
two-branch upper bound for the infimum norm Z_k, and the dyadically
weighted solution / forcing norms F^sigma and N^sigma.

The kernels do no repeated symbol work.  One call of F^sigma, N^sigma or
Z_k forms |S|^2 of its spectrum S once and makes one reduction,
A[j, xi] = sum_tau Q_j^2 |S|^2, against the cached modulation table
(lp.modulation_weights, kept per |xi| class and gathered onto xi).  Every
X_k of the call, the all-X branch and each cone theta_e of every shell k,
is then one dense product of A with the shell's table of squared
amplitudes (lp.shell_table: phi_k^2 and phi_k^2 theta_e^2, on supp phi_k
inside F^sigma and N^sigma, on the whole lattice for a direct Z_k or X_k),
and the same squares against
sum_tau |S|^2, on and off each branch's support gate, give the gates'
masses.  Y_k^e needs only an inverse FFT along e, by discrete Parseval over
(x_perp, t) (_lateral_l2_profile, shared with yk_norm and the smoothing
estimate): the call forms symbol * S once, with the Schroedinger symbol
broadcast from a T-vector and the cached |xi|^{2s}, and each Y_k^e
transforms (phi_k theta_e) * (symbol * S), packed into the lattice lines
along e that meet the shell.  Each table is fetched once per call.  The box
sums of the maximal estimate share one spatial transform per draw: boxes
holding one lattice point per axis are summed in closed form, the others
invert the transform over their own support only.

verify_estimate draws seeded random input families and reports the worst
LHS/RHS ratio for each inequality, with a stability flag under doubling the
family.  An estimate kind only measures: called on one draw as
kind(family, s, atlas, seed, index, sigma), it yields an (item, lhs, rhs)
triple for each inequality it tests.  verify_estimate alone resolves sigma,
guards each rhs (a triple whose rhs is not finite and positive gives no
ratio), collects the ratios per item in yield order and takes each draw's
worst; a draw with no ratio is skipped and counted.

Every direction e (mixed norm, Y_k^e, atlas cone) is read by lp.signed_axis,
so Z_k, F^sigma and N^sigma raise on an atlas with a cap off the axes.

Caveat recorded in every report: the estimates are checked as inequality
shapes at the family's n; the theorems they come from assume n >= 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bumps
from .lp import (
    ConeAtlas,
    ShellTable,
    box_lattice,
    cone_cutoff_values,
    dyadic_shell,
    max_modulation_index,
    modulation_shell,
    modulation_weights,
    project,
    shell_table,
    signed_axis,
    y_gate,
)
from .reports import NormReport, RatioReport
from .spectral import (
    Field,
    Grid,
    SpacetimeSpectrum,
    Trajectory,
    apply_fractional_values,
    apply_spatial_multiplier,
    cached_symbol,
    dft_inverse,
    duhamel_integral,
    evolve_spectrum,
    fractional_multiplier,
    hdot_norm,
    idft_phases,
    modulation_offset,
    offset_lattice,
    partial_idft,
    spacetime_dft,
    spacetime_dft_from_spatial,
    spatial_spectrum,
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
    "dimension_caveat",
]

def dimension_caveat(n: int) -> str:
    return f"inequality shapes checked at n = {n}; the source theorems assume n >= 4"

SUPPORT_TOL = 1e-8


@dataclass(frozen=True)
class MixedNormSpec:
    """Mixed L^p along the lattice axis e_axis (lp.signed_axis), L^q over the rest and time."""

    e_axis: int | np.ndarray
    p: float
    q: float

    def __post_init__(self):
        for v in (self.p, self.q):
            if v not in (1, 2, np.inf):
                raise ValueError("p and q must be 1, 2 or inf")


def mixed_norm(u: Trajectory, spec: MixedNormSpec) -> float:
    """Discrete mixed norm: inner l^q over (e-perp, t), outer l^p along e.

    The inner sum carries the cell weight dx^{n-1} dt, the outer one dx;
    p or q = inf is the unweighted maximum.
    """
    g = u.grid
    axis, _ = signed_axis(spec.e_axis, g.n)
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

def _power(values: np.ndarray) -> np.ndarray:
    return values.real**2 + values.imag**2


def _schrodinger_symbol(grid: Grid, num_frames: int, dt: float, s: float) -> np.ndarray:
    """(i d_t + D^{2s} + i) as the space-time multiplier -(tau+|xi|^{2s}) + i.

    A T-vector broadcast against the cached |xi|^{2s}; the (T, m^n) result
    is formed per call and never cached.
    """
    return -offset_lattice(grid, num_frames, dt, s) + 1j


def _lateral_scale(grid: Grid, num_frames: int, dt: float) -> float:
    """Weight turning sum |partial inverse|^2 over (x_perp, t) into ||.||^2_{L^2(x_perp, t)}."""
    n = grid.n
    return (num_frames / grid.m ** (n - 1) * grid.dx ** (n - 1) * dt
            / (num_frames * dt * grid.dx**n) ** 2)


def _lateral_l2_profile(values: np.ndarray, axis: int, grid: Grid, dt: float,
                        num_frames: int) -> np.ndarray:
    """x_e -> ||g(., x_e, .)||_{L^2(x_perp, t)} for g the spacetime_idft of a spectrum.

    `values` holds the spectrum's (tau, xi) values, or any subset of them
    that keeps the lattice lines along e whole, with e at array axis `axis`;
    `num_frames` is the spectrum's T.  By discrete Parseval over (x_perp, t)
    only the e axis is transformed back.  The time phase e^{-i tau t0} and
    the centring shifts multiply g by unimodular factors, so they drop out
    of the modulus.
    """
    h = partial_idft(values, axis)
    parts = h.view(np.float64).reshape(h.shape + (2,))  # real and imaginary parts
    dims = list(range(parts.ndim))
    sq = np.einsum(parts, dims, parts, dims, [axis])
    return np.sqrt(sq * _lateral_scale(grid, num_frames, dt))


def _yk_from_profile(profile: np.ndarray, grid: Grid, k: int, s: float) -> float:
    """Y_k^e = 2^{-k(2s-1)/2} ||.||_{L^1_e L^2} from the lateral L^2 profile along e."""
    return 2.0 ** (-k * (2.0 * s - 1.0) / 2.0) * float(np.sum(profile) * grid.dx)


def _gates_fail(outside, mass) -> np.ndarray:
    """sqrt(mass off the gate / mass) > SUPPORT_TOL, per branch; no mass passes."""
    mass = np.asarray(mass, dtype=float)
    ratio = np.divide(outside, mass, out=np.zeros_like(mass), where=mass > 0.0)
    return np.sqrt(ratio) > SUPPORT_TOL


class _Reductions:
    """What every X_k and Y_k^e of one spectrum S reads, formed once per call.

    `power_xi` is sum_tau |S|^2 and `resolved` the modulation reduction
    sum_tau Q_j^2 |S|^2 at every (j, xi), from one reduction against the
    cached modulation table.  `symbolic` is the Schroedinger symbol times S,
    formed only when a Y_k^e may be needed, and `scratch` the zeroed array
    the lattice lines of a localized Y_k^e are packed into, made at the
    first one; both are xi-major, shape (m^n, T), so that a lattice point's
    frames are one row.
    """

    def __init__(self, S: SpacetimeSpectrum, s: float, with_symbol: bool):
        g, num_frames = S.grid, S.num_frames
        flat = S.values.reshape(num_frames, -1)
        power = _power(flat)
        table = modulation_weights(g, num_frames, S.dt, s)
        self.grid, self.dt, self.s, self.j_max = g, S.dt, s, table.j_max
        self.scale = g.box_length**g.n * num_frames * S.dt
        self.power_xi = power.sum(axis=0)
        self.resolved = table.resolved_sums(power)
        self.symbolic = self.scratch = None
        if with_symbol:
            symbol = _schrodinger_symbol(g, num_frames, S.dt, s).reshape(num_frames, -1)
            self.symbolic = np.ascontiguousarray(np.multiply(symbol, flat, out=symbol).T)

    def masses(self, table: ShellTable) -> np.ndarray:
        """(mass, mass off the X gate, mass off the Y gate) per branch, shape (3, 1 + K)."""
        power = self.power_xi[table.index]
        off_x = np.where(table.off_gate[0], power, 0.0)
        return np.stack([table.squares @ power, table.squares @ off_x,
                         (table.squares * table.off_gate) @ power])

    def xk_values(self, table: ShellTable, masses: np.ndarray) -> np.ndarray:
        """X_k of every branch: sum_j 2^{j/2} ||Q_j f||_{L2}, 0 without mass,
        inf where the X gate fails."""
        sums = self.resolved[:, table.index] @ table.squares.T
        value = 2.0 ** (np.arange(self.j_max + 1) / 2.0) @ np.sqrt(sums / self.scale)
        mass, off_x = masses[0], masses[1]
        return np.where(_gates_fail(off_x, mass), np.inf, np.where(mass == 0.0, 0.0, value))

    def yk_value(self, table: ShellTable, symbolic: np.ndarray, k: int, cone: int) -> float:
        """Y_k^e of cone `cone`, from `symbolic` = self.symbolic[table.index].

        A localized table's points are packed into the lattice lines along e
        that hold any of them, and only those are transformed: the empty
        ones add nothing to the profile.
        """
        g, axis = self.grid, table.axes[cone]
        num_frames = self.symbolic.shape[1]
        values = symbolic * table.amplitude[cone][:, None]
        if table.lines is None:  # the whole lattice, xi-major
            profile = _lateral_l2_profile(values.reshape(g.shape + (num_frames,)), axis,
                                          g, self.dt, num_frames)
        else:
            if self.scratch is None:
                self.scratch = np.zeros_like(self.symbolic)
            rows = table.lines[axis]
            packed = self.scratch[:table.num_lines[axis] * g.m]
            packed[rows] = values
            profile = _lateral_l2_profile(packed.reshape(-1, g.m, num_frames), 1,
                                          g, self.dt, num_frames)
            packed[rows] = 0.0
        return _yk_from_profile(profile, g, k, self.s)

    def zk(self, k: int, table: ShellTable):
        """Two-branch upper bound for the Z_k infimum; returns (value, metadata).

        Candidates: the all-X branch X_k(f), and the cone split
        sum_e min(X_k(theta_e f), Y_k^e(theta_e f)), f the spectrum under
        the table's shell bump.  An upper bound by the definition of the
        infimum; never claimed to be the infimum itself.
        """
        masses = self.masses(table)
        x_values = self.xk_values(table, masses)
        y_fails = _gates_fail(masses[2], masses[0])
        branches = {"all_x": float(x_values[0])}
        meta = {"branch_values": branches, "cone_choices": None}
        total_mass = masses[0, 0]
        if table.axes and total_mass > 0.0:
            symbolic = self.symbolic[table.index]
            cone_total = 0.0
            choices = []
            for cone in range(len(table.axes)):
                # roundoff crumbs from the partition normalization count as empty
                if masses[0, 1 + cone] <= 1e-24 * total_mass:
                    choices.append("empty")
                    continue
                xe = float(x_values[1 + cone])
                ye = (float("inf") if y_fails[1 + cone]
                      else self.yk_value(table, symbolic, k, cone))
                choices.append("Y" if ye <= xe else "X")
                cone_total += min(xe, ye)
            branches["cone_split"] = cone_total
            meta["cone_choices"] = choices
        value = min(branches.values())
        meta["winner"] = min(branches, key=branches.get)
        return value, meta


def _xk_from_spectrum(S: SpacetimeSpectrum, k: int, s: float) -> float:
    """X_k of the whole spectrum, inf when its mass leaves the shell gate."""
    red = _Reductions(S, s, with_symbol=False)
    table = shell_table(S.grid, k, None, localized=False)
    return float(red.xk_values(table, red.masses(table))[0])


def _yk_from_spectrum(S: SpacetimeSpectrum, k: int, e, s: float, margin: float = 0.5):
    """Y_k^e = 2^{-k(2s-1)/2} || (i d_t + D^{2s} + i) f ||_{L^1_e L^2}, or inf.

    e is read by lp.signed_axis.  The cone support gate uses the floor
    margin * 2^{k-1}, matching the lower edge of the dyadic shell supp Delta_k.
    """
    g = S.grid
    axis, sign = signed_axis(e, g.n)
    power_xi = _power(S.values).sum(axis=0)
    mass = float(np.sum(power_xi))
    if mass == 0.0:
        return 0.0
    if _gates_fail(np.sum(power_xi[~y_gate(g, k, axis, sign, margin)]), mass):
        return float("inf")
    symbolic = _schrodinger_symbol(g, S.num_frames, S.dt, s) * S.values
    profile = _lateral_l2_profile(symbolic, 1 + axis, g, S.dt, S.num_frames)
    return _yk_from_profile(profile, g, k, s)


def _zk_from_spectrum(S: SpacetimeSpectrum, k: int, s: float,
                      atlas: ConeAtlas | None):
    """Z_k upper bound of the whole spectrum (no shell bump); see _Reductions.zk."""
    red = _Reductions(S, s, with_symbol=atlas is not None)
    return red.zk(k, shell_table(S.grid, k, atlas, localized=False))


def _shell_range(grid: Grid) -> range:
    xi_min = 2.0 * np.pi / grid.box_length
    xi_max = float(np.max(grid.freq_norm))
    k_lo = int(np.floor(np.log2(xi_min))) - 1
    k_hi = int(np.ceil(np.log2(xi_max))) + 1
    return range(k_lo, k_hi + 1)


def _fsigma_from_spectrum(S: SpacetimeSpectrum, sigma: float, s: float,
                          atlas: ConeAtlas | None) -> float:
    """(sum_k 2^{2 k sigma} Z_k(phi_k S)^2)^{1/2}, every shell from one _Reductions."""
    red = _Reductions(S, s, with_symbol=atlas is not None)
    total = 0.0
    for k in _shell_range(S.grid):
        table = shell_table(S.grid, k, atlas, localized=True)
        if table.index.size == 0:  # no lattice point in supp phi_k
            continue
        zk, _ = red.zk(k, table)
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
    inv = S.values / _schrodinger_symbol(S.grid, S.num_frames, S.dt, s)
    Sinv = SpacetimeSpectrum(S.grid, S.t0, S.dt, S.window, inv)
    return _fsigma_from_spectrum(Sinv, sigma, s, atlas)


# ---------------------------------------------------------------------------
# input families for the ratio checks

@dataclass
class InputFamily:
    """Seeded random-trajectory families on dyadic shells.

    Draw kinds cycle deterministically: free evolutions, modulated shells at
    prescribed j, and static shell data; free and modulated data can be
    cut to a cone along a signed axis.
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
        spec = coeff * dyadic_shell(g, k)
        for axis in range(g.n):
            idx = [slice(None)] * g.n
            idx[axis] = 0
            spec[tuple(idx)] = 0.0
        return spec

    def _trajectory_from_phase(self, spec0: np.ndarray, omega: np.ndarray) -> Trajectory:
        """Frames ifft( e^{i t omega(xi)} spec0 ), tapered in time."""
        g = self.grid
        frames = evolve_spectrum(spec0, g, self.times, omega)
        w = bumps.window_weights(self.times)
        return Trajectory(g, self.t0, self.dt, frames * w.reshape((-1,) + (1,) * g.n))

    def static(self, rng, k: int) -> Trajectory:
        spec0 = self.shell_spectrum(rng, k)
        return self._trajectory_from_phase(spec0, np.zeros(self.grid.shape))

    def _cone_shell_spectrum(self, rng, k: int, cone_axis: int | None,
                             cone_sign: float) -> np.ndarray:
        """shell_spectrum, cut to the cone along cone_sign * e_{cone_axis} if an axis is given."""
        spec0 = self.shell_spectrum(rng, k)
        if cone_axis is not None:
            e = np.zeros(self.n)
            e[cone_axis] = cone_sign
            spec0 = spec0 * cone_cutoff_values(self.grid, e, self.margin)
        return spec0

    def free(self, rng, k: int, s: float, cone_axis: int | None = None,
             cone_sign: float = 1.0) -> Trajectory:
        spec0 = self._cone_shell_spectrum(rng, k, cone_axis, cone_sign)
        return self._trajectory_from_phase(spec0, self.grid.freq_norm ** (2.0 * s))

    def modulated(self, rng, k: int, s: float, j: int,
                  cone_axis: int | None = None, cone_sign: float = 1.0) -> Trajectory:
        """Shell data oscillating at modulation offset 1.5 * 2^j off the characteristic."""
        spec0 = self._cone_shell_spectrum(rng, k, cone_axis, cone_sign)
        omega = self.grid.freq_norm ** (2.0 * s) + 1.5 * 2.0**j
        return self._trajectory_from_phase(spec0, omega)

    def draw(self, index: int, s: float, seed: int) -> tuple:
        """Deterministic draw number `index`; returns (trajectory, k, label)."""
        rng = np.random.default_rng((seed, index))
        k = self.shells[index % len(self.shells)]
        kind = index % 3
        if kind == 0:
            return self.free(rng, k, s), k, "free"
        if kind == 1:
            j = 1 + (index // 3) % 3
            return self.modulated(rng, k, s, j), k, f"modulated_j{j}"
        return self.static(rng, k), k, "static"


# ---------------------------------------------------------------------------
# estimate kinds

def _ratio_guarded(lhs: float, rhs: float):
    if not np.isfinite(rhs) or rhs <= 0.0:
        return None
    return lhs / rhs


def _kind_embedding(family, s, atlas, seed, index, sigma):
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
    r = modulation_offset(S, s)
    j_top = max_modulation_index(family.grid, family.dt, family.num_frames, s)
    for j in range(min(j_top, 8) + 1):
        lhs = _xk_from_spectrum(project(S, modulation_shell(r, j)), k, s)
        yield "embedding", lhs, min(2.0 ** (k * s) * 2.0 ** (-j / 2.0), 1.0) * y


def _kind_linfty_l2(family, s, atlas, seed, index, sigma):
    traj, k, label = family.draw(index, s, seed)
    S = spacetime_dft(traj, window="none")
    zk, _ = _zk_from_spectrum(S, k, s, atlas)
    yield "linfty_l2", traj.linf_l2(), zk


def _conjugate_trajectory(traj: Trajectory) -> Trajectory:
    return Trajectory(traj.grid, traj.t0, traj.dt, np.conj(traj.values))


def _kind_smoothing(family, s, atlas, seed, index, sigma):
    traj, k, label = family.draw(index, s, seed)
    S = spacetime_dft(traj, window="none")
    zk, _ = _zk_from_spectrum(S, k, s, atlas)
    rhs = 2.0 ** (-k * (2.0 * s - 1.0) / 2.0) * zk
    axis = index % family.n
    conj_spectrum = spacetime_dft(_conjugate_trajectory(traj), window="none")
    for tag, St in (("f", S), ("conj", conj_spectrum)):
        for sign in (1.0, -1.0):
            e = np.zeros(family.n)
            e[axis] = sign
            mult = cone_cutoff_values(family.grid, e, family.margin)
            # L^inf_e L^2 of the cone piece, by the same Parseval reduction as Y_k^e
            lhs = float(np.max(_lateral_l2_profile(mult[None, ...] * St.values, 1 + axis,
                                                   family.grid, St.dt, St.num_frames)))
            yield f"smoothing_{tag}", lhs, rhs


def _box_tiles(grid: Grid, k1: int, k: int | None) -> tuple:
    """The boxes P_{k1,l} of one box sum, split by support size (read-only, cached).

    Returns (table, lo, hi, one, multi).  table is the chi table of
    lp.box_lattice; row i is nonzero on the centred indices [lo[i], hi[i]).
    A box is a row index per axis.  It is kept when its symbol is nonzero
    and, when k is given, its centre can meet the dyadic shell of the data.
    `one` holds the kept boxes whose rows hold one lattice point each,
    `multi` the others, both in np.ndindex order.
    """
    def build():
        axis_vals, table = box_lattice(grid, k1)
        nz = table != 0
        count = nz.sum(axis=1)
        lo = np.argmax(nz, axis=1)
        hi = table.shape[1] - np.argmax(nz[:, ::-1], axis=1)
        keep = np.ones((axis_vals.size,) * grid.n, dtype=bool)
        sq = np.zeros(keep.shape)
        for a in range(grid.n):
            shape = [1] * grid.n
            shape[a] = axis_vals.size
            keep &= (count > 0).reshape(shape)
            sq = sq + (axis_vals**2).reshape(shape)
        if k is not None:
            box_radius = (2.0 / 3.0) * 2.0**k1 * np.sqrt(grid.n)
            cnorm = np.sqrt(sq)
            keep &= (cnorm >= 2.0 ** (k - 1) - box_radius) & (cnorm <= 2.0 ** (k + 1) + box_radius)
        boxes = np.argwhere(keep)
        single = np.all(count[boxes] == 1, axis=1)
        return table, lo, hi, boxes[single], boxes[~single]
    return cached_symbol(("box_tiles", grid, int(k1), k), build)


def _box_l2_linf_sum(spec: np.ndarray, grid: Grid, k1: int, axis: int,
                     k: int | None = None) -> float:
    """l^2 over box centers of ||P_{k1,l} f||_{L^2_e L^inf}, from spec = spatial_spectrum(f).

    A box whose rows hold one lattice point xi0 each has the constant
    modulus |P f(t, x)| = chi(xi0) |F(t, xi0)| / m^n, so all such boxes add
    up in one array expression.  Every other box evaluates the inverse
    transform over its support only: one m x b phase contraction per axis.
    Boxes that cannot meet the dyadic shell of the data (when k is given)
    are pruned.
    """
    g = grid
    table, lo, hi, one, multi = _box_tiles(g, k1, k)
    xi0 = lo[one]
    weight = np.prod(table[one, xi0], axis=1)
    peak = np.max(np.abs(spec[(slice(None),) + tuple(xi0.T)]), axis=0)
    total = g.dx * g.m / float(g.npoints) ** 2 * float(np.sum((weight * peak) ** 2))
    phases = idft_phases(g)
    other = tuple(a for a in range(g.n + 1) if a != 1 + axis)
    for box in multi:
        support = tuple(slice(lo[r], hi[r]) for r in box)
        mult = table[box[0], support[0]]
        for r, sl in zip(box[1:], support[1:]):
            mult = np.multiply.outer(mult, table[r, sl])
        piece = spec[(slice(None),) + support] * mult
        for sl in support:
            # contracts the leading spatial axis and appends x along it
            piece = np.tensordot(piece, phases[:, sl], axes=([1], [1]))
        total += g.dx * float(np.sum(np.max(np.abs(piece), axis=other) ** 2))
    return float(np.sqrt(total))


def _box_census_notes(family: InputFamily, draws: int) -> list:
    """One note per (k, k1) box sum of the maximal kind: how many boxes hold one point."""
    g = family.grid
    spacing = 2.0 * np.pi / g.box_length
    shells = sorted({family.shells[i % len(family.shells)] for i in range(2 * draws)})
    notes = []
    for k in shells:
        for k1 in (k - 2, k):
            _, _, _, one, multi = _box_tiles(g, k1, k)
            notes.append(f"maximal_box k={k} k1={k1}: {len(one)} of {len(one) + len(multi)} "
                         f"boxes hold one lattice point (box side {2.0**k1:g}, "
                         f"lattice spacing {spacing:g})")
    return notes


def _kind_maximal(family, s, atlas, seed, index, sigma):
    traj, k, label = family.draw(index, s, seed)
    # one spatial transform serves the space-time spectrum and the box sums
    spec = spatial_spectrum(traj.values, family.grid)
    zk, _ = _zk_from_spectrum(spacetime_dft_from_spatial(spec, traj), k, s, atlas)
    axis = index % family.n
    nn = family.n
    for tr in (traj, _conjugate_trajectory(traj)):
        lhs = mixed_norm(tr, MixedNormSpec(e_axis=axis, p=2, q=np.inf))
        yield "maximal_global", lhs, 2.0 ** (k * (nn - 1) / 2.0) * zk
    for k1 in (k - 2, k):
        lhs = _box_l2_linf_sum(spec, family.grid, k1, axis, k=k)
        rhs = (2.0 ** (k * (nn - 1) / 2.0) * 2.0 ** (-(k - k1) * (nn - 2) / 2.0)
               * (1.0 + abs(k - k1)) * zk)
        yield "maximal_box", lhs, rhs


def _kind_ds_commute(family, s, atlas, seed, index, sigma):
    # single-shell data so the neighbor-sum side is a genuine two-sided match
    g = family.grid
    ell = family.shells[index % len(family.shells)]
    traj = family.free(np.random.default_rng((seed, index, 7)), ell, s)
    beta = (2.0 * s - 1.0) if index % 2 == 0 else -(2.0 * s - 1.0) / 2.0
    axis = index % family.n
    pq = [(1, 2), (2, 2), (np.inf, 2), (2, np.inf)][index % 4]
    spec = MixedNormSpec(e_axis=axis, p=pq[0], q=pq[1])

    def filtered(mult):
        return Trajectory(g, traj.t0, traj.dt, apply_spatial_multiplier(traj.values, g, mult))

    shell_mult = dyadic_shell(g, ell)
    frac = fractional_multiplier(g, beta)
    lhs = mixed_norm(filtered(frac * shell_mult), spec)
    rhs = 0.0
    for lp in (ell - 1, ell, ell + 1):
        rhs += mixed_norm(filtered(dyadic_shell(g, lp)), spec)
    yield "ds_commute", lhs, rhs * 2.0 ** (ell * beta)


def _kind_multiplier_bound(family, s, atlas, seed, index, sigma):
    traj, k, label = family.draw(index, s, seed)
    S = spacetime_dft(traj, window="none")
    zk, _ = _zk_from_spectrum(S, k, s, atlas)
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
    zk_m, _ = _zk_from_spectrum(project(S, mult), k, s, atlas)
    yield "multiplier_bound", zk_m, l1 * zk


def _kind_homogeneous(family, s, atlas, seed, index, sigma):
    g = family.grid
    rng = np.random.default_rng((seed, index))
    k = family.shells[index % len(family.shells)]
    spec0 = family.shell_spectrum(rng, k)
    if index % 3 == 2 and len(family.shells) > 1:
        spec0 = spec0 + family.shell_spectrum(rng, family.shells[(index + 1) % len(family.shells)])
    u0 = dft_inverse(Field(g, spec0))
    traj = family._trajectory_from_phase(spec0, g.freq_norm ** (2.0 * s))
    lhs = _fsigma_from_spectrum(spacetime_dft(traj, window="none"), sigma, s, atlas)
    yield "homogeneous", lhs, hdot_norm(u0, sigma)


def _kind_inhomogeneous(family, s, atlas, seed, index, sigma):
    traj, k, label = family.draw(index, s, seed)
    u = duhamel_integral(traj, s, rule="simpson")
    lhs = _fsigma_from_spectrum(spacetime_dft(u, window="none"), sigma, s, atlas)
    yield "inhomogeneous", lhs, n_sigma_norm(traj, sigma, s, atlas, window="none")


def _kind_trilinear(family, s, atlas, seed, index, sigma):
    ks = family.shells
    k1, k2, k3 = (ks[index % len(ks)], ks[(index // 2) % len(ks)],
                  ks[(index // 4) % len(ks)])
    betas = (2.0 * s - 1.0, -(2.0 * s - 1.0) / 2.0, 0.5 * (2.0 * s - 1.0))
    beta = betas[index % 3]
    patterns = (("plain", "conjugate", "plain"), ("plain", "plain", "plain"),
                ("conjugate", "plain", "conjugate"))
    pattern = patterns[(index // 3) % 3]
    trajs = [family.free(np.random.default_rng((seed, index, lbl)), k_i, s)
             for lbl, k_i in enumerate((k1, k2, k3))]

    g = family.grid
    factors = [np.conj(t.values) if c == "conjugate" else t.values
               for t, c in zip(trajs, pattern)]
    inner = apply_fractional_values(factors[0] * factors[1], g, -beta)
    d3 = apply_fractional_values(factors[2], g, beta)
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
    yield "trilinear", lhs, rhs


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


def verify_estimate(kind: str, family: InputFamily | None = None, *, s: float = 0.75,
                    atlas: ConeAtlas | None = None, draws: int = 64, seed: int = 0,
                    sigma: float | None = None) -> RatioReport:
    """Worst-ratio sweep for one estimate kind over 2*draws seeded draws.

    C* over the first `draws` is compared with C* over all 2*draws; the
    report passes when the worst ratio is finite and grows by < 25% under
    that doubling.  A draw whose triples give no ratio (no rhs finite and
    positive) is skipped and counted.  sigma defaults to (n - 2s)/2;
    params["sigma"] is the caller's argument and params["sigma_used"] the
    value the kinds ran at.
    """
    if kind not in ESTIMATE_KINDS:
        raise ValueError(f"unknown estimate kind '{kind}'; choose from {sorted(ESTIMATE_KINDS)}")
    if family is None:
        # the default family; the Duhamel kind needs the [-2, 2] window
        family = InputFamily(t_half=2.0 if kind == "inhomogeneous" else 1.0)
    if atlas is None and family.n >= 2:
        atlas = axis_cone_atlas(family.n, family.margin)

    sigma_used = (family.n - 2.0 * s) / 2.0 if sigma is None else sigma
    report = RatioReport(check_id=f"estimate_{kind}",
                         params={"kind": kind, "s": s, "sigma": sigma,
                                 "sigma_used": sigma_used, "family": family.describe()},
                         seed=seed)
    buckets: dict = {}
    per_draw = []
    skipped = 0
    for i in range(2 * draws):
        worst = None
        for item, lhs, rhs in ESTIMATE_KINDS[kind](family, s, atlas, seed, i, sigma_used):
            ratio = _ratio_guarded(lhs, rhs)
            if ratio is not None:
                buckets.setdefault(item, []).append(float(ratio))
                worst = ratio if worst is None else max(worst, ratio)
        if worst is None:
            skipped += 1
            worst = np.nan
        per_draw.append(worst)

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
    report.notes.append(dimension_caveat(family.n))
    if kind == "maximal":
        report.notes.extend(_box_census_notes(family, draws))
    report.notes.append("Z_k values are the two-branch upper bound (surrogate)")
    return report
