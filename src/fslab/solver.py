"""Picard/Duhamel fixed-point solver for the fractional Schroedinger model.

The equation (i d_t + D^{2s}) u = sum_i coeff_i (D^{-beta_i} u_{i,1} u_{i,2})
D^{beta_i} u_{i,3} is solved on the window [-t_half, t_half] by iterating

    T v(t) = e^{i t D^{2s}} u0 - i psi(t) int_0^t e^{i (t - t') D^{2s}} F(v)(t') dt'

from the free evolution, with the time integral on the frame lattice and
spectral derivatives.  Smallness of the data is measured in the lattice
homogeneous Sobolev norm of order (n - 2s)/2 with the zero mode excluded.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, asdict

import numpy as np
import yaml

from .norms import f_sigma_norm
from .spectral import (
    Field,
    Grid,
    Trajectory,
    apply_spatial_multiplier,
    dft_inverse,
    duhamel_integral,
    fractional_multiplier,
    free_evolution,
    hdot_norm,
)

__all__ = [
    "PicardDivergenceError",
    "NonlinearityTerm",
    "NonlinearitySpec",
    "default_nonlinearity",
    "SolveConfig",
    "SolveResult",
    "load_config",
    "gaussian_spectrum_data",
    "apply_nonlinearity",
    "duhamel_map",
    "picard_solve",
    "residual_check",
    "continuous_dependence_probe",
    "DependenceProbe",
]


class PicardDivergenceError(RuntimeError):
    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class NonlinearityTerm:
    """One trilinear term (D^{-beta}(u1 u2)) D^{beta} u3 with conjugation pattern."""

    beta: float
    pattern: tuple = ("plain", "conjugate", "plain")
    coeff: complex = 1.0

    def __post_init__(self):
        if len(self.pattern) != 3 or any(p not in ("plain", "conjugate") for p in self.pattern):
            raise ValueError("pattern must be three of plain|conjugate")


@dataclass(frozen=True)
class NonlinearitySpec:
    terms: tuple = ()

    def validate(self, s: float) -> None:
        lo, hi = -(2.0 * s - 1.0) / 2.0, 2.0 * s - 1.0
        for t in self.terms:
            if not (lo - 1e-12 <= t.beta <= hi + 1e-12):
                raise ValueError(
                    f"beta={t.beta} outside the admissible range [{lo}, {hi}] for s={s}")


def default_nonlinearity(s: float) -> NonlinearitySpec:
    """The model nonlinearity (D^{-(2s-1)} |u|^2) D^{2s-1} u."""
    return NonlinearitySpec(terms=(NonlinearityTerm(beta=2.0 * s - 1.0),))


@dataclass
class SolveConfig:
    n: int = 2
    m: int = 32
    box_length: float = 2.0 * np.pi
    s: float = 0.75
    t_half: float = 2.0
    num_frames: int = 64
    max_iterations: int = 25
    tolerance: float = 1e-10
    quadrature: str = "simpson"
    epsilon: float = 1e-2
    seed: int = 0
    zero_mode_policy: str = "zero_out"

    def __post_init__(self):
        if self.quadrature not in ("trapezoid", "simpson"):
            raise ValueError("quadrature must be trapezoid or simpson")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.num_frames * self.dt < 2.0 * self.t_half - 1e-12:
            raise ValueError("frames do not cover the window")

    @property
    def dt(self) -> float:
        return 2.0 * self.t_half / self.num_frames

    @property
    def grid(self) -> Grid:
        return Grid(self.n, self.m, self.box_length)

    @property
    def sigma(self) -> float:
        return (self.n - 2.0 * self.s) / 2.0

    def times(self) -> np.ndarray:
        return -self.t_half + self.dt * np.arange(self.num_frames)

    def describe(self) -> dict:
        return asdict(self)


def load_config(path) -> tuple:
    """Read the YAML key-value tree; returns (SolveConfig, NonlinearitySpec, extras)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh) or {}
    grid = doc.get("grid", {})
    time = doc.get("time", {})
    equation = doc.get("equation", {})
    picard = doc.get("picard", {})
    cfg = SolveConfig(
        n=int(grid.get("n", 2)),
        m=int(grid.get("m", 32)),
        box_length=float(grid.get("box_length", 2.0 * np.pi)),
        s=float(equation.get("s", 0.75)),
        t_half=float(time.get("t_half", 2.0)),
        num_frames=int(time.get("frames", 64)),
        max_iterations=int(picard.get("max_iterations", 25)),
        tolerance=float(picard.get("tolerance", 1e-10)),
        quadrature=str(picard.get("quadrature", "simpson")),
        epsilon=float(picard.get("epsilon", 1e-2)),
        seed=int(picard.get("seed", 0)),
        zero_mode_policy=str(picard.get("zero_mode_policy", "zero_out")),
    )
    nl = doc.get("nonlinearity", {})
    terms = []
    for term in nl.get("terms", []):
        beta = float(term.get("beta", 2.0 * cfg.s - 1.0))
        pattern = tuple(term.get("pattern", ["plain", "conjugate", "plain"]))
        coeff = term.get("coeff", 1.0)
        if isinstance(coeff, (list, tuple)):
            coeff = complex(coeff[0], coeff[1])
        terms.append(NonlinearityTerm(beta=beta, pattern=pattern, coeff=complex(coeff)))
    spec = NonlinearitySpec(terms=tuple(terms)) if terms else default_nonlinearity(cfg.s)
    spec.validate(cfg.s)
    extras = {"output": doc.get("output", {}), "initial_data": doc.get("initial_data", {})}
    return cfg, spec, extras


def gaussian_spectrum_data(grid: Grid, sigma: float, epsilon: float,
                           seed: int = 0, width: float = 2.0) -> Field:
    """Random Gaussian-spectrum data normalized to ||u0||_{Hdot^sigma} = epsilon."""
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    envelope = np.exp(-grid.freq_norm**2 / (2.0 * width**2))
    spec = coeff * envelope
    zero_idx = tuple([grid.m // 2] * grid.n)
    spec[zero_idx] = 0.0
    u0 = dft_inverse(Field(grid, spec))
    norm = hdot_norm(u0, sigma)
    if norm == 0.0:
        raise ValueError("degenerate random data")
    return Field(grid, u0.values * (epsilon / norm))


def _term_apply(vals: np.ndarray, grid: Grid, term: NonlinearityTerm,
                policy: str) -> np.ndarray:
    """One trilinear term on an array of frames (leading time axis)."""
    conj = {"plain": (lambda a: a), "conjugate": np.conj}
    f1 = conj[term.pattern[0]](vals)
    f2 = conj[term.pattern[1]](vals)
    f3 = conj[term.pattern[2]](vals)

    def mult(arr, beta):
        if beta < 0 and policy == "reject":
            # zero mode sits at index 0 of the FFT-native spectrum
            spec = np.fft.fftn(arr, axes=tuple(range(1, grid.n + 1)))
            zero_idx = (slice(None),) + (0,) * grid.n
            if np.max(np.abs(spec[zero_idx])) > 1e-13 * max(np.max(np.abs(spec)), 1e-300):
                raise ValueError("nonlinearity product has nonzero mean under reject policy")
        return apply_spatial_multiplier(arr, grid, fractional_multiplier(grid, beta, policy))

    inner = mult(f1 * f2, -term.beta)
    outer = mult(f3, term.beta)
    return term.coeff * inner * outer


def apply_nonlinearity(u: Field, spec: NonlinearitySpec, s: float,
                       zero_mode_policy: str = "zero_out") -> Field:
    """F(u) = sum_i coeff_i (D^{-beta_i} u_{i,1} u_{i,2}) D^{beta_i} u_{i,3}."""
    spec.validate(s)
    return Field(u.grid, _nonlinearity_values(u.values[None, ...], u.grid, spec,
                                              zero_mode_policy)[0])


def _nonlinearity_values(vals: np.ndarray, grid: Grid, spec: NonlinearitySpec,
                         policy: str) -> np.ndarray:
    out = np.zeros_like(vals)
    for term in spec.terms:
        out = out + _term_apply(vals, grid, term, policy)
    return out


def duhamel_map(v: Trajectory, u0: Field, spec: NonlinearitySpec,
                config: SolveConfig) -> Trajectory:
    """T v = free evolution of u0 plus the windowed Duhamel correction."""
    free = free_evolution(u0, v.t0, v.dt, v.num_frames, config.s)
    if not spec.terms:
        return free
    forcing = Trajectory(v.grid, v.t0, v.dt,
                         _nonlinearity_values(v.values, v.grid, spec, config.zero_mode_policy))
    correction = duhamel_integral(forcing, config.s, rule=config.quadrature)
    return Trajectory(v.grid, v.t0, v.dt, free.values + correction.values)


@dataclass
class SolveResult:
    trajectory: Trajectory
    converged: bool
    iterations: int
    diff_linf_l2: list
    diff_fsigma: list
    contraction_ratios: list
    duhamel_residual: float
    apriori_ratio: float
    data_hdot: float
    smallness_ok: bool
    config: dict

    def summary(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "diff_linf_l2": self.diff_linf_l2,
            "diff_fsigma": self.diff_fsigma,
            "contraction_ratios": self.contraction_ratios,
            "duhamel_residual": self.duhamel_residual,
            "apriori_ratio": self.apriori_ratio,
            "data_hdot": self.data_hdot,
            "smallness_ok": self.smallness_ok,
            "config": self.config,
        }


def _inner_window_mask(times: np.ndarray) -> np.ndarray:
    return np.abs(times) < 1.0


def _linf_l2_inner(u: Trajectory, v: Trajectory | None = None) -> float:
    vals = u.values if v is None else u.values - v.values
    mask = _inner_window_mask(u.times)
    axes = tuple(range(1, u.grid.n + 1))
    norms = np.sqrt(np.sum(np.abs(vals[mask]) ** 2, axis=axes) * u.grid.dx**u.grid.n)
    return float(np.max(norms))


def _linf_hdot_inner(u: Trajectory, sigma: float) -> float:
    mask = _inner_window_mask(u.times)
    return float(max(hdot_norm(Field(u.grid, u.values[i]), sigma)
                     for i in np.nonzero(mask)[0]))


def picard_solve(u0: Field, spec: NonlinearitySpec, config: SolveConfig,
                 fsigma_diffs: bool = True) -> SolveResult:
    """Iterate the Duhamel map from the free evolution until contraction.

    Convergence: successive-difference sup-in-time L2 below
    tolerance * ||u0||_{L2}.  Divergence (ratio >= 1 three times in a row)
    raises PicardDivergenceError carrying the partial result.
    """
    spec.validate(config.s)
    g = u0.grid
    data_hdot = hdot_norm(u0, config.sigma)
    smallness_ok = data_hdot <= config.epsilon * 1.0000001
    if not smallness_ok:
        warnings.warn(f"data norm {data_hdot:.3e} exceeds the smallness knob "
                      f"{config.epsilon:.3e}", stacklevel=2)

    t0 = -config.t_half
    current = free_evolution(u0, t0, config.dt, config.num_frames, config.s)
    ref = max(u0.l2_norm(), 1e-300)
    diffs, fdiffs, ratios = [], [], []
    converged = False
    iterations = 0

    for it in range(1, config.max_iterations + 1):
        nxt = duhamel_map(current, u0, spec, config)
        diff_traj = Trajectory(g, t0, config.dt, nxt.values - current.values)
        d = diff_traj.linf_l2()
        diffs.append(d)
        if fsigma_diffs:
            fdiffs.append(f_sigma_norm(diff_traj, config.sigma, config.s))
        if len(diffs) >= 2 and diffs[-2] > 0:
            ratios.append(d / diffs[-2])
        current = nxt
        iterations = it
        if d <= config.tolerance * ref:
            converged = True
            break
        if len(ratios) >= 3 and all(r >= 1.0 for r in ratios[-3:]):
            partial = SolveResult(
                trajectory=current, converged=False, iterations=it,
                diff_linf_l2=diffs, diff_fsigma=fdiffs, contraction_ratios=ratios,
                duhamel_residual=float("nan"), apriori_ratio=float("nan"),
                data_hdot=data_hdot, smallness_ok=smallness_ok,
                config=config.describe())
            raise PicardDivergenceError(
                f"Picard iteration diverging after {it} steps "
                f"(last ratios {ratios[-3:]})", result=partial)

    residual = residual_check(current, u0, spec, config)
    apriori = _linf_hdot_inner(current, config.sigma) / max(data_hdot, 1e-300)
    return SolveResult(
        trajectory=current, converged=converged, iterations=iterations,
        diff_linf_l2=diffs, diff_fsigma=fdiffs, contraction_ratios=ratios,
        duhamel_residual=residual, apriori_ratio=apriori,
        data_hdot=data_hdot, smallness_ok=smallness_ok,
        config=config.describe())


def residual_check(u: Trajectory, u0: Field, spec: NonlinearitySpec,
                   config: SolveConfig) -> float:
    """|| u - T u ||_{L^inf_t L^2} over |t| < 1, normalized by ||u0||_{L2}."""
    Tu = duhamel_map(u, u0, spec, config)
    return _linf_l2_inner(u, Tu) / max(u0.l2_norm(), 1e-300)


@dataclass
class DependenceProbe:
    ratio_l2: float
    ratio_hdot: float
    identical_data: bool


def continuous_dependence_probe(u0: Field, v0: Field, spec: NonlinearitySpec,
                                config: SolveConfig) -> DependenceProbe:
    """Solution-difference to data-difference ratios for two small data.

    Identical data returns zero ratios with a flag (0/0 guarded by
    convention).
    """
    delta_l2 = Field(u0.grid, u0.values - v0.values).l2_norm()
    if delta_l2 <= 1e-300 * max(u0.l2_norm(), 1.0):
        return DependenceProbe(0.0, 0.0, True)
    ru = picard_solve(u0, spec, config, fsigma_diffs=False)
    rv = picard_solve(v0, spec, config, fsigma_diffs=False)
    diff = Trajectory(u0.grid, ru.trajectory.t0, ru.trajectory.dt,
                      ru.trajectory.values - rv.trajectory.values)
    delta_hdot = hdot_norm(Field(u0.grid, u0.values - v0.values), config.sigma)
    return DependenceProbe(
        ratio_l2=_linf_l2_inner(diff) / delta_l2,
        ratio_hdot=_linf_hdot_inner(diff, config.sigma) / max(delta_hdot, 1e-300),
        identical_data=False,
    )
