"""Picard/Duhamel fixed-point solver for the fractional Schroedinger model.

The equation (i d_t + D^{2s}) u = sum_i coeff_i (D^{-beta_i} u_{i,1} u_{i,2})
D^{beta_i} u_{i,3} is solved on the window [-t_half, t_half] by iterating

    T v(t) = e^{i t D^{2s}} u0 - i psi(t) int_0^t e^{i (t - t') D^{2s}} F(v)(t') dt'

from the free evolution, with the time integral on the frame lattice and
spectral derivatives.  picard_solve builds one spectral.DuhamelOperator per
solve (the phase table e^{i t |xi|^{2s}} and the quadrature matrix) and
applies it for the free term, every step and the final residual; the public
duhamel_map builds its own and runs the same step.  The solve keeps each
iterate's Duhamel part also as its spectrum H, so D^beta of the iterate is
one inverse transform of M_beta (P u0_hat + H) and takes no forward one.
A factor pair u conj(u) is the real |u|^2, whose D^{-beta} takes the real
transforms.  The solve allocates the step's frame-sized arrays once
(_StepArrays) and every step writes into them; duhamel_map runs the same
step on fresh ones.

A step computes only the operator's active frames, those where the weights
psi(t_i) Q[i, j] have a nonzero row or column: psi vanishes outside
(-1.9, 1.9), so H is 0 on the other frames and the iterate equals the free
evolution there, and no active frame reads the forcing there.  The iterate
stays free + frames(H) in physical space, each frame the sum of two
arrays, because that sum is what the stored references and the F^sigma
diagnostic of the difference of two iterates have always seen; forming it
as frames(P u0_hat + H) would move the iterates at rounding.  The final
residual step runs on the rows with |t| < 1 and the columns they read: the
residual max_{|t|<1} ||u - T u||_{L2} comes by Parseval from H - H' on
those rows, with no inverse transform, and the a-priori ratio from the
spectrum P u0_hat + H the step forms there.
A converged and a diverged solve build their SolveResult the same way, and
the config keys of the setting sections come from CONFIG_FIELDS.
Smallness of the data is measured in the lattice homogeneous Sobolev norm of
order (n - 2s)/2 with the zero mode excluded.
"""

from __future__ import annotations

import copy
import time
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .norms import f_sigma_norm
from .spectral import (
    DuhamelOperator,
    Field,
    Grid,
    Trajectory,
    apply_fractional_values,
    dft_inverse,
    hdot_norm,
    hdot_norms,
    hdot_norms_from_spectrum,
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

    def describe(self) -> dict:
        return asdict(self)


# (section, key, SolveConfig field) of each solve setting, in field order.
CONFIG_FIELDS = (
    ("grid", "n", "n"), ("grid", "m", "m"), ("grid", "box_length", "box_length"),
    ("equation", "s", "s"), ("time", "t_half", "t_half"), ("time", "frames", "num_frames"),
    ("picard", "max_iterations", "max_iterations"), ("picard", "tolerance", "tolerance"),
    ("picard", "quadrature", "quadrature"), ("picard", "epsilon", "epsilon"),
    ("picard", "seed", "seed"), ("picard", "zero_mode_policy", "zero_mode_policy"),
)


# The keys a solve config may hold, per section; anything else is a typo.  A
# setting section holds the keys CONFIG_FIELDS gives it, in field order.
CONFIG_KEYS = {name: tuple(key for section, key, _ in CONFIG_FIELDS if section == name)
               for name in ("grid", "time", "equation", "nonlinearity", "picard",
                            "initial_data", "output")}
CONFIG_KEYS.update(nonlinearity=("terms",), initial_data=("kind", "seed", "width", "path"),
                   output=("directory",))
TERM_KEYS = ("beta", "pattern", "coeff")


def _section(section, name: str, allowed: tuple | None = None) -> dict:
    """A config mapping checked against its allowed keys; missing or empty is {}."""
    allowed = CONFIG_KEYS[name] if allowed is None else allowed
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ValueError(f"config section '{name}' must be a mapping, "
                         f"not {type(section).__name__}")
    unknown = sorted(str(key) for key in section if key not in allowed)
    if unknown:
        raise ValueError(f"unknown key '{unknown[0]}' in config section '{name}' "
                         f"(allowed: {', '.join(allowed)})")
    return section


def load_config(path) -> tuple:
    """Read the YAML key-value tree; returns (SolveConfig, NonlinearitySpec, extras).

    Malformed YAML, and unknown sections or keys, raise ValueError; the
    message names the section and the key.  The YAML is parsed by libyaml
    (yaml.CSafeLoader) when PyYAML has it, else by yaml.SafeLoader.
    """
    import yaml

    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=loader)
        except yaml.YAMLError as exc:
            raise ValueError(f"config is not valid YAML: {exc}") from exc
    doc = _section(raw, "top level", tuple(CONFIG_KEYS))
    sections = {name: _section(doc.get(name), name)
                for name in ("grid", "time", "equation", "picard")}
    # a given value is cast to the type of its field's default; SolveConfig
    # supplies the rest
    cfg = SolveConfig(**{attr: type(getattr(SolveConfig, attr))(sections[name][key])
                         for name, key, attr in CONFIG_FIELDS if key in sections[name]})
    nl = _section(doc.get("nonlinearity"), "nonlinearity")
    terms = []
    for term in nl.get("terms") or []:
        term = _section(term, "nonlinearity.terms[]", TERM_KEYS)
        beta = float(term.get("beta", 2.0 * cfg.s - 1.0))
        pattern = tuple(term.get("pattern", ["plain", "conjugate", "plain"]))
        coeff = term.get("coeff", 1.0)
        if isinstance(coeff, (list, tuple)):
            coeff = complex(coeff[0], coeff[1])
        terms.append(NonlinearityTerm(beta=beta, pattern=pattern, coeff=complex(coeff)))
    spec = NonlinearitySpec(terms=tuple(terms)) if terms else default_nonlinearity(cfg.s)
    spec.validate(cfg.s)
    initial_data = _section(doc.get("initial_data"), "initial_data")
    kind = initial_data.get("kind", "gaussian_spectrum")
    if kind not in ("gaussian_spectrum", "file"):
        raise ValueError(f"initial_data.kind must be gaussian_spectrum or file, not '{kind}'")
    if kind == "file" and "path" not in initial_data:
        raise ValueError("initial_data.kind 'file' needs initial_data.path")
    extras = {"output": _section(doc.get("output"), "output"), "initial_data": initial_data}
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


class _StepArrays:
    """The frame-sized arrays a Duhamel step writes, allocated once per solve.

    `frames` are the two iterate buffers that the steps alternate between,
    `duhamel` the Duhamel spectrum H, `forcing` the forcing from D^beta u3 to
    its spectrum, `real` the real |u|^2 and `half` its half spectrum.
    """

    def __init__(self, shape: tuple):
        self.frames = (np.empty(shape, complex), np.empty(shape, complex))
        self.duhamel = np.empty(shape, complex)
        self.forcing = np.empty(shape, complex)
        self.real = np.empty(shape)
        self.half = np.empty(shape[:-1] + (shape[-1] // 2 + 1,), complex)

    def fill_inactive(self, free: np.ndarray, active: slice) -> None:
        """Write the frames that no step writes: outside `active` both iterate
        buffers hold the free frames and the forcing array 0, which is where
        the solve leaves the difference of two iterates."""
        for outside in (slice(None, active.start), slice(active.stop, None)):
            for frames in self.frames:
                frames[outside] = free[outside]
            self.forcing[outside] = 0.0

    def part(self, frames: slice) -> "_StepArrays":
        """The same arrays restricted to `frames` (views)."""
        part = copy.copy(self)
        part.frames = tuple(array[frames] for array in self.frames)
        for name in ("duhamel", "forcing", "real", "half"):
            setattr(part, name, getattr(self, name)[frames])
        return part


def _term_apply(vals: np.ndarray, grid: Grid, term: NonlinearityTerm, policy: str,
                spectrum: np.ndarray | None = None,
                arrays: _StepArrays | None = None) -> np.ndarray:
    """One trilinear term on an array of frames (leading time axis).

    With `arrays`, the term is formed in arrays.forcing (its |u|^2 in
    arrays.real and arrays.half) and allocates no frame-sized array.
    """
    real = half = forcing = None
    if arrays is not None:
        real, half, forcing = arrays.real, arrays.half, arrays.forcing
    squared = set(term.pattern[:2]) == {"plain", "conjugate"}
    if squared:
        # u conj(u) = |u|^2 is real, and D^{-beta} of it takes the real
        # transforms; forcing's array holds |Im u|^2 until D^beta u3 needs it
        inner = np.square(vals.real, out=real)
        inner += np.square(vals.imag, out=None if forcing is None else forcing.real)
        inner = apply_fractional_values(inner, grid, -term.beta, policy, out=inner, work=half)
    else:
        conj = {"plain": (lambda a: a), "conjugate": np.conj}
        c1, c2 = (conj[p] for p in term.pattern[:2])
        # each factor lives only as long as the product that needs it
        inner = apply_fractional_values(c1(vals) * c2(vals), grid, -term.beta, policy)
    # the spectrum of vals is the spectrum of a plain u3 only
    if term.pattern[2] == "plain":
        u3, u3_spectrum = vals, spectrum
    else:
        u3, u3_spectrum = np.conjugate(vals, out=forcing), None
    outer = apply_fractional_values(u3, grid, term.beta, policy, spectrum=u3_spectrum,
                                    out=forcing)
    if not squared:
        # coeff * inner, then times outer in outer's array
        np.multiply(term.coeff, inner, out=inner)
        return np.multiply(inner, outer, out=outer)
    # the real inner times outer, then coeff, in outer's array
    np.multiply(outer, inner, out=outer)
    if term.coeff != 1.0:
        np.multiply(outer, term.coeff, out=outer)
    return outer


def apply_nonlinearity(u: Field, spec: NonlinearitySpec, s: float,
                       zero_mode_policy: str = "zero_out") -> Field:
    """F(u) = sum_i coeff_i (D^{-beta_i} u_{i,1} u_{i,2}) D^{beta_i} u_{i,3}."""
    spec.validate(s)
    return Field(u.grid, _nonlinearity_values(u.values[None, ...], u.grid, spec,
                                              zero_mode_policy)[0])


def _nonlinearity_values(vals: np.ndarray, grid: Grid, spec: NonlinearitySpec,
                         policy: str, spectrum: np.ndarray | None = None,
                         arrays: _StepArrays | None = None) -> np.ndarray:
    """F(u) on an array of frames.

    `spectrum`, when given, is the spectrum of `vals` that
    DuhamelOperator.spectrum forms; D^beta of a plain u3 then takes no
    forward transform.  Without it every D^beta transforms its input.
    With `arrays`, the first term is formed in arrays.forcing and the others
    are added to it.
    """
    out = None
    for term in spec.terms:
        value = _term_apply(vals, grid, term, policy, spectrum, arrays if out is None else None)
        out = value if out is None else np.add(out, value, out=out)
    return np.zeros_like(vals) if out is None else out


def duhamel_map(v: Trajectory, u0: Field, spec: NonlinearitySpec,
                config: SolveConfig) -> Trajectory:
    """T v = free evolution of u0 plus the windowed Duhamel correction."""
    op = DuhamelOperator(v.grid, v.t0, v.dt, v.num_frames, config.s, config.quadrature)
    free = op.free(u0)
    arrays = _StepArrays(v.values.shape)
    arrays.fill_inactive(free.values, op.active)
    return _duhamel_step(v, op, free, spec, config, arrays)[0]


def _duhamel_step(v: Trajectory, op: DuhamelOperator, free: Trajectory,
                  spec: NonlinearitySpec, config: SolveConfig, arrays: _StepArrays,
                  data_hat: np.ndarray | None = None, H: np.ndarray | None = None,
                  residual: bool = False) -> tuple:
    """(T v, H') given v's frame operator and `free`, the free evolution of the data.

    H' is the spectrum of the Duhamel part, T v = free + op.frames(H') (None
    without nonlinear terms).  The step computes the active frames only
    (op.active): H' is 0 outside them, so T v equals `free` there, and the
    forcing, its transforms and the Duhamel quadrature are not formed there.
    `arrays` come from a solve (_StepArrays.fill_inactive has written the
    frames outside op.active), and every frame-sized array is one of them:
    T v is written into the iterate buffer that does not hold v, and H' into
    arrays.duhamel.  `data_hat`, when given, is op.data_spectrum(u0) and `H`
    v's own H' (None for the free evolution): D^beta of a plain u3 then reads
    v's spectrum P u0_hat + H, formed in H's array, and takes no forward
    transform.

    With `residual` (and `data_hat`), the step is the solve's final check
    and runs on op.inner only: it forms v's spectrum P u0_hat + H on the
    inner columns in the spare iterate buffer, leaving H as it is, and H' on
    the inner rows, and takes no inverse transform of T v.  It returns the
    per-frame L2 norms of v - T v on the inner rows, by Parseval from
    H - H', and the per-frame Hdot^sigma norms of v there, from its
    spectrum.
    """
    out = arrays.frames[1] if v.values is arrays.frames[0] else arrays.frames[0]
    if residual:
        return _residual_step(v, op, spec, config, arrays, data_hat, H, out)
    if not spec.terms:
        return free, None
    active = op.active
    spectrum = None
    if data_hat is not None and any(term.pattern[2] == "plain" for term in spec.terms):
        # P u0_hat is formed in `out`, which is free until T v is written
        spectrum = op.spectrum(data_hat, None if H is None else H[active], work=out[active],
                               frames=active)
    # the forcing is formed in arrays.forcing, where integral_spectrum reads it
    _nonlinearity_values(v.values[active], v.grid, spec, config.zero_mode_policy, spectrum,
                         arrays.part(active))
    H = op.integral_spectrum(arrays.forcing, out=arrays.duhamel, work=arrays.forcing)
    frames = op.frames(H[active], out=out[active])
    frames += free.values[active]
    return Trajectory(v.grid, v.t0, v.dt, out), H


def _residual_step(v: Trajectory, op: DuhamelOperator, spec: NonlinearitySpec,
                   config: SolveConfig, arrays: _StepArrays, data_hat: np.ndarray,
                   H: np.ndarray | None, out: np.ndarray) -> tuple:
    """The residual form of _duhamel_step: (L2 norms of v - T v, Hdot^sigma
    norms of v), per inner row."""
    g = v.grid
    rows, cols = op.inner
    spectrum = op.spectrum(data_hat, work=out[cols], frames=cols)
    if H is not None:
        # the sum of the other steps, H + P u0_hat, bit for bit
        spectrum += H[cols]
    hdot = hdot_norms_from_spectrum(
        spectrum[rows.start - cols.start: rows.stop - cols.start], g, config.sigma)
    if not spec.terms:
        return np.zeros(hdot.shape), hdot
    _nonlinearity_values(v.values[cols], g, spec, config.zero_mode_policy, spectrum,
                         arrays.part(cols))
    Tv = op.integral_spectrum(arrays.forcing, out=out, work=arrays.forcing,
                              block=(rows, cols))
    diff = Tv if H is None else np.subtract(H[rows], Tv, out=Tv)
    # Parseval: sum_x |f|^2 = sum_xi |fftn(f)|^2 / m^n
    return _frame_norms(diff, g.dx**g.n / g.npoints), hdot


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
    # one entry per iteration, see picard_solve
    trace: list = field(default_factory=list)

    def summary(self) -> dict:
        """Every field but the trajectory, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "trajectory"}


def _inner_window_mask(times: np.ndarray) -> np.ndarray:
    return np.abs(times) < 1.0


def _frame_norms(values: np.ndarray, scale: float) -> np.ndarray:
    """sqrt(scale * sum |values|^2) over each frame, in one pass over the real view."""
    flat = values.reshape(values.shape[0], -1).view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat) * scale)


def _linf_l2_inner(u: Trajectory, v: Trajectory | None = None) -> float:
    vals = u.values if v is None else u.values - v.values
    mask = _inner_window_mask(u.times)
    axes = tuple(range(1, u.grid.n + 1))
    norms = np.sqrt(np.sum(np.abs(vals[mask]) ** 2, axis=axes) * u.grid.dx**u.grid.n)
    return float(np.max(norms))


def _linf_hdot_inner(u: Trajectory, sigma: float) -> float:
    mask = _inner_window_mask(u.times)
    return float(np.max(hdot_norms(u.values[mask], u.grid, sigma)))


def picard_solve(u0: Field, spec: NonlinearitySpec, config: SolveConfig,
                 fsigma_diffs: bool = True) -> SolveResult:
    """Iterate the Duhamel map from the free evolution until contraction.

    Convergence: successive-difference sup-in-time L2 below
    tolerance * ||u0||_{L2}.  Divergence (ratio >= 1 three times in a row,
    or a non-finite iterate, checked before the F^sigma diagnostic) raises
    PicardDivergenceError carrying the partial result; after an overflow its
    trajectory is the last finite iterate.

    The result's `trace` holds one entry per iteration, also for the
    iterate that overflowed: `iteration`, the wall time `step_s` of the
    Duhamel step and its difference to the previous iterate, `fsigma_s`
    of the F^sigma diagnostic (None when off), `diff_linf_l2`,
    `contraction_ratio` (None on the first iteration) and `finite`.
    """
    spec.validate(config.s)
    g = u0.grid
    data_hdot = hdot_norm(u0, config.sigma)
    smallness_ok = data_hdot <= config.epsilon * 1.0000001
    if not smallness_ok:
        warnings.warn(f"data norm {data_hdot:.3e} exceeds the smallness knob "
                      f"{config.epsilon:.3e}", stacklevel=2)

    t0 = -config.t_half
    op = DuhamelOperator(g, t0, config.dt, config.num_frames, config.s, config.quadrature)
    free = op.free(u0)
    data_hat = op.data_spectrum(u0)
    arrays = _StepArrays(free.values.shape)
    arrays.fill_inactive(free.values, op.active)
    # The iterate is free + op.frames(H), and equals free outside op.active;
    # only H is kept, and the iterate's spectrum P u0_hat + H is formed in H's
    # array when a step needs it.
    current, H = free, None
    active = op.active

    def step(residual=False):
        return _duhamel_step(current, op, free, spec, config, arrays, data_hat, H,
                             residual=residual)

    ref = max(u0.l2_norm(), 1e-300)
    diffs, fdiffs, ratios, trace = [], [], [], []
    converged = False
    iterations = 0

    def result(it: int, residual: float, apriori: float) -> SolveResult:
        return SolveResult(
            trajectory=current, converged=converged, iterations=it,
            diff_linf_l2=diffs, diff_fsigma=fdiffs, contraction_ratios=ratios,
            duhamel_residual=residual, apriori_ratio=apriori,
            data_hdot=data_hdot, smallness_ok=smallness_ok,
            config=config.describe(), trace=trace)

    def diverged(message: str, it: int) -> PicardDivergenceError:
        return PicardDivergenceError(message, result=result(it, float("nan"), float("nan")))

    for it in range(1, config.max_iterations + 1):
        # An overflow anywhere in the step leaves inf or nan in the iterate,
        # and so in its distance to the previous, finite one; d is checked
        # right below.
        start = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):
            nxt, H = step()
            # the difference goes to arrays.forcing, which the next step
            # rewrites; outside the active frames it is 0
            diff = np.subtract(nxt.values[active], current.values[active],
                               out=arrays.forcing[active])
            diff_traj = Trajectory(g, t0, config.dt, arrays.forcing)
            d = float(np.max(_frame_norms(diff, g.dx**g.n), initial=0.0))
        entry = {"iteration": it, "step_s": time.perf_counter() - start, "fsigma_s": None,
                 "diff_linf_l2": d, "contraction_ratio": None, "finite": bool(np.isfinite(d))}
        trace.append(entry)
        if not entry["finite"]:
            raise diverged(f"Picard iterate {it} is not finite (overflow); the last finite "
                           f"iterate is {it - 1}", it)
        diffs.append(d)
        if fsigma_diffs:
            start = time.perf_counter()
            fdiffs.append(f_sigma_norm(diff_traj, config.sigma, config.s))
            entry["fsigma_s"] = time.perf_counter() - start
        if len(diffs) >= 2 and diffs[-2] > 0:
            ratios.append(d / diffs[-2])
            entry["contraction_ratio"] = ratios[-1]
        current = nxt
        iterations = it
        if d <= config.tolerance * ref:
            converged = True
            break
        if len(ratios) >= 3 and all(r >= 1.0 for r in ratios[-3:]):
            raise diverged(f"Picard iteration diverging after {it} steps "
                           f"(last ratios {ratios[-3:]})", it)

    # v - T v and v's Hdot^sigma norms on |t| < 1, from the spectra
    residuals, hdots = step(residual=True)
    return result(iterations, float(np.max(residuals)) / ref,
                  float(np.max(hdots)) / max(data_hdot, 1e-300))


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
