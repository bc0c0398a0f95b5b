"""Stationary-phase integrals, Bessel reduction, and the level-set measure.

The dispersive integral I(x,t) = int e^{i(t|xi|^{2s} - <x,xi>)} c(|xi|) dxi
is reduced through the sphere average

    A_n(rho) = int_{S^{n-1}} e^{i rho theta_1} dtheta
             = (2 pi)^{n/2} rho^{-(n-2)/2} J_{(n-2)/2}(rho)

to a one-dimensional radial integral, evaluated with Gauss-Kronrod panels
refined until the phase varies by at most pi/4 per panel.  The Bessel
factor is evaluated from its 42-term power series up to x = 15 and the
12-term Hankel asymptotic expansion above it; the Hankel polynomials P and
Q are summed by Horner's rule in 1/x^2 from coefficient tables built once
per order.  The radial integrand forms its real amplitude first and writes
cos and sin of the phase times that amplitude into one complex array.  The
sphere integral is additionally computable by direct angular quadrature as
a cross-check.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import bumps

__all__ = [
    "QuadratureError",
    "PhaseIntegralSpec",
    "DecayFit",
    "bessel_j",
    "sphere_surface_area",
    "angular_factor",
    "sphere_phase_integral",
    "dispersive_integral",
    "dispersive_peak",
    "fit_dispersive_decay",
    "l1_sup_profile",
    "sigma_measure",
    "sigma_measure_sweep",
]


class QuadratureError(RuntimeError):
    pass


# --- Gauss-Kronrod 15/7 panel quadrature -----------------------------------

_K15_X = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_K15_W = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_G7_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_G7_W = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


def _gk_panels(f, a: float, b: float, panels: int):
    """Composite K15 quadrature with the embedded G7 error estimate.

    f must accept an ndarray and return a fresh array, which is weighted in
    place; returns (integral, error_estimate).
    """
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = half[:, None] * _K15_X[None, :]
    nodes += mid[:, None]
    vals = f(nodes.ravel()).reshape(panels, 15)
    g7_vals = vals[:, _G7_IDX]
    g7_vals *= _G7_W[None, :]
    g7 = g7_vals.sum(axis=1) * half
    vals *= _K15_W[None, :]
    k15 = vals.sum(axis=1) * half
    return complex(k15.sum()), float(np.abs(k15 - g7).sum())


# --- Bessel J: series + Hankel asymptotics ----------------------------------

_SERIES_CUT = 15.0
_SERIES_TERMS = 42
_HANKEL_TERMS = 12


def _bessel_series(nu: float, x: np.ndarray) -> np.ndarray:
    y = (x / 2.0) ** 2
    acc = np.zeros_like(x)
    c = 1.0 / math.gamma(nu + 1.0)
    acc += c
    for m in range(1, _SERIES_TERMS):
        c = -c / (m * (m + nu))
        acc = acc + c * y**m
    with np.errstate(invalid="ignore"):
        lead = np.where(x > 0, (x / 2.0) ** nu, 1.0 if nu == 0 else 0.0)
    return lead * acc


@functools.lru_cache(maxsize=16)
def _hankel_tables(nu: float) -> tuple:
    """Signed Hankel coefficients of P and Q as polynomials in 1/x^2.

    a_m = prod_{l<=m} (4 nu^2 - (2l-1)^2) / (8l); P takes the even m and Q
    the odd m, each with the sign (-1)^(m//2), highest power first.
    """
    mu = 4.0 * nu * nu
    a = [1.0]
    for m in range(1, _HANKEL_TERMS):
        a.append(a[-1] * (mu - (2 * m - 1) ** 2) / (8.0 * m))
    signed = [(-1.0) ** (m // 2) * am for m, am in enumerate(a)]
    return tuple(reversed(signed[0::2])), tuple(reversed(signed[1::2]))


def _horner(coefs: tuple, y: np.ndarray) -> np.ndarray:
    acc = coefs[0] * y
    acc += coefs[1]
    for c in coefs[2:]:
        acc *= y
        acc += c
    return acc


def _bessel_asymptotic(nu: float, x: np.ndarray) -> np.ndarray:
    """J_nu(x) = sqrt(2/(pi x)) (cos(omega) P - sin(omega) Q), 12 Hankel terms.

    Works in place on four arrays of the size of x: at the ridge's sizes
    (about 10^5 points) the page faults of a fresh temporary per operation
    cost more than the arithmetic.
    """
    p_coefs, q_coefs = _hankel_tables(float(nu))
    inv = np.divide(1.0, x)
    y = inv * inv
    P = _horner(p_coefs, y)
    Q = _horner(q_coefs, y)
    Q *= inv
    omega = np.subtract(x, nu * np.pi / 2.0, out=inv)
    omega -= np.pi / 4.0
    P *= np.cos(omega, out=y)
    Q *= np.sin(omega, out=y)
    P -= Q
    root = np.multiply(np.pi, x, out=omega)
    np.divide(2.0, root, out=root)
    P *= np.sqrt(root, out=root)
    return P


def bessel_j(nu: float, x) -> np.ndarray:
    """J_nu(x) for x >= 0: power series up to 15, Hankel expansion above.

    The Hankel polynomials are summed by Horner's rule in 1/x^2 from
    coefficient tables built once per order.  That changes only the order
    of the arithmetic: the expansions (42 series terms, 12 Hankel terms)
    and the cut at 15 are unchanged, so values agree with term-by-term
    summation to rounding.  When no argument is at or below the cut, the
    asymptotic values are returned without masking.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if x.size and x.min() > _SERIES_CUT:
        out = _bessel_asymptotic(nu, x)
    else:
        out = np.empty_like(x)
        small = x <= _SERIES_CUT
        out[small] = _bessel_series(nu, x[small])
        big = ~small
        if np.any(big):
            out[big] = _bessel_asymptotic(nu, x[big])
    return float(out[0]) if scalar else out


def sphere_surface_area(n: int) -> float:
    return 2.0 * np.pi ** (n / 2.0) / math.gamma(n / 2.0)


def angular_factor(n: int, rho) -> np.ndarray:
    """A_n(rho) = int_{S^{n-1}} e^{i rho theta_1} dtheta, real and even.

    Bessel closed form (2 pi)^{n/2} rho^{-(n-2)/2} J_{(n-2)/2}(rho); the
    rho -> 0 limit is the surface area.  n = 1 degenerates to 2 cos(rho).
    """
    rho = np.abs(np.asarray(rho, dtype=float))
    if n == 1:
        return 2.0 * np.cos(rho)
    scalar = rho.ndim == 0
    rho = np.atleast_1d(rho)
    nu = (n - 2) / 2.0

    def bessel_form(r):
        values = bessel_j(nu, r)
        if nu == 0.0:  # n = 2: rho^0 is one
            values *= (2.0 * np.pi) ** (n / 2.0)
        else:
            weight = r ** (-nu)
            weight *= (2.0 * np.pi) ** (n / 2.0)
            values *= weight
        return values

    if rho.size and rho.min() >= 1e-6:
        out = bessel_form(rho)
    else:
        out = np.empty_like(rho)
        tiny = rho < 1e-6
        # series limit keeps the removable singularity of rho^{-nu} harmless
        out[tiny] = sphere_surface_area(n) * (1.0 - rho[tiny] ** 2 / (2.0 * n))
        big = ~tiny
        if np.any(big):
            out[big] = bessel_form(rho[big])
    return float(out[0]) if scalar else out


# error target of the angular quadrature, relative to |S^{n-1}|
_SPHERE_TOL = 1e-9


def sphere_phase_integral(rho: float, n: int) -> complex:
    """Sphere integral by adaptive angular quadrature, checked against Bessel.

    Integrates |S^{n-2}| int_0^pi e^{i rho cos(alpha)} sin(alpha)^{n-2} dalpha
    with phase-resolving Gauss-Kronrod panels.  Raises QuadratureError when
    the quadrature does not converge or disagrees with the Bessel route.
    """
    if n < 2:
        raise ValueError("sphere reduction needs n >= 2")
    rho = float(abs(rho))
    prefactor = sphere_surface_area(n - 1) if n > 2 else 1.0

    def integrand(alpha):
        amp = np.sin(alpha) ** (n - 2) if n > 2 else np.ones_like(alpha)
        if n == 2:
            amp = 2.0 * np.ones_like(alpha)  # both semicircles
        return np.exp(1j * rho * np.cos(alpha)) * amp

    panels = max(16, int(np.ceil(rho * np.pi / (np.pi / 4.0))))
    value, err = _gk_panels(integrand, 0.0, np.pi, panels)
    scale = sphere_surface_area(n)
    if err > _SPHERE_TOL * scale:
        value, err = _gk_panels(integrand, 0.0, np.pi, 4 * panels)
        if err > _SPHERE_TOL * scale:
            raise QuadratureError(f"sphere quadrature did not converge (err {err:.2e})")
    value = prefactor * value
    ref = angular_factor(n, rho)
    if abs(value - ref) > 1e-8 * max(scale, 1.0):
        raise QuadratureError(
            f"quadrature/Bessel mismatch at rho={rho}: {value} vs {ref}")
    return value


# --- dispersive integral -----------------------------------------------------

# error target of the radial quadrature, relative to the zero-phase mass
_RADIAL_TOL = 1e-8
# |x| samples of the ridge search in dispersive_peak, before golden section
_PEAK_SAMPLES = 12
# a decay fit passes when its slope is at most -n/2 + DECAY_SLACK
DECAY_SLACK = 0.15


@dataclass(frozen=True)
class PhaseIntegralSpec:
    """What to integrate: dimension, order, cutoff descriptor, evaluation point.

    cutoff is one of 'ball' (eta(|xi| / 2^ell)), 'annulus_dyadic'
    (psi(|xi| / 2^k), the difference of two balls) or 'annulus_shift'
    (eta(|xi| - Lambda)).  shift is the frequency-translation vector of the
    phase |xi - shift|^{2s}; x, t the evaluation point.
    """

    n: int
    s: float
    cutoff: str = "annulus_dyadic"
    k: int = 0
    ell: int = 0
    Lambda: float = 10.0
    shift: tuple = ()
    x: tuple = ()
    t: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2 for the Bessel reduction")
        if not (0.5 < self.s < 1.0):
            raise ValueError("stationary-phase module needs s in (1/2, 1)")
        if self.cutoff not in ("ball", "annulus_dyadic", "annulus_shift"):
            raise ValueError("cutoff must be ball | annulus_dyadic | annulus_shift")

    def radial_cutoff(self):
        if self.cutoff == "ball":
            scale = 2.0**self.ell
            return (lambda r: bumps.ball_bump(r / scale)), 0.0, 0.95 * scale
        if self.cutoff == "annulus_dyadic":
            scale = 2.0**self.k
            return (lambda r: bumps.annular_bump(r / scale)), 0.5 * scale, 1.9 * scale
        lam = self.Lambda
        return (lambda r: bumps.ball_bump(r - lam)), max(lam - 0.95, 0.0), lam + 0.95


def _radial_integral(n: int, s: float, cutoff, rlo: float, rhi: float,
                     xnorm: float, t: float, scale: float | None = None) -> complex:
    """int_0^inf e^{i t r^{2s}} A_n(r |x|) cutoff(r) r^{n-1} dr with panels."""
    if rhi <= rlo:
        return 0.0 + 0.0j

    def integrand(r):
        # e^{i y} written as (cos y, sin y) times the real amplitude
        amp = angular_factor(n, r * xnorm)
        amp *= cutoff(r)
        amp *= r ** (n - 1)
        phase = r ** (2.0 * s)
        phase *= t
        vals = np.empty(r.shape, dtype=complex)
        np.cos(phase, out=vals.real)
        vals.real *= amp
        np.sin(phase, out=vals.imag)
        vals.imag *= amp
        return vals

    dphase = 2.0 * s * abs(t) * max(rhi, 1e-300) ** (2.0 * s - 1.0) + abs(xnorm)
    panels = max(64, int(np.ceil((rhi - rlo) * dphase / (np.pi / 4.0))))
    panels = min(panels, 60000)
    value, err = _gk_panels(integrand, rlo, rhi, panels)
    if scale is None:
        # error target is relative to the zero-phase mass |I(0, 0)|
        scale = abs(_gk_panels(lambda r: angular_factor(n, r * 0.0) * cutoff(r)
                               * r ** (n - 1), rlo, rhi, 64)[0])
    if err > _RADIAL_TOL * max(scale, 1e-300):
        value2, err2 = _gk_panels(integrand, rlo, rhi, 2 * panels)
        if err2 > _RADIAL_TOL * max(scale, 1e-300):
            warnings.warn(f"dispersive quadrature not converged (err {err2:.2e}); "
                          "returning partial result", stacklevel=2)
        value = value2
    return value


def _shifted_cylindrical(spec: PhaseIntegralSpec, x1: float, xperp: float,
                         t: float) -> complex:
    """Axially symmetric evaluation for a shift along the first axis.

    Reduces int e^{i(x.zeta - t |zeta|^{2s})} c(|zeta + nu e1|) dzeta to a
    (zeta_1, rho) panel product; modulus-only (a unimodular e^{i x.n} factor
    is dropped).
    """
    nu = float(spec.shift[0]) if len(spec.shift) else 0.0
    cutoff, _, rmax = spec.radial_cutoff()
    n = spec.n
    z_lo, z_hi = -nu - rmax, -nu + rmax
    rho_hi = rmax

    dphase_z = 2.0 * spec.s * abs(t) * (abs(z_hi) + rho_hi) ** (2.0 * spec.s - 1.0) + abs(x1)
    panels_z = min(4000, max(48, int(np.ceil((z_hi - z_lo) * dphase_z / (np.pi / 2.0)))))
    edges = np.linspace(z_lo, z_hi, panels_z + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    z_nodes = (mids[:, None] + halfs[:, None] * _K15_X[None, :]).ravel()
    z_w = (halfs[:, None] * _K15_W[None, :]).ravel()

    dphase_r = 2.0 * spec.s * abs(t) * (abs(z_hi) + rho_hi) ** (2.0 * spec.s - 1.0) + abs(xperp)
    panels_r = min(2000, max(32, int(np.ceil(rho_hi * dphase_r / (np.pi / 2.0)))))
    redges = np.linspace(0.0, rho_hi, panels_r + 1)
    rmids = 0.5 * (redges[1:] + redges[:-1])
    rhalfs = 0.5 * (redges[1:] - redges[:-1])
    r_nodes = (rmids[:, None] + rhalfs[:, None] * _K15_X[None, :]).ravel()
    r_w = (rhalfs[:, None] * _K15_W[None, :]).ravel()

    Z = z_nodes[:, None]
    R = r_nodes[None, :]
    phase = np.exp(1j * (x1 * Z - t * (Z**2 + R**2) ** spec.s))
    amp = cutoff(np.sqrt((Z + nu) ** 2 + R**2)) * angular_factor(n - 1, r_nodes * xperp)[None, :]
    if n == 2:
        # zeta' is one-dimensional: "A_1" already counts both points of S^0
        weight = np.ones_like(r_nodes)[None, :]
    else:
        weight = (r_nodes ** (n - 2))[None, :]
    vals = phase * amp * weight
    return complex(np.einsum("i,ij,j->", z_w, vals, r_w))


def dispersive_integral(spec: PhaseIntegralSpec) -> complex:
    """I(x,t) = int e^{i(t |xi - shift|^{2s} - <x, xi>)} cutoff(|xi|) dxi.

    Radial cutoffs reduce to a 1-D oscillatory integral (only |x| enters);
    with a nonzero shift the shift must be along the first axis and the
    cylindrical 2-D reduction is used.
    """
    x = np.asarray(spec.x if len(spec.x) else np.zeros(spec.n), dtype=float)
    if len(spec.shift) and np.any(np.asarray(spec.shift)[1:] != 0.0):
        raise ValueError("shift is supported along the first axis only")
    if len(spec.shift) and spec.shift[0] != 0.0:
        return _shifted_cylindrical(spec, float(x[0]),
                                    float(np.linalg.norm(x[1:])), spec.t)
    cutoff, rlo, rhi = spec.radial_cutoff()
    return _radial_integral(spec.n, spec.s, cutoff, rlo, rhi,
                            float(np.linalg.norm(x)), spec.t)


def dispersive_peak(spec: PhaseIntegralSpec, t: float) -> float:
    """max over |x| of |I(x, t)|, searched along the stationary-phase ridge.

    The phase t r^{2s} - r|x| is stationary where |x| = 2 s t r^{2s-1} with r
    in the cutoff support, so the |x| bracket spans that ridge; a golden
    section pass refines the best sample.
    """
    cutoff, rlo, rhi = spec.radial_cutoff()
    scale = abs(_radial_integral(spec.n, spec.s, cutoff, rlo, rhi, 0.0, 0.0))

    def value(xnorm):
        return abs(_radial_integral(spec.n, spec.s, cutoff, rlo, rhi,
                                    xnorm, t, scale=scale))

    r_lo_eff = max(rlo, 0.05 * rhi)
    x_lo = 0.6 * 2.0 * spec.s * t * r_lo_eff ** (2.0 * spec.s - 1.0)
    x_hi = 1.4 * 2.0 * spec.s * t * rhi ** (2.0 * spec.s - 1.0)
    xs = np.linspace(x_lo, x_hi, _PEAK_SAMPLES)
    vals = [value(x) for x in xs]
    i = int(np.argmax(vals))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, len(xs) - 1)]
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = value(c), value(d)
    for _ in range(10):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = value(d)
    return max(max(vals), fc, fd)


@dataclass
class DecayFit:
    """Log-log regression of a measured decay against the abscissae."""

    abscissae: np.ndarray
    values: np.ndarray
    slope: float
    intercept: float
    residual: float

    def passes(self, n: int) -> bool:
        return bool(self.slope <= -n / 2.0 + DECAY_SLACK)


def fit_dispersive_decay(spec: PhaseIntegralSpec, t_range) -> DecayFit:
    """Fitted decay slope of the ridge maximum max_x |I(x, t)| over t.

    t_range must be log-spaced with at least 8 points spanning two decades.
    The pass criterion (slope <= -n/2 + 0.15) reflects the |t|^{-n/2}
    stationary-phase envelope, which the ridge maximum attains two-sidedly.
    """
    t = np.asarray(t_range, dtype=float)
    if t.size < 8:
        raise ValueError("need at least 8 abscissae")
    if t.max() / t.min() < 99.0:
        raise ValueError("t range must span at least two decades")
    vals = np.array([dispersive_peak(spec, float(ti)) for ti in t])
    if np.any(vals <= 0):
        raise QuadratureError("degenerate fit: vanishing measured amplitude")
    logt, logv = np.log(t), np.log(vals)
    slope, intercept = np.polyfit(logt, logv, 1)
    resid = float(np.sqrt(np.mean((logv - (slope * logt + intercept)) ** 2)))
    if resid > 1.0:
        warnings.warn(f"decay fit residual {resid:.2f} is large", stacklevel=2)
    return DecayFit(abscissae=t, values=vals, slope=float(slope),
                    intercept=float(intercept), residual=resid)


# --- L^1_{x_1} sup profile ---------------------------------------------------

def _sup_kernel_radial(spec: PhaseIntegralSpec, x1: float, t_max: float,
                       rng, budget: int):
    """Approximate sup over {R >= x1, t >= 0} of |I| (a lower bound for it)."""
    cutoff, rlo, rhi = spec.radial_cutoff()
    scale = abs(_radial_integral(spec.n, spec.s, cutoff, rlo, rhi, 0.0, 0.0))

    def value(R, t):
        return abs(_radial_integral(spec.n, spec.s, cutoff, rlo, rhi, R, t,
                                    scale=scale))

    R_span = max(4.0 / max(rhi, 1e-9), 0.5 * x1)
    best_v, best = value(x1, 0.0), (x1, 0.0)
    flag_boundary = False
    Rs = x1 + R_span * rng.random(budget)
    ts = t_max * rng.random(budget) ** 2
    for R, tt in zip(Rs, ts):
        v = value(R, tt)
        if v > best_v:
            best_v, best = v, (R, tt)
    # coordinate-descent refinement around the best start
    R, tt = best
    stepR, stept = 0.25 * R_span, 0.25 * t_max
    for _ in range(3):
        for cand in (R - stepR, R + stepR):
            if cand >= x1:
                v = value(cand, tt)
                if v > best_v:
                    best_v, R = v, cand
        for cand in (tt - stept, tt + stept):
            if cand >= 0:
                v = value(R, cand)
                if v > best_v:
                    best_v, tt = v, cand
        stepR *= 0.4
        stept *= 0.4
    if tt > 0.98 * t_max or R > x1 + 0.98 * R_span:
        flag_boundary = True
    return best_v, flag_boundary


def l1_sup_profile(k: int, ell: int, shift, s: float, n: int,
                   x1_grid=None, sample_budget: int = 256, seed: int = 0) -> dict:
    """Trapezoid estimate of int sup_{x', t} |I| dx_1 against 2^{l(n-1)} 2^{k-l}.

    The sup over (x', t) at fixed x_1 is approximated by seeded random
    starts plus coordinate descent (a lower bound for the true sup); for a
    radial (unshifted) cutoff it reduces to a 2-D search over (|x|, t)
    with |x| >= |x_1|.
    """
    shift = tuple(np.atleast_1d(np.asarray(shift, dtype=float))) if shift is not None else ()
    if len(shift) and np.any(np.asarray(shift) != 0.0):
        raise NotImplementedError("l1_sup_profile handles shift = 0; "
                                  "use dispersive_integral for shifted kernels")
    spec = PhaseIntegralSpec(n=n, s=s, cutoff="ball", ell=ell)
    scale = 2.0**ell
    if x1_grid is None:
        head = np.linspace(0.0, 2.0 / scale, 5, endpoint=False)
        tail = np.geomspace(2.0 / scale, 40.0 / scale, 14)
        x1_grid = np.concatenate([head, tail])
    x1_grid = np.asarray(x1_grid, dtype=float)

    rng = np.random.default_rng(seed)
    rhi = 0.95 * scale
    sup_vals = []
    flags = 0
    for x1 in x1_grid:
        t_ridge = (x1 + 1.0 / scale) / (2.0 * s) * (0.15 * rhi) ** (1.0 - 2.0 * s)
        t_max = max(2.0 * t_ridge, 4.0 / scale ** (2.0 * s))
        v, flagged = _sup_kernel_radial(spec, float(x1), t_max, rng, sample_budget)
        sup_vals.append(v)
        flags += int(flagged)
    sup_vals = np.asarray(sup_vals)
    integral = float(np.trapezoid(sup_vals, x1_grid))
    bound = 2.0 ** (ell * (n - 1)) * 2.0 ** max(k - ell, 0)
    return {
        "k": k, "ell": ell, "s": s, "n": n,
        "x1": x1_grid.tolist(),
        "sup_values": sup_vals.tolist(),
        "integral": integral,
        "bound": bound,
        "fitted_constant": integral / bound,
        "sup_is_lower_bound": True,
        "boundary_flags": flags,
        "sample_budget": sample_budget,
        "seed": seed,
    }


# --- level-set measure -------------------------------------------------------

def sigma_measure(k: int, j: float, zeta_normsq: float, tau: float, s: float) -> float:
    """1-D measure of {xi_1 in [2^k, 2^{k+1}]: | tau + |xi|^{2s} | <= 2^j, |xi| in [2^k, 2^{k+1}]}.

    Both dyadic constraints use the positive window [2^k, 2^{k+1}] (the
    symmetric two-sided set has exactly twice the measure).  |xi|^{2s} is
    increasing in xi_1 >= 0, so the set is one interval whose endpoints are
    the square roots of max(2^{2k}, (-tau - 2^j)^{1/s}) - |zeta|^2 and
    min(2^{2k+2}, (-tau + 2^j)^{1/s}) - |zeta|^2.
    """
    lo, hi = 2.0**k, 2.0 ** (k + 1)
    delta = 2.0**j
    if s == 1.0:
        # with exponent one, subtracting |zeta|^2 first keeps the s = 1
        # values of the original square-root form bit for bit
        t_lo, t_hi = -tau - zeta_normsq - delta, -tau - zeta_normsq + delta
    else:
        t_lo = max(-tau - delta, 0.0) ** (1.0 / s) - zeta_normsq
        t_hi = max(-tau + delta, 0.0) ** (1.0 / s) - zeta_normsq
    a = max(t_lo, lo**2 - zeta_normsq, 0.0)
    b = min(t_hi, hi**2 - zeta_normsq)
    if b <= a:
        return 0.0
    return max(0.0, min(np.sqrt(b), hi) - max(np.sqrt(a), lo))


def sigma_measure_sweep(s_values=(0.6, 0.75, 0.9), k_max: int = 8) -> dict:
    """Sweep measured/bound over k in [0, k_max], j in [0, 2sk+2].

    bound = min(2^k, 2^{-k(2s-1)} 2^j); the report carries the uniform C*
    and the per-(s,k,j) worst rows.
    """
    rows = []
    cstar = 0.0
    for s in s_values:
        for k in range(0, k_max + 1):
            j_top = int(np.floor(2.0 * s * k + 2.0))
            for j in range(0, j_top + 1):
                worst = 0.0
                for cz in (0.0, 0.4, 0.9):
                    zun = (cz * 2.0**k) ** 2
                    for ct in (1.05, 1.3, 1.7, 2.0):
                        tau = -((ct * 2.0**k) ** (2.0 * s))
                        m = sigma_measure(k, j, zun, tau, s)
                        bound = min(2.0**k, 2.0 ** (-k * (2.0 * s - 1.0)) * 2.0**j)
                        worst = max(worst, m / bound)
                rows.append((s, k, j, worst))
                cstar = max(cstar, worst)
    return {"cstar": cstar, "rows": rows,
            "columns": ["s", "k", "j", "measure_over_bound"]}
