"""The characteristic-crossing multiplier N_e, the weight K, and their checks.

On a frequency cone in direction e the Schroedinger symbol tau + |xi|^{2s}
vanishes where the e-component of xi equals

    N_e(xi', tau) = ((-tau)^{1/s} - |xi'|^2)^{1/2},

and near that crossing it factorizes through the weight
K = 2s (N^2 + |xi'|^2)^{s-1} N.  The sweep routines sample admissible
phase-space boxes and report measured two-sided ratio brackets in place of
the unspecified constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bumps import eta_band_plus, eta_leq
from .reports import RatioReport

__all__ = [
    "OutsideDomainError",
    "EmptyAdmissibleSetError",
    "ConeParams",
    "AdmissiblePoint",
    "n_multiplier",
    "k_weight",
    "s1_factorization_check",
    "sample_admissible",
    "verify_n_properties",
    "factorization_decomposition",
    "verify_factorization_envelope",
]


class OutsideDomainError(ValueError):
    """(zeta', tau) outside the domain where N is defined."""


class EmptyAdmissibleSetError(ValueError):
    """The requested admissible box contains no usable points."""


def n_multiplier(zeta_normsq, tau, s: float):
    """N(zeta', tau) = ((-tau)^{1/s} - |zeta'|^2)^{1/2}; needs tau < 0."""
    zeta_normsq = np.asarray(zeta_normsq, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if np.any(tau >= 0):
        raise OutsideDomainError("n_multiplier needs tau < 0")
    inner = (-tau) ** (1.0 / s) - zeta_normsq
    if np.any(inner <= 0):
        raise OutsideDomainError("n_multiplier needs (-tau)^{1/s} > |zeta'|^2")
    out = np.sqrt(inner)
    return float(out) if out.ndim == 0 else out


def k_weight(zeta_normsq, tau, s: float):
    """K = 2s (N^2 + |zeta'|^2)^{s-1} N; positive on the N-domain."""
    N = n_multiplier(zeta_normsq, tau, s)
    out = 2.0 * s * (np.asarray(N) ** 2 + np.asarray(zeta_normsq, dtype=float)) ** (s - 1.0) * N
    return float(out) if np.ndim(out) == 0 else out


def s1_factorization_check(xi, tau: float, e) -> float:
    """Residual of -(|xi|^2 + tau) = (N + xi_e1)(N - xi_e1) at s = 1."""
    xi = np.asarray(xi, dtype=float)
    e = np.asarray(e, dtype=float)
    e = e / np.linalg.norm(e)
    xi_e1 = float(np.dot(xi, e))
    perp = xi - xi_e1 * e
    N = n_multiplier(float(np.dot(perp, perp)), tau, 1.0)
    lhs = -(float(np.dot(xi, xi)) + tau)
    rhs = (N + xi_e1) * (N - xi_e1)
    return abs(lhs - rhs)


@dataclass(frozen=True)
class ConeParams:
    """Admissible-box parameters: dyadic level k, C1 >= 1, margins c_tilde, c_prime."""

    k: int
    C1: float = 2.0
    c_tilde: float = 2.0
    c_prime: float | None = None
    s: float = 0.75
    e: tuple = (1.0, 0.0)

    def __post_init__(self):
        if self.C1 < 1.0:
            raise ValueError("C1 must be >= 1")
        if self.c_tilde <= 0:
            raise ValueError("c_tilde must be positive")
        if not (0.5 < self.s <= 1.0):
            raise ValueError("s must lie in (1/2, 1]")
        if self.c_prime is None:
            object.__setattr__(self, "c_prime", self.c_tilde + np.log2(self.C1) + 4.0)
        if self.c_prime < self.c_tilde + np.log2(self.C1) + 4.0:
            raise ValueError("need c_prime >= c_tilde + log2(C1) + 4")
        e = np.asarray(self.e, dtype=float)
        object.__setattr__(self, "e", tuple(e / np.linalg.norm(e)))


@dataclass
class AdmissiblePoint:
    """One sampled phase-space point with its admissibility predicates."""

    xi_e1: float
    zeta_normsq: float
    tau: float
    params: ConeParams

    @property
    def xi_norm(self) -> float:
        return float(np.sqrt(self.xi_e1**2 + self.zeta_normsq))

    def in_shell(self) -> bool:
        scale = 2.0**self.params.k
        return scale / self.params.C1 <= self.xi_norm <= self.params.C1 * scale

    def in_cone(self) -> bool:
        return self.xi_e1 >= 2.0 ** (self.params.k - self.params.c_tilde)

    def near_characteristic(self) -> bool:
        bound = 2.0 ** (2.0 * self.params.s * self.params.k - self.params.c_prime)
        return abs(self.tau + self.xi_norm ** (2.0 * self.params.s)) <= bound

    def is_admissible(self) -> bool:
        return self.in_shell() and self.in_cone() and self.near_characteristic()


MIN_OFFSET_REL = 1e-6


def sample_admissible(params: ConeParams, num_samples: int, seed: int = 0):
    """Uniform draws from the admissible box in scale-free coordinates.

    Draws (xi_e1 / 2^k, |xi'| / 2^k, modulation offset / 2^{2sk-c'}) uniformly
    and rejects points leaving the shell, so reruns at k and k+1 with one seed
    visit exactly rescaled point sets.  Points with relative modulation offset
    below MIN_OFFSET_REL are rejected too (they make ratio (3) a 0/0).
    Returns arrays (xi_e1, zeta_normsq, tau).
    """
    k, C1, ct, cp, s = params.k, params.C1, params.c_tilde, params.c_prime, params.s
    scale = 2.0**k
    lo1 = 2.0**(-ct)
    rng = np.random.default_rng(seed)
    xi1_list, zsq_list, tau_list = [], [], []
    got = 0
    for _ in range(200):
        batch = max(4 * num_samples, 256)
        u = rng.random((batch, 3))
        x1n = lo1 + u[:, 0] * (C1 - lo1)           # xi_e1 / 2^k
        rpn = u[:, 1] * C1                          # |xi'| / 2^k
        xin = np.hypot(x1n, rpn)                    # |xi| / 2^k
        offs = (2.0 * u[:, 2] - 1.0)                # offset in units of 2^{2sk-c'}
        keep = (xin >= 1.0 / C1) & (xin <= C1) & (np.abs(offs) >= MIN_OFFSET_REL)
        if np.any(keep):
            xi1 = x1n[keep] * scale
            zsq = (rpn[keep] * scale) ** 2
            tau = -(xin[keep] * scale) ** (2.0 * s) + offs[keep] * 2.0 ** (2.0 * s * k - cp)
            room = num_samples - got
            xi1_list.append(xi1[:room])
            zsq_list.append(zsq[:room])
            tau_list.append(tau[:room])
            got += min(room, xi1.size)
        if got >= num_samples:
            break
    if got == 0:
        raise EmptyAdmissibleSetError("no admissible points found; parameters are inconsistent")
    return (np.concatenate(xi1_list), np.concatenate(zsq_list), np.concatenate(tau_list))


def verify_n_properties(params: ConeParams, num_samples: int = 10000,
                        seed: int = 0) -> RatioReport:
    """Measured ratio brackets for the three N-multiplier properties.

    item 1: -(tau + |xi'|^{2s}) / 2^{2sk}            [stays in a bracket]
    item 2: N(xi', tau) / 2^k                         [stays in a bracket]
    item 3: |xi_e1 - N| / (2^{-k(2s-1)} |tau + |xi|^{2s}|)
    """
    k, s = params.k, params.s
    xi1, zsq, tau = sample_admissible(params, num_samples, seed=seed)
    xin = np.sqrt(xi1**2 + zsq)

    report = RatioReport(
        check_id="n_properties",
        params={"k": k, "C1": params.C1, "c_tilde": params.c_tilde,
                "c_prime": params.c_prime, "s": s},
        seed=seed,
        draws=int(xi1.size),
    )

    item1 = -(tau + zsq**s) / 2.0 ** (2.0 * s * k)
    if np.any(item1 <= 0):
        report.notes.append("item 1 sign violation: tau + |xi'|^{2s} >= 0 at a sample")
        report.record_item("item1_tau_xi_perp", item1[item1 > 0])
    else:
        report.record_item("item1_tau_xi_perp", item1)

    N = n_multiplier(zsq, tau, s)
    report.record_item("item2_N_scale", N / 2.0**k)

    offset = np.abs(tau + xin ** (2.0 * s))
    item3 = np.abs(xi1 - N) / (2.0 ** (-k * (2.0 * s - 1.0)) * offset)
    report.record_item("item3_crossing_distance", item3)

    report.finalize_cstar()
    report.passed = np.isfinite(report.cstar)
    return report


def _band_cutoffs(params: ConeParams, xi_e1, xi_norm, zeta_normsq, tau):
    """Shared cutoff factors of the factorization identity."""
    k, C1, ct, cp, s = params.k, params.C1, params.c_tilde, params.c_prime, params.s
    box = (np.sqrt(zeta_normsq) <= C1 * 2.0**k).astype(float)
    band = eta_band_plus(xi_e1, k - ct, k + ct)
    mod = eta_leq(tau + xi_norm ** (2.0 * s), 2.0 * s * k - cp)
    return box, band, mod


def factorization_decomposition(xi, tau, params: ConeParams):
    """Main term and error of the cone factorization of 1/(tau + |xi|^{2s} + i).

    Returns (main_term, error_term) with main + error equal to the cutoff
    multiplier box * band(xi_e1) * mod(tau + |xi|^{2s}) / (tau + |xi|^{2s} + i)
    pointwise; the error term is that difference by definition.  Vectorized
    over leading axes of xi (last axis is the coordinate axis) and tau.
    """
    k, cp, s = params.k, params.c_prime, params.s
    e = np.asarray(params.e, dtype=float)
    xi = np.asarray(xi, dtype=float)
    tau = np.asarray(tau, dtype=float)
    xi_e1 = xi @ e
    perp = xi - xi_e1[..., None] * e
    zsq = np.sum(perp**2, axis=-1)
    xin = np.sqrt(xi_e1**2 + zsq)

    box, band, mod = _band_cutoffs(params, xi_e1, xin, zsq, tau)
    lhs = box * band * mod / (tau + xin ** (2.0 * s) + 1j)

    # main term lives where tau + |xi'|^{2s} <= -2^{2s(k-c')} (N is then defined)
    gate = tau + zsq**s <= -(2.0 ** (2.0 * s * (k - cp)))
    main = np.zeros_like(lhs)
    if np.any(gate):
        zg, tg = zsq[gate], tau[gate]
        N = np.sqrt((-tg) ** (1.0 / s) - zg)
        K = 2.0 * s * (N**2 + zg) ** (s - 1.0) * N
        reg = 2.0 ** (-k * (2.0 * s - 1.0))
        numer = (box[gate]
                 * eta_band_plus(N, k - params.c_tilde, k + params.c_tilde)
                 * eta_leq(xi_e1[gate] - N, k - cp))
        main[gate] = numer / (K * (xi_e1[gate] - N + 1j * reg))
    error = lhs - main
    return main, error


def verify_factorization_envelope(params: ConeParams, num_samples: int = 10000,
                                  seed: int = 0) -> RatioReport:
    """Sweep |E| against the envelope 2^{-2sk} + (1 + |tau + |xi|^{2s}|)^{-2}.

    Samples cover the support region xi_e1 ~ 2^k, |tau + |xi|^{2s}| <~ 2^{2sk}
    with the modulation offset drawn log-uniformly, so every dyadic offset
    band carries comparable sample mass at every k.  The reported C* is the
    least-squares fitted constant of |E| against the envelope (the
    max ratio is recorded alongside; it is dominated by the cutoff
    shoulders and saturates only at large k).
    """
    k, s = params.k, params.s
    scale = 2.0**k
    rng = np.random.default_rng(seed)
    u = rng.random((num_samples, 4))
    xi_e1 = (0.05 + 2.95 * u[:, 0]) * scale
    rp = (1.5 * u[:, 1]) * scale
    xin = np.hypot(xi_e1, rp)
    r_lo, r_hi = 1e-3, 1.2 * 2.0 ** (2.0 * s * k)
    offs = np.where(u[:, 3] < 0.5, -1.0, 1.0) * r_lo * (r_hi / r_lo) ** u[:, 2]
    tau = -xin ** (2.0 * s) + offs

    n_dim = len(params.e)
    e = np.asarray(params.e)
    perp_dir = np.zeros(n_dim)
    perp_dir[-1] = 1.0
    if abs(float(e @ perp_dir)) > 0.9:
        perp_dir = np.zeros(n_dim)
        perp_dir[0] = 1.0
    perp_dir = perp_dir - (perp_dir @ e) * e
    perp_dir /= np.linalg.norm(perp_dir)
    xi = xi_e1[:, None] * e[None, :] + rp[:, None] * perp_dir[None, :]

    _, err = factorization_decomposition(xi, tau, params)
    envelope = 2.0 ** (-2.0 * s * k) + (1.0 + np.abs(tau + xin ** (2.0 * s))) ** (-2.0)
    abserr = np.abs(err)
    ratios = abserr / envelope
    cfit = float(np.sum(abserr * envelope) / np.sum(envelope**2))

    report = RatioReport(
        check_id="factorization_envelope",
        params={"k": k, "C1": params.C1, "c_tilde": params.c_tilde,
                "c_prime": params.c_prime, "s": s},
        seed=seed,
        draws=num_samples,
    )
    report.items["envelope_fit"] = {"min": float(ratios.min()),
                                    "max": float(ratios.max()), "cstar": cfit}
    report.cstar = cfit
    report.passed = bool(np.isfinite(cfit) and np.isfinite(ratios.max()))
    report.notes.append("C* is the least-squares fitted envelope constant; "
                        "the max pointwise ratio sits at cutoff shoulders and is "
                        "reported as items.envelope_fit.max")
    return report
