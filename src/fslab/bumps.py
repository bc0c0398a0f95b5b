"""Smooth cutoff functions shared by the frequency projections and the solver.

Everything here is built from one C-infinity transition step S with
S(x) = 0 for x <= 0, S(x) = 1 for x >= 1 and the exact reflection identity
S(x) + S(1 - x) = 1.  That identity is what makes the translated box
cutoffs an exact partition of unity.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "smooth_step",
    "PlateauBump",
    "eta_bump",
    "phi_shell",
    "chi_box",
    "eta_leq",
    "eta_band_plus",
    "ball_bump",
    "annular_bump",
    "time_cutoff",
    "window_weights",
]


def smooth_step(x):
    """C-infinity step based on exp(-1/x); 0 for x<=0, 1 for x>=1.

    Satisfies smooth_step(x) + smooth_step(1-x) = 1 exactly in exact
    arithmetic, and to one rounding (2^-52) in floating point.
    """
    x = np.asarray(x, dtype=float)
    hi = x >= 1.0
    # NaN is neither <= 0 nor >= 1, so it lands in the band and stays NaN
    mid = ~((x <= 0.0) | hi)
    out = np.asarray(hi, dtype=float)
    xm = x[mid]  # a copy, which the band arithmetic below overwrites
    b = np.subtract(1.0, xm)
    a = np.divide(-1.0, xm, out=xm)
    np.exp(a, out=a)
    np.divide(-1.0, b, out=b)
    np.exp(b, out=b)
    b += a
    out[mid] = np.divide(a, b, out=a)
    if out.ndim == 0:
        return float(out)
    return out


class PlateauBump:
    """Even cutoff: 1 on [-plateau, plateau], 0 outside (-support, support).

    The transition on (plateau, support) is the smooth_step above, so the
    bump is C-infinity and monotone on each side.
    """

    def __init__(self, plateau: float, support: float):
        if not 0.0 <= plateau < support:
            raise ValueError("need 0 <= plateau < support")
        self.plateau = float(plateau)
        self.support = float(support)

    def __call__(self, r):
        r = np.abs(np.asarray(r, dtype=float))
        w = self.support - self.plateau
        return smooth_step((self.support - r) / w)


# Littlewood-Paley bump: 1 on [-1.5, 1.5] (hence on [-1, 1]), supported
# strictly inside (-2, 2).  The wide plateau makes phi == 1 at r = 1.5.
_ETA = PlateauBump(1.5, 1.9)


def eta_bump(r):
    """The Littlewood-Paley cutoff eta: even, 1 on [-1.5,1.5], supp in (-2,2)."""
    return _ETA(r)


def phi_shell(r):
    """Dyadic shell bump phi(r) = eta(r) - eta(2r).

    Supported in 1/2 < |r| < 2, equals 1 on [0.95, 1.5], and telescopes:
    1 = eta(r) + sum_{k>=1} phi(r / 2^k) for every r >= 0.
    """
    return eta_bump(r) - eta_bump(2.0 * np.asarray(r, dtype=float))


def eta_leq(r, a: float):
    """Rescaled cutoff eta(r / 2^a); the dyadic exponent a may be fractional."""
    return eta_bump(np.asarray(r, dtype=float) / (2.0**a))


def eta_band_plus(r, k1: float, k2: float):
    """One-sided band cutoff: indicator(r>0) * sum_{m=k1..k2} phi(r/2^m).

    By telescoping this equals indicator(r>0) * (eta(r/2^k2) - eta(r/2^(k1-1))).
    """
    r = np.asarray(r, dtype=float)
    val = (eta_leq(r, k2) - eta_leq(r, k1 - 1.0)) * (r > 0.0)
    if val.ndim == 0:
        return float(val)
    return val


# Box cutoff chi for the tiling projections: 1 on [-1/3, 1/3], supported in
# (-2/3, 2/3); integer translates sum to 1 exactly thanks to the step's
# reflection identity.  (A plateau wider than 1/2 cannot tile with unit
# translates, so the plateau sits at 1/3 with the 2/3 as the support radius.)
_CHI = PlateauBump(1.0 / 3.0, 2.0 / 3.0)


def chi_box(x):
    """Translation partition cutoff: chi(x-l), l in Z, sums to 1 for all x."""
    return _CHI(x)


# Radial cutoffs for the stationary-phase integrals: ball bump that is 1 on
# [0, 1/2] and vanishes for r >= 0.95, plus the induced annular bump.
_BALL = PlateauBump(0.5, 0.95)


def ball_bump(r):
    """Radial ball cutoff: 1 for |r| <= 1/2, 0 for |r| >= 0.95."""
    return _BALL(r)


def annular_bump(r):
    """Annular bump psi(r) = ball(r/2) - ball(r).

    Supported in 1/2 < |r| < 1.9 with psi == 1 on [0.95, 1]; dyadic rescalings
    psi(r/2^l) telescope back to the ball cutoff.
    """
    r = np.asarray(r, dtype=float)
    return _BALL(r / 2.0) - _BALL(r)


# Time cutoff for the Duhamel truncation: 1 on (-1,1), supported in (-2,2).
_PSI_TIME = PlateauBump(1.0, 1.9)


def time_cutoff(t):
    """Duhamel time cutoff psi: 1 on [-1,1], 0 outside (-1.9, 1.9)."""
    return _PSI_TIME(t)


TAPER_FRACTION = 0.1


def window_weights(times):
    """Smooth taper over the outer TAPER_FRACTION of a sampled time window.

    Returns weights w(t_i) that are 1 on the central part and fall smoothly
    to 0 at both ends, so the windowed trajectory extends periodically
    without a jump.
    """
    t = np.asarray(times, dtype=float)
    if t.size < 2:
        return np.ones_like(t)
    span = t[-1] - t[0] + (t[1] - t[0])
    width = TAPER_FRACTION * span
    left = smooth_step((t - t[0]) / width)
    right = smooth_step((t[-1] - t) / width)
    return left * right
