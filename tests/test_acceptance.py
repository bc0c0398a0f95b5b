"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
and timings.  Tolerances are the stated ones; nothing is deferred to later
calibration.
"""

import dataclasses
import time

import numpy as np
import pytest

from fslab import bumps
from fslab.cone import (
    ConeParams,
    sample_admissible,
    s1_factorization_check,
    verify_factorization_envelope,
    verify_n_properties,
)
from fslab.lp import build_cone_atlas
from fslab.norms import InputFamily, verify_estimate
from fslab.oscillatory import (
    PhaseIntegralSpec,
    dispersive_peak,
    fit_dispersive_decay,
    sigma_measure,
    sigma_measure_sweep,
    sphere_phase_integral,
)
from fslab.solver import (
    SolveConfig,
    continuous_dependence_probe,
    default_nonlinearity,
    gaussian_spectrum_data,
    picard_solve,
)
from fslab.spectral import (
    Field,
    dft_forward,
    dft_inverse,
    linear_propagate,
    make_grid,
)


def _verdict(number: int, label: str, ok: bool, started: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    elapsed = time.time() - started
    print(f"[{status}] criterion {number:02d} ({label}): {detail} [{elapsed:.1f}s]")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_spectral_identities():
    started = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n, m in ((1, 32), (2, 32), (3, 16)):
        g = make_grid(n, m, 2 * np.pi)
        f = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        scale = np.abs(f.values).max()
        # roundtrip
        rt = dft_inverse(dft_forward(f))
        worst = max(worst, np.abs(rt.values - f.values).max() / scale)
        # Parseval with the fixed constant 1/L^n
        spec = dft_forward(f)
        pars = abs(f.l2_norm() ** 2
                   - np.sum(np.abs(spec.values) ** 2) / g.box_length**n)
        worst = max(worst, pars / f.l2_norm() ** 2)
        # propagator group law and exact conservation
        s = 0.75
        ab = linear_propagate(linear_propagate(f, 0.3, s), 0.45, s)
        onestep = linear_propagate(f, 0.75, s)
        worst = max(worst, np.abs(ab.values - onestep.values).max() / scale)
        worst = max(worst, abs(onestep.l2_norm() - f.l2_norm()) / f.l2_norm())
    _verdict(1, "spectral identities", worst < 1e-10, started,
             f"worst relative error {worst:.2e} (tol 1e-10)")


def test_criterion_02_partition_identities():
    started = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    # dyadic telescoping on 1000 sampled radii
    r = rng.uniform(0.0, 300.0, 1000)
    tele = bumps.eta_bump(r) + sum(bumps.phi_shell(r / 2.0**k) for k in range(1, 32))
    worst = max(worst, np.abs(tele - 1.0).max())
    # box partition on 1000 sampled points of R^2, two dyadic scales
    for k in (0, 1):
        scale = 2.0**k
        xi = rng.uniform(-20, 20, size=(1000, 2))
        lrange = scale * np.arange(-32, 33)
        chi0 = bumps.chi_box((xi[:, 0][:, None] - lrange[None, :]) / scale)
        chi1 = bumps.chi_box((xi[:, 1][:, None] - lrange[None, :]) / scale)
        total = np.einsum("il,im->i", chi0, chi1)
        worst = max(worst, np.abs(total - 1.0).max())
    # cone partition for n = 2 and 3
    for n in (2, 3):
        atlas = build_cone_atlas(n, 0.5)
        om = rng.standard_normal((1000, n))
        om /= np.linalg.norm(om, axis=1, keepdims=True)
        sums = atlas.partition_values(om).sum(axis=0)
        worst = max(worst, np.abs(sums - 1.0).max())
        dots = atlas.directions @ om.T
        vals = atlas.partition_values(om)
        worst = max(worst, float(np.abs(vals[dots < atlas.margin]).max(initial=0.0)))
    _verdict(2, "partition identities", worst < 1e-10, started,
             f"worst pointwise error {worst:.2e} (tol 1e-10)")


def test_criterion_03_s1_factorization():
    started = time.time()
    params = ConeParams(k=4, s=1.0)
    xi1, zsq, tau = sample_admissible(params, 1000, seed=7)
    worst = 0.0
    for i in range(xi1.size):
        xi = np.array([xi1[i], np.sqrt(zsq[i])])
        resid = s1_factorization_check(xi, tau[i], [1.0, 0.0])
        worst = max(worst, resid / (1.0 + abs(tau[i]) + float(xi @ xi)))
    _verdict(3, "s=1 factorization", worst < 1e-10, started,
             f"worst scaled residual {worst:.2e} over 1000 admissible points")


def test_criterion_04_n_properties_sweep():
    started = time.time()
    ok = True
    details = []
    for s in (0.6, 0.75, 0.9):
        for k in (4, 8):
            rep = verify_n_properties(ConeParams(k=k, s=s), 10000, seed=11)
            rep2 = verify_n_properties(ConeParams(k=k + 1, s=s), 10000, seed=11)
            bracketed = all(np.isfinite(it["cstar"]) and it["cstar"] < 100.0
                            for it in rep.items.values())
            stable = abs(rep2.cstar - rep.cstar) <= 1e-3 * rep.cstar
            ok = ok and bracketed and stable
            details.append(f"s={s},k={k}: C*={rep.cstar:.4g} rescaled={rep2.cstar:.4g}")
    _verdict(4, "N-multiplier ratio sweep", ok, started, "; ".join(details[:3]) + " ...")


def test_criterion_05_factorization_envelope():
    started = time.time()
    s = 0.75
    cstars = []
    for k in (4, 6, 8):
        rep = verify_factorization_envelope(ConeParams(k=k, s=s), 10000, seed=5)
        cstars.append(rep.cstar)
    finite = all(np.isfinite(c) for c in cstars)
    stable = max(cstars) <= 1.25 * min(cstars)
    _verdict(5, "factorization error envelope", finite and stable, started,
             f"fitted C* across k=4,6,8: {[f'{c:.4f}' for c in cstars]} (within 25%)")


def test_criterion_06_dispersive_decay():
    started = time.time()
    ok = True
    details = []
    for n, s in ((2, 0.75), (3, 0.75), (2, 0.9)):
        spec = PhaseIntegralSpec(n=n, s=s, cutoff="annulus_dyadic", k=0)
        fit = fit_dispersive_decay(spec, np.geomspace(10.0, 1000.0, 9))
        good = abs(fit.slope + n / 2.0) <= 0.15
        ok = ok and good
        details.append(f"(n={n},s={s}): slope={fit.slope:.3f}")
    # k-prefactor 2^{k n (1-s)} within a factor 2, k in {1, 2}
    n, s, t = 2, 0.75, 50.0
    base = dispersive_peak(PhaseIntegralSpec(n=n, s=s, cutoff="annulus_dyadic", k=0), t)
    for k in (1, 2):
        peak = dispersive_peak(PhaseIntegralSpec(n=n, s=s, cutoff="annulus_dyadic", k=k), t)
        expected = 2.0 ** (k * n * (1 - s))
        factor = (peak / base) / expected
        good = 0.5 <= factor <= 2.0
        ok = ok and good
        details.append(f"k={k}: prefactor x{factor:.2f}")
    _verdict(6, "dispersive decay", ok, started, "; ".join(details))


def test_criterion_07_bessel_reduction():
    started = time.time()
    ok = True
    try:
        for n in (2, 3, 4):
            for rho in np.linspace(0.0, 50.0, 26):
                sphere_phase_integral(float(rho), n, cross_check=True)
    except Exception as exc:  # QuadratureError carries the mismatch
        ok = False
        detail = str(exc)
    else:
        detail = "quadrature vs Bessel within 1e-8 for rho in [0,50], n in {2,3,4}"
    _verdict(7, "Bessel reduction", ok, started, detail)


def test_criterion_08_measure_estimate():
    started = time.time()
    sweep = sigma_measure_sweep(s_values=(0.6, 0.75, 0.9), k_max=8,
                                num_points=100001)
    cstar = sweep["cstar"]
    closed = sigma_measure(1, np.log2(0.4), 0.0, -4.0, 1.0)
    grid = sigma_measure(1, np.log2(0.4), 0.0, -4.0, 1.0 - 1e-13, num_points=400001)
    match = abs(grid - closed) <= 1e-3 * closed
    ok = bool(np.isfinite(cstar) and cstar < 8.0 and match)
    _verdict(8, "level-set measure", ok, started,
             f"uniform C*={cstar:.3f}; closed-form vs grid rel err "
             f"{abs(grid - closed) / closed:.1e}")


ACCEPTANCE_KINDS = ("embedding", "linfty_l2", "smoothing", "maximal",
                    "homogeneous", "inhomogeneous", "trilinear")


def _family_for(kind: str, n: int) -> InputFamily:
    t_half = 2.0 if kind == "inhomogeneous" else 1.0
    if n == 2:
        return InputFamily(n=2, m=16, num_frames=32, t_half=t_half, shells=(1, 2, 3))
    return InputFamily(n=3, m=8, num_frames=32, t_half=t_half, shells=(1, 2))


def test_criterion_09_estimate_ratio_suites():
    started = time.time()
    ok = True
    details = []
    smoothing_pairs = []
    for kind in ACCEPTANCE_KINDS:
        for n in (2, 3):
            rep = verify_estimate(kind, _family_for(kind, n), s=0.75,
                                  draws=32, seed=0)
            good = bool(rep.passed)
            ok = ok and good
            details.append(f"{kind}/n={n}: C*={rep.cstar:.3g}"
                           f"{'' if good else ' UNSTABLE'}")
            if kind == "smoothing":
                smoothing_pairs.append((rep.items["smoothing_f"]["cstar"],
                                        rep.items["smoothing_conj"]["cstar"]))
    for cf, cc in smoothing_pairs:
        ok = ok and abs(cf - cc) <= 1e-6 * max(cf, cc)
    _verdict(9, "estimate ratio suites", ok, started, "; ".join(details))


def test_criterion_10_solver():
    started = time.time()
    cfg = SolveConfig(n=2, m=32, s=0.75, t_half=2.0, num_frames=64,
                      epsilon=1e-2, tolerance=1e-10, quadrature="simpson")
    g = cfg.grid
    spec = default_nonlinearity(cfg.s)
    u0 = gaussian_spectrum_data(g, cfg.sigma, cfg.epsilon, seed=1)

    res = picard_solve(u0, spec, cfg)
    ok = res.converged
    tail = res.contraction_ratios[1:] if len(res.contraction_ratios) > 1 else res.contraction_ratios
    ok = ok and all(r < 0.5 for r in tail)
    ok = ok and res.duhamel_residual < 10 * cfg.tolerance

    # a-priori ratio stable within 10% under epsilon halving
    cfg_half = dataclasses.replace(cfg, epsilon=cfg.epsilon / 2)
    u0_half = gaussian_spectrum_data(g, cfg.sigma, cfg_half.epsilon, seed=1)
    res_half = picard_solve(u0_half, spec, cfg_half)
    apriori_stable = abs(res.apriori_ratio - res_half.apriori_ratio) \
        <= 0.10 * res.apriori_ratio
    ok = ok and apriori_stable

    # phase covariance and zero data
    theta = 0.9
    res_rot = picard_solve(Field(g, np.exp(1j * theta) * u0.values), spec, cfg,
                           fsigma_diffs=False)
    cov_err = np.abs(res_rot.trajectory.values
                     - np.exp(1j * theta) * res.trajectory.values).max()
    ok = ok and cov_err < 1e-8 * np.abs(res.trajectory.values).max()
    res_zero = picard_solve(Field(g, np.zeros(g.shape)), spec, cfg,
                            fsigma_diffs=False)
    ok = ok and np.abs(res_zero.trajectory.values).max() == 0.0

    # continuous dependence: two-delta ratios agree within 20%
    pert = gaussian_spectrum_data(g, cfg.sigma, 1.0, seed=77)
    ratios = []
    for delta in (1e-4, 1e-5):
        v0 = Field(g, u0.values + delta * pert.values)
        probe = continuous_dependence_probe(u0, v0, spec, cfg)
        ratios.append(probe.ratio_l2)
    dep_ok = abs(ratios[0] - ratios[1]) <= 0.2 * ratios[1]
    ok = ok and dep_ok

    _verdict(10, "Picard solver", bool(ok), started,
             f"iters={res.iterations} residual={res.duhamel_residual:.1e} "
             f"apriori={res.apriori_ratio:.3f}/{res_half.apriori_ratio:.3f} "
             f"two-delta={ratios[0]:.4f}/{ratios[1]:.4f}")
