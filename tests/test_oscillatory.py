import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import special

from fslab import oscillatory
from fslab.oscillatory import (
    DecayFit,
    PhaseIntegralSpec,
    angular_factor,
    bessel_j,
    dispersive_integral,
    dispersive_peak,
    fit_dispersive_decay,
    l1_sup_profile,
    sigma_measure,
    sigma_measure_sweep,
    sphere_phase_integral,
    sphere_surface_area,
)


def brute_force_integral(n, s, cutoff_fn, rmax, x, t, pts=220):
    """Independent oracle: tensor-grid quadrature of the full n-dim integral."""
    axes = [np.linspace(-rmax, rmax, pts)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    normsq = sum(m**2 for m in mesh)
    r = np.sqrt(normsq)
    phase = t * r ** (2 * s) - sum(mi * xi for mi, xi in zip(mesh, x))
    vals = np.exp(1j * phase) * cutoff_fn(r)
    dv = (axes[0][1] - axes[0][0]) ** n
    return complex(vals.sum() * dv)


# --- oracle: the Bessel path and radial integrand before the Horner tables ---

def _oracle_bessel_series(nu, x, terms=42):
    y = (x / 2.0) ** 2
    acc = np.zeros_like(x)
    c = 1.0 / math.gamma(nu + 1.0)
    acc += c
    for m in range(1, terms):
        c = -c / (m * (m + nu))
        acc = acc + c * y**m
    with np.errstate(invalid="ignore"):
        lead = np.where(x > 0, (x / 2.0) ** nu, 1.0 if nu == 0 else 0.0)
    return lead * acc


def _oracle_bessel_asymptotic(nu, x, terms=12):
    mu = 4.0 * nu * nu
    a = [1.0]
    for m in range(1, terms):
        a.append(a[-1] * (mu - (2 * m - 1) ** 2) / (8.0 * m))
    P = np.zeros_like(x)
    Q = np.zeros_like(x)
    for m, am in enumerate(a):
        if m % 2 == 0:
            P = P + ((-1.0) ** (m // 2)) * am * x ** (-m)
        else:
            Q = Q + ((-1.0) ** (m // 2)) * am * x ** (-m)
    omega = x - nu * np.pi / 2.0 - np.pi / 4.0
    return np.sqrt(2.0 / (np.pi * x)) * (np.cos(omega) * P - np.sin(omega) * Q)


def oracle_bessel_j(nu, x):
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    small = x <= 15.0
    if np.any(small):
        out[small] = _oracle_bessel_series(nu, x[small])
    if np.any(~small):
        out[~small] = _oracle_bessel_asymptotic(nu, x[~small])
    return float(out[0]) if scalar else out


def oracle_angular_factor(n, rho):
    rho = np.abs(np.asarray(rho, dtype=float))
    if n == 1:
        return 2.0 * np.cos(rho)
    scalar = rho.ndim == 0
    rho = np.atleast_1d(rho)
    nu = (n - 2) / 2.0
    out = np.empty_like(rho)
    tiny = rho < 1e-6
    out[tiny] = sphere_surface_area(n) * (1.0 - rho[tiny] ** 2 / (2.0 * n))
    big = ~tiny
    if np.any(big):
        out[big] = (2.0 * np.pi) ** (n / 2.0) * rho[big] ** (-nu) * oracle_bessel_j(nu, rho[big])
    return float(out[0]) if scalar else out


def _oracle_gk_panels(f, a, b, panels):
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * oscillatory._K15_X[None, :]
    vals = f(nodes.ravel()).reshape(panels, 15)
    k15 = (vals * oscillatory._K15_W[None, :]).sum(axis=1) * half
    g7 = (vals[:, oscillatory._G7_IDX] * oscillatory._G7_W[None, :]).sum(axis=1) * half
    return complex(k15.sum()), float(np.abs(k15 - g7).sum())


def oracle_radial_integral(n, s, cutoff, rlo, rhi, xnorm, t, tol=1e-8, scale=None):
    if rhi <= rlo:
        return 0.0 + 0.0j

    def integrand(r):
        return (np.exp(1j * t * r ** (2.0 * s)) * oracle_angular_factor(n, r * xnorm)
                * cutoff(r) * r ** (n - 1))

    dphase = 2.0 * s * abs(t) * max(rhi, 1e-300) ** (2.0 * s - 1.0) + abs(xnorm)
    panels = max(64, int(np.ceil((rhi - rlo) * dphase / (np.pi / 4.0))))
    panels = min(panels, 60000)
    value, err = _oracle_gk_panels(integrand, rlo, rhi, panels)
    if scale is None:
        scale = abs(_oracle_gk_panels(lambda r: oracle_angular_factor(n, r * 0.0)
                                           * cutoff(r) * r ** (n - 1), rlo, rhi, 64)[0])
    if err > tol * max(scale, 1e-300):
        value2, err2 = _oracle_gk_panels(integrand, rlo, rhi, 2 * panels)
        if err2 > tol * max(scale, 1e-300):
            warnings.warn(f"dispersive quadrature not converged (err {err2:.2e}); "
                          "returning partial result", stacklevel=2)
        value = value2
    return value


# arguments on both sides of the series cut at 15, out to the ridge's range
_RIDGE_X = np.concatenate([np.linspace(0.0, 30.0, 3001), [15.0, np.nextafter(15.0, 16.0)],
                           np.geomspace(30.0, 5000.0, 4000)])


class TestKernelMatchesOracle:
    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5])
    def test_bessel_j(self, nu):
        assert np.abs(bessel_j(nu, _RIDGE_X) - oracle_bessel_j(nu, _RIDGE_X)).max() <= 1e-14
        for x in (0.0, 14.9, 15.0, 15.1, 4000.0):
            assert abs(bessel_j(nu, x) - oracle_bessel_j(nu, x)) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_angular_factor(self, n):
        rho = np.concatenate([[0.0, 1e-7, 5e-7], _RIDGE_X])
        assert np.abs(angular_factor(n, rho) - oracle_angular_factor(n, rho)).max() <= 1e-14
        # the mask-free path: no argument near zero
        far = _RIDGE_X[_RIDGE_X > 1.0]
        assert np.abs(angular_factor(n, far) - oracle_angular_factor(n, far)).max() <= 1e-14

    def test_gk_panels_bit_identical(self):
        def wave(r):
            return np.exp(1j * 40.0 * r ** 1.5) * np.cos(r)

        for panels in (1, 64, 1000):
            assert oscillatory._gk_panels(wave, 0.5, 1.9, panels) == \
                _oracle_gk_panels(wave, 0.5, 1.9, panels)
            assert oscillatory._gk_panels(np.cos, 0.0, 3.0, panels) == \
                _oracle_gk_panels(np.cos, 0.0, 3.0, panels)

    @pytest.mark.parametrize("n, s, t", [(2, 0.75, 10.0), (3, 0.75, 1000.0), (2, 0.9, 300.0)])
    def test_dispersive_peak(self, n, s, t, monkeypatch):
        spec = PhaseIntegralSpec(n=n, s=s, cutoff="annulus_dyadic", k=0)
        got = dispersive_peak(spec, t)
        monkeypatch.setattr(oscillatory, "_radial_integral", oracle_radial_integral)
        want = dispersive_peak(spec, t)
        assert got == pytest.approx(want, rel=1e-12)


class TestBessel:
    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
    def test_matches_scipy(self, nu):
        # the whole range the ridge search evaluates
        x = np.linspace(0.01, 5000.0, 50001)
        assert np.abs(bessel_j(nu, x) - special.jv(nu, x)).max() < 1e-10

    def test_at_zero(self):
        assert bessel_j(0.0, 0.0) == pytest.approx(1.0)
        assert bessel_j(0.5, 0.0) == pytest.approx(0.0)


class TestSpherePhaseIntegral:
    def test_rho_zero_is_surface_area(self):
        assert sphere_phase_integral(0.0, 2).real == pytest.approx(2 * np.pi, rel=1e-8)
        assert sphere_phase_integral(0.0, 3).real == pytest.approx(4 * np.pi, rel=1e-8)

    def test_n3_closed_form(self):
        # 1-D reduction gives 4 pi sin(rho)/rho
        for rho in (np.pi, 2.5, 17.3):
            expected = 4 * np.pi * np.sin(rho) / rho
            got = sphere_phase_integral(rho, 3)
            assert got.real == pytest.approx(expected, abs=1e-8)
            assert abs(got.imag) < 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_quadrature_vs_bessel_range(self, n):
        # raises QuadratureError internally if the two routes disagree > 1e-8
        for rho in np.linspace(0.0, 50.0, 21):
            sphere_phase_integral(rho, n)

    def test_needs_n_ge_2(self):
        with pytest.raises(ValueError):
            sphere_phase_integral(1.0, 1)


class TestDispersiveIntegral:
    def test_t_zero_positive_mass(self):
        spec = PhaseIntegralSpec(n=2, s=0.75, cutoff="annulus_dyadic", k=0,
                                 x=(0.0, 0.0), t=0.0)
        val = dispersive_integral(spec)
        assert val.real > 0
        assert abs(val.imag) < 1e-10 * val.real

    def test_brute_force_oracle(self):
        from fslab.bumps import annular_bump
        spec = PhaseIntegralSpec(n=2, s=0.75, cutoff="annulus_dyadic", k=0)
        for (x, t) in (((0.3, -0.7), 2.0), ((1.1, 0.4), 5.0), ((0.0, 0.0), 0.0)):
            mine = dispersive_integral(dataclasses.replace(spec, x=x, t=t))
            oracle = brute_force_integral(2, 0.75, annular_bump, 1.95, x, t)
            assert abs(mine - oracle) < 2e-3 * max(abs(oracle), 1.0)

    def test_rotation_invariance(self):
        spec = PhaseIntegralSpec(n=3, s=0.75, cutoff="ball", ell=0)
        xnorm = 1.7
        a = dispersive_integral(dataclasses.replace(spec, x=(xnorm, 0.0, 0.0), t=3.0))
        b = dispersive_integral(dataclasses.replace(
            spec, x=(xnorm / np.sqrt(2), xnorm / np.sqrt(2), 0.0), t=3.0))
        assert abs(a - b) < 1e-8 * max(abs(a), 1.0)

    def test_even_in_x(self):
        spec = PhaseIntegralSpec(n=2, s=0.6, cutoff="ball", ell=0)
        a = dispersive_integral(dataclasses.replace(spec, x=(0.9, -0.2), t=2.5))
        b = dispersive_integral(dataclasses.replace(spec, x=(-0.9, 0.2), t=2.5))
        assert a == pytest.approx(b, rel=1e-12)

    def test_bounded_by_zero_phase_mass(self, rng):
        spec = PhaseIntegralSpec(n=2, s=0.75, cutoff="annulus_dyadic", k=0)
        top = abs(dispersive_integral(dataclasses.replace(spec, x=(0.0, 0.0), t=0.0)))
        for _ in range(12):
            x = tuple(rng.uniform(-8, 8, 2))
            t = float(rng.uniform(0, 30))
            assert abs(dispersive_integral(dataclasses.replace(spec, x=x, t=t))) <= top * (1 + 1e-9)

    def test_center_value_decreasing(self):
        spec = PhaseIntegralSpec(n=2, s=0.75, cutoff="annulus_dyadic", k=0,
                                 x=(0.0, 0.0))
        ts = np.geomspace(10.0, 1000.0, 7)
        vals = [abs(dispersive_integral(dataclasses.replace(spec, t=float(t))))
                for t in ts]
        assert np.all(np.diff(vals) < 0)

    def test_shifted_kernel_matches_brute_force(self):
        from fslab.bumps import ball_bump
        spec = PhaseIntegralSpec(n=2, s=0.75, cutoff="ball", ell=0,
                                 shift=(1.5, 0.0))
        x, t = (0.8, 0.3), 2.0
        mine = dispersive_integral(dataclasses.replace(spec, x=x, t=t))

        def shifted_cut(r):
            return ball_bump(r)

        # direct oracle with the shifted phase
        axes = [np.linspace(-1.0, 1.0, 221)] * 2
        mesh = np.meshgrid(*axes, indexing="ij")
        r = np.sqrt(sum(m**2 for m in mesh))
        rshift = np.sqrt((mesh[0] - 1.5) ** 2 + mesh[1] ** 2)
        phase = t * rshift ** 1.5 - (mesh[0] * x[0] + mesh[1] * x[1])
        dv = (axes[0][1] - axes[0][0]) ** 2
        oracle = complex((np.exp(1j * phase) * ball_bump(r)).sum() * dv)
        assert abs(abs(mine) - abs(oracle)) < 5e-3 * max(abs(oracle), 1.0)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            PhaseIntegralSpec(n=1, s=0.75)
        with pytest.raises(ValueError):
            PhaseIntegralSpec(n=2, s=1.0)
        with pytest.raises(ValueError):
            PhaseIntegralSpec(n=2, s=0.75, cutoff="weird")


class TestDecayFit:
    def test_validates_range(self):
        spec = PhaseIntegralSpec(n=2, s=0.75)
        with pytest.raises(ValueError):
            fit_dispersive_decay(spec, np.geomspace(10, 50, 8))
        with pytest.raises(ValueError):
            fit_dispersive_decay(spec, np.geomspace(10, 1000, 4))

    def test_n2_slope(self):
        spec = PhaseIntegralSpec(n=2, s=0.75, cutoff="annulus_dyadic", k=0)
        fit = fit_dispersive_decay(spec, np.geomspace(10, 1000, 8))
        assert fit.slope == pytest.approx(-1.0, abs=0.1)
        assert fit.passes(2)

    def test_k_prefactor_scaling(self):
        n, s, t = 2, 0.75, 50.0
        base = dispersive_peak(PhaseIntegralSpec(n=n, s=s, cutoff="annulus_dyadic", k=0), t)
        for k in (1, 2):
            peak = dispersive_peak(PhaseIntegralSpec(n=n, s=s, cutoff="annulus_dyadic", k=k), t)
            expected = 2.0 ** (k * n * (1 - s))
            assert 0.5 * expected <= peak / base <= 2.0 * expected


class TestL1SupProfile:
    def test_two_scale_ratio(self):
        r0 = l1_sup_profile(0, 0, None, 0.75, 2, sample_budget=64, seed=0)
        r1 = l1_sup_profile(1, 1, None, 0.75, 2, sample_budget=64, seed=0)
        ratio = r1["integral"] / r0["integral"]
        assert 0.5 * 2.0 <= ratio <= 1.5 * 2.0
        assert r0["sup_is_lower_bound"]

    def test_origin_value_finite_positive(self):
        rep = l1_sup_profile(0, 0, None, 0.75, 2,
                             x1_grid=np.array([0.0, 1.0]), sample_budget=32, seed=1)
        assert np.isfinite(rep["sup_values"][0])
        assert rep["sup_values"][0] > 0

    def test_tail_decay_n3(self):
        # the x1^{-3/2} law is asymptotic; fit on a far-out window
        xs = np.geomspace(48.0, 512.0, 7)
        rep = l1_sup_profile(0, 0, None, 0.75, 3, x1_grid=xs,
                             sample_budget=192, seed=2)
        vals = np.asarray(rep["sup_values"])
        slope = np.polyfit(np.log(xs), np.log(vals), 1)[0]
        assert slope <= -1.4

    def test_shift_not_supported(self):
        with pytest.raises(NotImplementedError):
            l1_sup_profile(1, 0, (1.0, 0.0), 0.75, 2)


def oracle_sigma_measure_grid(k, j, zeta_normsq, tau, s, num_points=400001):
    """The membership-grid count that measured fractional s before the closed form."""
    lo, hi = 2.0**k, 2.0 ** (k + 1)
    xi1 = np.linspace(lo, hi, num_points)
    xin = np.sqrt(xi1**2 + zeta_normsq)
    member = (np.abs(tau + xin ** (2.0 * s)) <= 2.0**j) & (xin >= lo) & (xin <= hi)
    return float(np.count_nonzero(member) * (hi - lo) / (num_points - 1))


class TestSigmaMeasure:
    @pytest.mark.parametrize("s", [0.6, 0.75, 0.9])
    def test_closed_form_matches_grid(self, s):
        # the grid counts the interval to within two of its spacings
        for k, j, cz, ct in ((0, 0, 0.0, 1.05), (2, 1, 0.4, 1.3), (3, 3, 0.9, 1.7),
                             (5, 2, 0.4, 2.0), (4, 6, 0.0, 1.3), (6, 7, 0.4, 1.05)):
            zun, tau = (cz * 2.0**k) ** 2, -((ct * 2.0**k) ** (2.0 * s))
            spacing = 2.0**k / 400000
            exact = sigma_measure(k, j, zun, tau, s)
            assert abs(exact - oracle_sigma_measure_grid(k, j, zun, tau, s)) <= 2.0 * spacing

    def test_closed_form_example(self):
        # s=1, zeta=0, tau=-4, delta=0.4, k=1: positive branch [2, sqrt(4.4)]
        m = sigma_measure(1, np.log2(0.4), 0.0, -4.0, 1.0)
        assert m == pytest.approx(np.sqrt(4.4) - 2.0, rel=1e-12)

    def test_grid_matches_closed_form(self):
        # the fractional-s form tends to the s = 1 square roots
        m_exact = sigma_measure(1, np.log2(0.4), 0.0, -4.0, 1.0)
        m_near = sigma_measure(1, np.log2(0.4), 0.0, -4.0, 1.0 - 1e-13)
        assert m_near == pytest.approx(m_exact, rel=1e-9)

    def test_empty_case(self):
        assert sigma_measure(2, 1.0, 0.0, 10.0, 0.75) == 0.0

    def test_nondecreasing_in_j_and_trivially_bounded(self):
        k, s = 3, 0.75
        tau = -(1.4 * 2.0**k) ** (2 * s)
        vals = [sigma_measure(k, j, 2.0, tau, s)
                for j in range(0, 8)]
        assert np.all(np.diff(vals) >= -1e-12)
        assert max(vals) <= 2.0 * 2.0**k + 2.0

    def test_sweep_uniform_constant(self):
        sweep = sigma_measure_sweep(s_values=(0.6, 0.75, 0.9), k_max=6)
        assert np.isfinite(sweep["cstar"])
        assert sweep["cstar"] < 8.0


class TestTwoIntegralsRegime:
    def test_large_x1_bound(self, rng):
        # |x_1| >> t: |I| <= C (|x_1|^{-2} + t |x_1|^{-2})
        s = 0.75
        worst = 0.0
        for n in (2, 3):
            spec = PhaseIntegralSpec(n=n, s=s, cutoff="ball", ell=0)
            for _ in range(8):
                t = float(rng.uniform(1.0, 10.0))
                x1 = 8.0 * t * (1.0 + float(rng.uniform(0.0, 2.0)))
                x = (x1,) + (0.0,) * (n - 1)
                val = abs(dispersive_integral(dataclasses.replace(spec, x=x, t=t)))
                bound = min(1.0, x1**-2 + t * x1**-2)
                worst = max(worst, val / bound)
        assert np.isfinite(worst)
        assert worst < 50.0
