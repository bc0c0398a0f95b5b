import warnings

import numpy as np
import pytest

from fslab.bumps import chi_box, eta_bump, phi_shell, smooth_step
from fslab.lp import (
    box_centers,
    box_multiplier,
    build_cone_atlas,
    cone_cutoff_values,
    dyadic_shell,
    modulation_shell,
    modulation_split,
    project,
)
from fslab.norms import axis_cone_atlas
from fslab.spectral import (
    Field,
    SpacetimeSpectrum,
    Trajectory,
    dft_forward,
    free_evolution,
    linear_propagate,
    make_grid,
    modulation_offset,
    spacetime_dft,
)

from conftest import plane_wave, random_field


def oracle_smooth_step(x):
    """smooth_step as first written: masks, a fancy-index copy and fresh temporaries."""
    x = np.asarray(x, dtype=float)
    lo = x <= 0.0
    hi = x >= 1.0
    mid = ~(lo | hi)
    out = np.zeros_like(x)
    out[hi] = 1.0
    xm = x[mid]
    a = np.exp(-1.0 / xm)
    b = np.exp(-1.0 / (1.0 - xm))
    out[mid] = a / (a + b)
    if out.ndim == 0:
        return float(out)
    return out


class TestSmoothStep:
    def test_matches_oracle_bit_for_bit(self):
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.uniform(-0.5, 1.5, 100_000), rng.uniform(0.0, 1.0, 33_000),
                            [0.0, 1.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.0 - 2**-53]])
        kept = x.copy()
        with np.errstate(over="ignore"):   # -1 / 5e-324 overflows to -inf on both sides
            got, want = smooth_step(x), oracle_smooth_step(x)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[-3]) and got.dtype == float
        assert np.array_equal(x, kept, equal_nan=True)   # the input is not written
        block = x[:1200].reshape(3, 20, 20)[:, ::2, :]   # non-contiguous, 3-D
        assert np.array_equal(smooth_step(block), oracle_smooth_step(block))

    def test_scalars_and_zero_d(self):
        for value in (0.0, 1.0, 0.25, 0.5, -3, 7, np.inf, -np.inf):
            for arg in (value, np.array(value), np.float64(value)):
                got = smooth_step(arg)
                assert type(got) is float and got == oracle_smooth_step(arg)
        assert np.isnan(smooth_step(np.nan)) and np.isnan(smooth_step(np.array(np.nan)))

    def test_reflection_identity(self):
        # a / (a + b) + b / (b + a) is 1 to one rounding; on dyadic points
        # 1 - x is exact, so that rounding is all there is
        for x in (np.random.default_rng(12).uniform(-0.5, 1.5, 10_000),
                  np.arange(-64, 1089) / 1024):
            total = smooth_step(x) + smooth_step(1.0 - x)
            assert np.max(np.abs(total - 1.0)) <= 2.0**-52
            assert np.array_equal(total, oracle_smooth_step(x) + oracle_smooth_step(1.0 - x))


class TestBumps:
    def test_eta_plateau_and_support(self):
        assert eta_bump(0.5) == 1.0
        assert eta_bump(1.0) == 1.0
        assert eta_bump(3.0) == 0.0
        r = np.linspace(-1.99, 1.99, 100)
        assert np.all(eta_bump(r) >= 0)

    def test_partial_telescoping_at_r(self):
        r = 1.5
        total = eta_bump(r) + sum(phi_shell(r / 2.0**k) for k in range(1, 21))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_dense_telescoping(self):
        r = np.linspace(0.0, 200.0, 4001)
        total = eta_bump(r) + sum(phi_shell(r / 2.0**k) for k in range(1, 30))
        assert np.abs(total - 1.0).max() < 1e-10

    def test_phi_plateau_value(self):
        assert phi_shell(1.5) == 1.0
        assert phi_shell(1.0) == 1.0
        assert phi_shell(10.0) == 0.0

    def test_chi_translates_sum_to_one(self):
        x = np.linspace(-4, 4, 2001)
        total = sum(chi_box(x - l) for l in range(-8, 9))
        assert np.abs(total - 1.0).max() < 1e-10


class TestConeAtlas:
    def test_n2_covering(self):
        atlas = build_cone_atlas(2, 0.5)
        # caps of half-angle pi/3 need at least 3 directions; spec allows <= 12
        assert 3 <= atlas.num_directions <= 12
        angles = np.linspace(0, 2 * np.pi, 360, endpoint=False)
        omegas = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        sums = atlas.partition_values(omegas).sum(axis=0)
        assert np.abs(sums - 1).max() < 1e-10
        # every direction has a cap within the margin
        dots = atlas.directions @ omegas.T
        assert np.all(dots.max(axis=0) >= 0.5)

    @pytest.mark.parametrize("n", [2, 3])
    def test_partition_and_support(self, n, rng):
        atlas = build_cone_atlas(n, 0.5)
        om = rng.standard_normal((1000, n))
        om /= np.linalg.norm(om, axis=1, keepdims=True)
        vals = atlas.partition_values(om)
        assert np.abs(vals.sum(axis=0) - 1.0).max() < 1e-10
        dots = atlas.directions @ om.T
        outside = dots < atlas.margin
        assert np.all(vals[outside] == 0.0)

    def test_margin_validated(self):
        with pytest.raises(ValueError):
            build_cone_atlas(2, 1.0)
        with pytest.raises(ValueError):
            build_cone_atlas(1, 0.5)

    def test_atlases_compare_by_identity(self):
        # the generated __eq__ compared the ndarray field and raised
        first, second = axis_cone_atlas(2), axis_cone_atlas(2)
        assert first == first
        assert first != second and first.key == second.key
        assert build_cone_atlas(2, 0.4) != build_cone_atlas(2, 0.4)

    def test_standalone_cutoff_support(self, grid2d):
        vals = cone_cutoff_values(grid2d, (1.0, 0.0), 0.5)
        norm = grid2d.freq_norm
        dots = grid2d.freq_component(0) * np.ones(grid2d.shape)
        nz = norm > 0
        outside = nz & (dots < 0.5 * norm)
        assert np.abs(vals[outside]).max() == 0.0
        assert vals[tuple([grid2d.m // 2] * 2)] == 0.0  # zero mode annihilated


def oracle_box_multiplier(grid, k, l):
    """The P_{k,l} symbol as the projection dispatch first built it: the
    per-axis chi product, evaluated on the whole grid."""
    scale = 2.0**k
    mult = np.ones(grid.shape)
    for axis in range(grid.n):
        mult = mult * chi_box((grid.freq_component(axis) - l[axis]) / scale)
    return mult


class TestProject:
    def test_dyadic_plateau_passthrough(self, grid2d):
        # |xi0| = 3 = 1.5 * 2^1: phi(1.5) = 1 so Delta_1 leaves it unchanged
        pw = dft_forward(plane_wave(grid2d, (3, 0)))
        out = project(pw, dyadic_shell(grid2d, 1))
        assert np.abs(out.values - pw.values).max() < 1e-12 * np.abs(pw.values).max()

    def test_dyadic_outside_support(self, grid2d):
        # |xi0| = 5 with k = -1: ratio 10 is far outside supp phi
        pw = dft_forward(plane_wave(grid2d, (5, 0)))
        out = project(pw, dyadic_shell(grid2d, -1))
        assert np.abs(out.values).max() == 0.0

    def test_box_partition(self, grid2d, rng):
        F = dft_forward(random_field(grid2d, rng))
        for k in (0, 1):
            total = np.zeros(grid2d.shape, complex)
            for l in box_centers(grid2d, k):
                total += project(F, box_multiplier(grid2d, k, l)).values
            assert np.abs(total - F.values).max() < 1e-10 * np.abs(F.values).max()

    @pytest.mark.parametrize("n, m", [(1, 16), (2, 16), (3, 8)])
    def test_box_multiplier_matches_chi_product_oracle(self, n, m):
        grid = make_grid(n, m, 2.0 * np.pi)
        for k in (0, 1):
            for l in box_centers(grid, k):
                assert np.array_equal(box_multiplier(grid, k, l),
                                      oracle_box_multiplier(grid, k, l))

    def test_box_multiplier_rejects_off_lattice_centres(self, grid2d):
        for k, l in ((1, (1.0, 0.0)), (0, (0.5, 0.0)), (0, (2.0,)), (0, (0.0, 99.0))):
            with pytest.raises(ValueError, match="box lattice"):
                box_multiplier(grid2d, k, l)

    def test_disjoint_shells_compose_to_zero(self, grid2d, rng):
        F = dft_forward(random_field(grid2d, rng))
        once = project(F, dyadic_shell(grid2d, 0))
        twice = project(once, dyadic_shell(grid2d, 2))
        assert np.abs(twice.values).max() < 1e-12 * np.abs(F.values).max()

    def test_modulation_needs_spectrum(self, grid2d, rng):
        F = dft_forward(random_field(grid2d, rng))
        S = SpacetimeSpectrum(grid2d, -1.0, 0.125, "none", np.zeros((16,) + grid2d.shape, complex))
        with pytest.raises(TypeError):
            project(F, modulation_shell(modulation_offset(S, 0.75), 1))

    def test_linear_and_commutes_with_propagator(self, grid2d, rng):
        from fslab.spectral import dft_inverse
        f = random_field(grid2d, rng)
        s, t = 0.75, 0.4
        for mult in (dyadic_shell(grid2d, 1),
                     box_multiplier(grid2d, 1, (2.0, 0.0)),
                     cone_cutoff_values(grid2d, (1.0, 0.0), 0.5)):
            a = project(dft_forward(linear_propagate(f, t, s)), mult)
            projected = dft_inverse(project(dft_forward(f), mult))
            b = dft_forward(linear_propagate(projected, t, s))
            assert np.abs(a.values - b.values).max() < 1e-11 * max(np.abs(a.values).max(), 1e-12)

    def test_rotation_covariance_dyadic_but_not_box(self, grid2d, rng):
        # shell-limited data avoids the asymmetric Nyquist row
        f = random_field(grid2d, rng)
        Fs = project(dft_forward(f), dyadic_shell(grid2d, 1))
        rotate = lambda arr: np.transpose(arr)[:, :]  # axis swap is lattice-preserving

        mult_d = dyadic_shell(grid2d, 1)
        a = project(Field(grid2d, rotate(Fs.values)), mult_d).values
        b = rotate(project(Fs, mult_d).values)
        assert np.abs(a - b).max() < 1e-12 * np.abs(Fs.values).max()

        mult_b = box_multiplier(grid2d, 0, (2.0, 0.0))
        a = project(Field(grid2d, rotate(Fs.values)), mult_b).values
        b = rotate(project(Fs, mult_b).values)
        assert np.abs(a - b).max() > 1e-3 * np.abs(Fs.values).max()


class TestModulationSplit:
    def test_low_frequency_free_evolution_concentrates(self):
        g = make_grid(1, 16, 2 * np.pi)
        s = 0.75
        u0vals = np.exp(1j * g.coords_1d()) + 0.5 * np.exp(2j * g.coords_1d())
        traj = free_evolution(Field(g, u0vals), -4.0, 8.0 / 64, 64, s)
        pieces, rem = modulation_split(traj, s)
        energies = [np.sum(np.abs(spacetime_dft(p, window="none").values) ** 2)
                    for _, p in pieces]
        total = sum(energies) + np.sum(np.abs(spacetime_dft(rem, window="none").values) ** 2)
        assert (energies[0] + energies[1]) / total >= 0.95

    def test_prescribed_modulation_shell(self):
        g = make_grid(1, 16, 2 * np.pi)
        s, j0 = 0.75, 3
        xi0 = 2.0
        omega = xi0 ** (2 * s) + 1.5 * 2.0**j0
        T, span = 64, 8.0
        times = -span / 2 + span / T * np.arange(T)
        vals = np.exp(1j * (xi0 * g.coords_1d()[None, :] + omega * times[:, None]))
        traj = Trajectory(g, -span / 2, span / T, vals)
        pieces, rem = modulation_split(traj, s)
        energies = np.array([np.sum(np.abs(spacetime_dft(p, window="none").values) ** 2)
                             for _, p in pieces])
        total = energies.sum() + np.sum(np.abs(spacetime_dft(rem, window="none").values) ** 2)
        near = energies[j0 - 1] + energies[j0] + energies[j0 + 1]
        assert near / total >= 0.9

    def test_reconstruction(self, grid1d, rng):
        T = 32
        vals = rng.standard_normal((T, grid1d.m)) + 1j * rng.standard_normal((T, grid1d.m))
        traj = Trajectory(grid1d, -1.0, 2.0 / T, vals)
        pieces, rem = modulation_split(traj, 0.75, window="taper")
        from fslab.bumps import window_weights
        w = window_weights(traj.times)
        target = traj.values * w[:, None]
        total = sum(p.values for _, p in pieces) + rem.values
        assert np.abs(total - target).max() < 1e-8 * max(np.abs(target).max(), 1e-12)

    def test_remainder_warning_when_truncated(self, grid1d, rng):
        # static data at high modulation: forcing j_max = 0 leaves energy
        vals = np.repeat(random_field(grid1d, rng).values[None, :], 32, axis=0)
        traj = Trajectory(grid1d, -1.0, 2.0 / 32, vals)
        with pytest.warns(UserWarning, match="remainder"):
            modulation_split(traj, 0.75, j_max=0)
