import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, cumulative_trapezoid

import fslab.spectral
from fslab.solver import SolveConfig, default_nonlinearity, gaussian_spectrum_data, picard_solve
from fslab.spectral import (
    DuhamelOperator,
    cached_symbol,
    Field,
    Trajectory,
    ZeroModeError,
    apply_fractional,
    dft_forward,
    dft_inverse,
    duhamel_integral,
    duhamel_quadrature,
    fractional_symbol,
    free_evolution,
    hdot_norm,
    linear_propagate,
    make_grid,
    spacetime_dft,
    spacetime_idft,
    symbol_cache_info,
)

from conftest import plane_wave, random_field


class TestMakeGrid:
    def test_1d_frequency_lattice(self):
        g = make_grid(1, 4, 2 * np.pi)
        assert np.allclose(g.freq_1d, [-2, -1, 0, 1])

    def test_2d_counts(self):
        g = make_grid(2, 8, 2 * np.pi)
        assert g.npoints == 64
        assert g.dx == pytest.approx(np.pi / 4)

    def test_3d_frequency_spacing(self):
        g = make_grid(3, 16, 32 * np.pi)
        assert g.freq_1d[1] - g.freq_1d[0] == pytest.approx(1 / 16)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            make_grid(2, 12, 1.0)
        with pytest.raises(ValueError):
            make_grid(2, 2, 1.0)

    def test_rejects_bad_box(self):
        with pytest.raises(ValueError):
            make_grid(2, 8, -1.0)

    def test_dx_times_m_is_box(self):
        g = make_grid(2, 32, 5.0)
        assert g.dx * g.m == pytest.approx(5.0)


class TestDft:
    def test_constant_field(self, grid2d):
        c = 1.7 - 0.3j
        F = dft_forward(Field(grid2d, np.full(grid2d.shape, c)))
        center = (grid2d.m // 2,) * 2
        L = grid2d.box_length
        assert F.values[center] == pytest.approx(c * L**2)
        rest = F.values.copy()
        rest[center] = 0
        assert np.abs(rest).max() < 1e-10 * abs(c) * L**2

    def test_plane_wave(self, grid2d):
        F = dft_forward(plane_wave(grid2d, (2, 1)))
        peak = (grid2d.m // 2 + 2, grid2d.m // 2 + 1)
        assert F.values[peak] == pytest.approx(grid2d.box_length**2)

    def test_roundtrip(self, rng):
        for n, m in ((1, 64), (2, 32), (3, 8)):
            g = make_grid(n, m, 2 * np.pi)
            f = random_field(g, rng)
            back = dft_inverse(dft_forward(f))
            scale = np.abs(f.values).max()
            assert np.abs(back.values - f.values).max() < 1e-12 * scale

    def test_single_mode_inverse(self, grid2d):
        spec = np.zeros(grid2d.shape, complex)
        spec[grid2d.m // 2 + 3, grid2d.m // 2 - 2] = grid2d.box_length**2
        f = dft_inverse(Field(grid2d, spec))
        expected = plane_wave(grid2d, (3, -2))
        assert np.abs(f.values - expected.values).max() < 1e-12

    def test_zero_spectrum(self, grid2d):
        f = dft_inverse(Field(grid2d, np.zeros(grid2d.shape)))
        assert np.abs(f.values).max() == 0.0

    def test_linearity(self, grid2d, rng):
        # superposition oracle: F(a f + b g) computed directly
        f, g = random_field(grid2d, rng), random_field(grid2d, rng)
        a, b = 2.0 - 1.0j, -0.5 + 0.25j
        combo = dft_forward(Field(grid2d, a * f.values + b * g.values))
        direct = a * dft_forward(f).values + b * dft_forward(g).values
        assert np.abs(combo.values - direct).max() < 1e-12 * np.abs(direct).max()

    def test_parseval(self, rng):
        for n, m in ((1, 32), (2, 16), (3, 8)):
            g = make_grid(n, m, 3.0)
            f = random_field(g, rng)
            spec = dft_forward(f)
            rhs = np.sum(np.abs(spec.values) ** 2) / g.box_length**n
            assert f.l2_norm() ** 2 == pytest.approx(rhs, rel=1e-12)


class TestFractional:
    def test_symbol_values(self):
        assert fractional_symbol((3, 4), 1.0) == pytest.approx(5.0)
        assert fractional_symbol((0, 0), 0.5) == 0.0
        assert fractional_symbol((1, 0, 0), -0.5) == pytest.approx(1.0)

    def test_symbol_zero_mode_rejected(self):
        with pytest.raises(ZeroModeError):
            fractional_symbol((0, 0), -1.0)

    def test_eigenfunction(self, grid2d):
        pw = plane_wave(grid2d, (2, 1))
        beta = 0.7
        out = apply_fractional(pw, beta)
        lam = np.sqrt(5.0) ** beta
        assert np.abs(out.values - lam * pw.values).max() < 1e-10

    def test_beta_zero_identity(self, grid2d, rng):
        f = random_field(grid2d, rng)
        out = apply_fractional(f, 0.0)
        assert np.abs(out.values - f.values).max() < 1e-12 * np.abs(f.values).max()

    def test_inverse_on_mean_zero(self, grid2d, rng):
        f = random_field(grid2d, rng)
        mean_zero = Field(grid2d, f.values - f.values.mean())
        beta = 0.6
        out = apply_fractional(apply_fractional(mean_zero, beta), -beta)
        assert np.abs(out.values - mean_zero.values).max() < 1e-10

    def test_group_property(self, grid2d, rng):
        f = random_field(grid2d, rng)
        mean_zero = Field(grid2d, f.values - f.values.mean())
        one = apply_fractional(apply_fractional(mean_zero, 0.4), 0.8)
        two = apply_fractional(mean_zero, 1.2)
        assert np.abs(one.values - two.values).max() < 1e-10 * np.abs(two.values).max()

    def test_reject_policy(self, grid2d):
        f = Field(grid2d, np.ones(grid2d.shape))
        with pytest.raises(ZeroModeError):
            apply_fractional(f, -0.5, zero_mode_policy="reject")


class TestPropagator:
    def test_t_zero_identity(self, grid2d, rng):
        f = random_field(grid2d, rng)
        out = linear_propagate(f, 0.0, 0.75)
        assert np.abs(out.values - f.values).max() < 1e-13 * np.abs(f.values).max()

    def test_eigenfunction(self, grid2d):
        pw = plane_wave(grid2d, (2, 1))
        t, s = 0.3, 0.75
        out = linear_propagate(pw, t, s)
        phase = np.exp(1j * t * 5.0**s)
        assert np.abs(out.values - phase * pw.values).max() < 1e-12

    def test_l2_conservation(self, grid2d, rng):
        f = random_field(grid2d, rng)
        out = linear_propagate(f, 1.7, 0.6)
        assert out.l2_norm() == pytest.approx(f.l2_norm(), rel=1e-12)

    def test_group_action(self, grid2d, rng):
        f = random_field(grid2d, rng)
        s = 0.85
        one = linear_propagate(linear_propagate(f, 0.4, s), 0.9, s)
        two = linear_propagate(f, 1.3, s)
        assert np.abs(one.values - two.values).max() < 1e-12 * np.abs(f.values).max()

    def test_s_range_validated(self, grid2d, rng):
        with pytest.raises(ValueError):
            linear_propagate(random_field(grid2d, rng), 1.0, 0.4)


class TestSpacetime:
    def test_plane_wave_single_coefficient(self, grid1d):
        T, dt, t0 = 32, 0.25, -4.0
        x = grid1d.coords_1d()
        times = t0 + dt * np.arange(T)
        tau0 = 2.0 * np.pi / (T * dt) * 3  # on the tau lattice
        vals = np.exp(1j * (2.0 * x[None, :] - tau0 * times[:, None]))
        traj = Trajectory(grid1d, t0, dt, vals)
        S = spacetime_dft(traj, window="none")
        mags = np.abs(S.values)
        peak = np.unravel_index(np.argmax(mags), mags.shape)
        # kernel e^{+i tau t} sends e^{-i tau0 t} to the single row tau = tau0
        assert S.taus[peak[0]] == pytest.approx(tau0)
        assert grid1d.freq_1d[peak[1]] == pytest.approx(2.0)
        total = np.sum(mags**2)
        assert mags[peak] ** 2 > (1 - 1e-12) * total

    def test_static_trajectory_on_zero_row(self, grid1d, rng):
        T = 16
        f = random_field(grid1d, rng)
        vals = np.repeat(f.values[None, :], T, axis=0)
        S = spacetime_dft(Trajectory(grid1d, -1.0, 0.125, vals), window="none")
        zero_row = T // 2
        energy = np.sum(np.abs(S.values) ** 2, axis=1)
        assert energy[zero_row] > (1 - 1e-12) * energy.sum()

    def test_free_evolution_on_characteristic(self, grid1d):
        # lattice mode whose |xi|^{2s} lies exactly on a tau bin
        s = 0.75
        xi0 = 2.0
        omega = xi0 ** (2 * s)
        T = 64
        span = 2 * np.pi * 8 / omega  # 8 bins of exactly omega/8
        dt = span / T
        u0 = Field(grid1d, np.exp(1j * xi0 * grid1d.coords_1d()))
        traj = free_evolution(u0, -span / 2, dt, T, s)
        S = spacetime_dft(traj, window="taper")
        col = grid1d.m // 2 + 2
        energy = np.abs(S.values[:, col]) ** 2
        nearest = int(np.argmin(np.abs(S.taus + omega)))
        assert energy[nearest] >= 0.9 * energy.sum()

    def test_roundtrip(self, grid2d, rng):
        T = 16
        vals = rng.standard_normal((T,) + grid2d.shape) + 1j * rng.standard_normal((T,) + grid2d.shape)
        traj = Trajectory(grid2d, -1.0, 0.125, vals)
        for window in ("none", "taper"):
            S = spacetime_dft(traj, window=window)
            back = spacetime_idft(S)
            w = np.ones(T) if window == "none" else None
            if w is None:
                from fslab.bumps import window_weights
                w = window_weights(traj.times)
            target = traj.values * w.reshape(-1, 1, 1)
            assert np.abs(back.values - target).max() < 1e-10 * np.abs(target).max()

    def test_frame_count_must_be_power_of_two(self, grid1d):
        with pytest.raises(ValueError):
            Trajectory(grid1d, 0.0, 0.1, np.zeros((12,) + grid1d.shape))


class TestHdot:
    def test_matches_l2_for_sigma_zero_mean_free(self, grid2d, rng):
        f = random_field(grid2d, rng)
        f0 = Field(grid2d, f.values - f.values.mean())
        assert hdot_norm(f0, 0.0) == pytest.approx(f0.l2_norm(), rel=1e-10)

    def test_zero_mode_excluded(self, grid2d):
        f = Field(grid2d, np.ones(grid2d.shape))
        assert hdot_norm(f, 0.5) == pytest.approx(0.0, abs=1e-12)


def scipy_signed_cumulative(W, i0, dt, rule):
    """scipy's cumulative rule on W itself: forward from frame i0 and,
    negated, backward from it along the reversed frames."""
    accumulate = cumulative_trapezoid if rule == "trapezoid" else cumulative_simpson
    H = np.zeros_like(W)
    H[i0:] = accumulate(W[i0:], dx=dt, axis=0, initial=0)
    if i0 > 0:
        H[: i0 + 1] = -accumulate(W[i0::-1], dx=dt, axis=0, initial=0)[::-1]
    return H


def scipy_quadrature(num_frames, i0, dt, rule):
    """duhamel_quadrature built on scipy's rules, as the package first built it."""
    accumulate = cumulative_trapezoid if rule == "trapezoid" else cumulative_simpson
    Q = np.zeros((num_frames, num_frames))
    if i0 > 0:
        Q[: i0 + 1, : i0 + 1] = -accumulate(np.eye(i0 + 1), dx=dt, axis=0,
                                             initial=0)[::-1, ::-1]
    Q[i0:, i0:] = accumulate(np.eye(num_frames - i0), dx=dt, axis=0, initial=0)
    return Q


class TestDuhamelOperator:
    @pytest.mark.parametrize("rule", ["trapezoid", "simpson"])
    @pytest.mark.parametrize("frames", [1, 8, 16, 32])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_quadrature_matrix_is_scipys_rule(self, rule, frames, where):
        i0 = {"first": 0, "middle": frames // 2, "last": frames - 1}[where]
        dt = 0.0625
        W = np.random.default_rng(frames).standard_normal((frames, 5))
        Q = duhamel_quadrature(frames, i0, dt, rule)
        assert Q.shape == (frames, frames) and not Q.flags.writeable
        expected = scipy_signed_cumulative(W, i0, dt, rule)
        assert np.max(np.abs(Q @ W - expected)) <= 1e-14 * np.max(np.abs(expected))
        assert not np.any(Q[i0])

    @pytest.mark.parametrize("rule", ["trapezoid", "simpson"])
    @pytest.mark.parametrize("dt", [0.0625, 2 / 63, 1e-3])
    @pytest.mark.parametrize("frames", [1, 2, 3, 4, 5, 16, 17, 64, 65, 1024])
    def test_quadrature_matrix_is_scipys_bit_for_bit(self, rule, frames, dt):
        ours = getattr(fslab.spectral, f"cumulative_{rule}")
        scipys = cumulative_trapezoid if rule == "trapezoid" else cumulative_simpson
        eye = np.eye(frames)
        assert np.array_equal(ours(eye, dx=dt), scipys(eye, dx=dt, axis=0, initial=0))
        for i0 in sorted({0, frames // 2, frames - 1}):
            assert np.array_equal(duhamel_quadrature(frames, i0, dt, rule),
                                  scipy_quadrature(frames, i0, dt, rule))

    @pytest.mark.parametrize("rule", ["trapezoid", "simpson"])
    @pytest.mark.parametrize("frames", [1, 2, 3, 6, 7])
    def test_rules_are_scipys_on_data(self, rule, frames):
        ours = getattr(fslab.spectral, f"cumulative_{rule}")
        scipys = cumulative_trapezoid if rule == "trapezoid" else cumulative_simpson
        y = np.random.default_rng(frames).standard_normal((frames, 3, 4))
        y[:, 0] = -0.0
        got, want = ours(y, dx=0.1), scipys(y, dx=0.1, axis=0, initial=0)
        # the same bytes: signs of zeros included
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_quadrature_built_once_per_key(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return cumulative_simpson(*args, axis=0, initial=0, **kwargs)

        monkeypatch.setattr(fslab.spectral, "cumulative_simpson", counted)
        # a step no other test uses, so the first call builds the matrix
        dt = 0.0625 * (1.0 + 2.0**-40)
        first = duhamel_quadrature(16, 8, dt, "simpson")
        assert len(calls) == 2            # forward and backward from frame 8
        assert duhamel_quadrature(16, 8, dt, "simpson") is first
        grid = make_grid(2, 8, 2 * np.pi)
        forcing = Trajectory(grid, -8 * dt, dt, np.ones((16,) + grid.shape, dtype=complex))
        duhamel_integral(forcing, 0.75, rule="simpson")
        DuhamelOperator(grid, -8 * dt, dt, 16, 0.75, "simpson").integral(forcing)
        assert len(calls) == 2
        duhamel_quadrature(16, 7, dt, "simpson")
        assert len(calls) == 4

    def test_free_and_integral_share_the_phase_table(self):
        grid = make_grid(2, 8, 2 * np.pi)
        rng = np.random.default_rng(3)
        u0 = Field(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        op = DuhamelOperator(grid, -1.0, 0.0625, 32, 0.75, "simpson")
        assert op.phases.shape == (32,) + grid.shape
        assert np.array_equal(op.free(u0).values,
                              free_evolution(u0, -1.0, 0.0625, 32, 0.75).values)
        forcing = Trajectory(grid, -1.0, 0.0625, rng.standard_normal((32,) + grid.shape))
        assert np.array_equal(op.integral(forcing).values,
                              duhamel_integral(forcing, 0.75, rule="simpson").values)

    def test_spectrum_is_the_transform_of_free_plus_duhamel_frames(self):
        grid = make_grid(2, 8, 2 * np.pi)
        rng = np.random.default_rng(4)
        u0 = Field(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        op = DuhamelOperator(grid, -1.0, 0.0625, 32, 0.75, "simpson")
        forcing = rng.standard_normal((32,) + grid.shape) + 0j
        H = op.integral_spectrum(forcing)
        frames = op.free(u0).values + op.frames(H)
        assert np.array_equal(op.frames(H), op.integral(Trajectory(grid, -1.0, 0.0625,
                                                                    forcing)).values)
        expected = np.fft.fftn(frames, axes=(1, 2))
        data_hat = op.data_spectrum(u0)
        scale = np.max(np.abs(expected))
        free_only = op.spectrum(data_hat)
        assert np.max(np.abs(free_only - np.fft.fftn(op.free(u0).values, axes=(1, 2)))) \
            <= 1e-14 * scale
        # the sum is formed in H's array
        total = op.spectrum(data_hat, H)
        assert total is H
        assert np.max(np.abs(total - expected)) <= 1e-14 * scale

    def test_rejects_bad_rule_and_off_lattice_zero(self):
        grid = make_grid(1, 8, 2 * np.pi)
        with pytest.raises(ValueError, match="quadrature rule"):
            DuhamelOperator(grid, -1.0, 0.25, 8, 0.75, "midpoint")
        forcing = Trajectory(grid, -0.9, 0.25, np.ones((8,) + grid.shape))
        with pytest.raises(ValueError, match="t = 0 must lie"):
            duhamel_integral(forcing, 0.75)

    def test_solve_leaves_no_trajectory_sized_cache_entry(self):
        # a box length no other test uses, so every entry of this grid is new
        cfg = SolveConfig(n=2, m=16, box_length=6.5, s=0.75, num_frames=32)
        u0 = gaussian_spectrum_data(cfg.grid, cfg.sigma, cfg.epsilon, seed=1)
        before = set(symbol_cache_info()["entries"])
        picard_solve(u0, default_nonlinearity(cfg.s), cfg, fsigma_diffs=False)
        entries = symbol_cache_info()["entries"]
        added = {key: entries[key] for key in set(entries) - before}
        frames_bytes = cfg.num_frames * cfg.grid.npoints * 16
        assert ("duhamel_quadrature", 32, 16, cfg.dt, "simpson") in entries
        assert all(size < frames_bytes for size in added.values()), added


class TestSymbolCache:
    def test_symbol_cache_info_counts_lookups(self):
        key = ("symbol_cache_info_probe", 4)
        before = symbol_cache_info()
        for _ in range(3):
            cached_symbol(key, lambda: np.zeros(4))
        info = symbol_cache_info()
        assert info["misses"] == before["misses"] + 1
        assert info["hits"] == before["hits"] + 2
        assert info["entries"][key] == 32
        assert info["bytes"] == sum(info["entries"].values()) <= info["budget"]
        info["entries"].clear()
        assert key in symbol_cache_info()["entries"]
