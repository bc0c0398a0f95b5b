import numpy as np
import pytest

from fslab import bumps
from fslab.lp import cone_cutoff_values
from fslab.norms import (
    InputFamily,
    MixedNormSpec,
    axis_cone_atlas,
    f_sigma_norm,
    mixed_norm,
    n_sigma_norm,
    verify_estimate,
    xk_norm,
    yk_norm,
    zk_upper,
)
from fslab.spectral import (
    Field,
    SpacetimeSpectrum,
    Trajectory,
    modulation_offset,
    spacetime_dft,
    spacetime_idft,
)


@pytest.fixture
def family():
    return InputFamily(n=2, m=16, num_frames=32, shells=(1, 2, 3))


class TestMixedNorm:
    def test_point_mass(self, family):
        g = family.grid
        vals = np.zeros((family.num_frames,) + g.shape, complex)
        vals[3, 4, 5] = 1.0
        traj = Trajectory(g, family.t0, family.dt, vals)
        expected = g.dx * np.sqrt(g.dx * family.dt)
        assert mixed_norm(traj, MixedNormSpec(0, 1, 2)) == pytest.approx(expected)

    def test_constant(self, family):
        g = family.grid
        c = 0.8
        traj = Trajectory(g, family.t0, family.dt,
                          np.full((family.num_frames,) + g.shape, c, dtype=complex))
        expected = c * np.sqrt(g.box_length ** (g.n - 1) * family.num_frames * family.dt)
        assert mixed_norm(traj, MixedNormSpec(1, np.inf, 2)) == pytest.approx(expected)

    def test_fubini_p2q2(self, family, rng):
        vals = rng.standard_normal((family.num_frames,) + family.grid.shape)
        traj = Trajectory(family.grid, family.t0, family.dt, vals + 0j)
        assert mixed_norm(traj, MixedNormSpec(0, 2, 2)) == pytest.approx(
            traj.l2_spacetime(), rel=1e-12)

    def test_rejects_non_axis_direction(self, family, rng):
        vals = rng.standard_normal((family.num_frames,) + family.grid.shape) + 0j
        traj = Trajectory(family.grid, family.t0, family.dt, vals)
        with pytest.raises(ValueError, match="rotated"):
            mixed_norm(traj, MixedNormSpec(np.array([1.0, 1.0]) / np.sqrt(2), 1, 2))

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            MixedNormSpec(0, 3, 2)


class TestXk:
    def test_zero(self, family):
        traj = Trajectory(family.grid, family.t0, family.dt,
                          np.zeros((family.num_frames,) + family.grid.shape, complex))
        assert xk_norm(traj, 2, 0.75, window="none") == 0.0

    def test_support_gate(self, family, rng):
        vals = rng.standard_normal((family.num_frames,) + family.grid.shape) + 0j
        traj = Trajectory(family.grid, family.t0, family.dt, vals)
        assert xk_norm(traj, 2, 0.75, window="none") == np.inf

    def test_free_evolution_dominated_by_q0(self):
        fam = InputFamily(n=2, m=16, num_frames=64, t_half=4.0, shells=(2,))
        rng = np.random.default_rng(3)
        traj = fam.free(rng, 2, 0.75)
        value = xk_norm(traj, 2, 0.75, window="none")
        mass = traj.l2_spacetime()
        assert 0.8 * mass <= value <= 2.5 * mass

    def test_modulation_shell_weighting(self):
        fam = InputFamily(n=2, m=16, num_frames=64, t_half=4.0, shells=(2,))
        rng = np.random.default_rng(5)
        for j0 in (2, 3):
            traj = fam.modulated(rng, 2, 0.75, j0)
            value = xk_norm(traj, 2, 0.75, window="none")
            mass = traj.l2_spacetime()
            assert 0.8 * 2.0 ** (j0 / 2) * mass <= value <= 4.0 * 2.0 ** (j0 / 2) * mass


class TestYk:
    def test_zero(self, family):
        traj = Trajectory(family.grid, family.t0, family.dt,
                          np.zeros((family.num_frames,) + family.grid.shape, complex))
        assert yk_norm(traj, 2, 0, 0.75, window="none") == 0.0

    def test_outside_cone_gate(self):
        fam = InputFamily(n=2, m=16, num_frames=32, shells=(2,))
        rng = np.random.default_rng(1)
        traj = fam.free(rng, 2, 0.75, cone_axis=0, cone_sign=-1.0)
        # data in the -e1 cone fails the +e1 gate
        assert yk_norm(traj, 2, np.array([1.0, 0.0]), 0.75, window="none") == np.inf

    def test_characteristic_annihilation_oracle(self):
        # on free evolutions (i d_t + D^{2s} + i)(w u) = i (w' + w) u exactly
        fam = InputFamily(n=2, m=16, num_frames=128, t_half=4.0, shells=(2,))
        g = fam.grid
        s, k = 0.75, 2
        spec0 = fam.shell_spectrum(np.random.default_rng(7), k)
        spec0 = spec0 * cone_cutoff_values(g, np.array([1.0, 0.0]), 0.5)
        times = fam.times
        tshape = (-1, 1, 1)
        phases = np.exp(1j * times.reshape(tshape) * (g.freq_norm ** (2 * s))[None])
        frames = np.fft.ifftn(np.fft.ifftshift(phases * spec0[None], axes=(1, 2)),
                              axes=(1, 2)) / g.dx**2
        span = times[-1] - times[0] + fam.dt
        width = 0.1 * span

        def wfun(t):
            return (bumps.smooth_step((t - times[0]) / width)
                    * bumps.smooth_step((times[-1] - t) / width))

        w = wfun(times)
        h = 1e-6
        wp = (wfun(times + h) - wfun(times - h)) / (2 * h)
        windowed = Trajectory(g, fam.t0, fam.dt, frames * w.reshape(tshape))
        y = yk_norm(windowed, k, 0, s, window="none")

        oracle_traj = Trajectory(g, fam.t0, fam.dt,
                                 1j * (wp + w).reshape(tshape) * frames)
        weight = 2.0 ** (-k * (2 * s - 1) / 2)
        y_oracle = weight * mixed_norm(oracle_traj, MixedNormSpec(0, 1, 2))
        assert y == pytest.approx(y_oracle, rel=1e-3)

        # the +i term dominates on the window plateau
        plateau = weight * mixed_norm(
            Trajectory(g, fam.t0, fam.dt, 1j * w.reshape(tshape) * frames),
            MixedNormSpec(0, 1, 2))
        assert plateau <= y <= 1.6 * plateau


class TestZk:
    def test_zero(self, family):
        traj = Trajectory(family.grid, family.t0, family.dt,
                          np.zeros((family.num_frames,) + family.grid.shape, complex))
        assert zk_upper(traj, 2, 0.75, window="none").value == 0.0

    def test_upper_bounded_by_xk(self, family):
        for i in range(4):
            traj, k, _ = family.draw(i, 0.75, seed=11)
            z = zk_upper(traj, k, 0.75, window="none").value
            x = xk_norm(traj, k, 0.75, window="none")
            assert z <= x * (1 + 1e-12)

    def test_free_evolution_wins_all_x(self, family):
        traj, k, _ = family.draw(0, 0.75, seed=2)
        rep = zk_upper(traj, k, 0.75, window="none")
        assert rep.metadata["winner"] == "all_x"
        assert rep.value == pytest.approx(xk_norm(traj, k, 0.75, window="none"))

    def test_branch_metadata_recorded(self, family):
        rng = np.random.default_rng(7)
        traj = family.modulated(rng, 2, 0.75, 4, cone_axis=0)
        rep = zk_upper(traj, 2, 0.75, window="none")
        assert rep.metadata["winner"] in ("all_x", "cone_split")
        assert "cone_split" in rep.metadata["branch_values"]


class TestFSigma:
    def test_zero(self, family):
        traj = Trajectory(family.grid, family.t0, family.dt,
                          np.zeros((family.num_frames,) + family.grid.shape, complex))
        assert f_sigma_norm(traj, 0.25, 0.75, window="none") == 0.0

    def test_single_shell_weighting(self, family):
        traj, k, _ = family.draw(0, 0.75, seed=3)
        sigma = 0.25
        fs = f_sigma_norm(traj, sigma, 0.75, window="none")
        # single-shell data: dominated by the 2^{k sigma} Z_k term of its shell,
        # with neighbor shells contributing through the bump overlap
        S = spacetime_dft(traj, window="none")
        from fslab.norms import _zk_from_spectrum
        g = family.grid
        atlas = axis_cone_atlas(2)
        total = 0.0
        for kk in (k - 1, k, k + 1):
            mult = bumps.phi_shell(g.freq_norm / 2.0**kk)
            Sk = SpacetimeSpectrum(g, S.t0, S.dt, S.window, mult[None] * S.values)
            zk, _ = _zk_from_spectrum(Sk, kk, 0.75, atlas)
            total += (2.0 ** (kk * sigma) * zk) ** 2
        assert fs == pytest.approx(np.sqrt(total), rel=1e-10)

    def test_two_shells_pythagoras(self):
        # shells far enough apart that no dyadic window sees both data sets
        fam = InputFamily(n=2, m=16, num_frames=32, shells=(1, 4))
        rng = np.random.default_rng(4)
        t1 = fam.free(rng, 1, 0.75)
        t2 = fam.free(rng, 4, 0.75)
        both = Trajectory(fam.grid, fam.t0, fam.dt, t1.values + t2.values)
        sigma = 0.25
        a = f_sigma_norm(t1, sigma, 0.75, window="none")
        b = f_sigma_norm(t2, sigma, 0.75, window="none")
        c = f_sigma_norm(both, sigma, 0.75, window="none")
        assert c == pytest.approx(np.sqrt(a**2 + b**2), rel=1e-10)

    def test_monotone_in_sigma_for_high_frequency(self, family):
        traj, k, _ = family.draw(3, 0.75, seed=6)  # k >= 1 shells
        values = [f_sigma_norm(traj, sig, 0.75, window="none")
                  for sig in (0.0, 0.5, 1.0)]
        assert values[0] < values[1] < values[2]

    def test_homogeneity(self, family, rng):
        traj, k, _ = family.draw(1, 0.75, seed=8)
        lam = 2.0 + rng.random()
        scaled = Trajectory(family.grid, family.t0, family.dt, lam * traj.values)
        for fn in (lambda u: xk_norm(u, k, 0.75, window="none"),
                   lambda u: f_sigma_norm(u, 0.25, 0.75, window="none"),
                   lambda u: zk_upper(u, k, 0.75, window="none").value,
                   lambda u: mixed_norm(u, MixedNormSpec(0, 1, 2))):
            assert fn(scaled) == pytest.approx(lam * fn(traj), rel=1e-9)

    def test_triangle_inequality(self, family):
        a, k, _ = family.draw(0, 0.75, seed=21)
        b, _, _ = family.draw(3, 0.75, seed=22)
        both = Trajectory(family.grid, family.t0, family.dt, a.values + b.values)
        for fn in (lambda u: xk_norm(u, k, 0.75, window="none"),
                   lambda u: f_sigma_norm(u, 0.25, 0.75, window="none"),
                   lambda u: mixed_norm(u, MixedNormSpec(0, 1, 2)),
                   lambda u: mixed_norm(u, MixedNormSpec(1, 2, np.inf))):
            assert fn(both) <= fn(a) + fn(b) + 1e-10


class TestNSigma:
    def test_zero(self, family):
        traj = Trajectory(family.grid, family.t0, family.dt,
                          np.zeros((family.num_frames,) + family.grid.shape, complex))
        assert n_sigma_norm(traj, 0.25, 0.75, window="none") == 0.0

    def test_inverse_of_forward(self, family):
        traj, k, _ = family.draw(0, 0.75, seed=5)
        s = 0.75
        S = spacetime_dft(traj, window="none")
        forced = spacetime_idft(SpacetimeSpectrum(
            S.grid, S.t0, S.dt, S.window,
            (-modulation_offset(S, s) + 1j) * S.values))
        ns = n_sigma_norm(forced, 0.25, s, window="none")
        fs = f_sigma_norm(traj, 0.25, s, window="none")
        assert ns == pytest.approx(fs, rel=1e-8)

    def test_single_mode_scaling(self, family):
        # one (xi0, tau0) mode: N-norm = F-norm value / |-(tau0+|xi0|^{2s})+i|
        g = family.grid
        T = family.num_frames
        s = 0.75
        S0 = np.zeros((T,) + g.shape, complex)
        it, ix = T // 2 + 3, (g.m // 2 + 2, g.m // 2)
        S0[(it,) + ix] = 1.0
        base = SpacetimeSpectrum(g, family.t0, family.dt, "none", S0)
        tau0 = base.taus[it]
        xi0n = g.freq_norm[ix]
        traj = spacetime_idft(base)
        ns = n_sigma_norm(traj, 0.25, s, window="none")
        fs = f_sigma_norm(traj, 0.25, s, window="none")
        denom = abs(-(tau0 + xi0n ** (2 * s)) + 1j)
        assert ns == pytest.approx(fs / denom, rel=1e-9)


class TestVerifyEstimate:
    @pytest.mark.parametrize("kind", ["embedding", "linfty_l2", "smoothing",
                                      "maximal", "ds_commute", "multiplier_bound",
                                      "homogeneous", "inhomogeneous"])
    def test_kinds_pass_smoke(self, kind):
        rep = verify_estimate(kind, draws=6, seed=0)
        assert np.isfinite(rep.cstar)
        assert rep.stable
        assert rep.passed

    def test_trilinear_smoke(self):
        rep = verify_estimate("trilinear", draws=4, seed=0)
        assert np.isfinite(rep.cstar)
        assert rep.passed

    def test_smoothing_conjugate_symmetry(self):
        # LHS(conj f, e) = LHS(f, -e): running both over +-e makes the two
        # C* values coincide up to roundoff
        rep = verify_estimate("smoothing", draws=8, seed=1)
        cf = rep.items["smoothing_f"]["cstar"]
        cc = rep.items["smoothing_conj"]["cstar"]
        assert cf == pytest.approx(cc, rel=1e-6)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            verify_estimate("bogus")

    def test_report_notes_dimension_caveat(self):
        rep = verify_estimate("linfty_l2", draws=4, seed=0)
        assert any("n >= 4" in note for note in rep.notes)

    def test_default_margin_valid_in_four_dimensions(self):
        # 0.5 is not below 1/sqrt(4) - 0.01; the default must derive from n
        family = InputFamily(n=4, m=8, shells=(1, 2))
        assert family.margin < 0.5
        rep = verify_estimate("linfty_l2", family, draws=1)
        assert np.isfinite(rep.cstar)
