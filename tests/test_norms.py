import numpy as np
import pytest

from fslab import bumps
from fslab.lp import build_cone_atlas, cone_cutoff_values, signed_axis
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

    def test_direction_is_one_signed_axis_rule(self):
        """An axis index out of range raises instead of transforming another
        array axis; the index and its unit vector give the same value."""
        fam = InputFamily(n=2, m=16, num_frames=32, shells=(2,))
        traj = fam.free(np.random.default_rng(4), 2, 0.75, cone_axis=1)
        for e in (-1, 2, np.int64(2)):
            with pytest.raises(ValueError, match=f"axis index {e} out of range for n = 2"):
                yk_norm(traj, 2, e, 0.75)
            with pytest.raises(ValueError, match="out of range for n = 2"):
                mixed_norm(traj, MixedNormSpec(e, 1, 2))
        by_index = yk_norm(traj, 2, 1, 0.75)
        assert np.isfinite(by_index) and by_index > 0.0
        assert yk_norm(traj, 2, (0, 1), 0.75) == by_index
        assert yk_norm(traj, 2, np.array([0.0, 2.5]), 0.75) == by_index
        assert signed_axis(np.array([0.0, -3.0, 0.0]), 3) == (1, -1.0)
        for e in ((1.0, 1.0), (1.0, 0.0, 0.0), (0.0, 0.0), (np.nan, 1.0)):
            with pytest.raises(ValueError, match="not a signed lattice axis"):
                signed_axis(e, 2)


class TestZk:
    def test_non_axis_atlas_raises_naming_the_direction(self, family):
        """A built atlas is a valid partition, but its caps off the axes admit
        no Y_k^e; the kernels refuse it instead of snapping it to an axis."""
        atlas = build_cone_atlas(2, 0.5)
        grid = family.grid
        assert np.allclose(atlas.multipliers(grid).sum(axis=0)[grid.freq_norm > 0], 1.0)
        traj, k, _ = family.draw(0, 0.75, seed=3)
        direction = r"direction \(0\.309\d*, 0\.951\d*\) is not a signed lattice axis"
        with pytest.raises(ValueError, match=direction):
            zk_upper(traj, k, 0.75, atlas=atlas)
        with pytest.raises(ValueError, match=direction):
            f_sigma_norm(traj, 0.25, 0.75, atlas=atlas)
        with pytest.raises(ValueError, match=direction):
            n_sigma_norm(traj, 0.25, 0.75, atlas=atlas)

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

    def test_dimension_caveat_names_the_family_dimension(self):
        family = InputFamily(n=4, m=8, shells=(1, 2))
        rep = verify_estimate("linfty_l2", family, draws=1)
        caveats = [note for note in rep.notes if "n >= 4" in note]
        assert caveats and all("{2,3}" not in note and "n = 4" in note for note in caveats)

    def test_default_margin_valid_in_four_dimensions(self):
        # 0.5 is not below 1/sqrt(4) - 0.01; the default must derive from n
        family = InputFamily(n=4, m=8, shells=(1, 2))
        assert family.margin < 0.5
        rep = verify_estimate("linfty_l2", family, draws=1)
        assert np.isfinite(rep.cstar)

    @pytest.mark.parametrize("kind", ["embedding", "smoothing", "homogeneous", "maximal",
                                      "inhomogeneous", "trilinear"])
    def test_four_dimensional_families(self, kind):
        # the dimension the source theorems assume; linfty_l2 is the test above
        family = InputFamily(n=4, m=8, num_frames=32, shells=(1, 2))
        rep = verify_estimate(kind, family, draws=1)
        assert np.isfinite(rep.cstar)

    def test_maximal_flags_one_point_boxes_in_notes(self):
        # box side 2^{k1} not above the lattice spacing: every box holds one point
        family = InputFamily(n=3, m=8, num_frames=32, shells=(1, 2))
        rep = verify_estimate("maximal", family, draws=1, seed=0)
        assert set(rep.items) == {"maximal_global", "maximal_box", "worst_ratio"}
        census = [note for note in rep.notes if note.startswith("maximal_box")]
        assert [note.split(":")[0] for note in census] == [
            "maximal_box k=1 k1=-1", "maximal_box k=1 k1=1",
            "maximal_box k=2 k1=0", "maximal_box k=2 k1=2"]
        assert census[0].startswith("maximal_box k=1 k1=-1: 349 of 349 boxes hold one "
                                    "lattice point (box side 0.5, lattice spacing 1)")
        assert "0 of 117 boxes" in census[1]


# Reports that no perfbench reference covers, recorded before the estimate kinds
# became generators: ds_commute and multiplier_bound, and the sigma kinds at
# sigma = (n - 2s)/2 + 0.25.  (kind, n, seed) -> (C*, {item: (min, max, cstar)})
# at s = 0.75, draws = 2, on the criterion-09 families.
ESTIMATE_PINS = {
    ("ds_commute", 2, 0): (1.099320523317399, {
        "ds_commute": (0.8574228108858848, 1.099320523317399, 1.1662857429309645),
        "worst_ratio": (0.8574228108858848, 1.099320523317399, 1.099320523317399),
    }),
    ("ds_commute", 2, 1): (1.110798877313217, {
        "ds_commute": (0.8415288983282357, 1.110798877313217, 1.1883133211308368),
        "worst_ratio": (0.8415288983282357, 1.110798877313217, 1.110798877313217),
    }),
    ("ds_commute", 3, 0): (1.0079886865547045, {
        "ds_commute": (0.9191499231362443, 1.0079886865547045, 1.0879617947286402),
        "worst_ratio": (0.9191499231362443, 1.0079886865547045, 1.0079886865547045),
    }),
    ("ds_commute", 3, 1): (1.0094363289215653, {
        "ds_commute": (0.9124510500207589, 1.0094363289215653, 1.0959492018528),
        "worst_ratio": (0.9124510500207589, 1.0094363289215653, 1.0094363289215653),
    }),
    ("multiplier_bound", 2, 0): (1.0, {
        "multiplier_bound": (0.08841178409958389, 1.0, 11.31070942843587),
        "worst_ratio": (0.08841178409958389, 1.0, 1.0),
    }),
    ("multiplier_bound", 2, 1): (1.0, {
        "multiplier_bound": (0.14183234154496555, 1.0, 7.050578091760312),
        "worst_ratio": (0.14183234154496555, 1.0, 1.0),
    }),
    ("multiplier_bound", 3, 0): (1.0, {
        "multiplier_bound": (0.03512354550386185, 1.0, 28.47092984647719),
        "worst_ratio": (0.03512354550386185, 1.0, 1.0),
    }),
    ("multiplier_bound", 3, 1): (1.0, {
        "multiplier_bound": (0.061411200471408196, 1.0, 16.28367451415609),
        "worst_ratio": (0.061411200471408196, 1.0, 1.0),
    }),
    ("homogeneous", 2, 0): (3.5220578866709213, {
        "homogeneous": (2.967640098628421, 3.5220578866709213, 3.5220578866709213),
        "worst_ratio": (2.967640098628421, 3.5220578866709213, 3.5220578866709213),
    }),
    ("homogeneous", 2, 1): (3.591235864227013, {
        "homogeneous": (3.044720164811215, 3.591235864227013, 3.591235864227013),
        "worst_ratio": (3.044720164811215, 3.591235864227013, 3.591235864227013),
    }),
    ("homogeneous", 3, 0): (3.5684384956181328, {
        "homogeneous": (2.552838676224235, 3.5684384956181328, 3.5684384956181328),
        "worst_ratio": (2.552838676224235, 3.5684384956181328, 3.5684384956181328),
    }),
    ("homogeneous", 3, 1): (3.5586758244978753, {
        "homogeneous": (2.563799025752657, 3.5586758244978753, 3.5586758244978753),
        "worst_ratio": (2.563799025752657, 3.5586758244978753, 3.5586758244978753),
    }),
    ("inhomogeneous", 2, 0): (2.8903762730288887, {
        "inhomogeneous": (1.4502682601603947, 2.8903762730288887, 2.8903762730288887),
        "worst_ratio": (1.4502682601603947, 2.8903762730288887, 2.8903762730288887),
    }),
    ("inhomogeneous", 2, 1): (2.8447744366871888, {
        "inhomogeneous": (1.455640592880379, 2.8447744366871888, 2.8447744366871888),
        "worst_ratio": (1.455640592880379, 2.8447744366871888, 2.8447744366871888),
    }),
    ("inhomogeneous", 3, 0): (1.7563672307110276, {
        "inhomogeneous": (1.1900978575092351, 1.7563672307110276, 1.7563672307110276),
        "worst_ratio": (1.1900978575092351, 1.7563672307110276, 1.7563672307110276),
    }),
    ("inhomogeneous", 3, 1): (1.7503688833625426, {
        "inhomogeneous": (1.1712579478904313, 1.7503688833625426, 1.7503688833625426),
        "worst_ratio": (1.1712579478904313, 1.7503688833625426, 1.7503688833625426),
    }),
    ("trilinear", 2, 0): (0.00022051230815642577, {
        "trilinear": (9.589237002013664e-05, 0.00022051230815642577, 10428.35837501991),
        "worst_ratio": (9.589237002013664e-05, 0.00022051230815642577, 0.00022051230815642577),
    }),
    ("trilinear", 2, 1): (0.00022527764924147026, {
        "trilinear": (9.549276297171558e-05, 0.00022527764924147026, 10471.997760670036),
        "worst_ratio": (9.549276297171558e-05, 0.00022527764924147026, 0.00022527764924147026),
    }),
    ("trilinear", 3, 0): (2.1392071500726615e-05, {
        "trilinear": (3.305037756202299e-06, 2.1392071500726615e-05, 302568.40428626887),
        "worst_ratio": (3.305037756202299e-06, 2.1392071500726615e-05, 2.1392071500726615e-05),
    }),
    ("trilinear", 3, 1): (2.0792874379960004e-05, {
        "trilinear": (3.3564771799262825e-06, 2.0792874379960004e-05, 297931.4163017676),
        "worst_ratio": (3.3564771799262825e-06, 2.0792874379960004e-05, 2.0792874379960004e-05),
    }),
}
PIN_SIGMA_KINDS = ("homogeneous", "inhomogeneous", "trilinear")


def _pin_family(kind: str, n: int) -> InputFamily:
    t_half = 2.0 if kind == "inhomogeneous" else 1.0
    if n == 2:
        return InputFamily(n=2, m=16, num_frames=32, t_half=t_half, shells=(1, 2, 3))
    return InputFamily(n=3, m=8, num_frames=32, t_half=t_half, shells=(1, 2))


@pytest.mark.parametrize("kind, n, seed", sorted(ESTIMATE_PINS))
def test_estimate_report_matches_pin(kind, n, seed):
    s = 0.75
    sigma = (n - 2.0 * s) / 2.0 + 0.25 if kind in PIN_SIGMA_KINDS else None
    rep = verify_estimate(kind, _pin_family(kind, n), s=s, draws=2, seed=seed, sigma=sigma)
    cstar, items = ESTIMATE_PINS[kind, n, seed]
    assert rep.skipped == 0
    assert rep.cstar == pytest.approx(cstar, rel=1e-12, abs=0.0)
    assert set(rep.items) == set(items)
    for name, pinned in items.items():
        got = tuple(rep.items[name][stat] for stat in ("min", "max", "cstar"))
        assert got == pytest.approx(pinned, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind", PIN_SIGMA_KINDS)
def test_report_records_the_sigma_it_ran_at(kind):
    s, n = 0.75, 2
    critical = (n - 2.0 * s) / 2.0
    family = _pin_family(kind, n)
    default = verify_estimate(kind, family, s=s, draws=1, seed=0)
    assert default.params["sigma"] is None
    assert default.params["sigma_used"] == critical
    explicit = verify_estimate(kind, family, s=s, draws=1, seed=0, sigma=critical)
    assert explicit.params["sigma"] == explicit.params["sigma_used"] == critical
    assert explicit.items == default.items and explicit.cstar == default.cstar
    off = verify_estimate(kind, family, s=s, draws=1, seed=0, sigma=critical + 0.25)
    assert off.params["sigma"] == off.params["sigma_used"] == critical + 0.25
