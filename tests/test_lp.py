import warnings

import numpy as np
import pytest

from fslab.bumps import chi_box, eta_bump, phi_shell
from fslab.lp import (
    ProjectionSpec,
    box_centers,
    build_cone_atlas,
    cone_cutoff_values,
    modulation_split,
    project,
)
from fslab.spectral import (
    Field,
    Trajectory,
    dft_forward,
    free_evolution,
    linear_propagate,
    make_grid,
    spacetime_dft,
)

from conftest import plane_wave, random_field


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

    def test_export_document(self):
        atlas = build_cone_atlas(2, 0.4)
        doc = atlas.export_document()
        assert doc["margin"] == 0.4
        assert len(doc["directions"]) == doc["num_directions"]

    def test_standalone_cutoff_support(self, grid2d):
        vals = cone_cutoff_values(grid2d, (1.0, 0.0), 0.5)
        norm = grid2d.freq_norm
        dots = grid2d.freq_component(0) * np.ones(grid2d.shape)
        nz = norm > 0
        outside = nz & (dots < 0.5 * norm)
        assert np.abs(vals[outside]).max() == 0.0
        assert vals[tuple([grid2d.m // 2] * 2)] == 0.0  # zero mode annihilated


class TestProject:
    def test_dyadic_plateau_passthrough(self, grid2d):
        # |xi0| = 3 = 1.5 * 2^1: phi(1.5) = 1 so Delta_1 leaves it unchanged
        pw = dft_forward(plane_wave(grid2d, (3, 0)))
        out = project(pw, ProjectionSpec(kind="dyadic", k=1))
        assert np.abs(out.values - pw.values).max() < 1e-12 * np.abs(pw.values).max()

    def test_dyadic_outside_support(self, grid2d):
        # |xi0| = 5 with k = -1: ratio 10 is far outside supp phi
        pw = dft_forward(plane_wave(grid2d, (5, 0)))
        out = project(pw, ProjectionSpec(kind="dyadic", k=-1))
        assert np.abs(out.values).max() == 0.0

    def test_box_partition(self, grid2d, rng):
        F = dft_forward(random_field(grid2d, rng))
        for k in (0, 1):
            total = np.zeros(grid2d.shape, complex)
            for l in box_centers(grid2d, k):
                total += project(F, ProjectionSpec(kind="box", k=k, l=l)).values
            assert np.abs(total - F.values).max() < 1e-10 * np.abs(F.values).max()

    def test_disjoint_shells_compose_to_zero(self, grid2d, rng):
        F = dft_forward(random_field(grid2d, rng))
        once = project(F, ProjectionSpec(kind="dyadic", k=0))
        twice = project(once, ProjectionSpec(kind="dyadic", k=2))
        assert np.abs(twice.values).max() < 1e-12 * np.abs(F.values).max()

    def test_modulation_needs_spectrum(self, grid2d, rng):
        F = dft_forward(random_field(grid2d, rng))
        with pytest.raises(TypeError):
            project(F, ProjectionSpec(kind="modulation", j=1, s=0.75))

    def test_linear_and_commutes_with_propagator(self, grid2d, rng):
        from fslab.spectral import dft_inverse
        f = random_field(grid2d, rng)
        s, t = 0.75, 0.4
        for spec in (ProjectionSpec(kind="dyadic", k=1),
                     ProjectionSpec(kind="box", k=1, l=(2.0, 0.0)),
                     ProjectionSpec(kind="cone", e=(1.0, 0.0), margin=0.5)):
            a = project(dft_forward(linear_propagate(f, t, s)), spec)
            projected = dft_inverse(project(dft_forward(f), spec))
            b = dft_forward(linear_propagate(projected, t, s))
            assert np.abs(a.values - b.values).max() < 1e-11 * max(np.abs(a.values).max(), 1e-12)

    def test_rotation_covariance_dyadic_but_not_box(self, grid2d, rng):
        # shell-limited data avoids the asymmetric Nyquist row
        f = random_field(grid2d, rng)
        Fs = project(dft_forward(f), ProjectionSpec(kind="dyadic", k=1))
        rotate = lambda arr: np.transpose(arr)[:, :]  # axis swap is lattice-preserving

        spec_d = ProjectionSpec(kind="dyadic", k=1)
        a = project(Field(grid2d, rotate(Fs.values)), spec_d).values
        b = rotate(project(Fs, spec_d).values)
        assert np.abs(a - b).max() < 1e-12 * np.abs(Fs.values).max()

        spec_b = ProjectionSpec(kind="box", k=0, l=(2.0, 0.0))
        a = project(Field(grid2d, rotate(Fs.values)), spec_b).values
        b = rotate(project(Fs, spec_b).values)
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
        w = window_weights(traj.times, 0.1)
        target = traj.values * w[:, None]
        total = sum(p.values for _, p in pieces) + rem.values
        assert np.abs(total - target).max() < 1e-8 * max(np.abs(target).max(), 1e-12)

    def test_remainder_warning_when_truncated(self, grid1d, rng):
        # static data at high modulation: forcing j_max = 0 leaves energy
        vals = np.repeat(random_field(grid1d, rng).values[None, :], 32, axis=0)
        traj = Trajectory(grid1d, -1.0, 2.0 / 32, vals)
        with pytest.warns(UserWarning, match="remainder"):
            modulation_split(traj, 0.75, j_max=0)
