import dataclasses
import warnings

import numpy as np
import pytest
import yaml

import fslab.solver
from fslab.solver import (
    DependenceProbe,
    NonlinearitySpec,
    NonlinearityTerm,
    PicardDivergenceError,
    SolveConfig,
    apply_nonlinearity,
    continuous_dependence_probe,
    default_nonlinearity,
    duhamel_map,
    gaussian_spectrum_data,
    load_config,
    picard_solve,
    residual_check,
)
from fslab.spectral import (
    DuhamelOperator,
    Field,
    Trajectory,
    dft_forward,
    free_evolution,
    make_grid,
)

from conftest import plane_wave


def oracle_linf_hdot_inner(u, sigma):
    """max over frames with |t| < 1 of the per-frame homogeneous seminorm, one
    centred transform per frame (the loop the batched apriori ratio replaced)."""
    g = u.grid
    best = 0.0
    for i in np.nonzero(np.abs(u.times) < 1.0)[0]:
        spec = np.fft.fftshift(np.fft.fftn(u.values[i])) * g.dx**g.n
        norm = g.freq_norm
        weight = np.zeros_like(norm)
        weight[norm > 0] = norm[norm > 0] ** (2.0 * sigma)
        best = max(best, float(np.sqrt(np.sum(weight * np.abs(spec) ** 2) / g.box_length**g.n)))
    return best


@pytest.fixture
def config():
    return SolveConfig(n=2, m=16, s=0.75, t_half=2.0, num_frames=32,
                       epsilon=1e-2, tolerance=1e-10)


@pytest.fixture
def small_data(config):
    return gaussian_spectrum_data(config.grid, config.sigma, config.epsilon, seed=1)


class TestNonlinearity:
    def test_zero_input(self, config):
        g = config.grid
        out = apply_nonlinearity(Field(g, np.zeros(g.shape)),
                                 default_nonlinearity(config.s), config.s)
        assert np.abs(out.values).max() == 0.0

    def test_cubic_scaling(self, config, rng):
        g = config.grid
        u = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        spec = default_nonlinearity(config.s)
        lam = 1.7
        a = apply_nonlinearity(Field(g, lam * u.values), spec, config.s)
        b = apply_nonlinearity(u, spec, config.s)
        assert np.abs(a.values - lam**3 * b.values).max() < 1e-10 * np.abs(a.values).max()

    def test_plane_wave_killed_by_zero_mode_policy(self, config):
        # |u|^2 of a single plane wave is constant; zero_out annihilates it
        g = config.grid
        out = apply_nonlinearity(plane_wave(g, (2, 1)),
                                 default_nonlinearity(config.s), config.s)
        assert np.abs(out.values).max() < 1e-12

    def test_reject_policy_error(self, config):
        g = config.grid
        with pytest.raises(ValueError, match="mean"):
            apply_nonlinearity(plane_wave(g, (2, 1)), default_nonlinearity(config.s),
                               config.s, zero_mode_policy="reject")

    def test_beta_range_enforced(self):
        s = 0.75
        with pytest.raises(ValueError):
            NonlinearitySpec((NonlinearityTerm(beta=2 * s - 1 + 0.2),)).validate(s)
        with pytest.raises(ValueError):
            NonlinearitySpec((NonlinearityTerm(beta=-(2 * s - 1) / 2 - 0.1),)).validate(s)

    def test_pattern_validated(self):
        with pytest.raises(ValueError):
            NonlinearityTerm(beta=0.5, pattern=("plain", "weird", "plain"))


class TestDuhamel:
    def test_empty_nonlinearity_gives_free_evolution(self, config, small_data):
        v = free_evolution(small_data, -config.t_half, config.dt,
                           config.num_frames, config.s)
        out = duhamel_map(v, small_data, NonlinearitySpec(()), config)
        assert np.abs(out.values - v.values).max() == 0.0

    def test_zero_everything(self, config):
        g = config.grid
        zero = Field(g, np.zeros(g.shape))
        v = Trajectory(g, -config.t_half, config.dt,
                       np.zeros((config.num_frames,) + g.shape, complex))
        out = duhamel_map(v, zero, default_nonlinearity(config.s), config)
        assert np.abs(out.values).max() == 0.0

    def test_t0_frame_matches_data_in_spectrum(self, config, small_data):
        v = free_evolution(small_data, -config.t_half, config.dt,
                           config.num_frames, config.s)
        out = duhamel_map(v, small_data, default_nonlinearity(config.s), config)
        i0 = config.num_frames // 2
        assert abs(out.times[i0]) < 1e-12
        lhs = dft_forward(Field(config.grid, out.values[i0])).values
        rhs = dft_forward(small_data).values
        assert np.abs(lhs - rhs).max() < 1e-13 * np.abs(rhs).max()

    def test_fine_quadrature_oracle(self):
        # one Picard step vs the same interaction-picture integral at dt/16,
        # on a four-mode truncation
        s = 0.75
        g = make_grid(1, 8, 2 * np.pi)
        x = g.coords_1d()
        u0 = Field(g, (0.1 * np.exp(1j * x) + 0.05 * np.exp(-1j * x)
                       + 0.03 * np.exp(2j * x) + 0.02 * np.exp(-2j * x)))
        spec = default_nonlinearity(s)
        coarse = SolveConfig(n=1, m=8, s=s, t_half=2.0, num_frames=32,
                             quadrature="trapezoid")
        fine = SolveConfig(n=1, m=8, s=s, t_half=2.0, num_frames=512,
                           quadrature="trapezoid")
        vc = free_evolution(u0, -2.0, coarse.dt, 32, s)
        vf = free_evolution(u0, -2.0, fine.dt, 512, s)
        out_c = duhamel_map(vc, u0, spec, coarse)
        out_f = duhamel_map(vf, u0, spec, fine)
        sub = out_f.values[:: 512 // 32]
        scale = np.abs(out_f.values).max()
        assert np.abs(out_c.values - sub).max() < 1e-4 * scale



def _assert_solve_matches_duhamel_map(res, u0, spec, cfg):
    """The solve's iteration spelled with the public map stops at the same step.

    The map rebuilds the operator and the free evolution on every call, and
    transforms its physical input where the solve reads D^beta u from the
    spectrum it carries, so the two agree to rounding, not bit for bit.
    """
    current = free_evolution(u0, -cfg.t_half, cfg.dt, cfg.num_frames, cfg.s)
    ref = u0.l2_norm()
    for iterations in range(1, cfg.max_iterations + 1):
        nxt = duhamel_map(current, u0, spec, cfg)
        diff = Trajectory(cfg.grid, current.t0, cfg.dt, nxt.values - current.values)
        current = nxt
        if diff.linf_l2() <= cfg.tolerance * ref:
            break
    assert iterations == res.iterations
    scale = np.max(np.abs(current.values))
    assert np.max(np.abs(res.trajectory.values - current.values)) <= 1e-14 * scale
    assert abs(res.duhamel_residual - residual_check(current, u0, spec, cfg)) <= 1e-14

class TestPicard:
    def test_zero_data_one_iteration(self, config):
        g = config.grid
        res = picard_solve(Field(g, np.zeros(g.shape)),
                           default_nonlinearity(config.s), config)
        assert res.converged
        assert res.iterations == 1
        assert np.abs(res.trajectory.values).max() == 0.0

    def test_empty_nonlinearity_one_iteration(self, config, small_data):
        res = picard_solve(small_data, NonlinearitySpec(()), config)
        assert res.converged
        assert res.iterations == 1
        free = free_evolution(small_data, -config.t_half, config.dt,
                              config.num_frames, config.s)
        assert np.abs(res.trajectory.values - free.values).max() == 0.0

    def test_small_data_contraction(self, config, small_data):
        res = picard_solve(small_data, default_nonlinearity(config.s), config)
        assert res.converged
        assert res.smallness_ok
        assert all(r < 0.5 for r in res.contraction_ratios)
        assert res.duhamel_residual < 10 * config.tolerance
        assert np.isfinite(res.apriori_ratio)

    @pytest.mark.parametrize("n, m", [(2, 16), (3, 8)])
    def test_apriori_ratio_matches_per_frame_oracle(self, n, m):
        cfg = SolveConfig(n=n, m=m, s=0.75, t_half=2.0, num_frames=32, epsilon=0.5,
                          tolerance=1e-10)
        u0 = gaussian_spectrum_data(cfg.grid, cfg.sigma, 0.5, seed=4)
        res = picard_solve(u0, default_nonlinearity(cfg.s), cfg, fsigma_diffs=False)
        data = Trajectory(cfg.grid, 0.0, 1.0, u0.values[None, ...])
        want = (oracle_linf_hdot_inner(res.trajectory, cfg.sigma)
                / oracle_linf_hdot_inner(data, cfg.sigma))
        assert res.apriori_ratio == pytest.approx(want, rel=1e-12)
        assert res.data_hdot == pytest.approx(oracle_linf_hdot_inner(data, cfg.sigma),
                                              rel=1e-12)

    def test_free_evolution_built_once_and_loop_matches_duhamel_map(self, monkeypatch):
        cfg = SolveConfig(n=2, m=16, s=0.75, num_frames=32, epsilon=0.7, tolerance=1e-12,
                          max_iterations=40, quadrature="simpson")
        u0 = gaussian_spectrum_data(cfg.grid, cfg.sigma, 0.6, seed=2)
        spec = default_nonlinearity(cfg.s)
        built, freed = [], []

        class Counted(DuhamelOperator):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

            def free(self, u0):
                freed.append(u0)
                return super().free(u0)

        monkeypatch.setattr(fslab.solver, "DuhamelOperator", Counted)
        res = picard_solve(u0, spec, cfg, fsigma_diffs=False)
        # one time operator for every step and the final residual, and one
        # free evolution from it
        assert len(built) == 1 and len(freed) == 1
        monkeypatch.undo()
        assert res.iterations > 5
        _assert_solve_matches_duhamel_map(res, u0, spec, cfg)

    def test_multi_term_solve_matches_duhamel_map(self):
        # the first term is formed in the solve's arrays and the others are
        # added to it; a conjugate u3 takes its own forward transform
        cfg = SolveConfig(n=2, m=16, s=0.75, num_frames=32, epsilon=0.7, tolerance=1e-12,
                          max_iterations=40, quadrature="simpson")
        u0 = gaussian_spectrum_data(cfg.grid, cfg.sigma, 0.6, seed=2)
        spec = NonlinearitySpec((
            NonlinearityTerm(0.25, ("conjugate", "plain", "conjugate"), 0.5 - 0.25j),
            NonlinearityTerm(0.5),
            NonlinearityTerm(-0.25, ("plain", "plain", "conjugate"), 0.3),
        ))
        res = picard_solve(u0, spec, cfg, fsigma_diffs=False)
        assert res.converged and res.iterations > 3
        _assert_solve_matches_duhamel_map(res, u0, spec, cfg)

    def test_log_linear_contraction_tail(self):
        # larger data gives a visible geometric tail before hitting tolerance
        cfg = SolveConfig(n=2, m=16, s=0.75, num_frames=32, epsilon=0.7,
                          tolerance=1e-12, max_iterations=40)
        u0 = gaussian_spectrum_data(cfg.grid, cfg.sigma, 0.6, seed=2)
        res = picard_solve(u0, default_nonlinearity(cfg.s), cfg,
                           fsigma_diffs=False)
        diffs = np.asarray(res.diff_linf_l2)
        tail = diffs[(diffs > 1e-13) & (diffs < diffs[0])]
        assert tail.size >= 4
        m = np.arange(tail.size)
        corr = np.corrcoef(m, np.log(tail))[0, 1]
        assert corr <= -0.95

    def test_divergence_raises(self):
        cfg = SolveConfig(n=2, m=16, s=0.75, num_frames=32, epsilon=50.0,
                          max_iterations=30)
        u0 = gaussian_spectrum_data(cfg.grid, cfg.sigma, 50.0, seed=3)
        with pytest.raises(PicardDivergenceError) as exc:
            picard_solve(u0, default_nonlinearity(cfg.s), cfg, fsigma_diffs=False)
        assert exc.value.result is not None
        assert not exc.value.result.converged

    def test_overflow_raises_before_any_warning(self):
        # the iterates grow like 1e7, 1e20, 1e60, 1e180: the fourth one's
        # distance overflows, so it is rejected before the F^sigma diagnostic
        cfg = SolveConfig(n=2, m=16, s=0.75, num_frames=32, epsilon=1000.0)
        u0 = gaussian_spectrum_data(cfg.grid, cfg.sigma, cfg.epsilon, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PicardDivergenceError, match="iterate 4 is not finite") as exc:
                picard_solve(u0, default_nonlinearity(cfg.s), cfg)
        partial = exc.value.result
        assert partial.iterations == 4
        assert len(partial.diff_linf_l2) == len(partial.diff_fsigma) == 3
        assert np.all(np.isfinite(partial.trajectory.values))
        # the trace holds the overflowing iterate too, without a diagnostic
        assert [entry["finite"] for entry in partial.trace] == [True, True, True, False]
        assert [entry["diff_linf_l2"] for entry in partial.trace[:3]] == partial.diff_linf_l2
        assert all(entry["fsigma_s"] > 0.0 for entry in partial.trace[:3])
        assert partial.trace[3]["fsigma_s"] is None
        assert partial.summary()["trace"] is partial.trace

    def test_trace_records_each_iteration(self, config, small_data):
        spec = default_nonlinearity(config.s)
        for fsigma_diffs in (True, False):
            res = picard_solve(small_data, spec, config, fsigma_diffs=fsigma_diffs)
            assert len(res.trace) == res.iterations
            ratios = [entry["contraction_ratio"] for entry in res.trace]
            assert ratios[0] is None and ratios[1:] == res.contraction_ratios
            for it, entry in enumerate(res.trace, start=1):
                assert entry["iteration"] == it and entry["finite"] is True
                assert entry["diff_linf_l2"] == res.diff_linf_l2[it - 1]
                assert entry["step_s"] > 0.0
                assert (entry["fsigma_s"] > 0.0) if fsigma_diffs else entry["fsigma_s"] is None

    def test_gauge_covariance(self, config, small_data):
        spec = default_nonlinearity(config.s)
        theta = 1.234
        a = picard_solve(small_data, spec, config, fsigma_diffs=False)
        rotated = Field(config.grid, np.exp(1j * theta) * small_data.values)
        b = picard_solve(rotated, spec, config, fsigma_diffs=False)
        err = np.abs(b.trajectory.values - np.exp(1j * theta) * a.trajectory.values)
        assert err.max() < 1e-8 * np.abs(a.trajectory.values).max()

    def test_l2_conservation_free_case(self, config, small_data):
        res = picard_solve(small_data, NonlinearitySpec(()), config)
        norms = res.trajectory.l2_norms()
        assert np.abs(norms - small_data.l2_norm()).max() < 1e-13

    def test_quadrature_order(self, config, small_data):
        spec = default_nonlinearity(config.s)
        sols = {}
        for T in (32, 64, 128):
            cfg = SolveConfig(n=2, m=16, s=0.75, num_frames=T,
                              quadrature="trapezoid", tolerance=1e-12)
            sols[T] = picard_solve(small_data, spec, cfg, fsigma_diffs=False)
        e1 = np.abs(sols[32].trajectory.values - sols[64].trajectory.values[::2]).max()
        e2 = np.abs(sols[64].trajectory.values - sols[128].trajectory.values[::2]).max()
        # second-order rule: halving dt cuts the defect by ~4 (allow [2.5, 6.5])
        assert 2.5 <= e1 / e2 <= 6.5


class TestResidual:
    def test_free_evolution_exact(self, config, small_data):
        free = free_evolution(small_data, -config.t_half, config.dt,
                              config.num_frames, config.s)
        r = residual_check(free, small_data, NonlinearitySpec(()), config)
        assert r < 1e-10

    def test_perturbation_sensitivity(self, config, small_data, rng):
        spec = default_nonlinearity(config.s)
        res = picard_solve(small_data, spec, config, fsigma_diffs=False)
        noisy = Trajectory(config.grid, res.trajectory.t0, res.trajectory.dt,
                           res.trajectory.values
                           + 1e-3 * small_data.l2_norm() / np.sqrt(config.grid.npoints)
                           * (rng.standard_normal(res.trajectory.values.shape)))
        r = residual_check(noisy, small_data, spec, config)
        assert r >= 1e-4


class TestContinuousDependence:
    def test_identical_data_flagged(self, config, small_data):
        probe = continuous_dependence_probe(small_data, small_data,
                                            default_nonlinearity(config.s), config)
        assert isinstance(probe, DependenceProbe)
        assert probe.identical_data
        assert probe.ratio_l2 == 0.0

    def test_two_delta_linear_regime(self, config, small_data):
        spec = default_nonlinearity(config.s)
        pert = gaussian_spectrum_data(config.grid, config.sigma, 1.0, seed=9)
        ratios = []
        for delta in (1e-4, 1e-5):
            v0 = Field(config.grid, small_data.values + delta * pert.values)
            probe = continuous_dependence_probe(small_data, v0, spec, config)
            ratios.append(probe.ratio_l2)
        assert ratios[0] == pytest.approx(ratios[1], rel=0.2)

    def test_ratio_hdot_matches_per_frame_oracle(self, config, small_data):
        spec = default_nonlinearity(config.s)
        pert = gaussian_spectrum_data(config.grid, config.sigma, 1.0, seed=9)
        v0 = Field(config.grid, small_data.values + 1e-4 * pert.values)
        probe = continuous_dependence_probe(small_data, v0, spec, config)
        ru = picard_solve(small_data, spec, config, fsigma_diffs=False)
        rv = picard_solve(v0, spec, config, fsigma_diffs=False)
        diff = Trajectory(config.grid, ru.trajectory.t0, ru.trajectory.dt,
                          ru.trajectory.values - rv.trajectory.values)
        delta = Trajectory(config.grid, 0.0, 1.0, (small_data.values - v0.values)[None, ...])
        want = oracle_linf_hdot_inner(diff, config.sigma) / oracle_linf_hdot_inner(
            delta, config.sigma)
        assert probe.ratio_hdot == pytest.approx(want, rel=1e-12)

    def test_doubled_data(self, config, small_data):
        spec = default_nonlinearity(config.s)
        with pytest.warns(UserWarning):
            probe = continuous_dependence_probe(
                small_data, Field(config.grid, 2.0 * small_data.values), spec, config)
        assert np.isfinite(probe.ratio_l2)
        assert np.isfinite(probe.ratio_hdot)


README_CONFIG = """
grid:      {n: 2, m: 32, box_length: 6.283185307179586}
time:      {t_half: 2.0, frames: 64}
equation:  {s: 0.75}
nonlinearity:
  terms:
    - beta: 0.5                      # in [-(2s-1)/2, 2s-1]
      pattern: [plain, conjugate, plain]
      coeff: [1.0, 0.0]
picard:    {max_iterations: 25, tolerance: 1.0e-10, quadrature: simpson,
            epsilon: 0.01, seed: 0, zero_mode_policy: zero_out}
initial_data: {kind: gaussian_spectrum, seed: 3}   # or {kind: file, path: u0.fslb}
output:    {directory: out}
"""


class TestConfigFile:
    @pytest.fixture(params=["CSafeLoader", "SafeLoader"])
    def yaml_loader(self, request, monkeypatch):
        """PyYAML as load_config sees it with libyaml (CSafeLoader) or
        without it (SafeLoader); yields that loader and the loaders used."""
        if request.param == "CSafeLoader":
            if not hasattr(yaml, "CSafeLoader"):
                pytest.skip("PyYAML built without libyaml")
        else:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        used = []
        load = yaml.load

        def spy(stream, Loader):
            used.append(Loader)
            return load(stream, Loader=Loader)

        monkeypatch.setattr(yaml, "load", spy)
        yield getattr(yaml, request.param), used

    def test_readme_config_loads_with_either_loader(self, tmp_path, yaml_loader):
        loader, used = yaml_loader
        path = tmp_path / "cfg.yaml"
        path.write_text(README_CONFIG)
        cfg, spec, extras = load_config(path)
        assert used == [loader]
        assert cfg == SolveConfig(n=2, m=32, box_length=6.283185307179586, s=0.75, t_half=2.0,
                                  num_frames=64, max_iterations=25, tolerance=1e-10,
                                  quadrature="simpson", epsilon=0.01, seed=0,
                                  zero_mode_policy="zero_out")
        assert spec == NonlinearitySpec(terms=(NonlinearityTerm(
            beta=0.5, pattern=("plain", "conjugate", "plain"), coeff=1.0 + 0.0j),))
        assert extras == {"output": {"directory": "out"},
                          "initial_data": {"kind": "gaussian_spectrum", "seed": 3}}

    def test_malformed_yaml_raises_with_either_loader(self, tmp_path, yaml_loader):
        loader, used = yaml_loader
        path = tmp_path / "broken.yaml"
        path.write_text("grid: {n: 2, m: 16\n")
        with pytest.raises(ValueError, match="^config is not valid YAML: "):
            load_config(path)
        assert used == [loader]

    def test_yaml_roundtrip(self, tmp_path):
        cfg_text = """
grid: {n: 2, m: 16, box_length: 6.283185307179586}
time: {t_half: 2.0, frames: 32}
equation: {s: 0.8}
nonlinearity:
  terms:
    - beta: 0.6
      pattern: [plain, conjugate, plain]
      coeff: [1.0, 0.0]
picard: {max_iterations: 12, tolerance: 1.0e-9, quadrature: trapezoid, epsilon: 0.02}
output: {directory: out}
"""
        path = tmp_path / "cfg.yaml"
        path.write_text(cfg_text)
        cfg, spec, extras = load_config(path)
        assert cfg.s == 0.8
        assert cfg.num_frames == 32
        assert cfg.quadrature == "trapezoid"
        assert spec.terms[0].beta == 0.6
        assert extras["output"]["directory"] == "out"

    def test_bad_beta_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("""
equation: {s: 0.75}
nonlinearity:
  terms:
    - beta: 0.9
""")
        with pytest.raises(ValueError):
            load_config(path)

    @pytest.mark.parametrize("text, expected", [
        ("", SolveConfig()),
        ("grid: {n: 3}\n", SolveConfig(n=3)),
    ])
    def test_missing_keys_take_the_solveconfig_defaults(self, tmp_path, text, expected):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        cfg, _, _ = load_config(path)
        for field in dataclasses.fields(SolveConfig):
            got, want = getattr(cfg, field.name), getattr(expected, field.name)
            assert (got, type(got)) == (want, type(want)), field.name

    def test_given_values_are_cast_to_the_field_types(self, tmp_path):
        # PyYAML reads 1e-9 (no dot) as a string and frames: 32.0 as a float
        path = tmp_path / "cfg.yaml"
        path.write_text("time: {frames: 32.0, t_half: 1}\npicard: {tolerance: 1e-9, seed: 7}\n")
        cfg, _, _ = load_config(path)
        assert (cfg.num_frames, cfg.t_half, cfg.tolerance, cfg.seed) == (32, 1.0, 1e-9, 7)
        assert (type(cfg.num_frames), type(cfg.t_half), type(cfg.tolerance)) == (int, float, float)
