"""The table-driven X_k / Y_k^e / Z_k / F^sigma kernels against their oracles.

The oracles below are the direct implementations the fast kernels replaced:
X_k rebuilds every modulation shell Q_j over the whole (tau, xi) array,
Y_k^e inverts the full (n+1)-D transform before taking L^1_e L^2, the
cone multiplier rebuilds the whole partition to return one row, and the
maximal box sum takes every box through a space-time round trip.  Every fast
path must agree with them to 1e-12 relative, including on the inf returned
when the support gates fail.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fslab import bumps, spectral
from fslab.lp import (
    ConeAtlas,
    dyadic_shell,
    max_modulation_index,
    modulation_shell,
    modulation_weights,
    shell_table,
    signed_axis,
)
from fslab.norms import (
    SUPPORT_TOL,
    InputFamily,
    MixedNormSpec,
    _box_l2_linf_sum,
    _box_tiles,
    _kind_maximal,
    _lateral_l2_profile,
    _Reductions,
    _shell_range,
    _xk_from_spectrum,
    _yk_from_spectrum,
    _zk_from_spectrum,
    axis_cone_atlas,
    f_sigma_norm,
    mixed_norm,
    n_sigma_norm,
    xk_norm,
    yk_norm,
    zk_upper,
)
from fslab.spectral import (
    Grid,
    SpacetimeSpectrum,
    Trajectory,
    free_evolution,
    fractional_multiplier,
    modulation_offset,
    offset_lattice,
    spacetime_dft,
    spacetime_idft,
    spatial_spectrum,
    symbol_cache_info,
)
from fslab.solver import SolveConfig, default_nonlinearity, duhamel_map, gaussian_spectrum_data

REL = 1e-12

# ---------------------------------------------------------------------------
# oracles: the kernels as they were before the symbol tables


def oracle_multiplier(atlas: ConeAtlas, grid: Grid, index: int) -> np.ndarray:
    norm = grid.freq_norm
    flat = np.stack([grid.freq_component(a) * np.ones(grid.shape) for a in range(grid.n)],
                    axis=-1).reshape(-1, grid.n)
    nz = norm.reshape(-1) > 0
    omegas = flat[nz] / norm.reshape(-1)[nz, None]
    vals = atlas.partition_values(omegas)[index]
    out = np.zeros(grid.npoints)
    out[nz] = vals
    return out.reshape(grid.shape)


def _oracle_shell_indicator(grid, k):
    norm = grid.freq_norm
    return (norm >= 2.0 ** (k - 1)) & (norm <= 2.0 ** (k + 1))


def _oracle_mass_outside(S, indicator):
    total = float(np.sum(np.abs(S.values) ** 2))
    if total == 0.0:
        return 0.0
    out = float(np.sum(np.abs(S.values * (~indicator)[None, ...]) ** 2))
    return np.sqrt(out / total)


def oracle_xk(S, k, s):
    if _oracle_mass_outside(S, _oracle_shell_indicator(S.grid, k)) > SUPPORT_TOL:
        return float("inf")
    total_l2 = float(np.sum(np.abs(S.values) ** 2))
    if total_l2 == 0.0:
        return 0.0
    c = S.grid.box_length**S.grid.n * S.num_frames * S.dt
    r = modulation_offset(S, s)
    j_max = max_modulation_index(S.grid, S.dt, S.num_frames, s)
    value = 0.0
    mult_sum = np.zeros_like(r)
    for j in range(j_max + 1):
        mult = modulation_shell(r, j)
        mult_sum += mult
        piece = float(np.sqrt(np.sum((mult**2) * np.abs(S.values) ** 2) / c))
        value += 2.0 ** (j / 2.0) * piece
    rem = float(np.sqrt(np.sum(((1.0 - mult_sum) ** 2) * np.abs(S.values) ** 2) / c))
    value += 2.0 ** (j_max / 2.0) * rem
    return value


def oracle_yk(S, k, e, s, margin=0.5):
    g = S.grid
    if isinstance(e, (int, np.integer)):
        axis, sign = int(e), 1.0
    else:
        e_arr = np.asarray(e, dtype=float)
        axis, _ = signed_axis(e_arr, g.n)
        sign = float(np.sign(e_arr[axis]))
    if float(np.sum(np.abs(S.values) ** 2)) == 0.0:
        return 0.0
    dots = sign * g.freq_component(axis) * np.ones(g.shape)
    cone = (dots > 0) & (dots >= margin * 2.0 ** (k - 1))
    if _oracle_mass_outside(S, _oracle_shell_indicator(g, k) & cone) > SUPPORT_TOL:
        return float("inf")
    symbol = -modulation_offset(S, s) + 1j
    g_traj = spacetime_idft(SpacetimeSpectrum(g, S.t0, S.dt, S.window, symbol * S.values))
    return (2.0 ** (-k * (2.0 * s - 1.0) / 2.0)
            * mixed_norm(g_traj, MixedNormSpec(e_axis=axis, p=1, q=2)))


def oracle_zk(S, k, s, atlas):
    branches = {"all_x": oracle_xk(S, k, s)}
    meta = {"branch_values": branches, "cone_choices": None}
    total_mass = float(np.sum(np.abs(S.values) ** 2))
    if atlas is not None and total_mass > 0.0:
        cone_total = 0.0
        choices = []
        for i in range(atlas.num_directions):
            mult = oracle_multiplier(atlas, S.grid, i)
            Se = SpacetimeSpectrum(S.grid, S.t0, S.dt, S.window, mult[None, ...] * S.values)
            if float(np.sum(np.abs(Se.values) ** 2)) <= 1e-24 * total_mass:
                choices.append("empty")
                continue
            xe = oracle_xk(Se, k, s)
            e = atlas.directions[i]
            axis = int(np.argmax(np.abs(e)))
            sign = float(np.sign(e[axis]))
            ye = oracle_yk(Se, k, sign * np.eye(S.grid.n)[axis], s, margin=atlas.margin)
            choices.append("Y" if ye <= xe else "X")
            cone_total += min(xe, ye)
        branches["cone_split"] = cone_total
        meta["cone_choices"] = choices
    value = min(branches.values())
    meta["winner"] = min(branches, key=branches.get)
    return value, meta


def _oracle_shell_range(grid):
    xi_min = 2.0 * np.pi / grid.box_length
    xi_max = float(np.max(grid.freq_norm))
    return range(int(np.floor(np.log2(xi_min))) - 1, int(np.ceil(np.log2(xi_max))) + 2)


def oracle_fsigma_spectrum(S, sigma, s, atlas):
    g = S.grid
    total = 0.0
    for k in _oracle_shell_range(g):
        piece = bumps.phi_shell(g.freq_norm / 2.0**k)[None, ...] * S.values
        if not np.any(piece):
            continue
        zk, _ = oracle_zk(SpacetimeSpectrum(g, S.t0, S.dt, S.window, piece), k, s, atlas)
        total += (2.0 ** (k * sigma) * zk) ** 2
    return float(np.sqrt(total))


def oracle_nsigma(F, sigma, s, atlas, window):
    S = spacetime_dft(F, window=window)
    inv = S.values / (-modulation_offset(S, s) + 1j)
    return oracle_fsigma_spectrum(SpacetimeSpectrum(S.grid, S.t0, S.dt, S.window, inv),
                                  sigma, s, atlas)


def oracle_box_sum(traj, k1, axis, k=None):
    S = spacetime_dft(traj, window="none")
    g = traj.grid
    total = 0.0
    spec = MixedNormSpec(e_axis=axis, p=2, q=np.inf)
    scale = 2.0**k1
    ximax = float(np.max(np.abs(g.freq_1d)))
    lmax = int(np.floor((ximax + scale * 2.0 / 3.0) / scale))
    axis_vals = scale * np.arange(-lmax, lmax + 1)
    table = bumps.chi_box((g.freq_1d[None, :] - axis_vals[:, None]) / scale)
    box_radius = (2.0 / 3.0) * scale * np.sqrt(g.n)
    for idx in np.ndindex(*([axis_vals.size] * g.n)):
        center = axis_vals[list(idx)]
        if k is not None:
            cnorm = float(np.linalg.norm(center))
            if cnorm < 2.0 ** (k - 1) - box_radius or cnorm > 2.0 ** (k + 1) + box_radius:
                continue
        rows = [table[idx[a]] for a in range(g.n)]
        mult = rows[0]
        for r in rows[1:]:
            mult = np.multiply.outer(mult, r)
        if not np.any(mult):
            continue
        piece_vals = mult[None, ...] * S.values
        piece = spacetime_idft(SpacetimeSpectrum(S.grid, S.t0, S.dt, S.window, piece_vals))
        total += mixed_norm(piece, spec) ** 2
    return float(np.sqrt(total))


def assert_close(fast, oracle):
    if np.isinf(oracle):
        assert fast == oracle
    else:
        assert abs(fast - oracle) <= REL * abs(oracle), (fast, oracle)


# ---------------------------------------------------------------------------
# seeded inputs

dims = st.sampled_from([2, 3])
points = st.sampled_from([8, 16])
frames = st.sampled_from([16, 32])
orders = st.sampled_from([0.6, 0.75, 1.0])
seeds = st.integers(0, 2**16)
# 0: the data's own shell; the others put the gates off-shell (X_k, Y_k -> inf)
shell_offsets = st.sampled_from([0, 0, 1, -2])


def _draw(n, m, T, s, seed, cone):
    """A shell-localized trajectory: a plain family draw, or cone-localized."""
    fam = InputFamily(n=n, m=m, num_frames=T, shells=(1, 2))
    if cone:
        rng = np.random.default_rng(seed)
        k = fam.shells[seed % 2]
        return fam.free(rng, k, s, cone_axis=seed % n, cone_sign=(-1.0) ** seed), k
    traj, k, _ = fam.draw(seed % 6, s, seed)
    return traj, k


@given(n=dims, m=points, T=frames, s=orders, seed=seeds, dk=shell_offsets,
       cone=st.booleans(), window=st.sampled_from(["none", "taper"]))
def test_xk_matches_oracle(n, m, T, s, seed, dk, cone, window):
    traj, k = _draw(n, m, T, s, seed, cone)
    S = spacetime_dft(traj, window=window)
    assert_close(_xk_from_spectrum(S, k + dk, s), oracle_xk(S, k + dk, s))
    assert_close(xk_norm(traj, k + dk, s, window=window), oracle_xk(S, k + dk, s))


@given(n=dims, m=points, T=frames, s=orders, seed=seeds, dk=shell_offsets,
       sign=st.sampled_from([1.0, -1.0]), margin=st.sampled_from([0.3, 0.5]))
def test_yk_matches_oracle(n, m, T, s, seed, dk, sign, margin):
    traj, k = _draw(n, m, T, s, seed, cone=True)
    S = spacetime_dft(traj, window="none")
    axis = seed % n
    e = sign * np.eye(n)[axis]
    assert_close(_yk_from_spectrum(S, k + dk, e, s, margin=margin),
                 oracle_yk(S, k + dk, e, s, margin=margin))
    if sign > 0:
        assert_close(yk_norm(traj, k + dk, axis, s, cone_margin=margin, window="none"),
                     oracle_yk(S, k + dk, axis, s, margin=margin))


@given(n=dims, m=points, T=frames, seed=seeds, t0=st.sampled_from([-1.0, 0.0, 0.3]))
def test_lateral_profile_matches_full_inverse(n, m, T, seed, t0):
    """The L^1_e L^2 and L^inf_e L^2 norms (Y_k^e, smoothing) from one 1-D transform."""
    grid = Grid(n, m, 2.0 * np.pi)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((T,) + grid.shape) + 1j * rng.standard_normal((T,) + grid.shape)
    S = SpacetimeSpectrum(grid, t0, 2.0 / T, "none", vals)
    axis = seed % n
    profile = _lateral_l2_profile(vals, 1 + axis, grid, S.dt, T)
    traj = spacetime_idft(S)
    assert_close(float(np.sum(profile) * grid.dx), mixed_norm(traj, MixedNormSpec(axis, 1, 2)))
    assert_close(float(np.max(profile)), mixed_norm(traj, MixedNormSpec(axis, np.inf, 2)))


@given(n=dims, m=points, T=frames, s=orders, seed=seeds, dk=shell_offsets,
       cone=st.booleans())
def test_zk_matches_oracle_with_identical_metadata(n, m, T, s, seed, dk, cone):
    traj, k = _draw(n, m, T, s, seed, cone)
    atlas = axis_cone_atlas(n)
    report = zk_upper(traj, k + dk, s, atlas=atlas, window="none")
    value, meta = oracle_zk(spacetime_dft(traj, window="none"), k + dk, s, atlas)
    assert_close(report.value, value)
    assert report.metadata["winner"] == meta["winner"]
    assert report.metadata["cone_choices"] == meta["cone_choices"]
    assert report.metadata["branch_values"].keys() == meta["branch_values"].keys()
    for name, v in meta["branch_values"].items():
        assert_close(report.metadata["branch_values"][name], v)


@settings(max_examples=8)
@given(n=dims, m=points, T=frames, s=orders, seed=seeds, cone=st.booleans())
def test_fsigma_and_nsigma_match_oracle(n, m, T, s, seed, cone):
    traj, _ = _draw(n, m, T, s, seed, cone)
    sigma = (n - 2.0 * s) / 2.0
    atlas = axis_cone_atlas(n)
    assert_close(f_sigma_norm(traj, sigma, s),
                 oracle_fsigma_spectrum(spacetime_dft(traj, window="taper"), sigma, s, atlas))
    assert_close(n_sigma_norm(traj, sigma, s, window="none"),
                 oracle_nsigma(traj, sigma, s, atlas, "none"))


def _picard_difference(n, m, T):
    """The first Picard difference T(free) - free of a solve from full-band data."""
    cfg = SolveConfig(n=n, m=m, num_frames=T, t_half=2.0, epsilon=1.0)
    u0 = gaussian_spectrum_data(cfg.grid, cfg.sigma, cfg.epsilon, seed=5)
    free = free_evolution(u0, -cfg.t_half, cfg.dt, T, cfg.s)
    nxt = duhamel_map(free, u0, default_nonlinearity(cfg.s), cfg)
    return Trajectory(cfg.grid, free.t0, cfg.dt, nxt.values - free.values), cfg


def _assert_same_zk(fast, oracle):
    (value, meta), (oracle_value, oracle_meta) = fast, oracle
    assert_close(value, oracle_value)
    assert meta["winner"] == oracle_meta["winner"]
    assert meta["cone_choices"] == oracle_meta["cone_choices"]
    assert meta["branch_values"].keys() == oracle_meta["branch_values"].keys()
    for name, v in oracle_meta["branch_values"].items():
        assert_close(meta["branch_values"][name], v)


def _assert_every_shell_matches(S, s, atlas) -> int:
    """Z_k of every F^sigma shell phi_k S, from one _Reductions of S and from
    the direct kernel on phi_k S, against oracle_zk; returns the number of
    shells holding data."""
    g = S.grid
    reductions = _Reductions(S, s, with_symbol=atlas is not None)
    holding = 0
    for k in _shell_range(g):
        values = bumps.phi_shell(g.freq_norm / 2.0**k)[None, ...] * S.values
        piece = SpacetimeSpectrum(g, S.t0, S.dt, S.window, values)
        oracle = oracle_zk(piece, k, s, atlas)
        _assert_same_zk(reductions.zk(k, shell_table(g, k, atlas, localized=True)), oracle)
        _assert_same_zk(_zk_from_spectrum(piece, k, s, atlas), oracle)
        holding += bool(np.any(values))
    return holding


@pytest.mark.parametrize("n, m, T", [(2, 16, 32), (3, 8, 16), (1, 16, 32), (4, 8, 8)])
def test_picard_difference_matches_oracle_on_every_shell(n, m, T):
    """A full-band Picard difference, the solver's F^sigma input, shell by
    shell (value, winner, cone choices) and summed.  n = 1 has no atlas, so
    only the X branch; n = 4 is the dimension the theorems assume."""
    diff, cfg = _picard_difference(n, m, T)
    atlas = axis_cone_atlas(n) if n >= 2 else None
    for window in ("taper", "none"):
        S = spacetime_dft(diff, window=window)
        assert _assert_every_shell_matches(S, cfg.s, atlas) >= 3
        assert_close(f_sigma_norm(diff, cfg.sigma, cfg.s, window=window),
                     oracle_fsigma_spectrum(S, cfg.sigma, cfg.s, atlas))
    assert_close(n_sigma_norm(diff, cfg.sigma, cfg.s, window="none"),
                 oracle_nsigma(diff, cfg.sigma, cfg.s, atlas, "none"))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zero_spectrum_matches_oracle(n):
    grid = Grid(n, 8, 2.0 * np.pi)
    zero = Trajectory(grid, -1.0, 0.125, np.zeros((16,) + grid.shape, complex))
    atlas = axis_cone_atlas(n) if n >= 2 else None
    S = spacetime_dft(zero, window="none")
    assert _assert_every_shell_matches(S, 0.75, atlas) == 0
    for k in (0, 1, 2):
        _assert_same_zk(_zk_from_spectrum(S, k, 0.75, atlas), oracle_zk(S, k, 0.75, atlas))
        assert _xk_from_spectrum(S, k, 0.75) == 0.0 == oracle_xk(S, k, 0.75)
    assert f_sigma_norm(zero, 0.25, 0.75, window="none") == 0.0
    assert n_sigma_norm(zero, 0.25, 0.75, window="none") == 0.0


def test_failed_support_gates_match_oracle():
    """Shell-2 data against the neighbouring shells fails the X and Y gates
    (inf in every branch); an atlas whose gate margin lies above its caps'
    support fails the Y gate of a cone whose X gate holds."""
    fam = InputFamily(n=2, m=16, num_frames=32, shells=(2,))
    S = spacetime_dft(fam.free(np.random.default_rng(8), 2, 0.75), window="none")
    atlas = axis_cone_atlas(2)
    for k in (0, 1, 3, 4):
        fast = _zk_from_spectrum(S, k, 0.75, atlas)
        _assert_same_zk(fast, oracle_zk(S, k, 0.75, atlas))
        assert fast[0] == np.inf and fast[1]["winner"] == "all_x"
    wide = ConeAtlas(n=2, margin=0.6, directions=atlas.directions,
                     plateau_cos=atlas.plateau_cos, support_cos=0.1)
    piece = SpacetimeSpectrum(S.grid, S.t0, S.dt, S.window,
                              oracle_multiplier(wide, S.grid, 1)[None, ...] * S.values)
    assert oracle_yk(piece, 2, wide.directions[1], 0.75, margin=0.6) == np.inf
    assert np.isfinite(oracle_xk(piece, 2, 0.75))
    fast = _zk_from_spectrum(S, 2, 0.75, wide)
    _assert_same_zk(fast, oracle_zk(S, 2, 0.75, wide))
    assert np.isfinite(fast[1]["branch_values"]["cone_split"])
    assert fast[1]["cone_choices"][1] == "X"


def test_fsigma_and_nsigma_do_not_depend_on_the_symbol_cache(monkeypatch):
    """Bit for bit the same with every table rebuilt on each fetch (a cache
    smaller than one shell table) as from a warm cache; from a cold cache of
    the default budget, each table is built once per call."""
    diff, cfg = _picard_difference(2, 16, 32)
    args = (diff, cfg.sigma, cfg.s)
    warm = (f_sigma_norm(*args), n_sigma_norm(*args))
    assert (f_sigma_norm(*args), n_sigma_norm(*args)) == warm
    tables = [size for key, size in symbol_cache_info()["entries"].items()
              if key[:2] == ("shell_table", diff.grid) and size > 0]
    budget = spectral._SYMBOLS.max_bytes
    tiny = spectral._SymbolCache(max_bytes=min(tables) - 1)
    monkeypatch.setattr(spectral, "_SYMBOLS", tiny)
    assert (f_sigma_norm(*args), n_sigma_norm(*args)) == warm
    assert tiny.info()["bytes"] < min(tables)
    monkeypatch.setattr(spectral, "_SYMBOLS", spectral._SymbolCache(max_bytes=budget))
    for fn, value in zip((f_sigma_norm, n_sigma_norm), warm):
        before = symbol_cache_info()
        assert fn(*args) == value
        after = symbol_cache_info()
        assert after["misses"] - before["misses"] == len(after["entries"]) - len(before["entries"])
    assert any(key[0] == "shell_table" for key in after["entries"])


@pytest.mark.parametrize("n, m", [(2, 16), (3, 8), (1, 16)])
def test_shell_tables_cover_each_point_at_most_twice(n, m):
    grid = Grid(n, m, 2.0 * np.pi)
    atlas = axis_cone_atlas(n) if n >= 2 else None
    count = np.zeros(grid.npoints, dtype=int)
    for k in _shell_range(grid):
        table = shell_table(grid, k, atlas, localized=True)
        bump = dyadic_shell(grid, k).ravel()
        assert np.array_equal(table.index, np.flatnonzero(bump))
        count[table.index] += 1
        thetas = (np.zeros((0, grid.npoints)) if atlas is None
                  else atlas.multipliers(grid).reshape(atlas.num_directions, -1))
        assert np.array_equal(table.amplitude, bump[table.index] * thetas[:, table.index])
        assert table.squares.shape == (1 + len(table.axes), table.index.size)
        assert table.off_gate.shape == table.squares.shape
        assert table.off_gate.dtype == bool
    assert count.max() <= 2


@pytest.mark.parametrize("n, m", [(2, 16), (3, 8), (1, 16)])
def test_whole_lattice_tables_cache_only_their_gates(n, m, monkeypatch):
    """The direct Z_k / X_k tables read theta_e from the atlas table and
    cache one boolean gate row per branch and shell, nothing per point."""
    monkeypatch.setattr(spectral, "_SYMBOLS",
                        spectral._SymbolCache(max_bytes=spectral._SYMBOLS.max_bytes))
    grid = Grid(n, m, 2.0 * np.pi)
    atlas = axis_cone_atlas(n) if n >= 2 else None
    for k in _shell_range(grid):
        before = symbol_cache_info()["entries"]
        table = shell_table(grid, k, atlas, localized=False)
        assert table.index == slice(None) and table.lines is None
        if atlas is not None:
            assert np.shares_memory(table.amplitude, atlas.multipliers(grid))
        new = {key: size for key, size in symbol_cache_info()["entries"].items()
               if key not in before and key[0] != "cone_atlas"}
        assert list(new.values()) == [table.off_gate.nbytes]
        assert table.off_gate.shape == (1 + len(table.axes), grid.npoints)


def _box_sum(traj, k1, axis, k=None):
    return _box_l2_linf_sum(spatial_spectrum(traj.values, traj.grid), traj.grid, k1, axis, k=k)


def _conjugate(traj):
    return Trajectory(traj.grid, traj.t0, traj.dt, np.conj(traj.values))


@pytest.mark.parametrize("n, m, shells", [(2, 16, (1, 2, 3)), (3, 8, (1, 2)), (4, 8, (1, 2))])
@pytest.mark.parametrize("dk1", [-2, 0])
@pytest.mark.parametrize("conj", [False, True], ids=["f", "conj_f"])
def test_box_sum_matches_space_time_oracle(n, m, shells, dk1, conj):
    """The maximal kind's box sums on the criterion-09 families and at n = 4, every axis.

    The oracle takes one space-time round trip per box, and at n = 4 the
    sums at k1 = k-2 hold 2068 and 4095 boxes.  So the n = 4 family has 4
    frames, and a sum made only of one-point boxes, whose value cannot
    depend on the axis, is checked there on one axis per draw.
    """
    fam = InputFamily(n=n, m=m, num_frames=32 if n < 4 else 4, shells=shells)
    for index in range(2):  # a free and a modulated draw, on shells 1 and 2
        traj, k, _ = fam.draw(index, 0.75, seed=11)
        if conj:
            traj = _conjugate(traj)
        multi = _box_tiles(fam.grid, k + dk1, k)[4]
        axes = [index % n] if n == 4 and len(multi) == 0 else range(n)
        for axis in axes:
            assert_close(_box_sum(traj, k + dk1, axis, k=k),
                         oracle_box_sum(traj, k + dk1, axis, k=k))
    if dk1 == 0:
        # no shell given: every box that meets the lattice, none pruned
        assert_close(_box_sum(traj, k, 0), oracle_box_sum(traj, k, 0))


@pytest.mark.parametrize("n, m, spacing, k, k1, one_point", [
    (2, 16, 1.0, 1, -1, True), (2, 16, 1.0, 2, 0, True), (3, 8, 1.0, 1, -1, True),
    (3, 8, 1.0, 2, 0, True), (2, 16, 0.75, 1, -1, True),
    (2, 16, 1.0, 3, 3, False), (3, 8, 1.0, 2, 2, False)])
def test_box_sum_families_all_or_no_one_point_boxes(n, m, spacing, k, k1, one_point):
    """2^{k1} at or below the lattice spacing: every box is summed in closed form
    (at spacing 0.75 with chi weights below 1); 2^{k1} well above it: every box
    holds several points on some axis."""
    fam = InputFamily(n=n, m=m, box_length=2.0 * np.pi / spacing, num_frames=8, shells=(k,))
    for kk in (k, None):
        _, _, _, one, multi = _box_tiles(fam.grid, k1, kk)
        assert (len(one) > 0, len(multi) > 0) == (one_point, not one_point)
    for index, conj in ((0, False), (1, True)):
        traj, _, _ = fam.draw(index, 0.75, seed=3)
        if conj:
            traj = _conjugate(traj)
        for axis in range(n):
            assert_close(_box_sum(traj, k1, axis, k=k), oracle_box_sum(traj, k1, axis, k=k))
        assert_close(_box_sum(traj, k1, 0), oracle_box_sum(traj, k1, 0))


def _count_calls(monkeypatch, owner, name, counts):
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("n, m, shells", [(2, 16, (1, 2, 3)), (3, 8, (1, 2))])
def test_maximal_draw_takes_one_spatial_transform(monkeypatch, n, m, shells):
    """Both box sums of a draw share one forward transform; no box takes an FFT."""
    import fslab.norms

    fam = InputFamily(n=n, m=m, num_frames=32, shells=shells)
    atlas = axis_cone_atlas(n)
    counts = {}
    _count_calls(monkeypatch, fslab.norms, "spatial_spectrum", counts)
    for index in range(2):
        counts.clear()
        triples = list(_kind_maximal(fam, 0.75, atlas, 0, index, (n - 1.5) / 2.0))
        assert any(np.isfinite(rhs) and rhs > 0.0 for _, _, rhs in triples)
        assert counts == {"spatial_spectrum": 1}
    traj, k, _ = fam.draw(0, 0.75, seed=0)
    spec = spatial_spectrum(traj.values, fam.grid)
    for name in ("fft", "ifft", "fftn", "ifftn", "rfftn", "irfftn"):
        _count_calls(monkeypatch, np.fft, name, counts)
    counts.clear()
    for k1 in (k - 2, k):
        assert _box_l2_linf_sum(spec, fam.grid, k1, 0, k=k) > 0.0
    assert counts == {}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("m", [8, 16])
def test_cone_table_rows_match_oracle(n, m):
    grid = Grid(n, m, 2.0 * np.pi)
    atlas = axis_cone_atlas(n)
    for i in range(atlas.num_directions):
        assert np.array_equal(atlas.multiplier(grid, i), oracle_multiplier(atlas, grid, i))


def test_cone_table_is_keyed_by_value():
    grid = Grid(2, 16, 2.0 * np.pi)
    first = axis_cone_atlas(2).multipliers(grid)
    assert axis_cone_atlas(2).multipliers(grid) is first
    other = axis_cone_atlas(2, margin=0.3)
    for i in range(other.num_directions):
        assert np.array_equal(other.multiplier(grid, i), oracle_multiplier(other, grid, i))


def _holds_bytes(key) -> bool:
    return isinstance(key, bytes) or (isinstance(key, tuple) and any(map(_holds_bytes, key)))


def test_cache_keys_are_readable_and_hit_by_equal_atlases(monkeypatch):
    """Every key is plain numbers and strings; an atlas built afresh with the
    same values finds every table its twin left."""
    monkeypatch.setattr(spectral, "_SYMBOLS",
                        spectral._SymbolCache(max_bytes=spectral._SYMBOLS.max_bytes))
    diff, cfg = _picard_difference(2, 16, 32)

    def run(atlas):
        return (zk_upper(diff, 2, cfg.s, atlas=atlas).value,
                f_sigma_norm(diff, cfg.sigma, cfg.s, atlas=atlas))

    first = run(axis_cone_atlas(2))
    keys = symbol_cache_info()["entries"]
    assert any(key[0] == "cone_atlas" for key in keys)
    assert not any(_holds_bytes(key) for key in keys)
    before = symbol_cache_info()
    atlas = axis_cone_atlas(2)
    assert atlas.key == (2, atlas.margin, atlas.plateau_cos, atlas.support_cos,
                         ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)))
    assert atlas.signed_axes == ((0, 1.0), (1, 1.0), (0, -1.0), (1, -1.0))
    assert run(atlas) == first
    after = symbol_cache_info()
    assert after["misses"] == before["misses"] and after["entries"] == before["entries"]


def test_no_raw_bytes_keys_in_the_kernel_modules():
    """Cache identities are built from values, not from raw array bytes."""
    from pathlib import Path

    src = Path(spectral.__file__).parent
    for name in ("lp.py", "norms.py"):
        assert ".tobytes(" not in (src / name).read_text(), name


def test_cached_tables_have_no_cross_talk():
    """One grid, alternating s, dt and T: every call matches the oracle."""
    cases = [(32, 1.0, 0.75), (16, 1.0, 0.75), (32, 2.0, 0.75), (32, 1.0, 0.6),
             (32, 1.0, 1.0), (16, 2.0, 1.0)]
    for _ in range(2):
        for T, t_half, s in cases:
            fam = InputFamily(n=2, m=16, num_frames=T, t_half=t_half, shells=(2,))
            rng = np.random.default_rng(T + int(10 * s))
            S = spacetime_dft(fam.modulated(rng, 2, s, 1, cone_axis=0), window="none")
            assert_close(_xk_from_spectrum(S, 2, s), oracle_xk(S, 2, s))
            y = _yk_from_spectrum(S, 2, 0, s)
            assert np.isfinite(y)
            assert_close(y, oracle_yk(S, 2, 0, s))


def oracle_modulation_sums(grid, T, dt, s, power):
    """sum_tau Q_j^2 power at every (j, xi) through the xi-resolved sparse
    table the per-class one replaced: row j m^n + xi holds Q_j(r(tau, xi))^2
    at the columns tau m^n + xi, and the CSR product sums each row in
    ascending column order."""
    import scipy.sparse

    r = offset_lattice(grid, T, dt, s).ravel()
    size = np.abs(r)
    j_max = max_modulation_index(grid, dt, T, s)
    npoints = grid.npoints
    rows, cols, weights = [], [], []
    for j in range(j_max + 1):
        band = size < 2.0 ** (j + 1)
        if j > 0:
            band &= size > 2.0 ** (j - 1)
        candidates = np.flatnonzero(band)
        mult = modulation_shell(r[candidates], j)
        hit = candidates[mult != 0.0]
        rows.append(j * npoints + hit % npoints)
        cols.append(hit)
        weights.append(mult[mult != 0.0] ** 2)
    shells = scipy.sparse.csr_array(
        (np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))),
        shape=((j_max + 1) * npoints, r.size))
    return (shells @ power.ravel()).reshape(j_max + 1, npoints)


# (4, 8, 16) reduces in several blocks of frames, the others in one
@pytest.mark.parametrize("n, m, T, s", [(2, 16, 32, 0.75), (3, 8, 16, 0.6), (2, 8, 32, 1.0),
                                        (4, 8, 16, 0.75)])
def test_modulation_table_is_two_band_and_exact(n, m, T, s):
    """The per-class table holds Q_j^2 bit for bit: expanded through the
    class index, slot 0 of (tau, class(xi)) is Q_lower(r(tau, xi))^2, slot 1
    is Q_{lower+1}^2, and every other Q_j vanishes there.  Each offset meets
    at most two consecutive shells (so the table stays O(T classes)), the
    Q_j telescope to exactly 1 at every lattice point, leaving no remainder,
    and resolved_sums equals the sparse product it replaced bit for bit."""
    grid = Grid(n, m, 2.0 * np.pi)
    dt = 2.0 / T
    table = modulation_weights(grid, T, dt, s)
    S = SpacetimeSpectrum(grid, -1.0, dt, "none", np.zeros((T,) + grid.shape, complex))
    r = modulation_offset(S, s)
    assert table.j_max == max_modulation_index(grid, dt, T, s)
    npoints = grid.npoints
    w2s = fractional_multiplier(grid, 2.0 * s).ravel()
    values = np.unique(w2s)
    assert table.classes.shape == (npoints,)
    assert np.array_equal(values[table.classes], w2s)
    assert table.lower.shape == (T, values.size)
    assert table.squares.shape == (T, 2, values.size)
    assert table.lower.min() >= 0 and table.lower.max() <= table.j_max - 1
    dense = np.zeros((table.j_max + 1, T, npoints))
    frames = np.arange(T)[:, None]
    for slot in range(2):
        dense[table.lower[:, table.classes] + slot, frames, np.arange(npoints)] = \
            table.squares[:, slot, table.classes]
    for j in range(table.j_max + 1):
        assert np.array_equal(dense[j], (modulation_shell(r, j) ** 2).reshape(T, npoints))
    dense = dense.reshape(table.j_max + 1, -1)
    hit = dense != 0.0
    assert hit.sum(axis=0).max() <= 2
    lowest = np.argmax(hit, axis=0)
    assert not np.any(hit & (np.arange(table.j_max + 1)[:, None] > lowest + 1))
    assert np.all(sum(modulation_shell(r, j) for j in range(table.j_max + 1)) == 1.0)
    power = np.random.default_rng(n * m + T).random((T,) + grid.shape)
    resolved = table.resolved_sums(power)
    assert resolved.shape == (table.j_max + 1, npoints)
    sums = dense @ power.ravel()
    assert np.allclose(resolved.sum(axis=1), sums, rtol=1e-13, atol=0.0)
    assert np.allclose(resolved, (dense.reshape(-1, T, npoints) * power.reshape(T, -1)).sum(1),
                       rtol=1e-13, atol=0.0)
    assert np.array_equal(resolved, oracle_modulation_sums(grid, T, dt, s, power))


def test_two_large_modulation_tables_share_the_cache():
    """The tables of (2, 128, 128) and (3, 32, 64) fit the symbol cache
    together, at under 8 MiB each, so neither evicts the other."""
    keys = []
    for n, m, T in ((2, 128, 128), (3, 32, 64)):
        cfg = SolveConfig(n=n, m=m, num_frames=T, t_half=2.0)
        modulation_weights(cfg.grid, T, cfg.dt, cfg.s)
        keys.append(("modulation_weights", cfg.grid, T, cfg.dt, cfg.s))
    entries = symbol_cache_info()["entries"]
    for key in keys:
        assert key in entries
        assert entries[key] < 8 * 2**20


def test_modulation_table_refuses_shells_that_leave_a_remainder(monkeypatch):
    """Too few shells for the tau lattice: the table is not built."""
    import fslab.lp

    monkeypatch.setattr(fslab.lp, "max_modulation_index", lambda *args: 1)
    with pytest.raises(ValueError, match="do not sum to 1"):
        fslab.lp._build_modulation_weights(Grid(2, 16, 2.0 * np.pi), 32, 1.0 / 16, 0.75)


def test_cached_symbols_are_read_only():
    grid = Grid(2, 8, 2.0 * np.pi)
    table = modulation_weights(grid, 16, 0.125, 0.75)
    arrays = (fractional_multiplier(grid, 0.5), fractional_multiplier(grid, -0.5),
              axis_cone_atlas(2).multipliers(grid), axis_cone_atlas(2).multiplier(grid, 1),
              dyadic_shell(grid, 1), table.classes, table.lower, table.squares)
    shells = shell_table(grid, 1, axis_cone_atlas(2), localized=True)
    arrays += (shells.index, shells.amplitude, shells.squares, shells.off_gate, shells.lines)
    arrays += (shell_table(grid, 1, axis_cone_atlas(2), localized=False).off_gate,)
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
