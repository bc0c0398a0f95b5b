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

from fslab import bumps
from fslab.lp import (
    ConeAtlas,
    dyadic_shell,
    max_modulation_index,
    modulation_shell,
    modulation_weights,
)
from fslab.norms import (
    SUPPORT_TOL,
    InputFamily,
    MixedNormSpec,
    _axis_from_direction,
    _box_l2_linf_sum,
    _box_tiles,
    _kind_maximal,
    _lateral_l2_profile,
    _xk_from_spectrum,
    _yk_from_spectrum,
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
    fractional_multiplier,
    modulation_offset,
    spacetime_dft,
    spacetime_idft,
    spatial_spectrum,
)

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
        axis = _axis_from_direction(e_arr, g.n)
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
    profile = _lateral_l2_profile(vals, grid, S.dt, axis)
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
        assert _kind_maximal(fam, 0.75, atlas, 0, index, lambda name, value: None) is not None
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


@pytest.mark.parametrize("n, m, T, s", [(2, 16, 32, 0.75), (3, 8, 16, 0.6), (2, 8, 32, 1.0)])
def test_modulation_table_is_two_band_and_exact(n, m, T, s):
    """Each row of the table is Q_j^2 bit for bit, and each offset meets at
    most two consecutive shells (so the table stays O(T m^n))."""
    grid = Grid(n, m, 2.0 * np.pi)
    dt = 2.0 / T
    table = modulation_weights(grid, T, dt, s)
    S = SpacetimeSpectrum(grid, -1.0, dt, "none", np.zeros((T,) + grid.shape, complex))
    r = modulation_offset(S, s)
    assert table.j_max == max_modulation_index(grid, dt, T, s)
    dense = table.shells.toarray()
    for j in range(table.j_max + 1):
        assert np.array_equal(dense[j], (modulation_shell(r, j) ** 2).ravel())
    hit = dense != 0.0
    assert hit.sum(axis=0).max() <= 2
    lowest = np.argmax(hit, axis=0)
    assert not np.any(hit & (np.arange(table.j_max + 1)[:, None] > lowest + 1))
    assert table.remainder is None


def test_cached_symbols_are_read_only():
    grid = Grid(2, 8, 2.0 * np.pi)
    table = modulation_weights(grid, 16, 0.125, 0.75)
    arrays = (fractional_multiplier(grid, 0.5), fractional_multiplier(grid, -0.5),
              axis_cone_atlas(2).multipliers(grid), axis_cone_atlas(2).multiplier(grid, 1),
              dyadic_shell(grid, 1), table.shells.data, table.shells.indices)
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
