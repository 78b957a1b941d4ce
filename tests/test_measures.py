import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from plqp import measures
from plqp.errors import InputError
from plqp.measures import (
    DiscreteMeasure,
    GridDensity,
    GridSpec,
    MollifierConfig,
    Trajectory,
    coarse_measure,
    dilate_curve,
    grid_to_atoms,
    make_multiball,
    make_ramp_ball,
    mollify,
    multiball_component_masses,
    ramp_ball_normalizer,
    ramp_profile,
    translate_curve,
)

from helpers import indicator_interval, int_shift, line_grid, random_blob, square_grid


# ---------------------------------------------------------------------------
# grid density invariants
# ---------------------------------------------------------------------------


def test_grid_density_rejects_negative_values():
    spec = line_grid(8, 1.0)
    vals = np.zeros(8)
    vals[3] = 1 / spec.h
    vals[4] = -1e-3
    with pytest.raises(InputError):
        GridDensity(spec, vals)


def test_grid_density_rejects_wrong_mass():
    spec = line_grid(8, 1.0)
    vals = np.zeros(8)
    vals[3] = 2.0 / spec.h
    with pytest.raises(InputError):
        GridDensity(spec, vals)


def test_grid_density_rejects_boundary_support():
    spec = line_grid(8, 1.0)
    vals = np.zeros(8)
    vals[0] = 1.0 / spec.h
    with pytest.raises(InputError):
        GridDensity(spec, vals)


@pytest.mark.parametrize("h", [1e300, pytest.param(np.float64(1e300), id="numpy-1e300"), 1e155])
def test_grid_spec_rejects_a_spacing_whose_cell_volume_overflows(h):
    # h**2 raised OverflowError from cell_volume before
    with pytest.raises(InputError, match="overflows the cell volume"):
        GridSpec(2, (16, 16), h, (0.0, 0.0))


def test_grid_spec_keeps_a_spacing_whose_cell_volume_is_finite():
    assert GridSpec(1, (16,), 1e300, (0.0,)).cell_volume == 1e300
    assert math.isfinite(GridSpec(2, (16, 16), 1e154, (0.0, 0.0)).cell_volume)


def test_grid_density_values_immutable():
    spec = line_grid(8, 1.0)
    vals = np.zeros(8)
    vals[3] = 1 / spec.h
    g = GridDensity(spec, vals)
    with pytest.raises(ValueError):
        g.values[3] = 0.0


def test_discrete_measure_merges_duplicates():
    m = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], [0.25, 0.5, 0.25])
    assert len(m) == 2
    i = int(np.argmin(m.points[:, 0]))
    assert m.weights[i] == pytest.approx(0.5, abs=1e-15)


def unique_merge(pts, w):
    """The merge by `np.unique(axis=0)` on every input: the reference for
    the duplicate check of DiscreteMeasure."""
    w = w / w.sum()
    uniq, inverse = np.unique(pts, axis=0, return_inverse=True)
    if len(uniq) == len(pts):
        return pts, w
    merged = np.zeros(len(uniq))
    np.add.at(merged, inverse.ravel(), w)
    return uniq, merged


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    dim=st.integers(1, 3),
    cells=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
                             st.integers(1, 50)), min_size=1, max_size=20),
    repeats=st.lists(st.integers(0, 19), max_size=4),
)
def test_discrete_measure_duplicate_merge_matches_unique(dim, cells, repeats):
    # lattice points (often coinciding) and some rows forced to repeat, with
    # their zeros as -0.0: -0.0 and 0.0 are one point
    rows = np.array(cells, dtype=float)
    again = rows[[r % len(rows) for r in repeats]]
    rows = np.concatenate([rows, np.where(again == 0, -0.0, again)])
    pts, w = rows[:, :dim] * 0.5, rows[:, 3]
    m = DiscreteMeasure(pts, w / w.sum())
    want_pts, want_w = unique_merge(pts, w / w.sum())
    assert m.points.tobytes() == want_pts.tobytes()
    assert m.weights.tobytes() == want_w.tobytes()
    if len(np.unique(pts, axis=0)) == len(pts):
        # no duplicate: the input order is kept
        assert m.points.tobytes() == pts.tobytes()


def test_discrete_measure_needs_a_coordinate():
    with pytest.raises(InputError, match="coordinate"):
        DiscreteMeasure(np.zeros((3, 0)), np.full(3, 1 / 3))


def test_discrete_measure_rejects_nonpositive_weights():
    with pytest.raises(InputError):
        DiscreteMeasure([[0.0], [1.0]], [1.0, 0.0])


# ---------------------------------------------------------------------------
# grid_to_atoms
# ---------------------------------------------------------------------------


def test_grid_to_atoms_single_cell_identity():
    spec = square_grid(5, 1.0)
    vals = np.zeros((5, 5))
    vals[2, 2] = 1.0 / spec.cell_volume
    atoms = grid_to_atoms(GridDensity(spec, vals))
    assert len(atoms) == 1
    assert atoms.weights[0] == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(atoms.points[0], [0.0, 0.0], atol=1e-15)


def test_grid_to_atoms_two_cell_symmetry():
    spec = line_grid(6, 1.0)
    vals = np.zeros(6)
    vals[2] = vals[3] = 0.5 / spec.h
    atoms = grid_to_atoms(GridDensity(spec, vals))
    np.testing.assert_allclose(atoms.weights, [0.5, 0.5], atol=1e-15)


def test_grid_to_atoms_three_cell_weights():
    # values (1,2,1)/(4h) integrate cellwise to weights (1/4, 1/2, 1/4)
    spec = line_grid(5, 1.0)
    vals = np.zeros(5)
    vals[1:4] = np.array([1.0, 2.0, 1.0]) / (4 * spec.h)
    atoms = grid_to_atoms(GridDensity(spec, vals))
    np.testing.assert_allclose(sorted(atoms.weights), [0.25, 0.25, 0.5], atol=1e-15)


def test_grid_to_atoms_total_weight_is_one():
    spec = square_grid(48, 2.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.7, 0.2)
    atoms = grid_to_atoms(g)
    assert atoms.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_grid_to_atoms_zero_mass_errors():
    spec = line_grid(8, 1.0)
    vals = np.zeros(8)
    vals[3] = 1 / spec.h
    g = GridDensity(spec, vals)
    object.__setattr__(g, "values", np.zeros(8))
    with pytest.raises(InputError, match="zero mass"):
        grid_to_atoms(g)


# ---------------------------------------------------------------------------
# ramp balls
# ---------------------------------------------------------------------------


def test_ramp_ball_normalizer_matches_quadrature():
    for R, w in [(1.0, 0.1), (0.7, 0.3), (1.3, 0.05)]:
        val, _ = integrate.quad(
            lambda r: ramp_profile(np.array([r]), R, w)[0] * 2 * math.pi * r,
            0,
            R,
            points=[R - w],
        )
        assert 1.0 / val == pytest.approx(ramp_ball_normalizer(R, w), rel=1e-10)


def test_ramp_ball_normalizer_indicator_limit():
    # w -> 0 recovers the uniform ball value 1/(pi R^2)
    R = 1.0
    assert ramp_ball_normalizer(R, 1e-9) == pytest.approx(1.0 / (math.pi * R * R), rel=1e-6)


def test_ramp_ball_mass_and_support():
    spec = square_grid(128, 2.6)
    g = make_ramp_ball(spec, (0.0, 0.0), 1.0, 0.1)
    assert g.mass == pytest.approx(1.0, abs=1e-12)
    pts = spec.centers()
    r = np.linalg.norm(pts, axis=-1)
    assert np.all(g.values[r > 1.0] == 0)


def test_ramp_ball_translation_equivariance():
    spec = square_grid(64, 3.2)
    a = make_ramp_ball(spec, (0.0, 0.0), 0.8, 0.2)
    shift = 4 * spec.h  # integer number of cells
    b = make_ramp_ball(spec, (shift, 0.0), 0.8, 0.2)
    np.testing.assert_allclose(b.values[4:, :], a.values[:-4, :], atol=1e-12)


def test_ramp_ball_boundary_guard():
    spec = square_grid(32, 2.0)
    with pytest.raises(InputError, match="boundary"):
        make_ramp_ball(spec, (0.5, 0.0), 0.8, 0.1)


def test_ramp_ball_requires_2d():
    spec = line_grid(32, 2.0)
    with pytest.raises(InputError):
        make_ramp_ball(spec, (0.0,), 0.5, 0.1)


# ---------------------------------------------------------------------------
# multiballs
# ---------------------------------------------------------------------------


def test_multiball_single_reduces_to_ramp_ball():
    spec = square_grid(96, 3.0)
    a = make_multiball(spec, [(0.0, 0.0)], [0.9], [1.0], 0.2)
    b = make_ramp_ball(spec, (0.0, 0.0), 0.9, 0.2)
    np.testing.assert_allclose(a.values, b.values, atol=1e-12)


@pytest.mark.parametrize("weights", [[0.5, 0.5], [0.75, 0.25]])
def test_multiball_component_masses(weights):
    spec = square_grid(128, 6.0)
    centers = [(-1.4, 0.0), (1.4, 0.0)]
    radii = [0.9, 0.9]
    g = make_multiball(spec, centers, radii, weights, 0.15)
    masses = multiball_component_masses(g, centers, radii, 0.15)
    np.testing.assert_allclose(masses, weights, atol=1e-9)


def test_multiball_overlap_errors():
    spec = square_grid(64, 6.0)
    with pytest.raises(InputError, match="isolated"):
        make_multiball(spec, [(-0.5, 0.0), (0.5, 0.0)], [0.6, 0.6], [0.5, 0.5], 0.1)


# ---------------------------------------------------------------------------
# translation curves
# ---------------------------------------------------------------------------


def test_translate_zero_velocity_constant():
    spec = square_grid(32, 2.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.6, 0.2)
    traj = translate_curve(g, (0.0, 0.0), [0.0, 0.5, 1.0])
    for d in traj.densities:
        np.testing.assert_array_equal(d.values, g.values)


def test_translate_integer_shift_is_permutation():
    spec = square_grid(48, 3.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.7, 0.2)
    traj = translate_curve(g, (2 * spec.h, 0.0), [0.0, 1.0])
    shifted = traj.densities[-1].values
    np.testing.assert_array_equal(shifted[2:, :], g.values[:-2, :])
    assert sorted(shifted[shifted > 0]) == sorted(g.values[g.values > 0])


def test_translate_round_trip_integer_shifts():
    spec = square_grid(48, 3.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.7, 0.2)
    fwd = translate_curve(g, (3 * spec.h, 0.0), [0.0, 1.0]).densities[-1]
    back = translate_curve(fwd, (-3 * spec.h, 0.0), [0.0, 1.0]).densities[-1]
    np.testing.assert_array_equal(back.values, g.values)


def test_translate_mass_conserved_fractional():
    spec = square_grid(48, 3.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.7, 0.2)
    traj = translate_curve(g, (0.23, 0.11), [0.0, 0.37, 0.81])
    for d in traj.densities:
        assert d.mass == pytest.approx(1.0, abs=1e-9)


def test_translate_support_exit_errors():
    spec = square_grid(32, 2.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.6, 0.2)
    with pytest.raises(InputError, match="exit"):
        translate_curve(g, (1.0, 0.0), [0.0, 1.0])
    # a shift t V / h that overflows leaves the grid too
    with pytest.raises(InputError, match="exit"):
        translate_curve(g, (1e308, 0.0), [0.0, 2.0])


def ref_shift_values(g, shift):
    """The translation sampler before it became the order-1 sampler: a pass
    of whole-cell index shifts per axis, blended linearly between two for a
    fractional shift."""
    out = g.values
    for axis in range(g.spec.dim):
        s = shift[axis] / g.spec.h
        k = math.floor(s)
        alpha = s - k
        if abs(alpha) < 1e-12 or abs(alpha - 1.0) < 1e-12:
            out = int_shift(out, axis, round(s))
        else:
            out = (1 - alpha) * int_shift(out, axis, k) + alpha * int_shift(out, axis, k + 1)
    return out


def translate_cases(seed, whole):
    """Random blobs on 1D and 2D grids with whole-cell or fractional moves of
    up to 3 cells per axis."""
    rng = np.random.default_rng(seed)
    for spec in (line_grid(40, 4.0), square_grid(32, 4.0)):
        for _ in range(15):
            g = random_blob(rng, spec, margin=5)
            if whole:
                # t V / h is a whole number only up to rounding at t = 3
                yield g, rng.integers(-1, 2, spec.dim) * spec.h, [0.0, 1.0, 2.0, 3.0]
            else:
                yield g, rng.uniform(-1, 1, spec.dim) * spec.h, [0.0, *np.sort(rng.uniform(0, 3, 3))]


@pytest.mark.parametrize("seed", range(3))
def test_translate_whole_cells_is_an_index_shift(seed):
    for g, V, times in translate_cases(seed, whole=True):
        for t, d in zip(times, translate_curve(g, V, times).densities):
            want = g.values
            for axis, v in enumerate(V):
                want = int_shift(want, axis, round(t * v / g.spec.h))
            assert d.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_translate_fractional_matches_the_axis_pass_sampler(seed):
    # the same bilinear formula as before, rounded in another order: the
    # index i - tV/h rounds to half an ulp of i, so a weight can move by up
    # to about n eps on a grid of n cells per axis
    for g, V, times in translate_cases(seed, whole=False):
        bound = max(g.spec.shape) * np.finfo(float).eps
        for t, d in zip(times, translate_curve(g, V, times).densities):
            ref = ref_shift_values(g, t * V)
            assert np.abs(d.values - ref).max() <= bound * ref.max()


# ---------------------------------------------------------------------------
# dilation curves
# ---------------------------------------------------------------------------


def test_dilate_identity_factor():
    spec = square_grid(64, 3.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.8, 0.2)
    traj = dilate_curve(g, 1.0, [0.0, 0.5, 1.0])
    for d in traj.densities:
        np.testing.assert_allclose(d.values, g.values, atol=1e-12)
    for v in traj.field.vectors:
        np.testing.assert_allclose(v, 0.0, atol=1e-15)


def test_dilate_endpoint_density():
    spec = square_grid(192, 5.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 1.0, 0.2)
    M = 1.5
    traj = dilate_curve(g, M, [0.0, 1.0])
    # at t = 1 the density is f(x/M)/M^2; compare against a directly built ball
    end = make_ramp_ball(spec, (0.0, 0.0), M * 1.0, M * 0.2)
    l1 = np.abs(traj.densities[-1].values - end.values).sum() * spec.cell_volume
    assert l1 < 0.02


@pytest.mark.parametrize(
    "M, times",
    [
        (1e200, [0.0, 1.0]),  # lam^2 overflows
        (1.2, [0.0, 1e308]),  # lam = 2e307, lam^2 overflows
        (1e-200, [0.0, 1.0]),  # lam^2 underflows to 0
        (0.5, [0.0, 1.0, 3.0]),  # lam = -0.5: a point reflection through t = 2
        (0.5, [0.0, 2.0]),  # lam = 0
        (math.nan, [0.0, 1.0]),
        (math.inf, [0.0, 1.0]),
        (0.0, [0.0, 1.0]),
    ],
)
def test_dilate_rejects_factor_without_finite_positive_power(M, times):
    spec = square_grid(32, 3.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.6, 0.2)
    with pytest.raises(InputError, match="dilation factor"):
        dilate_curve(g, M, times)


def test_dilate_field_sup_norm_bound():
    # |v_t| <= R |M - 1| on the support once (1+M) spt(mu) fits in B_R
    spec = square_grid(96, 5.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 1.0, 0.2)
    M = 1.8
    R = (1 + M) * 1.0
    traj = dilate_curve(g, M, [0.0, 0.5, 1.0], guard=0.02)
    for k, t in enumerate(traj.times):
        speeds = np.linalg.norm(traj.field.at(k), axis=-1)
        on = traj.densities[k].values > 0
        assert speeds[on].max() <= R * abs(M - 1) + 1e-12


# ---------------------------------------------------------------------------
# mollifier
# ---------------------------------------------------------------------------


def test_mollify_preserves_radial_symmetry():
    spec = square_grid(64, 3.2)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.8, 0.2)
    sm = mollify(g, MollifierConfig(2.5 * spec.h, "gaussian"))
    v = sm.values
    np.testing.assert_allclose(v, v[::-1, :], atol=1e-12)
    np.testing.assert_allclose(v, v[:, ::-1], atol=1e-12)
    np.testing.assert_allclose(v, v.T, atol=1e-12)


@pytest.mark.parametrize("kernel", ["gaussian", "triangular"])
def test_mollify_mass_and_max(kernel):
    spec = square_grid(64, 3.6)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.8, 0.15)
    sm = mollify(g, MollifierConfig(3 * spec.h, kernel))
    assert sm.mass == pytest.approx(1.0, abs=1e-12)
    assert sm.values.max() <= g.values.max() + 1e-12


def test_mollify_width_guard():
    spec = square_grid(32, 2.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.6, 0.2)
    with pytest.raises(InputError):
        mollify(g, MollifierConfig(0.1 * spec.h, "gaussian"))


@pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_mollifier_rejects_nonpositive_or_nonfinite_width(width):
    with pytest.raises(InputError, match="mollifier width"):
        MollifierConfig(width)


def test_trajectory_rejects_nonfinite_times():
    spec = square_grid(32, 2.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.6, 0.2, guard=0.02)
    for times in ((0.0, math.nan, 1.0), (0.0, 1.0, math.inf), (-math.inf, 0.0, 1.0)):
        with pytest.raises(InputError, match="finite"):
            Trajectory(times, (g, g, g))


def test_mollify_boundary_guard():
    spec = square_grid(32, 2.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.8, 0.15)
    with pytest.raises(InputError):
        mollify(g, MollifierConfig(6 * spec.h, "gaussian"))


def mollify_outcome(g, cfg):
    try:
        return mollify(g, cfg).values.tobytes()
    except InputError as exc:
        return str(exc)


def count_kernels(monkeypatch):
    built = []
    kernel = measures._kernel_1d
    monkeypatch.setattr(measures, "_kernel_1d", lambda cfg, h: built.append(cfg) or kernel(cfg, h))
    return built


def edge_densities():
    """A 20-cell line holding cells 5..14, the same with values of 1e-305 in
    cells 1 and 18, and a 24^2 ramp ball."""
    spec = line_grid(20, 5.0)
    box = indicator_interval(spec, 1.3, 3.7)
    faint = box.values.copy()
    faint[[1, 18]] = 1e-305
    ball = make_ramp_ball(square_grid(24, 3.0), (0.1, -0.2), 0.8, 0.3, guard=0.05)
    return [box, GridDensity(spec, faint), ball]


@pytest.mark.parametrize("kernel", ["gaussian", "triangular"])
def test_mollify_early_rejection_keeps_the_outcomes(kernel, monkeypatch):
    # widths from one to twelve cells, whole multiples of h among them (a
    # triangle then ends in a 0 entry); the reference builds every kernel
    widths = sorted({*np.linspace(1.0, 12.0, 45), *range(1, 13)})
    cases = [(g, MollifierConfig(w * g.spec.h, kernel)) for g in edge_densities() for w in widths]
    got = [mollify_outcome(g, cfg) for g, cfg in cases]
    monkeypatch.setattr(measures, "_kernel_reach", lambda cfg, h: (-1, 0.0))
    assert got == [mollify_outcome(g, cfg) for g, cfg in cases]
    assert "mollified support hits the boundary ring" in got
    assert any(isinstance(out, bytes) for out in got)


@pytest.mark.parametrize(
    "kernel, width, early",
    [
        # the box is 5 cells from the boundary ring; half = ceil(4 width / h)
        ("gaussian", 1.25, True),
        ("gaussian", 1.0, False),
        # half = ceil(width / h), and a whole-cell width ends in a 0 entry
        ("triangular", 6.0, True),
        ("triangular", 5.0, False),
    ],
)
def test_mollify_rejects_a_reaching_kernel_before_building_it(kernel, width, early, monkeypatch):
    box = edge_densities()[0]
    built = count_kernels(monkeypatch)
    cfg = MollifierConfig(width * box.spec.h, kernel)
    if early:
        with pytest.raises(InputError, match="mollified support hits the boundary ring"):
            mollify(box, cfg)
        assert built == []
    else:
        assert mollify(box, cfg).mass == pytest.approx(1.0, abs=1e-12)
        assert built == [cfg]


def test_mollify_wider_than_the_grid_builds_no_kernel(monkeypatch):
    spec = square_grid(64, 3.2)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.8, 0.2)
    built = count_kernels(monkeypatch)
    for kernel in ("gaussian", "triangular"):
        with pytest.raises(InputError, match="mollified support hits the boundary ring"):
            mollify(g, MollifierConfig(2000 * spec.h, kernel))
    assert built == []


@pytest.mark.parametrize("kernel", ["gaussian", "triangular"])
def test_mollify_width_that_overflows_in_cells_is_input_error(kernel):
    # 4 width / h is inf: math.ceil raised OverflowError before
    spec = line_grid(32, 32e-10)
    g = indicator_interval(spec, 10e-10, 20e-10)
    with pytest.raises(InputError, match="overflows in cells"):
        mollify(g, MollifierConfig(1e300, kernel))


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------


def test_indicator_interval_heights():
    spec = line_grid(40, 4.0, left=-2.0)
    g = indicator_interval(spec, 0.0, 1.0)
    assert g.values.max() == pytest.approx(1.0, abs=1e-12)


def test_coarse_measure_conserves_mass():
    spec = square_grid(32, 2.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.6, 0.2)
    atoms = grid_to_atoms(g)
    coarse = coarse_measure(atoms.points, atoms.weights, spec, 8)
    assert coarse.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert len(coarse) <= 64
