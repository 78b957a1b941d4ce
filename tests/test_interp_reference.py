"""Multilinear sampling and the mollifier's convolution against scipy.ndimage.

plqp samples grids and convolves them with numpy code written to round as
`ndimage.map_coordinates(order=1)` and `ndimage.convolve1d(mode="constant")`
do.  Here ndimage is the oracle only, and equality is byte for byte: on
random 1D-3D grids, on the benchmark's dilation curves, and on the
characteristics traced through them.
"""

import numpy as np
import pytest
from scipy import ndimage

from plqp import dynamics, measures
from plqp.measures import (
    GridSpec,
    MollifierConfig,
    Trajectory,
    VelocityField,
    coarse_measure,
    dilate_curve,
    grid_to_atoms,
    make_ramp_ball,
    mollify,
    normalized_density,
)
from plqp.transport import wq

from helpers import square_grid

# ---------------------------------------------------------------------------
# reference copies: the ndimage code the numpy sampler and convolution replaced
# ---------------------------------------------------------------------------


def ref_dilate_curve(g, M, times, guard):
    n = g.spec.dim
    pts = g.spec.centers()
    densities, fields = [], []
    for t in times:
        lam = 1.0 - t + t * M
        idx = (pts / lam - np.asarray(g.spec.origin)) / g.spec.h
        coords = np.moveaxis(idx, -1, 0)
        raw = ndimage.map_coordinates(g.values, coords, order=1, mode="constant", cval=0.0) / lam**n
        densities.append(normalized_density(g.spec, raw, guard=guard))
        fields.append(measures.dilation_rate(M, t) * pts)
    return Trajectory(tuple(times), tuple(densities), VelocityField(tuple(times), tuple(fields)))


def ref_interp_field(spec, v, pts):
    idx = (pts - np.asarray(spec.origin)) / spec.h
    coords = np.moveaxis(idx, -1, 0)
    out = np.empty_like(pts)
    for a in range(spec.dim):
        out[:, a] = ndimage.map_coordinates(v[..., a], coords, order=1, mode="nearest")
    return out


def ref_trace(traj, samples, coarse_bins=16):
    spec = traj.spec
    pts = dynamics._systematic_particles(traj.densities[0], samples)
    start = pts.copy()
    fields_at = len(traj.field.times) == len(traj)
    for k in range(len(traj) - 1):
        dt = traj.times[k + 1] - traj.times[k]
        v0 = traj.field.at(k)
        v1 = traj.field.at(k + 1) if fields_at else traj.field.at(k)
        half = pts + 0.5 * dt * ref_interp_field(spec, v0, pts)
        vmid = 0.5 * (ref_interp_field(spec, v0, half) + ref_interp_field(spec, v1, half))
        pts = pts + dt * vmid
    w = np.full(len(pts), 1.0 / len(pts))
    cloud = coarse_measure(pts, w, spec, coarse_bins)
    atoms = grid_to_atoms(traj.densities[-1])
    target = coarse_measure(atoms.points, atoms.weights, spec, coarse_bins)
    return start, pts, wq(cloud, target, 1.0).cost


def ref_mollify_values(g, cfg):
    k = measures._kernel_1d(cfg, g.spec.h)
    out = g.values
    for axis in range(g.spec.dim):
        out = ndimage.convolve1d(out, k, axis=axis, mode="constant", cval=0.0)
    return normalized_density(g.spec, out, guard=1e-9).values


# ---------------------------------------------------------------------------
# the sampler on random grids
# ---------------------------------------------------------------------------


def query_indices(rng, n, count):
    """Fractional indices along an axis of n cells: exact integers (0 and n-1
    among them), points 1e-12 outside either end, and full-mantissa
    fractions (p - origin) / h over [-1, n), the form every caller computes."""
    h = rng.uniform(0.01, 1.0)
    origin = rng.uniform(-3.0, 3.0)
    p = origin + h * rng.uniform(-1.0, n, count)
    edges = [0.0, n - 1.0, -1e-12, n - 1 + 1e-12, -1.0, float(n)]
    return np.concatenate([edges, rng.integers(0, n, 8).astype(float), (p - origin) / h])


def random_cases(seed, count=60):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(1, 4))
        shape = tuple(int(s) for s in rng.integers(2, 8, d))
        values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
        values[rng.random(shape) < 0.2] = -0.0
        values[rng.random(shape) < 0.1] = 0.0
        # every axis gets its own shuffle, so edge indices meet fractions
        yield values, [rng.permutation(query_indices(rng, n, 40)) for n in shape]


@pytest.mark.parametrize("seed", range(5))
def test_constant_mode_sampling_matches_map_coordinates(seed):
    for values, cols in random_cases(seed):
        want = ndimage.map_coordinates(values, np.stack(cols), order=1, mode="constant", cval=0.0)
        got = measures._interp_values(values, cols)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_nearest_mode_sampling_matches_map_coordinates(seed):
    for values, cols in random_cases(seed):
        want = ndimage.map_coordinates(values, np.stack(cols), order=1, mode="nearest")
        got = measures._linear_sample(values.ravel(), measures._linear_table(cols, values.shape))
        assert got.tobytes() == want.tobytes()


def test_query_fractions_exercise_the_second_weight():
    # w1 = 1 - w0 differs from the fraction t itself on such indices
    rng = np.random.default_rng(0)
    x = query_indices(rng, 6, 200)
    t = x - np.floor(x)
    assert np.any(1.0 - (1.0 - t) != t)


def test_field_components_share_one_table():
    rng = np.random.default_rng(3)
    spec = GridSpec(2, (9, 7), 0.3, (-1.0, 0.5))
    v = rng.standard_normal((*spec.shape, 2))
    lo = np.asarray(spec.origin) - spec.h
    pts = lo + rng.uniform(0, 1, (50, 2)) * spec.h * (np.asarray(spec.shape) + 1)
    got = measures._linear_sample(dynamics._components(v), dynamics._field_table(spec, pts)).T
    assert got.tobytes() == ref_interp_field(spec, v, pts).tobytes()


# ---------------------------------------------------------------------------
# the convolution
# ---------------------------------------------------------------------------


def convolution_cases(rng, kernel):
    # one-cell axes of -0.0, where only padding lies within the kernel's reach
    for shape in ((1,), (1, 4), (3, 1)):
        yield np.full(shape, -0.0), measures._kernel_1d(MollifierConfig(2.0, kernel), 1.0)
    for _ in range(60):
        d = int(rng.integers(1, 4))
        # short axes too, where the kernel reaches past the far end
        shape = tuple(int(s) for s in rng.integers(1, 14, d))
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
        x[rng.random(shape) < 0.1] = -0.0
        h = rng.uniform(0.05, 1.0)
        yield x, measures._kernel_1d(MollifierConfig(h * rng.uniform(1.0, 4.0), kernel), h)


@pytest.mark.parametrize("kernel", ["gaussian", "triangular"])
def test_symmetric_convolution_matches_convolve1d(kernel):
    for x, k in convolution_cases(np.random.default_rng(11), kernel):
        for axis in range(x.ndim):
            want = ndimage.convolve1d(x, k, axis=axis, mode="constant", cval=0.0)
            got = np.ascontiguousarray(measures._convolve_symmetric(x, k, axis))
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel", ["gaussian", "triangular"])
@pytest.mark.parametrize("width", [1.0, 2.5, 3.0])
def test_mollify_matches_the_ndimage_mollifier(kernel, width):
    spec = square_grid(64, 3.6)
    g = make_ramp_ball(spec, (0.1, -0.2), 0.8, 0.15)
    cfg = MollifierConfig(width * spec.h, kernel)
    assert mollify(g, cfg).values.tobytes() == ref_mollify_values(g, cfg).tobytes()


# ---------------------------------------------------------------------------
# the benchmark's dilation curves and traces
# ---------------------------------------------------------------------------


def bench_ball(n, extent, R, w):
    return make_ramp_ball(square_grid(n, extent), (0.0, 0.0), R, w, guard=0.05)


TRACE_TIMES = list(np.linspace(0.0, 1.0, 11))


@pytest.fixture(scope="module")
def trace_ball():
    return bench_ball(48, 5.0, 1.0, 0.2)


def test_cli_dilation_matches_reference():
    g = bench_ball(48, 4.0, 1.0, 0.9)
    M, times = 1.5, [0.0, 0.25, 0.5, 0.75, 1.0]
    got, want = dilate_curve(g, M, times, guard=0.05), ref_dilate_curve(g, M, times, 0.05)
    for a, b in zip(got.densities, want.densities):
        assert a.values.tobytes() == b.values.tobytes()
    for a, b in zip(got.field.vectors, want.field.vectors):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("M", [0.5, 2.0])
def test_trace_matches_reference(trace_ball, M):
    traj = dilate_curve(trace_ball, M, TRACE_TIMES, guard=0.05)
    ref = ref_dilate_curve(trace_ball, M, TRACE_TIMES, 0.05)
    for a, b in zip(traj.densities, ref.densities):
        assert a.values.tobytes() == b.values.tobytes()
    rep = dynamics.trace_characteristics(traj, 2000)
    start, end, w1 = ref_trace(traj, 2000)
    assert rep.initial.tobytes() == start.tobytes()
    assert rep.terminal.tobytes() == end.tobytes()
    assert rep.w1_to_target == w1
