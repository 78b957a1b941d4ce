"""The grid rules against reference copies of the code they replaced.

Each grid rule (the boundary ring, the two cells of a staggered face, coarse
binning and ring membership) has one definition.  The functions below are
the separate copies that each caller used to hand-build.  The single
definitions must give the same arrays, bit for bit: the same CSR
divergence, face densities, cell velocities, upwind steps and masks, the
same coarse measures, and the same radial-family masses and fitted heights.
"""

import functools
import math

import numpy as np
import pytest
from scipy import sparse

from plqp import dynamics, measures, mms
from plqp.measures import GridSpec, make_multiball, make_ramp_ball
from plqp.mms import RadialFamily

from helpers import line_grid, square_grid

# ---------------------------------------------------------------------------
# reference copies
# ---------------------------------------------------------------------------


def ref_shapes_of_faces(shape):
    out = []
    for ax in range(len(shape)):
        s = list(shape)
        s[ax] -= 1
        out.append(tuple(s))
    return out


def ref_divergence_matrix(spec):
    shape = spec.shape
    ncells = int(np.prod(shape))
    fshapes = ref_shapes_of_faces(shape)
    cell_idx = np.arange(ncells).reshape(shape)
    rows, cols, vals = [], [], []
    offset = 0
    for ax, fs in enumerate(fshapes):
        nf = int(np.prod(fs))
        fid = offset + np.arange(nf).reshape(fs)
        lo = [slice(None)] * len(shape)
        hi = [slice(None)] * len(shape)
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        left = cell_idx[tuple(lo)].ravel()
        right = cell_idx[tuple(hi)].ravel()
        f = fid.ravel()
        rows.extend([left, right])
        cols.extend([f, f])
        vals.extend([np.full(nf, 1.0 / spec.h), np.full(nf, -1.0 / spec.h)])
        offset += nf
    D = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ncells, offset),
    )
    return D, fshapes


def ref_split_faces(m, fshapes):
    out = []
    offset = 0
    for fs in fshapes:
        nf = int(np.prod(fs))
        out.append(m[offset : offset + nf].reshape(fs))
        offset += nf
    return out


def ref_face_density(fbar, axis):
    lo = [slice(None)] * fbar.ndim
    hi = [slice(None)] * fbar.ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    return 0.5 * (fbar[tuple(lo)] + fbar[tuple(hi)])


def ref_cell_vectors(mfaces, fbar, spec):
    v = np.zeros((*spec.shape, spec.dim))
    for ax, mf in enumerate(mfaces):
        fface = ref_face_density(fbar, ax)
        with np.errstate(invalid="ignore", divide="ignore"):
            floor = dynamics.DENSITY_FLOOR
            vface = np.where(fface >= floor, mf / np.maximum(fface, floor), 0.0)
        pad = [(0, 0)] * fbar.ndim
        pad[ax] = (1, 1)
        vpad = np.pad(vface, pad)
        lo = [slice(None)] * fbar.ndim
        hi = [slice(None)] * fbar.ndim
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        v[..., ax] = 0.5 * (vpad[tuple(lo)] + vpad[tuple(hi)])
    return v


def ref_upwind_step(f, v, dt, spec):
    out = f.copy()
    for ax in range(spec.dim):
        lo = [slice(None)] * spec.dim
        hi = [slice(None)] * spec.dim
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        vface = 0.5 * (v[(*lo, ax)] + v[(*hi, ax)])
        flux = np.where(vface > 0, vface * f[tuple(lo)], vface * f[tuple(hi)])
        out[tuple(lo)] -= dt / spec.h * flux
        out[tuple(hi)] += dt / spec.h * flux
    return out


def ref_boundary_ring(shape):
    mask = np.zeros(shape, bool)
    for ax in range(len(shape)):
        idx = [slice(None)] * len(shape)
        idx[ax] = 0
        mask[tuple(idx)] = True
        idx[ax] = shape[ax] - 1
        mask[tuple(idx)] = True
    return mask


def ref_check_interior_support(values):
    for axis in range(values.ndim):
        first = np.take(values, 0, axis=axis)
        last = np.take(values, values.shape[axis] - 1, axis=axis)
        if np.any(first != 0) or np.any(last != 0):
            return False
    return True


def ref_coarse_measure(points, weights, spec, bins):
    lo = np.asarray(spec.origin) - spec.h / 2
    extent = spec.h * np.asarray(spec.shape)
    cell = extent / bins
    idx = np.clip(((points - lo) / cell).astype(int), 0, bins - 1)
    flat = np.ravel_multi_index(tuple(idx.T), (bins,) * spec.dim)
    centers = np.stack(np.unravel_index(np.arange(bins**spec.dim), (bins,) * spec.dim), axis=1)
    centers = lo + (centers + 0.5) * cell
    mass = np.bincount(flat, weights=weights, minlength=bins**spec.dim)
    occupied = np.nonzero(mass > 0)[0]
    return measures.DiscreteMeasure(centers[occupied], mass[occupied] / mass[occupied].sum())


def ref_family_masses(anchor, centers, outer_radii):
    """`RadialFamily.from_anchor`'s masses: cells with r <= R."""
    pts = anchor.spec.centers()
    masses = []
    for c, R in zip(centers, outer_radii):
        r = np.linalg.norm(pts - np.asarray(c, dtype=float), axis=-1)
        masses.append(float(anchor.values[r <= R].sum() * anchor.spec.cell_volume))
    total = sum(masses)
    return tuple(m / total for m in masses)


def ref_fit_heights(anchor, family):
    """`_fit_anchor_profile`'s heights: ring k holds edges[k] <= r < edges[k + 1]."""
    pts = anchor.spec.centers()
    vol = anchor.spec.cell_volume
    heights = []
    for j, c in enumerate(family.centers):
        g = mms._rings(family, j)
        r = np.linalg.norm(pts - np.asarray(c), axis=-1)
        h = np.zeros(family.rings)
        for k in range(family.rings):
            mask = (r >= g.edges[k]) & (r < g.edges[k + 1])
            h[k] = anchor.values[mask].sum() * vol / g.areas[k]
        heights.append(mms._rescale_component(family.masses[j], g.areas, h))
    return heights


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

SPECS = {
    "1d": line_grid(23, 3.0, left=-1.5),
    "square": square_grid(17, 4.0),
    "wide": GridSpec(2, (9, 14), 0.3, (-1.2, -2.0)),
    "tall": GridSpec(2, (13, 5), 0.25, (0.1, 0.4)),
}


def random_density(rng, spec):
    """Random nonnegative cell values with scattered zeros."""
    return rng.uniform(0.0, 2.0, spec.shape) * (rng.uniform(size=spec.shape) < 0.7)


def assert_same(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# staggered faces and the boundary ring
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(SPECS))
def test_divergence_matrix_is_the_reference_csr(name):
    spec = SPECS[name]
    want, _ = ref_divergence_matrix(spec)
    got = dynamics._divergence_matrix(spec)
    assert got.shape == want.shape
    for part in ("data", "indices", "indptr"):
        assert_same(getattr(got, part), getattr(want, part))


@pytest.mark.parametrize("name", list(SPECS))
def test_face_values_match_the_reference(name):
    spec = SPECS[name]
    rng = np.random.default_rng(3)
    for _ in range(5):
        fbar = random_density(rng, spec)
        faces = [dynamics._face_density(fbar, ax) for ax in range(spec.dim)]
        for ax, face in enumerate(faces):
            assert_same(face, ref_face_density(fbar, ax))
        # faces below the density floor, and zero ones, take no velocity
        fbar[rng.uniform(size=spec.shape) < 0.2] = 1e-10
        faces = [dynamics._face_density(fbar, ax) for ax in range(spec.dim)]
        m = rng.normal(size=sum(f.size for f in faces))
        want = ref_cell_vectors(ref_split_faces(m, ref_shapes_of_faces(spec.shape)), fbar, spec)
        assert_same(dynamics._cell_vectors(m, faces, spec), want)


@pytest.mark.parametrize("name", list(SPECS))
def test_upwind_step_matches_the_reference(name):
    spec = SPECS[name]
    rng = np.random.default_rng(5)
    for _ in range(5):
        f = random_density(rng, spec)
        v = rng.normal(size=(*spec.shape, spec.dim))
        v[rng.uniform(size=spec.shape) < 0.1] = 0.0
        dt = 0.4 * spec.h / float(np.abs(v).max())
        assert_same(dynamics._upwind_step(f, v, dt, spec), ref_upwind_step(f, v, dt, spec))


@pytest.mark.parametrize("shape", [(2,), (3,), (11,), (2, 2), (2, 7), (7, 2), (3, 3), (9, 14)])
def test_boundary_ring_matches_the_reference(shape):
    assert_same(measures.boundary_ring(shape), ref_boundary_ring(shape))


@pytest.mark.parametrize("shape", [(5,), (11,), (4, 4), (6, 9), (9, 3)])
def test_interior_check_matches_the_reference(shape):
    rng = np.random.default_rng(7)
    inner = (slice(1, -1),) * len(shape)
    cases = [np.zeros(shape)]
    interior = np.zeros(shape)
    interior[inner] = rng.uniform(size=interior[inner].shape)
    cases.append(interior)
    # one nonzero on each edge, of either sign, -0.0 (zero) and NaN
    for ax in range(len(shape)):
        for end in (0, shape[ax] - 1):
            for value in (1.0, -3.0, 1e-300, -0.0, np.nan, np.inf):
                cell = list(rng.integers(0, shape))
                cell[ax] = end
                v = interior.copy()
                v[tuple(cell)] = value
                cases.append(v)
    for v in cases:
        assert measures._check_interior_support(v) == ref_check_interior_support(v)
    assert measures._check_interior_support(interior)
    assert not measures._check_interior_support(cases[2])


def test_evolve_steps_are_the_reference_upwind_steps():
    # evolve steps with _upwind_step and watches the shared boundary ring
    spec = square_grid(24, 4.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.8, 0.3, guard=0.05)
    v = np.broadcast_to([0.3, -0.2], (*spec.shape, 2)).copy()
    field = measures.VelocityField((0.0, 0.1, 0.2), (v, v, v))
    traj = dynamics.evolve(g, field, [0.0, 0.1, 0.2])
    f = g.values
    for k in range(2):
        f = ref_upwind_step(f, v, 0.1, spec)
        assert not f[ref_boundary_ring(spec.shape)].any()
        assert_same(traj.densities[k + 1].values, f)


# ---------------------------------------------------------------------------
# coarse binning and ring membership
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(SPECS))
@pytest.mark.parametrize("bins", [1, 3, 5, 8])
def test_coarse_measure_matches_the_reference(name, bins):
    spec = SPECS[name]
    rng = np.random.default_rng(11)
    lo = np.asarray(spec.origin) - spec.h / 2
    extent = spec.h * np.asarray(spec.shape)
    cell = extent / bins
    for n in (1, 7, 200):
        # points inside, outside, and on bin edges of the box
        pts = lo + rng.uniform(-0.1, 1.1, (n, spec.dim)) * extent
        pts[: n // 3] = lo + rng.integers(0, bins + 1, (n // 3, spec.dim)) * cell
        w = rng.uniform(0.1, 1.0, n)
        w /= w.sum()
        got = measures.coarse_measure(pts, w, spec, bins)
        want = ref_coarse_measure(pts, w, spec, bins)
        assert_same(got.points, want.points)
        assert_same(got.weights, want.weights)


@functools.cache
def radial_setups():
    return list(_radial_setups())


def _radial_setups():
    spec = square_grid(48, 6.0)
    ball = make_ramp_ball(spec, (0.0, 0.0), 1.0, 0.25)
    yield ball, [(0.0, 0.0)], [1.3], 8
    mb = make_multiball(spec, [(-1.4, 0.0), (1.4, 0.0)], [0.9, 0.9], [0.75, 0.25], 0.25)
    yield mb, [(-1.4, 0.0), (1.4, 0.0)], [1.2, 1.2], 8
    yield mb, [(-1.4, 0.0), (1.4, 0.0)], [1.2, 1.2], 4
    # the radial configs of the perfbench scheme workload, at every whole-cell
    # offset its seeds draw
    spec = square_grid(24, 6.0)
    for ox in (-spec.h, 0.0, spec.h):
        for oy in (-2 * spec.h, -spec.h, 0.0, spec.h, 2 * spec.h):
            centers = [(-1.4 + ox, oy), (1.4 + ox, oy)]
            mb = make_multiball(spec, centers, [0.9, 0.9], [0.7, 0.3], 0.3, guard=0.05)
            yield mb, centers, [1.2, 1.2], 6
            ball = make_ramp_ball(spec, (ox, oy), 1.0, 0.3, guard=0.05)
            yield ball, [(ox, oy)], [1.3], 6
    rng = np.random.default_rng(13)
    for _ in range(12):
        n = int(rng.integers(24, 48))
        spec = square_grid(n, 6.0)
        k = int(rng.integers(1, 3))
        centers = [(-1.5, float(rng.uniform(-0.5, 0.5))), (1.5, float(rng.uniform(-0.5, 0.5)))][:k]
        radii = [float(rng.uniform(0.6, 0.9)) for _ in range(k)]
        w = float(rng.uniform(0.2, 0.4))
        masses = [1.0] if k == 1 else [0.6, 0.4]
        g = make_multiball(spec, centers, radii, masses, w, guard=0.1)
        outer = [r + w + float(rng.uniform(0.05, 0.3)) for r in radii]
        yield g, centers, outer, int(rng.integers(1, 9))


@pytest.mark.parametrize("case", range(len(radial_setups())))
def test_ring_index_matches_the_three_rules_it_replaced(case):
    anchor, centers, outer, rings = radial_setups()[case]
    fam = RadialFamily.from_anchor(anchor, centers, outer, rings=rings, levels=8)
    assert fam.masses == ref_family_masses(anchor, centers, outer)
    got = mms._fit_anchor_profile(anchor, fam).heights
    want = ref_fit_heights(anchor, fam)
    for a, b in zip(got, want):
        assert_same(a, b)
    # _materialize's rule: the ring of r < R is min(int(r / (R / rings)), rings - 1)
    pts = anchor.spec.centers()
    for j in range(len(centers)):
        r = np.linalg.norm(pts - np.asarray(fam.centers[j]), axis=-1)
        k = np.minimum((r / (fam.outer_radii[j] / rings)).astype(int), rings - 1)
        assert_same(mms._ring_index(fam, j, pts), np.where(r < fam.outer_radii[j], k, -1))
    assert math.isclose(sum(fam.masses), 1.0, abs_tol=1e-12)
