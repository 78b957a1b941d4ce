"""Densities on regular grids, weighted point clouds, and curve generators.

Grid densities are cell-center samples of a nonnegative density, renormalized
so the discrete mass sum(values) * h^n equals 1.  Compact support is enforced
as a one-cell zero ring at the grid boundary.  Dimensions are restricted to
n in {1, 2}.

Multilinear sampling (`_linear_table` and `_linear_sample`) is the one
off-grid sampler: the translation and dilation curves read it through
`_interp_values`, and characteristic tracing in `dynamics` directly; the
splat of `dynamics.bb_verify` deposits point masses by the transpose of its
corner table.  It and
the mollifier's separable convolution are plain numpy, written to round
exactly as scipy's order-1 `map_coordinates` and `convolve1d` do, so these
outputs are the same bytes without loading scipy.  At a whole-cell index the
sampler returns the cell's value (a -0.0 as +0.0), so whole-cell
translations are exact index shifts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

MASS_TOL = 1e-9
# cell-center sampling must reproduce the continuum mass this well,
# otherwise the grid is too coarse for the object being built
RENORM_GUARD = 1e-3


@dataclass(frozen=True)
class GridSpec:
    """Regular grid: `shape[a]` cells of spacing `h` per axis.

    `origin` is the coordinate of the center of cell (0, ..., 0).
    """

    dim: int
    shape: tuple[int, ...]
    h: float
    origin: tuple[float, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise InputError(f"dim must be 1 or 2, got {self.dim}")
        if len(self.shape) != self.dim or len(self.origin) != self.dim:
            raise InputError("shape/origin length must match dim")
        if any(s < 2 for s in self.shape):
            raise InputError("need at least 2 cells per axis")
        if not (self.h > 0 and math.isfinite(self.h)):
            raise InputError("spacing h must be positive and finite")
        # cell_volume is h**dim, which raises OverflowError past the float range
        if math.isinf(math.prod([float(self.h)] * self.dim)):
            raise InputError(f"spacing h = {self.h:g} overflows the cell volume h^{self.dim}")

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.h * np.arange(self.shape[axis])

    def centers(self) -> np.ndarray:
        """Cell-center coordinates, shape (*self.shape, dim)."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)


def boundary_ring(shape: tuple[int, ...]) -> np.ndarray:
    """Mask of the one-cell ring of boundary cells, which every grid density
    keeps at zero (the compact-support surrogate)."""
    mask = np.ones(shape, bool)
    mask[(slice(1, -1),) * len(shape)] = False
    return mask


def _check_interior_support(values: np.ndarray) -> bool:
    """True iff every boundary-ring cell is zero."""
    return not values[boundary_ring(values.shape)].any()


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative unit-mass density sampled at cell centers.

    Invariants: values >= 0, sum(values) * h^n == 1 within 1e-9, and the
    boundary ring of cells is identically zero (compact-support surrogate).
    """

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.spec.shape:
            raise InputError(f"values shape {vals.shape} != grid shape {self.spec.shape}")
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise InputError("density values must be finite and nonnegative")
        mass = vals.sum() * self.spec.cell_volume
        if abs(mass - 1.0) > MASS_TOL:
            raise InputError(f"discrete mass {mass} deviates from 1 by more than {MASS_TOL}")
        if not _check_interior_support(vals):
            raise InputError("support touches the grid boundary ring")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.spec.cell_volume)


def normalized_density(spec: GridSpec, raw: np.ndarray, guard: float = RENORM_GUARD) -> GridDensity:
    """Renormalize raw cell samples to unit discrete mass.

    The renormalization factor must stay within 1 +/- `guard`; a larger
    correction means the grid resolution does not match the continuum object.
    """
    raw = np.asarray(raw, dtype=float)
    mass = raw.sum() * spec.cell_volume
    if mass <= 0:
        raise InputError("zero mass")
    factor = 1.0 / mass
    if abs(factor - 1.0) > guard:
        raise InputError(
            f"renormalization factor {factor:.6f} outside 1+/-{guard}: grid too coarse"
        )
    return GridDensity(spec, raw * factor)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted point cloud with positive weights summing to 1.

    Duplicate points (equal in every coordinate) are merged on construction.
    One `np.lexsort` and a compare of adjacent rows look for them; only if
    there is one does `np.unique` merge them, into its sorted order.  A cloud
    without duplicates keeps its order and its bytes.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if pts.shape[0] != w.shape[0]:
            raise InputError("points/weights length mismatch")
        if pts.shape[0] == 0:
            raise InputError("empty support")
        if pts.shape[1] == 0:
            raise InputError("points need at least one coordinate")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise InputError("weights must be positive and finite")
        if not np.all(np.isfinite(pts)):
            raise InputError("points must be finite")
        total = w.sum()
        if abs(total - 1.0) > 1e-6:
            raise InputError(f"weights sum {total} too far from 1")
        w = w / total
        # merge duplicate points, found as equal neighbours in lexicographic order
        rows = pts[np.lexsort(pts.T[::-1])]
        if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
            uniq, inverse = np.unique(pts, axis=0, return_inverse=True)
            merged = np.zeros(uniq.shape[0])
            np.add.at(merged, inverse.ravel(), w)
            pts, w = uniq, merged
        pts = pts.copy()
        w = w.copy()
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class MollifierConfig:
    """Smoothing kernel for test fixtures: width sigma and kernel family."""

    width: float
    kernel: str = "gaussian"

    def __post_init__(self):
        if not (self.width > 0 and math.isfinite(self.width)):
            raise InputError("mollifier width must be positive and finite")
        if self.kernel not in ("gaussian", "triangular"):
            raise InputError(f"unknown kernel {self.kernel!r}")


@dataclass(frozen=True)
class VelocityField:
    """Per-time, per-cell velocity vectors aligned with a Trajectory.

    `vectors[k]` has shape (*grid shape, dim) and belongs to interval/time k.
    Values outside the density support are carried but ignored by consumers.
    """

    times: tuple[float, ...]
    vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.times) != len(self.vectors):
            raise InputError("times/vectors length mismatch")
        for v in self.vectors:
            if not np.all(np.isfinite(v)):
                raise InputError("velocity field must be finite")

    def at(self, k: int) -> np.ndarray:
        return self.vectors[k]


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped sequence of grid densities, optionally with a field."""

    times: tuple[float, ...]
    densities: tuple[GridDensity, ...]
    field: VelocityField | None = None

    def __post_init__(self):
        if len(self.times) != len(self.densities):
            raise InputError("times/densities length mismatch")
        t = np.asarray(self.times)
        if not np.all(np.isfinite(t)) or np.any(np.diff(t) <= 0):
            raise InputError("times must be finite and strictly increasing")
        specs = {d.spec for d in self.densities}
        if len(specs) > 1:
            raise InputError("all densities must share one GridSpec")

    @property
    def spec(self) -> GridSpec:
        return self.densities[0].spec

    def __len__(self) -> int:
        return len(self.times)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def grid_to_atoms(g: GridDensity) -> DiscreteMeasure:
    """One atom per positive cell, at the cell center, weight = value*h^n."""
    mask = g.values > 0
    if not mask.any():
        raise InputError("zero mass")
    centers = g.spec.centers()[mask]
    weights = g.values[mask] * g.spec.cell_volume
    return DiscreteMeasure(centers, weights / weights.sum())


def coarse_measure(
    points: np.ndarray, weights: np.ndarray, spec: GridSpec, bins: int
) -> DiscreteMeasure:
    """Aggregate weighted points onto a bins^n lattice over the grid box.

    Used to keep exact transport solves affordable on large clouds; the
    sub-sampling factor is bins relative to the grid shape.  Each point goes
    to the bin holding it (clipped into the box), and each occupied bin
    becomes one atom at its center, in flat (row-major) bin order.
    """
    lo = np.asarray(spec.origin) - spec.h / 2
    cell = spec.h * np.asarray(spec.shape) / bins
    lattice = (bins,) * spec.dim
    idx = np.clip(((points - lo) / cell).astype(int), 0, bins - 1)
    flat = np.ravel_multi_index(tuple(idx.T), lattice)
    mass = np.bincount(flat, weights=weights, minlength=bins**spec.dim)
    occupied = np.nonzero(mass > 0)[0]
    centers = lo + (np.stack(np.unravel_index(occupied, lattice), axis=1) + 0.5) * cell
    return DiscreteMeasure(centers, mass[occupied] / mass[occupied].sum())


def ramp_profile(r: np.ndarray, R: float, w: float) -> np.ndarray:
    """Radial ramp: 1 on [0, R-w], linear down to 0 at R."""
    return np.clip((R - r) / w, 0.0, 1.0)


def ramp_ball_normalizer(R: float, w: float) -> float:
    """Continuum normalizer C with integral C * ramp = 1 on the plane.

    integral of ramp over R^2 is pi*(R^2 - R*w + w^2/3), by radial quadrature.
    """
    return 1.0 / (math.pi * (R * R - R * w + w * w / 3.0))


def make_ramp_ball(
    spec: GridSpec,
    center: tuple[float, float],
    R: float,
    w: float,
    guard: float = RENORM_GUARD,
) -> GridDensity:
    """Unit-mass radial ramp ball sampled on the grid (n = 2 only)."""
    if spec.dim != 2:
        raise InputError("ramp balls are 2-dimensional")
    if not (0 < w < R):
        raise InputError("need 0 < w < R")
    _check_ball_inside(spec, center, R)
    C = ramp_ball_normalizer(R, w)
    pts = spec.centers()
    r = np.linalg.norm(pts - np.asarray(center), axis=-1)
    return normalized_density(spec, C * ramp_profile(r, R, w), guard=guard)


def _check_ball_inside(spec: GridSpec, center, R: float) -> None:
    """Ball of radius R must clear the one-cell boundary ring."""
    for a in range(spec.dim):
        lo = spec.origin[a] + spec.h  # first interior cell center
        hi = spec.origin[a] + spec.h * (spec.shape[a] - 2)
        if center[a] - R < lo - spec.h / 2 or center[a] + R > hi + spec.h / 2:
            raise InputError("ball touches the grid boundary ring")


def make_multiball(
    spec: GridSpec,
    centers: list[tuple[float, float]],
    radii: list[float],
    weights: list[float],
    w: float,
    guard: float = RENORM_GUARD,
) -> GridDensity:
    """Weighted sum of disjoint ramp balls, ball j carrying mass weights[j]."""
    if spec.dim != 2:
        raise InputError("multiballs are 2-dimensional")
    centers_arr = np.asarray(centers, dtype=float)
    radii_arr = np.asarray(radii, dtype=float)
    c = np.asarray(weights, dtype=float)
    if not (len(centers_arr) == len(radii_arr) == len(c)):
        raise InputError("centers/radii/weights length mismatch")
    if np.any(radii_arr <= w) or np.any(c <= 0):
        raise InputError("need radii > w and positive weights")
    if abs(c.sum() - 1.0) > 1e-9:
        raise InputError("component weights must sum to 1")
    for j in range(len(radii_arr)):
        _check_ball_inside(spec, centers_arr[j], radii_arr[j])
        for k in range(j + 1, len(radii_arr)):
            gap = np.linalg.norm(centers_arr[j] - centers_arr[k])
            if gap <= radii_arr[j] + radii_arr[k] + 2 * w:
                raise InputError("components not isolated")
    pts = spec.centers()
    raw = np.zeros(spec.shape)
    for j in range(len(radii_arr)):
        r = np.linalg.norm(pts - centers_arr[j], axis=-1)
        comp = ramp_profile(r, radii_arr[j], w)
        comp_mass = comp.sum() * spec.cell_volume
        if comp_mass <= 0:
            raise InputError(f"component {j} not resolved on the grid")
        raw += c[j] * comp / comp_mass
    return normalized_density(spec, raw, guard=guard)


def _linear_table(idx: list[np.ndarray], shape: tuple[int, ...]) -> list:
    """Corners of order-1 (multilinear) sampling at fractional cell indices.

    `idx[a]` holds the indices along axis a; the arrays broadcast against
    each other (the columns of a point cloud, or the rows of a tensor grid).
    Returns the 2^d corners in C order, each as (flat cell index, per-axis
    weights).  Weights and rounding are those of scipy's order-1 spline
    `map_coordinates`: per axis w0 = 1 - (x - floor x) and w1 = 1 - w0, which
    is not always the fraction x - floor x itself.  Corner indices are
    clamped to the grid.
    """
    axes = []
    for a, (x, n) in enumerate(zip(idx, shape)):
        base = np.floor(x)
        w0 = 1.0 - (x - base)
        w1 = 1.0 - w0
        # clamping the base to [-1, n-1] keeps the cast in range and the
        # clamped corners as they are
        b = np.clip(base, -1, n - 1).astype(np.intp)
        stride = math.prod(shape[a + 1:])
        axes.append(((np.maximum(b, 0) * stride, w0), (np.minimum(b + 1, n - 1) * stride, w1)))
    table = []
    for corner in itertools.product(*axes):
        flats = [i for i, _ in corner]
        table.append((sum(flats[1:], flats[0]), [w for _, w in corner]))
    return table


def _linear_sample(values: np.ndarray, table: list) -> np.ndarray:
    """Sum over the corners of ((v * w_axis0) * w_axis1) ..., in table order.

    `values` holds the cells in flat order on its last axis, after any
    leading component axes (a field of shape (*grid, d) as (d, cells)).
    """
    # the sum starts from +0.0 as scipy's does, so an all -0.0 sum reads +0.0
    out = 0.0
    for flat, weights in table:
        term = np.take(values, flat, axis=-1)
        for w in weights:
            term = term * w
        out = out + term
    return out


def _interp_values(values: np.ndarray, idx: list[np.ndarray]) -> np.ndarray:
    """Order-1 sampling of `values` at the fractional cell indices `idx` (laid
    out as for `_linear_table`); 0 at a point outside the grid box in any
    coordinate, as in scipy's mode "constant"."""
    out = _linear_sample(values.ravel(), _linear_table(idx, values.shape))
    inside = True
    for x, n in zip(idx, values.shape):
        inside = inside & (x >= 0) & (x <= n - 1)
    return np.where(inside, out, 0.0)


def translate_curve(g: GridDensity, V: tuple[float, ...], times: list[float]) -> Trajectory:
    """Rigid translation t -> g(. - t*V) with the constant velocity field V.

    Each state samples g at the cell indices i - tV/h with the order-1
    sampler, as `dilate_curve` does (O(h) accurate).  A shift within 1e-12
    cells of a whole number of cells is taken as that number, so a
    whole-cell move gives the values index-shifted, with zeros shifted in.
    """
    V = np.asarray(V, dtype=float)
    spec = g.spec
    if V.shape != (spec.dim,):
        raise InputError("velocity dimension mismatch")
    densities = []
    for t in times:
        idx = []
        for a, n in enumerate(spec.shape):
            s = t * float(V[a]) / spec.h
            if not math.isfinite(s):
                raise InputError(f"support exits grid at t={t}")
            if abs(s - round(s)) < 1e-12:
                s = float(round(s))
            idx.append((np.arange(n) - s).reshape([-1 if b == a else 1 for b in range(spec.dim)]))
        shifted = _interp_values(g.values, idx)
        lost = 1.0 - shifted.sum() * spec.cell_volume
        if abs(lost) > MASS_TOL or not _check_interior_support(shifted):
            raise InputError(f"support exits grid at t={t}")
        densities.append(GridDensity(spec, shifted))
    const = np.broadcast_to(V, (*spec.shape, spec.dim)).copy()
    field = VelocityField(tuple(times), tuple(const for _ in times))
    return Trajectory(tuple(times), tuple(densities), field)


def dilation_rate(M: float, t: float) -> float:
    """Radial expansion rate (M-1)/(1+t(M-1)) of the dilation curve."""
    return (M - 1.0) / (1.0 + t * (M - 1.0))


def _dilation_factor(M: float, t: float, n: int) -> tuple[float, float]:
    """lam = 1 - t + tM and lam^n, or InputError unless lam > 0 and lam^n is
    finite and nonzero (past lam = 0 the formula reflects through the origin)."""
    lam = 1.0 - t + t * M
    try:
        scale = lam**n
    except OverflowError:
        scale = math.inf
    if not (lam > 0 and 0 < scale < math.inf):
        raise InputError(
            f"dilation factor lam = 1-t+tM = {lam:g} at t={t}: need lam > 0, lam^{n} finite and nonzero"
        )
    return lam, scale


def dilate_curve(
    g: GridDensity, M: float, times: list[float], guard: float = RENORM_GUARD
) -> Trajectory:
    """Dilation curve: density f(x/(1-t+tM)) / (1-t+tM)^n, with the analytic
    field v_t(x) = (M-1)/(1+t(M-1)) * x.

    M must be finite and positive, and at every requested time the factor
    lam = 1-t+tM positive with lam^n finite and nonzero: at lam <= 0 the
    formula is a point reflection, not a dilation.
    """
    if not (M > 0 and math.isfinite(M)):
        raise InputError("dilation factor must be positive and finite")
    spec = g.spec
    n = spec.dim
    factors = [_dilation_factor(M, t, n) for t in times]
    # the query points x / lam form a tensor grid: index it by its axes
    axes = [spec.axis_coords(a).reshape([-1 if b == a else 1 for b in range(n)]) for a in range(n)]
    pts = spec.centers()
    densities = []
    fields = []
    for t, (lam, scale) in zip(times, factors):
        idx = [(x / lam - o) / spec.h for x, o in zip(axes, spec.origin)]
        raw = _interp_values(g.values, idx) / scale
        if not _check_interior_support(raw):
            raise InputError(f"support exits grid at t={t}")
        densities.append(normalized_density(g.spec, raw, guard=guard))
        fields.append(dilation_rate(M, t) * pts)
    field = VelocityField(tuple(times), tuple(fields))
    return Trajectory(tuple(times), tuple(densities), field)


def _kernel_half(cfg: MollifierConfig, h: float) -> int:
    """Half-length in cells of the kernel: 4 widths for the gaussian, one
    for the triangle."""
    cells = (4 if cfg.kernel == "gaussian" else 1) * cfg.width / h
    if math.isinf(cells):
        raise InputError(f"mollifier width {cfg.width:g} overflows in cells of h = {h:g}")
    return max(1, math.ceil(cells))


def _kernel_1d(cfg: MollifierConfig, h: float) -> np.ndarray:
    """Odd unit-mass kernel, exactly symmetric: the offsets -j*h and j*h
    differ only in sign."""
    half = _kernel_half(cfg, h)
    u = np.arange(-half, half + 1) * h
    if cfg.kernel == "gaussian":
        k = np.exp(-0.5 * (u / cfg.width) ** 2)
    else:  # triangular
        k = np.clip(1.0 - np.abs(u) / cfg.width, 0.0, None)
    return k / k.sum()


def _kernel_reach(cfg: MollifierConfig, h: float) -> tuple[int, float]:
    """(r, floor) of the kernel of `_kernel_1d`, without building it: each
    entry at an offset of at most r cells is at least floor.

    Before normalizing, every entry is at most 1, so the sum divides by at
    most 2 half + 1.  A gaussian's last entry, at half h < 5 widths (width
    >= h), exceeds e^-12.5.  A triangle's last entry can be 0, so its r is
    one less, and its entry there is computed as `_kernel_1d` computes it.
    """
    half = _kernel_half(cfg, h)
    if cfg.kernel == "gaussian":
        return half, math.exp(-12.5) / (2 * half + 1)
    return half - 1, max(0.0, 1.0 - (half - 1) * h / cfg.width) / (2 * half + 1)


def _check_kernel_length(cfg: MollifierConfig, spec: GridSpec) -> None:
    """InputError for a kernel whose half-length exceeds twice the grid's
    longest axis, before anything that size is built.

    Such a kernel's largest normalized entry is at most 1 / (half - 1) for a
    triangle and about 1.6 / half for a gaussian, so an axis of n < half / 2
    cells keeps at most about 0.8 of any cell's mass, and the truncation
    check after the convolution would reject it.
    """
    half, longest = _kernel_half(cfg, spec.h), max(spec.shape)
    if half > 2 * longest:
        raise InputError(
            f"mollifier support truncated by the grid: the kernel reaches {half:.3g} cells "
            f"each way, more than twice the grid's longest axis of {longest} cells"
        )


def _convolve_symmetric(x: np.ndarray, k: np.ndarray, axis: int) -> np.ndarray:
    """Zero-padded convolution with an odd symmetric kernel along one axis:
    k[c] x_i + sum over j = c .. 1 of (x_{i-j} + x_{i+j}) k[c-j], summed
    from the far pair to the near one, which is how scipy's `convolve1d`
    (mode "constant") rounds a symmetric kernel."""
    x = np.moveaxis(x, axis, -1)
    n, c = x.shape[-1], len(k) // 2
    xp = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(c, c)])
    out = x * k[c]
    for j in range(c, 0, -1):
        out = out + (xp[..., c - j:c - j + n] + xp[..., c + j:c + j + n]) * k[c - j]
    return np.moveaxis(out, -1, axis)


def mollify(g: GridDensity, cfg: MollifierConfig) -> GridDensity:
    """Discrete separable convolution with a unit-mass kernel."""
    if cfg.width < g.spec.h:
        raise InputError("mollifier width must be at least one cell")
    # a cell of value v puts at least v floor^d, less rounding, on each cell
    # within r of it along one axis: more than 1e-300 if v floor^d > 2e-300.
    # If such a cell lies within r of the boundary ring, the check after the
    # convolution fails, so fail before building a kernel that can be far
    # wider than the grid
    r, floor = _kernel_reach(cfg, g.spec.h)
    heavy = np.nonzero(g.values * floor**g.spec.dim > 2e-300)
    for i, n in zip(heavy, g.spec.shape):
        if len(i) and min(i.min(), n - 1 - i.max()) <= r:
            raise InputError("mollified support hits the boundary ring")
    _check_kernel_length(cfg, g.spec)
    k = _kernel_1d(cfg, g.spec.h)
    out = g.values
    for axis in range(g.spec.dim):
        out = _convolve_symmetric(out, k, axis)
    # convolution widens the support by the kernel radius
    if not _check_interior_support(np.where(out > 1e-300, out, 0.0)):
        raise InputError("mollified support hits the boundary ring")
    lost = 1.0 - out.sum() * g.spec.cell_volume
    if abs(lost) > 1e-9:
        raise InputError("mollifier support truncated by the grid")
    return normalized_density(g.spec, out, guard=1e-9)
