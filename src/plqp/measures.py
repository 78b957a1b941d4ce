"""Densities on regular grids, weighted point clouds, and curve generators.

Grid densities are cell-center samples of a nonnegative density, renormalized
so the discrete mass sum(values) * h^n equals 1.  Compact support is enforced
as a one-cell zero ring at the grid boundary.  Dimensions are restricted to
n in {1, 2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import InputError

MASS_TOL = 1e-9
WEIGHT_TOL = 1e-12
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
        if self.width <= 0:
            raise InputError("mollifier width must be positive")
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
        if len(t) and np.any(np.diff(t) <= 0):
            raise InputError("times must be strictly increasing")
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


def multiball_component_masses(
    g: GridDensity, centers: list[tuple[float, float]], radii: list[float], w: float
) -> np.ndarray:
    """Grid mass inside each inflated component ball (diagnostic)."""
    pts = g.spec.centers()
    out = np.zeros(len(centers))
    for j, (cj, rj) in enumerate(zip(centers, radii)):
        mask = np.linalg.norm(pts - np.asarray(cj), axis=-1) <= rj + w
        out[j] = g.values[mask].sum() * g.spec.cell_volume
    return out


def _shift_values(g: GridDensity, shift: np.ndarray) -> np.ndarray:
    """Sample g(. - shift) on the grid; exact index shift for integer shifts,
    separable linear interpolation otherwise (O(h) accurate)."""
    vals = g.values
    h = g.spec.h
    out = vals
    for axis in range(g.spec.dim):
        s = shift[axis] / h
        k = math.floor(s)
        alpha = s - k
        if abs(alpha) < 1e-12 or abs(alpha - 1.0) < 1e-12:
            k = round(s)
            out = _int_shift(out, axis, k)
        else:
            out = (1 - alpha) * _int_shift(out, axis, k) + alpha * _int_shift(out, axis, k + 1)
    return out


def _int_shift(vals: np.ndarray, axis: int, k: int) -> np.ndarray:
    """Shift along axis by k cells, filling with zeros."""
    if k == 0:
        return vals
    out = np.zeros_like(vals)
    src = [slice(None)] * vals.ndim
    dst = [slice(None)] * vals.ndim
    if k > 0:
        dst[axis] = slice(k, None)
        src[axis] = slice(None, -k)
    else:
        dst[axis] = slice(None, k)
        src[axis] = slice(-k, None)
    out[tuple(dst)] = vals[tuple(src)]
    return out


def translate_curve(g: GridDensity, V: tuple[float, ...], times: list[float]) -> Trajectory:
    """Rigid translation t -> g(. - t*V) with the constant velocity field V."""
    V = np.asarray(V, dtype=float)
    if V.shape != (g.spec.dim,):
        raise InputError("velocity dimension mismatch")
    densities = []
    for t in times:
        shifted = _shift_values(g, t * V)
        lost = 1.0 - shifted.sum() * g.spec.cell_volume
        if abs(lost) > MASS_TOL or not _check_interior_support(shifted):
            raise InputError(f"support exits grid at t={t}")
        densities.append(GridDensity(g.spec, shifted))
    const = np.broadcast_to(V, (*g.spec.shape, g.spec.dim)).copy()
    field = VelocityField(tuple(times), tuple(const for _ in times))
    return Trajectory(tuple(times), tuple(densities), field)


def _interp_values(g: GridDensity, query: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of cell values at query points (0 outside)."""
    idx = (query - np.asarray(g.spec.origin)) / g.spec.h
    # map_coordinates wants one row per axis
    coords = np.moveaxis(idx, -1, 0)
    return ndimage.map_coordinates(g.values, coords, order=1, mode="constant", cval=0.0)


def dilation_rate(M: float, t: float) -> float:
    """Radial expansion rate (M-1)/(1+t(M-1)) of the dilation curve."""
    return (M - 1.0) / (1.0 + t * (M - 1.0))


def dilate_curve(
    g: GridDensity, M: float, times: list[float], guard: float = RENORM_GUARD
) -> Trajectory:
    """Dilation curve: density f(x/(1-t+tM)) / (1-t+tM)^n, with the analytic
    field v_t(x) = (M-1)/(1+t(M-1)) * x."""
    if M <= 0:
        raise InputError("dilation factor must be positive")
    n = g.spec.dim
    pts = g.spec.centers()
    densities = []
    fields = []
    for t in times:
        lam = 1.0 - t + t * M
        raw = _interp_values(g, pts / lam) / lam**n
        if not _check_interior_support(raw):
            raise InputError(f"support exits grid at t={t}")
        densities.append(normalized_density(g.spec, raw, guard=guard))
        fields.append(dilation_rate(M, t) * pts)
    field = VelocityField(tuple(times), tuple(fields))
    return Trajectory(tuple(times), tuple(densities), field)


def _kernel_1d(cfg: MollifierConfig, h: float) -> np.ndarray:
    if cfg.kernel == "gaussian":
        half = max(1, int(math.ceil(4 * cfg.width / h)))
        u = np.arange(-half, half + 1) * h
        k = np.exp(-0.5 * (u / cfg.width) ** 2)
    else:  # triangular
        half = max(1, int(math.ceil(cfg.width / h)))
        u = np.arange(-half, half + 1) * h
        k = np.clip(1.0 - np.abs(u) / cfg.width, 0.0, None)
    return k / k.sum()


def mollify(g: GridDensity, cfg: MollifierConfig) -> GridDensity:
    """Discrete separable convolution with a unit-mass kernel."""
    if cfg.width < g.spec.h:
        raise InputError("mollifier width must be at least one cell")
    k = _kernel_1d(cfg, g.spec.h)
    out = g.values
    for axis in range(g.spec.dim):
        out = ndimage.convolve1d(out, k, axis=axis, mode="constant", cval=0.0)
    # convolution widens the support by the kernel radius
    if not _check_interior_support(np.where(out > 1e-300, out, 0.0)):
        raise InputError("mollified support hits the boundary ring")
    lost = 1.0 - out.sum() * g.spec.cell_volume
    if abs(lost) > 1e-9:
        raise InputError("mollifier support truncated by the grid")
    return normalized_density(g.spec, out, guard=1e-9)
