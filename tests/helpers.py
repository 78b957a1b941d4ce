"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from plqp.measures import GridDensity, GridSpec


def square_grid(n: int, extent: float, dim: int = 2) -> GridSpec:
    """Square grid centered at the origin with n cells per axis."""
    h = extent / n
    origin = (-extent / 2 + h / 2,) * dim
    return GridSpec(dim, (n,) * dim, h, origin)


def int_shift(vals: np.ndarray, axis: int, k: int) -> np.ndarray:
    """`vals` shifted along `axis` by k cells, filling with zeros."""
    out = np.zeros_like(vals)
    src = [slice(None)] * vals.ndim
    dst = [slice(None)] * vals.ndim
    if k >= 0:
        dst[axis] = slice(k, None)
        src[axis] = slice(None, vals.shape[axis] - k)
    else:
        dst[axis] = slice(None, k)
        src[axis] = slice(-k, None)
    out[tuple(dst)] = vals[tuple(src)]
    return out


def line_grid(n: int, extent: float, left: float = 0.0) -> GridSpec:
    h = extent / n
    return GridSpec(1, (n,), h, (left + h / 2,))


def indicator_density(spec: GridSpec, mask: np.ndarray) -> GridDensity:
    vals = mask.astype(float)
    return GridDensity(spec, vals / (vals.sum() * spec.cell_volume))


def indicator_ball(spec: GridSpec, center, R: float) -> GridDensity:
    pts = spec.centers()
    r = np.linalg.norm(pts - np.asarray(center, dtype=float), axis=-1)
    return indicator_density(spec, r <= R)


def indicator_interval(spec: GridSpec, a: float, b: float) -> GridDensity:
    """1D indicator of [a, b] as a density (height 1/(b-a) after normalizing)."""
    x = spec.centers()[..., 0]
    return indicator_density(spec, (x > a) & (x < b))


def random_blob(rng, spec: GridSpec, bumps: int = 3, margin: int = 2) -> GridDensity:
    """Smooth compactly supported random density, clear of the boundary ring."""
    pts = spec.centers()
    raw = np.zeros(spec.shape)
    extent = spec.h * np.asarray(spec.shape)
    lo = np.asarray(spec.origin) - spec.h / 2
    for _ in range(bumps):
        c = lo + rng.uniform(0.3, 0.7, spec.dim) * extent
        s = rng.uniform(0.08, 0.2) * float(extent.min())
        raw += rng.uniform(0.5, 1.5) * np.exp(-0.5 * np.sum((pts - c) ** 2, -1) / s**2)
    raw[raw < raw.max() * 0.05] = 0.0
    for ax in range(spec.dim):
        sl = [slice(None)] * spec.dim
        sl[ax] = slice(None, margin)
        raw[tuple(sl)] = 0.0
        sl[ax] = slice(-margin, None)
        raw[tuple(sl)] = 0.0
    return GridDensity(spec, raw / (raw.sum() * spec.cell_volume))


def random_positive_density(rng, spec: GridSpec) -> GridDensity:
    """Strictly positive (inside the ring) rough random density."""
    raw = 0.4 + rng.random(spec.shape)
    for ax in range(spec.dim):
        sl = [slice(None)] * spec.dim
        sl[ax] = 0
        raw[tuple(sl)] = 0.0
        sl[ax] = spec.shape[ax] - 1
        raw[tuple(sl)] = 0.0
    return GridDensity(spec, raw / (raw.sum() * spec.cell_volume))


def two_ball_swap(swap: float):
    """Two ramp balls 2 apart on a 32^2 grid (h = 0.125), half the mass on
    each at t = 0; at t = 1, `swap` of it has moved from the left ball to
    the right one.  Both balls stay in the support, so only a flow between
    them could carry the swap, and no face of positive density joins them."""
    from plqp.measures import Trajectory, make_ramp_ball

    spec = square_grid(32, 4.0)
    left = make_ramp_ball(spec, (-1.0, 0.0), 0.5, 0.3, guard=0.05).values
    right = make_ramp_ball(spec, (1.0, 0.0), 0.5, 0.3, guard=0.05).values
    f0 = GridDensity(spec, 0.5 * left + 0.5 * right)
    f1 = GridDensity(spec, (0.5 - swap) * left + (0.5 + swap) * right)
    return Trajectory((0.0, 1.0), (f0, f1))
