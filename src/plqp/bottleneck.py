"""Exact bottleneck (infinity-Wasserstein) distance between discrete measures.

The value is found by binary search over the sorted multiset of pairwise
distances; feasibility at a candidate threshold eps is decided by an integer
max-flow on the bipartite graph restricted to edges with d <= eps.  This
realizes the neighborhood characterization
    inf { eps >= 0 : mu(A) <= nu(A_eps) for all A }
exactly on finite supports: the returned value is always one of the pairwise
distances and comes with a feasible witness plan attaining it.

Weights are scaled to integers at 1e9 (the 32-bit max-flow backend wraps
above 2^31, which rules out the 1e12 scale used elsewhere); the rounding
slack of a few units of 1e-9 mass is documented and absorbed by downstream
tolerances.  Equal weights round to equal capacities, so uniform instances
are solved exactly.  For measures derived from grids, cell-center
quantization adds at most h*sqrt(n)/2 per measure to the distance.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import maximum_flow

from ._scaling import scale_pair
from .errors import InputError
from .measures import DiscreteMeasure, GridDensity, grid_to_atoms
from .transport import Coupling, _pairwise_distances

MAX_ATOMS_DEFAULT = 5_000


def _max_atoms() -> int:
    raw = os.environ.get("PLQP_MAX_ATOMS", MAX_ATOMS_DEFAULT)
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"PLQP_MAX_ATOMS must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class BottleneckResult:
    value: float
    witness_plan: Coupling
    threshold_index: int
    # quantization bound carried by grid-derived inputs (h*sqrt(n)/2 each side)
    quantization_bound: float = 0.0


def _feasible_flow(D, a, b, total, eps):
    """Max-flow restricted to edges d <= eps; returns (feasible, flow matrix)."""
    m, n = D.shape
    ii, jj = np.nonzero(D <= eps)
    if len(ii) == 0:
        return False, None
    src = 0
    sink = m + n + 1
    rows = np.concatenate([np.zeros(m, int), 1 + ii, 1 + m + np.arange(n)])
    cols = np.concatenate([1 + np.arange(m), 1 + m + jj, np.full(n, sink)])
    caps = np.concatenate([a, np.full(len(ii), total, dtype=np.int64), b])
    graph = sparse.csr_matrix((caps, (rows, cols)), shape=(m + n + 2, m + n + 2))
    res = maximum_flow(graph, src, sink)
    if res.flow_value < total:
        return False, None
    return True, res.flow[1 : m + 1, m + 1 : m + n + 1]


def winf(mu: DiscreteMeasure, nu: DiscreteMeasure) -> BottleneckResult:
    """Exact bottleneck distance with a witness plan."""
    cap = _max_atoms()
    if len(mu) > cap or len(nu) > cap:
        raise InputError(f"instance exceeds PLQP_MAX_ATOMS={cap} atoms per side")
    D = _pairwise_distances(mu, nu)
    a, b, total = scale_pair(mu.weights, nu.weights)
    values = np.unique(D)
    lo, hi = 0, len(values) - 1
    flow = None
    while lo < hi:
        mid = (lo + hi) // 2
        feasible, f = _feasible_flow(D, a, b, total, values[mid])
        if feasible:
            hi = mid
            flow = f
        else:
            lo = mid + 1
    if flow is None:
        # every smaller threshold failed: the witness is a flow at the diameter
        ok, flow = _feasible_flow(D, a, b, total, values[hi])
        if not ok:
            raise InputError("bottleneck instance infeasible at the diameter")
    flow = flow.tocoo()
    pos = flow.data > 0
    plan = Coupling(
        flow.row[pos], flow.col[pos], flow.data[pos] / float(total), len(mu), len(nu)
    )
    # the minimal feasible threshold is attained by the witness support
    value = plan.max_distance(mu, nu)
    idx = int(np.searchsorted(values, value))
    return BottleneckResult(value, plan, idx)


def winf_grid(f: GridDensity, g: GridDensity) -> BottleneckResult:
    """Bottleneck distance between cell-center atomizations of two densities."""
    res = winf(grid_to_atoms(f), grid_to_atoms(g))
    bound = f.spec.h * np.sqrt(f.spec.dim) / 2 + g.spec.h * np.sqrt(g.spec.dim) / 2
    return BottleneckResult(res.value, res.witness_plan, res.threshold_index, bound)


def winf_permutation_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Min over permutations of the max matched distance; uniform, m <= 8."""
    m = len(mu)
    if m != len(nu) or m > 8:
        raise InputError("oracle needs equal atom counts <= 8")
    if np.abs(mu.weights - 1.0 / m).max() > 1e-12 or np.abs(nu.weights - 1.0 / m).max() > 1e-12:
        raise InputError("oracle needs uniform weights")
    D = _pairwise_distances(mu, nu)
    best = np.inf
    for perm in itertools.permutations(range(m)):
        worst = max(D[i, perm[i]] for i in range(m))
        best = min(best, worst)
    return float(best)


def neighborhood_check(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    eps: float,
    probes: list[np.ndarray],
    tol: float = 1e-12,
) -> bool:
    """True iff mu(A) <= nu(A_eps) + tol for every probe set A.

    Probes are finite point sets (unions of support points of mu); A_eps is
    the closed eps-neighborhood of A.
    """
    for probe in probes:
        pts = np.atleast_2d(np.asarray(probe, dtype=float))
        # mu(A): match probe points to mu atoms exactly
        on = np.zeros(len(mu), dtype=bool)
        for p in pts:
            on |= np.all(mu.points == p, axis=1)
        mu_mass = mu.weights[on].sum()
        d = np.linalg.norm(nu.points[:, None, :] - pts[None, :, :], axis=2).min(axis=1)
        nu_mass = nu.weights[d <= eps + tol].sum()
        if mu_mass > nu_mass + tol:
            return False
    return True


@dataclass(frozen=True)
class RadialMeasure:
    """Radius marginal of a radially symmetric measure about a center."""

    center: np.ndarray
    radii: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if np.any(np.diff(r) < 0):
            raise InputError("radii must be sorted")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise InputError("weights must be nonnegative and sum to 1")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "weights", w / w.sum())

    @staticmethod
    def from_grid(g: GridDensity, center) -> "RadialMeasure":
        atoms = grid_to_atoms(g)
        r = np.linalg.norm(atoms.points - np.asarray(center, dtype=float), axis=1)
        order = np.argsort(r, kind="stable")
        return RadialMeasure(np.asarray(center, dtype=float), r[order], atoms.weights[order])


def radial_reference(nu: RadialMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Radii and cumulative weights of the positive atoms of `nu`: the fixed
    side of `quantile_gaps`."""
    keep = nu.weights > 0
    return nu.radii[keep], np.cumsum(nu.weights)[keep]


def quantile_gaps(
    radii: np.ndarray, weights: np.ndarray, ref_radii: np.ndarray, ref_cum: np.ndarray
) -> np.ndarray:
    """Bottleneck cost of the monotone coupling of each row against one
    reference radius distribution.

    `weights` holds one radius distribution per row on the shared sorted
    `radii` (zero entries allowed); the reference is given by
    `radial_reference`.  Each row is evaluated on its merged quantile grid
    with the reference: at the midpoint of every merged level interval the
    monotone coupling pairs the radii holding that quantile, and the cost is
    the largest gap.  Quantiles past a row's (or the reference's) total go to
    its last positive atom.
    """
    w = np.atleast_2d(weights)
    cum = np.cumsum(w, axis=1)
    rows, n = cum.shape
    m = len(ref_cum)
    # merge each row's levels with the reference's, row levels first on ties:
    # row level i goes after the `below[i]` reference levels under it, and
    # the reference levels fill the other places in order
    below = np.searchsorted(ref_cum, cum, side="left")
    from_row = np.zeros((rows, n + m), dtype=bool)
    np.put_along_axis(from_row, np.arange(n) + below, True, axis=1)
    merged = np.empty((rows, n + m))
    merged[from_row] = cum.ravel()
    merged[~from_row] = np.tile(ref_cum, rows)
    prev = np.concatenate([np.zeros((rows, 1)), merged[:, :-1]], axis=1)
    # an interval of positive length whose midpoint rounds onto its lower end
    # holds the same pair as the interval below it
    scored = (merged > prev) & ((prev + merged) / 2 > prev)
    # the atoms holding (prev, level]: the first row and reference atoms
    # whose cumulative weight reaches `level`
    ia = np.cumsum(from_row, axis=1) - from_row
    ib = np.minimum(np.arange(n + m) - ia, m - 1)
    last = n - 1 - np.argmax(w[:, ::-1] > 0, axis=1)
    ia = np.where(ia < n, ia, last[:, None])
    return np.where(scored, np.abs(radii[ia] - ref_radii[ib]), 0.0).max(axis=1)


def winf_radial(mu: RadialMeasure, nu: RadialMeasure) -> float:
    """Bottleneck cost of the monotone rearrangement of radius distributions
    (one row of `quantile_gaps`).

    An accelerator for concentric radial measures; cross-validate against
    winf on coarse grids before trusting it on a new family.
    """
    if np.linalg.norm(mu.center - nu.center) > 1e-12:
        raise InputError("radial measures must share a center")
    return float(quantile_gaps(mu.radii, mu.weights, *radial_reference(nu))[0])
