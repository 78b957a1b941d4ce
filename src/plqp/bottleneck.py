"""Exact bottleneck (infinity-Wasserstein) distance between discrete measures.

The value is searched over the sorted distinct pairwise distances;
feasibility at a candidate threshold eps is decided by an integer max-flow on
the bipartite graph restricted to edges with d <= eps.  This realizes the
neighborhood characterization
    inf { eps >= 0 : mu(A) <= nu(A_eps) for all A }
exactly on finite supports: the returned value is always one of the pairwise
distances and comes with a feasible witness plan attaining it.

The search starts at the larger of two lower bounds.  The nearest-neighbour
bound is the largest distance from any atom of either side to its nearest
atom of the other side: a single atom with no partner within a smaller eps
violates the condition above (every weight is positive, and so is every
integer capacity).  The projected bound is the largest, over the axes, of the
bottleneck distance between the projections of the two integer-weighted
measures onto one axis, which the monotone coupling attains on the line
(Champion, De Pascale & Juutinen, SIAM J. Math. Anal. 2008): a plan within
a smaller eps would project to a coupling of the projections that beats it.
On the line it is the optimum, so the first max-flow decides.  From the
larger bound L the search gallops, testing L and the thresholds 1, 3, 7, ...
places above it, up to the diameter, then bisects between its last
infeasible and its first feasible threshold.

`winf_many` searches many instances in lockstep, and `winf` is a batch of
one.  Each step runs one max-flow on the disjoint union of every unfinished
instance's threshold graph, each instance at its own next threshold, all
sharing the source and the sink.  An instance is feasible at its threshold
iff the flow on its own source edges carries its whole total; the union's
flow value is never read, since it sums the instances and can exceed 2^31.
Blocks share no edge, so each instance is decided exactly as when it runs
alone and sees the same thresholds; its witness is its block's flow at its
last feasible step, which is its optimal threshold.

Weights are scaled to integers with totals of 1e9 (the 32-bit max-flow
backend wraps above 2^31).  The capacities then differ from the float
weights by the amounts bounded in `_scaling.scale_pair`: rounding, sub-unit
weights raised to one unit, and the units that reconcile the two totals.
That mass grows with the atom count (4.4e-7 on 1248-atom mollified ramp
balls), so the witness plan can miss the transport module's MARGINAL_TOL
against the float weights, and the threshold is exact for the scaled
weights.  Equal weights round to equal capacities, so uniform instances are
solved exactly.  For measures derived from grids, cell-center quantization
adds at most h*sqrt(n)/2 per measure to the distance.

`quantile_gaps` is the one kernel of the monotone (quantile) coupling on the
line, read by `winf_radial`, the radial scheme sweeps and
`transport.monotone_1d`; its mass rule makes rounding-level differences 0.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from ._scaling import scale_pair
from .errors import InputError
from .measures import DiscreteMeasure, GridDensity, grid_to_atoms
from .transport import Coupling, _assignments, _batches, _pairwise_distances

# atoms per side; PLQP_MAX_ATOMS overrides it.  Set from the budget of
# transport.MAX_DENSE_ATOMS, about 5 s and 300 MB peak RSS per solve.  Peak
# RSS grows with m x n, about 46 bytes per atom pair over an 82 MB
# interpreter.  Measured on ramp-ball pairs (R = 0.5 against 0.5 or 0.6,
# w = 0.2, grids of extent 2), one core of a 2-vCPU x86_64 VM: 2009 x 2010
# atoms in 0.41 s at 267 MB, 1804 x 2604 in 0.52 s at 297 MB, 2472 x 3551 in
# 3.4 s at 484 MB, 2828 x 4060 in 4.3 s at 608 MB.
MAX_ATOMS_DEFAULT = 2_000
# atom pairs (m x n, summed over instances) per lockstep batch of `winf_many`.
# Random 2D pairs on one core of a 2-vCPU x86_64 VM, one search per pair ->
# lockstep: 50 pairs of 25 0.146 -> 0.009 s, 20 of 10,000 0.30 -> 0.18 s;
# 8 of 90,000 took 0.58 s either way, so larger batches only hold more memory.
LOCKSTEP_PAIRS = 160_000


def _max_atoms() -> int:
    raw = os.environ.get("PLQP_MAX_ATOMS", MAX_ATOMS_DEFAULT)
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"PLQP_MAX_ATOMS must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class BottleneckStats:
    """What one `winf` search did.

    thresholds: the thresholds whose feasibility it decided, one max-flow
    step each.  maxflows: the max-flow calls of its lockstep batch, which
    the instance shared with the batch's other `batch - 1` instances.
    """

    thresholds: int
    maxflows: int
    batch: int


@dataclass(frozen=True)
class BottleneckResult:
    value: float
    witness_plan: Coupling
    threshold_index: int
    stats: BottleneckStats
    # quantization bound carried by grid-derived inputs (h*sqrt(n)/2 each side)
    quantization_bound: float = 0.0


class _Search:
    """Search state of one instance over its sorted distinct distances.

    Every threshold index below `lo` is infeasible; `hi` is the last index
    found feasible, or the diameter's while none is.  `probe` is the next
    index to test.  The search gallops from the nearest-neighbour bound
    while `stride` is positive and bisects [lo, hi] once a step is feasible.
    """

    def __init__(self, mu: DiscreteMeasure, nu: DiscreteMeasure):
        self.D = _pairwise_distances(mu, nu)
        self.a, self.b, self.total = scale_pair(mu.weights, nu.weights)
        self.values = np.unique(self.D)
        # below the nearest-neighbour bound some single atom has no partner
        # within eps: a Hall violator for the float and the integer weights;
        # below the projected bound no plan of the integer weights is feasible
        bound = max(self.D.min(axis=1).max(), self.D.min(axis=0).max(), self._projected(mu, nu))
        self.lo, self.hi = int(np.searchsorted(self.values, bound)), len(self.values) - 1
        self.probe, self.stride = self.lo, 1
        self.witness: Coupling | None = None  # the flow of the last feasible step
        self.thresholds = 0

    def _projected(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        """The largest, over the axes, of the bottleneck distance between the
        projections of the integer-weighted measures onto one axis.

        A gap t on one axis is taken as `_distances` rounds it, sqrt(fl(t *
        t)): that is at most every distance with that coordinate difference,
        and nondecreasing in t.  So a plan feasible at a threshold projects
        to a coupling of the projections whose gaps all lie within it, and
        the monotone coupling of `quantile_gaps` minimizes the largest gap
        on the line.  The weights are the `scale_pair` integers, whose
        cumulative sums are exact in float, so the mass rule drops only
        empty segments and the bound holds for the scaled problem that the
        max-flow decides; the float weights can put it above that optimum.
        """
        bound = 0.0
        for x, y in zip(mu.points.T, nu.points.T):
            xs, ys = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
            ref = quantile_reference(y[ys], self.b[ys].astype(float))
            t = quantile_gaps(x[xs], self.a[xs].astype(float), *ref)[1].max()
            bound = max(bound, np.sqrt(t * t))
        return bound

    def advance(self, feasible: bool) -> bool:
        """Record the step at `probe` and choose the next; False once the
        search has ended at `hi`."""
        if feasible:
            self.hi, self.stride = self.probe, 0
        elif self.probe == len(self.values) - 1:
            raise InputError("bottleneck instance infeasible at the diameter")
        else:
            self.lo = self.probe + 1
        if self.stride:
            # galloping: from the bound's index L the probes are L, L + 1,
            # L + 3, L + 7, ... up to the diameter's
            self.probe = min(self.probe + self.stride, self.hi)
            self.stride *= 2
            return True
        self.probe = (self.lo + self.hi) // 2
        return self.lo < self.hi


def maximum_flow(graph, source: int, sink: int):
    """`scipy.sparse.csgraph.maximum_flow`, imported on the first call."""
    from scipy.sparse import csgraph

    return csgraph.maximum_flow(graph, source, sink)


def _union_flow(searches: list[_Search], eps: list[float]) -> list[bool]:
    """One max-flow on the disjoint union of the threshold graphs d <= eps[k]
    of `searches[k]`, sharing the source and the sink.

    Instance k is feasible iff the flow on its own source edges carries its
    whole total; the flow value sums all instances and is not read (it can
    exceed 2^31).  A feasible instance keeps its block of the flow as its
    witness.
    """
    from scipy import sparse

    first = np.cumsum([1] + [len(s.a) + len(s.b) for s in searches])
    sink = int(first[-1])
    # CSR rows in node order: the source, then each instance's first-side
    # atoms (edges d <= eps) and second-side atoms (one edge to the sink)
    counts = [[sum(len(s.a) for s in searches)]]
    indices = [np.arange(f, f + len(s.a)) for s, f in zip(searches, first)]
    caps = [s.a for s in searches]
    for s, e, f in zip(searches, eps, first):
        m, n = len(s.a), len(s.b)
        near = s.D <= e
        rows, cols = np.nonzero(near)
        counts += [np.bincount(rows, minlength=m), np.ones(n, np.int64)]
        indices += [f + m + cols, np.full(n, sink)]
        caps += [np.full(len(cols), s.total), s.b]
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts + [[0]]))])
    # scale_pair totals are about 1e9, so every capacity fits the int32 backend
    graph = sparse.csr_matrix(
        (np.concatenate(caps).astype(np.int32), np.concatenate(indices).astype(np.int32),
         indptr.astype(np.int32)),
        shape=(sink + 1, sink + 1),
    )
    flow = maximum_flow(graph, 0, sink).flow
    # mass that left the source (row 0) into each instance's first-side atoms
    end = flow.indptr[1]
    block = np.searchsorted(first, flow.indices[:end], side="right") - 1
    sent = np.bincount(block, flow.data[:end], minlength=len(searches))
    feasible = []
    for s, f, mass in zip(searches, first, sent):
        s.thresholds += 1
        ok = int(mass) == s.total
        if ok:
            s.witness = _block_plan(flow, int(f), s)
        feasible.append(ok)
    return feasible


def _block_plan(flow, f: int, s: _Search) -> Coupling:
    """The positive flows on the edges between the instance's atoms, whose
    nodes start at f, as a plan."""
    m, n = len(s.a), len(s.b)
    lo, hi = flow.indptr[f], flow.indptr[f + m]
    row = np.repeat(np.arange(m), np.diff(flow.indptr[f : f + m + 1]))
    col = flow.indices[lo:hi] - (f + m)
    data = flow.data[lo:hi]
    keep = (data > 0) & (col >= 0) & (col < n)
    return Coupling(row[keep], col[keep], data[keep] / float(s.total), m, n)


def _lockstep(searches: list[_Search]) -> int:
    """Run every instance's search in lockstep: one union max-flow per step,
    each instance at its own probe, galloping up from its nearest-neighbour
    bound and then bisecting.  Each instance's last feasible step is at its
    optimal threshold, so its witness attains it.  Returns the number of
    max-flow calls."""
    calls = 0
    pending = list(searches)
    while pending:
        feasible = _union_flow(pending, [s.values[s.probe] for s in pending])
        calls += 1
        pending = [s for s, ok in zip(pending, feasible) if s.advance(ok)]
    return calls


def winf_many(pairs: list[tuple[DiscreteMeasure, DiscreteMeasure]]) -> list[BottleneckResult]:
    """Exact bottleneck distance with a witness plan for every pair (mu, nu),
    in order.

    Pairs are packed, in order, into lockstep batches of at most
    LOCKSTEP_PAIRS pairs of atoms (a larger pair runs alone).  Each instance
    sees the same thresholds, and so gets the same value and threshold
    index, as when it runs alone.
    """
    cap = _max_atoms()
    for mu, nu in pairs:
        if len(mu) > cap or len(nu) > cap:
            raise InputError(f"instance exceeds PLQP_MAX_ATOMS={cap} atoms per side")
        if mu.dim != nu.dim:
            raise InputError("dimension mismatch between measures")
    out = []
    for run in _batches([len(mu) * len(nu) for mu, nu in pairs], LOCKSTEP_PAIRS):
        searches = [_Search(*pairs[k]) for k in run]
        calls = _lockstep(searches)
        for k, s in zip(run, searches):
            # the minimal feasible threshold is attained by the witness support
            value = s.witness.max_distance(*pairs[k])
            idx = int(np.searchsorted(s.values, value))
            stats = BottleneckStats(s.thresholds, calls, len(run))
            out.append(BottleneckResult(value, s.witness, idx, stats))
    return out


def winf(mu: DiscreteMeasure, nu: DiscreteMeasure) -> BottleneckResult:
    """Exact bottleneck distance with a witness plan (`winf_many` on one pair)."""
    return winf_many([(mu, nu)])[0]


def winf_grid(f: GridDensity, g: GridDensity) -> BottleneckResult:
    """Bottleneck distance between cell-center atomizations of two densities."""
    res = winf(grid_to_atoms(f), grid_to_atoms(g))
    bound = f.spec.h * np.sqrt(f.spec.dim) / 2 + g.spec.h * np.sqrt(g.spec.dim) / 2
    return replace(res, quantization_bound=bound)


def winf_permutation_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Min over permutations of the max matched distance; uniform, m <= 8."""
    P = _assignments(mu, nu)
    D = _pairwise_distances(mu, nu)
    return float(D[np.arange(len(mu)), P].max(axis=1).min())


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
        if r.ndim != 1 or r.shape != w.shape or len(r) == 0:
            raise InputError("radii and weights must be nonempty lists of one length")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(w))):
            raise InputError("radii and weights must be finite")
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


def quantile_reference(points: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points and cumulative weights of the positive atoms of one distribution
    on the sorted `points`: the fixed side of `quantile_gaps`."""
    keep = weights > 0
    return points[keep], np.cumsum(weights)[keep]


def quantile_gaps(
    points: np.ndarray, weights: np.ndarray, ref_points: np.ndarray, ref_cum: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The monotone (quantile) coupling on the line of each row against one
    reference distribution, segment by segment.

    `weights` holds one distribution per row on the shared sorted `points`
    (zero entries allowed); the reference is given by `quantile_reference`.
    Each row's cumulative levels are merged with the reference's, row levels
    first on ties.  On each merged segment (previous level, level] the
    coupling pairs the first row and reference atoms whose cumulative weight
    reaches `level`; quantiles past a row's (or the reference's) total go to
    its last positive atom.

    Returns (mass, gap), each of shape (rows, n + m) for n points and m
    reference atoms: the mass each segment matches and the distance it moves
    it.  A segment counts only if its mass exceeds (n + m) eps, the rounding
    bound of the two cumulative sums: two distributions equal up to rounding
    split a level into a sliver that pairs an atom with its neighbour.  A
    segment that does not count has mass and gap 0.  So a row's W_q is
    (sum mass gap^q)^(1/q) and its bottleneck cost is its largest gap.
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
    mass = merged - np.concatenate([np.zeros((rows, 1)), merged[:, :-1]], axis=1)
    mass[mass <= (n + m) * np.finfo(float).eps] = 0.0
    # the atoms holding (previous level, level]: the first row and reference
    # atoms whose cumulative weight reaches `level`
    ia = np.cumsum(from_row, axis=1) - from_row
    ib = np.minimum(np.arange(n + m) - ia, m - 1)
    last = n - 1 - np.argmax(w[:, ::-1] > 0, axis=1)
    ia = np.where(ia < n, ia, last[:, None])
    return mass, np.where(mass > 0, np.abs(points[ia] - ref_points[ib]), 0.0)


def winf_radial(mu: RadialMeasure, nu: RadialMeasure) -> float:
    """Bottleneck cost of the monotone rearrangement of radius distributions:
    the largest gap of `quantile_gaps` on one row.

    An accelerator for concentric radial measures; cross-validate against
    winf on coarse grids before trusting it on a new family.
    """
    if np.linalg.norm(mu.center - nu.center) > 1e-12:
        raise InputError("radial measures must share a center")
    _, gap = quantile_gaps(mu.radii, mu.weights, *quantile_reference(nu.radii, nu.weights))
    return float(gap.max())
