"""Exact bottleneck (infinity-Wasserstein) distance between discrete measures.

The value is searched over the sorted distinct pairwise distances that lie
between a lower and an upper bound; feasibility at a candidate threshold
eps is decided by an integer max-flow on the bipartite graph restricted to
edges with d <= eps.  This realizes the neighborhood characterization
    inf { eps >= 0 : mu(A) <= nu(A_eps) for all A }
exactly on finite supports: the returned value is always one of the pairwise
distances and comes with a feasible witness plan attaining it.

Both bounds hold for the integer instance, and only the distances between
them are sorted.  The lower bound is the larger of two.  The nearest-neighbour
bound is the largest distance from any atom of either side to its nearest
atom of the other side: a single atom with no partner within a smaller eps
violates the condition above (every weight is positive, and so is every
integer capacity).  The projected bound is the largest, over the axes, of the
bottleneck distance between the projections of the two integer-weighted
measures onto one axis, which the monotone coupling attains on the line
(Champion, De Pascale & Juutinen, SIAM J. Math. Anal. 2008): a plan within
a smaller eps would project to a coupling of the projections that beats it.

The upper bound comes from the same monotone couplings, one per axis.  Each
pairs the atoms in the order of their coordinates on that axis, which makes
it a feasible plan of the integer weights with exact marginals; the least
of their largest distances is a feasible threshold.  When it meets the
lower bound, that is when no other distance lies between them, the instance
is decided: the coupling is the witness and no max-flow runs.  That is
every pair on the line, where the projected bound is the optimum, and
pairs such as whole-cell translates of one grid.  Otherwise the search
gallops up from the least distance at or above the lower bound, testing it
and the thresholds 1, 3, 7, ... places above it while they stay below the
coupling's, then bisects between its last infeasible and its first
feasible threshold.  It never tests a threshold that the coupling already
proves feasible, and the coupling stays the witness until a max-flow proves
a smaller threshold feasible.

`winf_many` searches many instances in lockstep, and `winf` is a batch of
one.  Each step runs one max-flow on the disjoint union of the threshold
graphs of the unfinished instances that no coupling decided, each instance
at its own next threshold, all sharing the source and the sink.  An
instance is feasible at its threshold iff the flow on its own source edges
carries its whole total; the union's flow value is never read, since it
sums the instances and can exceed 2^31.  Blocks share no edge, so each
instance is decided exactly as when it runs alone and sees the same
thresholds; its witness is its block's flow at its last feasible step,
which is its optimal threshold, or its coupling if no step was feasible.
The max-flow is scipy's, loaded from its extension module alone
(`_highs.load_extension`).

Weights are scaled to integers with totals of 1e9 by `scale_pair` (the
32-bit max-flow backend wraps above 2^31, and a search refuses a total that
does not fit, whichever route decides it).  The capacities then differ from
the float weights by the amounts it bounds: rounding, sub-unit weights
raised to one unit, and the units that reconcile the two totals, which go
to the entries furthest short of their share.  So the witness plan stays
within about one unit, the transport module's MARGINAL_TOL, of the float
weights unless sub-unit weights were raised, and the threshold is exact
for the scaled weights.  Equal weights round to equal capacities, so uniform instances are
solved exactly.  For measures derived from grids, cell-center quantization
adds at most h*sqrt(n)/2 per measure to the distance.  What a search reads
is the two point sets and these capacities, and nothing else: `instance_key`
returns them, so a caller that caches results keys on it.

`quantile_gaps` is the one kernel of the monotone (quantile) coupling on the
line; its mass rule makes rounding-level differences 0.  `winf_radial` and
the radial scheme sweeps read it directly.  `axis_coupling` sorts two point
sets on the line and maps its segments back to their atoms: the projected
bound and the axis couplings here, and the line route and `monotone_1d` of
`transport`, read it that way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._highs import load_extension
from .errors import InputError
from .measures import DiscreteMeasure, GridDensity, grid_to_atoms
from .transport import Coupling, _assignments, _batches, _check_pairs, _pairwise_distances

# hard cap on atoms per side, as transport.MAX_DENSE_ATOMS is, and set from
# its budget of about 5 s and 300 MB peak RSS per solve.  Peak RSS grows with
# m x n, over a 52 MB interpreter that has run one max-flow, by 17 bytes per
# atom pair on ramp-ball pairs (R = 0.5 against 0.5 or 0.6, w = 0.2, grids
# of extent 2) and by 58 when the threshold graph holds nearly every pair
# (that ball against itself with one atom moved 10 away).  One core of a
# 2-vCPU x86_64 VM: 2009 x 1995 atoms (centers 0.076 apart, six max-flows)
# in 1.0 s at 121 MB, the same ball moved by whole cells (no max-flow) in
# 0.10 s at 121 MB, 1804 x 2608 in 0.18 s at 133 MB, 2828 x 4060 in 0.80 s
# at 249 MB; the moved atom, 1976 x 1976, in 0.40 s at 279 MB.
MAX_ATOMS = 2_000
# atom pairs (m x n, summed over instances) per lockstep batch of `winf_many`.
# Random 2D pairs on one core of a 2-vCPU x86_64 VM, one search per pair ->
# lockstep: 50 pairs of 25 0.146 -> 0.009 s, 20 of 10,000 0.30 -> 0.18 s;
# 8 of 90,000 took 0.58 s either way, so larger batches only hold more memory.
LOCKSTEP_PAIRS = 160_000
# `scale_pair` scales each side's weights to integers totalling about this
FLOW32_SCALE = 10**9
# scipy's max-flow, loaded alone by `maximum_flow`
FLOW = "scipy.sparse.csgraph._flow"


def scale_pair(wa: np.ndarray, wb: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Scale two weight vectors to int64 capacities with equal totals.

    Returns (a, b, total).  Each weight is rounded independently, so equal
    weights round to equal capacities, which matters for bottleneck
    feasibility.  Weights that round to zero are raised to one unit, and
    `_spread` then raises the smaller side to the other side's total.
    """
    wa, wb = np.asarray(wa, dtype=float), np.asarray(wb, dtype=float)
    a = np.maximum(np.rint(wa * FLOW32_SCALE).astype(np.int64), 1)
    b = np.maximum(np.rint(wb * FLOW32_SCALE).astype(np.int64), 1)
    if a.sum() > b.sum():
        _spread(b, wb, int(a.sum()))
    elif a.sum() < b.sum():
        _spread(a, wa, int(b.sum()))
    return a, b, int(a.sum())


def _spread(v: np.ndarray, w: np.ndarray, total: int) -> None:
    """Raise the capacities v of the weights w to `total`, adding the
    missing units in turns of one per entry: every entry gets
    units // len(v), and the units % len(v) with the largest shortfall
    w * total - v from their share (in index order on ties) one more.  So
    each capacity stays within about one unit of its share unless it was
    raised from below half a unit."""
    order = np.argsort(v - w * total, kind="stable")
    q, r = divmod(total - int(v.sum()), len(v))
    v += q
    v[order[:r]] += 1


def instance_key(mu: DiscreteMeasure, nu: DiscreteMeasure) -> tuple[bytes, ...]:
    """Everything a `winf` search reads of one pair: both point sets and the
    integer capacities.  Equal keys give equal results."""
    a, b, _ = scale_pair(mu.weights, nu.weights)
    return (mu.points.tobytes(), nu.points.tobytes(), a.tobytes(), b.tobytes())


@dataclass(frozen=True)
class BottleneckStats:
    """What one `winf` search did.

    route: "coupling" when a monotone coupling met the lower bound, so that
    no max-flow ran, else "maxflow".  thresholds: the thresholds whose
    feasibility it decided, one max-flow step each (0 on the coupling
    route).  maxflows: the max-flow calls of its lockstep batch, which the
    instance shared with the other instances of the batch that took the
    max-flow route (0 on the coupling route).  batch: the instances packed
    with it into one batch, either route.  edges: the atom pairs within the
    returned value.
    """

    thresholds: int
    maxflows: int
    batch: int
    edges: int
    route: str


@dataclass(frozen=True)
class BottleneckResult:
    value: float
    witness_plan: Coupling
    stats: BottleneckStats
    # quantization bound carried by grid-derived inputs (h*sqrt(n)/2 each side)
    quantization_bound: float = 0.0


class _Search:
    """Search state of one instance over `values`, its sorted distinct
    distances from the lower bound up to the best axis coupling's largest
    distance, which is the last of them.

    Every threshold index below `lo` is infeasible; `hi` is the least
    index known feasible, first from the best axis coupling and then from
    the max-flows, and `witness` is a plan within it.  The instance is
    decided once `lo == hi`.  `probe` is the next index to test.  The search
    gallops from the lower bound while `stride` is positive and bisects
    [lo, hi] once a step is feasible or the next gallop would reach `hi`.
    """

    def __init__(self, mu: DiscreteMeasure, nu: DiscreteMeasure):
        self.D = _pairwise_distances(mu, nu)
        self.a, self.b, self.total = scale_pair(mu.weights, nu.weights)
        # numpy wraps an int64 assigned into the int32 graph of `_union_flow`
        # without a warning, and every capacity is at most the total
        if self.total >= 2**31:
            raise ValueError(f"bottleneck total {self.total} does not fit the int32 max-flow")
        # below the nearest-neighbour bound some single atom has no partner
        # within eps: a Hall violator for the float and the integer weights;
        # below the projected bound no plan of the integer weights is feasible
        projected, cap, self.witness = self._projected(mu, nu)
        bound = max(self.D.min(axis=1).max(), self.D.min(axis=0).max(), projected)
        self.values = np.unique(self.D[(self.D >= bound) & (self.D <= cap)])
        self.lo, self.hi = 0, len(self.values) - 1
        self.probe, self.stride = self.lo, 1
        self.thresholds = 0

    def _projected(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> tuple[float, float, Coupling]:
        """The projected bound, and the best axis coupling with its largest
        distance: (bound, cost, plan).

        The bound is the largest, over the axes, of the bottleneck distance
        between the projections of the integer-weighted measures onto one
        axis.  A gap t on one axis is taken as `_distances` rounds it,
        sqrt(fl(t * t)): that is at most every distance with that coordinate
        difference, and nondecreasing in t.  So a plan feasible at a
        threshold projects to a coupling of the projections whose gaps all
        lie within it, and the monotone coupling of `quantile_gaps`
        minimizes the largest gap on the line.  The weights are the
        `scale_pair` integers, whose cumulative sums are exact in float, so
        the mass rule drops only empty segments and the bound holds for the
        scaled problem that the max-flow decides; the float weights can put
        it above that optimum.

        The same coupling, read in the atoms' own order, is a plan of the
        integer weights: each segment moves a whole number of units, and the
        segments of one atom add up to its capacity exactly.  `cost` is its
        largest distance as `D` holds it, and the plan is the one of least
        cost over the axes (the first on ties), with its entries sorted by
        source and then target and its masses divided by the total, as a
        max-flow witness is.
        """
        bound, best = 0.0, None
        a, b = self.a.astype(float), self.b.astype(float)
        for x, y in zip(mu.points.T, nu.points.T):
            mass, gap, src, dst = axis_coupling(x, a, y, b)
            t = gap.max()
            bound = max(bound, np.sqrt(t * t))
            keep = mass > 0
            src, dst = src[keep], dst[keep].astype(np.int32)
            cost = self.D[src, dst].max()
            if best is None or cost < best[0]:
                best = (cost, src, dst, mass[keep])
        cost, src, dst, mass = best
        order = np.lexsort((dst, src))
        plan = Coupling(src[order], dst[order], mass[order] / float(self.total), len(self.a), len(self.b))
        return bound, cost, plan

    def advance(self, feasible: bool) -> bool:
        """Record the step at `probe` and choose the next; False once the
        search has ended at `hi`."""
        if feasible:
            self.hi, self.stride = self.probe, 0
        else:
            self.lo = self.probe + 1
        if self.stride and self.probe + self.stride < self.hi:
            # galloping: from the bound's index L the probes are L, L + 1,
            # L + 3, L + 7, ... below the least index known feasible
            self.probe += self.stride
            self.stride *= 2
        else:
            self.probe, self.stride = (self.lo + self.hi) // 2, 0
        return self.lo < self.hi


def maximum_flow(graph, source: int, sink: int):
    """`scipy.sparse.csgraph.maximum_flow`, from the extension module FLOW
    loaded alone on the first call."""
    return load_extension(FLOW).maximum_flow(graph, source, sink)


def _union_flow(searches: list[_Search], eps: list[float]) -> list[bool]:
    """One max-flow on the disjoint union of the threshold graphs d <= eps[k]
    of `searches[k]`, sharing the source and the sink.

    Instance k is feasible iff the flow on its own source edges carries its
    whole total; the flow value sums all instances and is not read (it can
    exceed 2^31).  A feasible instance keeps its block of the flow as its
    witness.  Every total fits int32, as `_Search` checks.
    """
    from scipy import sparse

    first = np.cumsum([1] + [len(s.a) + len(s.b) for s in searches])
    sink = int(first[-1])
    near = [s.D <= e for s, e in zip(searches, eps)]
    # CSR rows in node order: the source, then each instance's first-side
    # atoms (edges d <= eps) and second-side atoms (one edge to the sink),
    # then the sink, with no edge
    indptr = np.zeros(sink + 2, np.int32)
    indptr[1] = sum(len(s.a) for s in searches)
    for s, f, nr in zip(searches, first, near):
        m = len(s.a)
        indptr[f + 1 : f + m + 1] = nr.sum(axis=1)
        indptr[f + m + 1 : f + m + len(s.b) + 1] = 1
    np.cumsum(indptr, dtype=np.int32, out=indptr)
    indices = np.empty(indptr[-1], np.int32)
    data = np.empty(indptr[-1], np.int32)
    src = 0  # the next source edge
    for s, f, nr in zip(searches, first, near):
        m, n = len(s.a), len(s.b)
        indices[src : src + m] = np.arange(f, f + m, dtype=np.int32)
        data[src : src + m] = s.a
        src += m
        lo, mid, hi = indptr[f], indptr[f + m], indptr[f + m + n]
        cols = np.arange(f + m, f + m + n, dtype=np.int32)
        indices[lo:mid] = np.broadcast_to(cols, nr.shape)[nr]
        data[lo:mid] = s.total
        indices[mid:hi] = sink
        data[mid:hi] = s.b
    graph = sparse.csr_matrix((data, indices, indptr), shape=(sink + 1, sink + 1))
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
    """Run the search of every instance that its coupling did not decide in
    lockstep: one union max-flow per step, each instance at its own probe,
    galloping up from its lower bound and then bisecting.  Each instance
    ends at its optimal threshold, which its witness attains.  Returns the
    number of max-flow calls."""
    calls = 0
    pending = [s for s in searches if s.lo < s.hi]
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
    sees the same thresholds, and so gets the same value, as when it runs
    alone.
    """
    _check_pairs(pairs, MAX_ATOMS)
    out = []
    for run in _batches([len(mu) * len(nu) for mu, nu in pairs], LOCKSTEP_PAIRS):
        searches = [_Search(*pairs[k]) for k in run]
        calls = _lockstep(searches)
        for k, s in zip(run, searches):
            # the minimal feasible threshold is attained by the witness support
            value = float(s.D[s.witness.src, s.witness.dst].max())
            edges = int(np.count_nonzero(s.D <= value))
            route = "maxflow" if s.thresholds else "coupling"
            stats = BottleneckStats(s.thresholds, calls if s.thresholds else 0, len(run), edges, route)
            out.append(BottleneckResult(value, s.witness, stats))
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


def axis_coupling(
    x: np.ndarray, wx: np.ndarray, y: np.ndarray, wy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The monotone coupling on the line of the positive weights wx on the
    points x against wy on y: `quantile_gaps` with x sorted as the row and y
    as the reference.  Returns (mass, gap, i, j) per segment, with the atom
    indices i into x and j into y in their own order."""
    xs, ys = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
    ref = quantile_reference(y[ys], wy[ys])
    mass, gap, ia, ib = (v[0] for v in quantile_gaps(x[xs], wx[xs], *ref))
    return mass, gap, xs[ia], ys[ib]


def quantile_gaps(
    points: np.ndarray, weights: np.ndarray, ref_points: np.ndarray, ref_cum: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The monotone (quantile) coupling on the line of each row against one
    reference distribution, segment by segment.

    `weights` holds one distribution per row on the shared sorted `points`
    (zero entries allowed); the reference is given by `quantile_reference`.
    Each row's cumulative levels are merged with the reference's, row levels
    first on ties.  On each merged segment (previous level, level] the
    coupling pairs the first row and reference atoms whose cumulative weight
    reaches `level`; quantiles past a row's (or the reference's) total go to
    its last positive atom.

    Returns (mass, gap, ia, ib), each of shape (rows, n + m) for n points
    and m reference atoms: the mass each segment matches, the distance it
    moves it, and the indices of its row atom in `points` and of its
    reference atom in `ref_points`.  A segment counts only if its mass
    exceeds (n + m) eps, the rounding bound of the two cumulative sums: two
    distributions equal up to rounding split a level into a sliver that
    pairs an atom with its neighbour.  A segment that does not count has
    mass and gap 0, and keeps its indices.  So a row's W_q is
    (sum mass gap^q)^(1/q) and its bottleneck cost is its largest gap.  From
    one segment to the next, exactly one of ia and ib steps up by one, except
    where a side has run out (its index then stays at its last atom): on a
    row of positive weights the indices walk a staircase from (0, 0) to
    (n - 1, m - 1) through every row and every reference atom.
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
    return mass, np.where(mass > 0, np.abs(points[ia] - ref_points[ib]), 0.0), ia, ib


def winf_radial(mu: RadialMeasure, nu: RadialMeasure) -> float:
    """Bottleneck cost of the monotone rearrangement of radius distributions:
    the largest gap of `quantile_gaps` on one row.

    An accelerator for concentric radial measures; cross-validate against
    winf on coarse grids before trusting it on a new family.
    """
    if np.linalg.norm(mu.center - nu.center) > 1e-12:
        raise InputError("radial measures must share a center")
    gap = quantile_gaps(mu.radii, mu.weights, *quantile_reference(nu.radii, nu.weights))[1]
    return float(gap.max())
