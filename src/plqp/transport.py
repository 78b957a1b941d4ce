"""Exact q-Wasserstein distances between discrete measures, 1 <= q < infinity.

`wq_many` solves the transport linear program with HiGHS (Huangfu & Hall,
Math. Prog. Comp. 2018), presolve off, on a restricted edge set grown by a
sparse multiscale scheme (Schmitzer, JMIV 2016; Oberman & Ruan,
arXiv:1509.03668); `wq` is a batch of one.  Every LP goes through the HiGHS
adapter `_highs.Model`, built column-wise: each edge column holds two ones,
in its supply row and its demand row.  Instances of at most FULL_EDGE_PAIRS
pairs solve the LP on all pairs, and several of them share one
block-diagonal LP of at most BATCH_EDGES edges, since on LPs that small the
solver's set-up costs more than the solve.  Larger instances, one at a time,
first solve a coarser instance, binned onto a lattice, the same way; its plan
and duals seed the edge set, and pricing rounds add pairs with negative
reduced cost until none is left on all m x n pairs.  The rounds of one level
add their pairs as columns to one HiGHS model, so each re-solve is
warm-started from the last optimal basis.  Each instance is certified
against the true float weights: the plan's marginals to MARGINAL_TOL, and
optimality by the LP duals (u, v): reduced costs d^q - u - v >= 0 on all
pairs and a zero duality gap, both to OPTIMALITY_TOL * max(1, max d^q).  The
reported cost is re-evaluated from the returned plan in float, so it matches
the plan to machine precision.

The 1D oracle `monotone_1d` reads the monotone-coupling kernel
`bottleneck.quantile_gaps` and shares its rounding-aware mass rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _highs
from .errors import InfeasibleError, InputError
from .measures import DiscreteMeasure

MARGINAL_TOL = 1e-9
# relative to max(1, max d^q): bound on negative reduced costs and the gap
OPTIMALITY_TOL = 1e-9
# presolve costs more than it saves on dense transport LPs at every size measured
LP_OPTIONS = {
    "presolve": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
# hard cap on instance size: error out instead of approximating.  Set from a
# budget of about 5 s and 300 MB peak RSS per solve.  Measured on random 2D
# clouds at q = 2, one core of a 2-vCPU x86_64 VM: m = n = 1,000 in 1.8 s at
# 140 MB, 2,000 in 4.7 s at 270 MB, 3,000 in 17 s at 500 MB.
MAX_DENSE_ATOMS = 2_000
# instances with at most this many pairs solve the LP on all of them
FULL_EDGE_PAIRS = 1_600
# edges per block-diagonal LP of `wq_many`.  Random 2D pairs at q = 2 on one
# core of a 2-vCPU x86_64 VM, one LP per pair -> packed at this cap: 100 pairs
# of 64 edges 0.36 -> 0.056 s, 40 of 400 0.18 -> 0.088 s, 60 of 1,600 0.49 ->
# 0.37 s; the last took 0.43 s at a 16,000-edge cap and 0.60 s in one LP.
BATCH_EDGES = 6_400
# atoms per coarse cell, about, on the larger side
COARSE_RATIO = 3
# pairs added per row and per column: the cheapest under the coarse duals
# when seeding, the most negative reduced costs in each pricing round
LINE_EDGES = 8


def __getattr__(name):
    # `linprog` is never called here.  It is bound on first look-up only
    # because perfbench/tracer.py patches it; ROADMAP item 6 deletes it.
    if name == "linprog":
        from scipy.optimize import linprog

        globals()[name] = linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class Coupling:
    """Sparse transport plan: entries (source index, target index, flow)."""

    src: np.ndarray
    dst: np.ndarray
    flow: np.ndarray
    n_src: int
    n_dst: int

    def __post_init__(self):
        if np.any(self.flow < 0):
            raise InputError("flows must be nonnegative")

    def row_sums(self) -> np.ndarray:
        out = np.zeros(self.n_src)
        np.add.at(out, self.src, self.flow)
        return out

    def col_sums(self) -> np.ndarray:
        out = np.zeros(self.n_dst)
        np.add.at(out, self.dst, self.flow)
        return out

    def check_marginals(self, mu: DiscreteMeasure, nu: DiscreteMeasure, tol=MARGINAL_TOL):
        err = max(
            np.abs(self.row_sums() - mu.weights).max(),
            np.abs(self.col_sums() - nu.weights).max(),
        )
        if err > tol:
            raise InfeasibleError(f"coupling marginal error {err} exceeds {tol}")
        return err

    def max_distance(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        d = np.linalg.norm(mu.points[self.src] - nu.points[self.dst], axis=1)
        return float(d.max()) if len(d) else 0.0


@dataclass(frozen=True)
class TransportStats:
    """What one `wq` solve did.

    lp_solves: LP solves per level of the multiscale recursion, finest first
    (one level, one solve, for instances solved on all pairs).  edges: the
    finest level's final edge count.  reduced_cost, gap: the certificate's
    worst negative reduced cost and duality gap, absolute.  batch: the
    instances that shared the finest level's LP (1 unless `wq_many` packed
    it into a block-diagonal LP with others).  simplex_iterations: HiGHS
    simplex iterations summed over the finest level's solves (for a packed
    instance, those of the shared LP).
    """

    lp_solves: tuple[int, ...]
    edges: int
    reduced_cost: float
    gap: float
    batch: int
    simplex_iterations: int

    @property
    def levels(self) -> int:
        """Coarse levels solved below the finest."""
        return len(self.lp_solves) - 1


@dataclass(frozen=True)
class TransportResult:
    cost: float
    q: float
    plan: Coupling
    stats: TransportStats


def _distances(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    return np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)


def _pairwise_distances(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    if mu.dim != nu.dim:
        raise InputError("dimension mismatch between measures")
    return _distances(mu.points, nu.points)


def _plan_cost(D: np.ndarray, plan: Coupling, q: float) -> float:
    dq = D[plan.src, plan.dst] ** q
    return float(np.dot(plan.flow, dq)) ** (1.0 / q)


def _certificate_bound(Cq: np.ndarray) -> float:
    return OPTIMALITY_TOL * max(1.0, float(Cq.max()))


def _columns(src: np.ndarray, dst: np.ndarray, m: int):
    """Bounds and compressed columns of the edges (src[k], dst[k]): column k
    is a flow >= 0 with a 1 in supply row src[k] and in demand row m + dst[k]."""
    k = len(src)
    index = np.empty(2 * k, dtype=np.int32)
    index[0::2] = src
    index[1::2] = m + dst
    return np.zeros(k), np.full(k, _highs.INF), np.arange(0, 2 * k + 1, 2), index, np.ones(2 * k)


def _model(cost: np.ndarray, src: np.ndarray, dst: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> _highs.Model:
    """The transport LP on the edges (src[k], dst[k]) with costs cost[k]."""
    b = np.concatenate([wa, wb])
    return _highs.Model(cost, *_columns(src, dst, len(wa)), b, b, LP_OPTIONS)


def _run(model: _highs.Model, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Solve: the flows, the duals u, v of the supply and demand rows, and
    the simplex iterations of this run."""
    sol = model.run()
    if not sol.optimal:
        raise InfeasibleError(f"transport LP failed: {sol.message}")
    return sol.x, sol.row_dual[:m], sol.row_dual[m:], sol.simplex_iterations


def _solve_lp(
    cost: np.ndarray, src: np.ndarray, dst: np.ndarray, wa: np.ndarray, wb: np.ndarray
) -> tuple[Coupling, np.ndarray, np.ndarray, int]:
    """Transport LP via HiGHS on the edges (src[k], dst[k]) with costs
    cost[k]: the plan, the duals u, v of the supply and demand rows, and the
    simplex iterations."""
    m = len(wa)
    x, u, v, iterations = _run(_model(cost, src, dst, wa, wb), m)
    keep = x > 0
    return Coupling(src[keep], dst[keep], x[keep], m, len(wb)), u, v, iterations


def _solve_blocks(
    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[list[tuple[Coupling, np.ndarray, np.ndarray]], int]:
    """One LP for independent instances (Cq, wa, wb) on all their pairs: the
    instances are the diagonal blocks, each on its own rows and columns.
    Returns each block's plan and duals, and the LP's simplex iterations."""
    rows = np.cumsum([0] + [len(wa) for _, wa, _ in blocks])
    cols = np.cumsum([0] + [len(wb) for _, _, wb in blocks])
    src = np.concatenate([np.repeat(np.arange(r, r + len(wa)), len(wb))
                          for r, (_, wa, wb) in zip(rows, blocks)])
    dst = np.concatenate([np.tile(np.arange(c, c + len(wb)), len(wa))
                          for c, (_, wa, wb) in zip(cols, blocks)])
    plan, u, v, iterations = _solve_lp(
        np.concatenate([Cq.ravel() for Cq, _, _ in blocks]),
        src,
        dst,
        np.concatenate([wa for _, wa, _ in blocks]),
        np.concatenate([wb for _, _, wb in blocks]),
    )
    # the plan keeps the edge order, so each block's entries are contiguous
    cut = np.searchsorted(plan.src, rows)
    return [
        (
            Coupling(
                plan.src[cut[k] : cut[k + 1]] - rows[k],
                plan.dst[cut[k] : cut[k + 1]] - cols[k],
                plan.flow[cut[k] : cut[k + 1]],
                len(wa),
                len(wb),
            ),
            u[rows[k] : rows[k + 1]],
            v[cols[k] : cols[k + 1]],
        )
        for k, (_, wa, wb) in enumerate(blocks)
    ], iterations


def _cells(pa: np.ndarray, pb: np.ndarray, target: int) -> tuple[np.ndarray, np.ndarray]:
    """The cell of every atom of pa and of pb, numbered per side, on one box
    lattice with at most `target` occupied cells on either side."""
    pts = np.concatenate([pa, pb])
    lo = pts.min(axis=0)
    extent = pts.max(axis=0) - lo
    logs = np.log(extent[extent > 0])
    # a cell volume of (box volume) / target, in logs so it cannot overflow,
    # but no side below (largest extent) / target: on a cloud much thinner
    # along one axis the volume rule alone gives cells so small that the
    # index cast overflows and the search takes dozens of passes
    side = 1.0
    if len(logs):
        side = math.exp(max((logs.sum() - math.log(target)) / len(logs), logs.max() - math.log(target)))
    while True:
        key = _lattice_key(np.floor((pts - lo) / side).astype(np.int64))
        cells_a, ca = np.unique(key[: len(pa)], return_inverse=True)
        cells_b, cb = np.unique(key[len(pa) :], return_inverse=True)
        if max(len(cells_a), len(cells_b)) <= target:
            break
        side *= 1.5
    return ca, cb


def _lattice_key(idx: np.ndarray) -> np.ndarray:
    """One int64 per row of lattice indices, ordered as the rows are in
    lexicographic order, so that cells are numbered as `np.unique(idx,
    axis=0)` numbers them.  The non-negative indices are flattened as they
    are; rows whose flat key would not fit one int64 (many wide axes) are
    keyed by that numbering itself."""
    dims = idx.max(axis=0) + 1
    if math.prod(dims.tolist()) > np.iinfo(np.int64).max:
        return np.unique(idx, axis=0, return_inverse=True)[1].ravel()
    return np.ravel_multi_index(tuple(idx.T), dims)


def _pool(cell: np.ndarray, p: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Barycenter and mass of each cell.  Barycenters lie in the hull of
    their atoms, so no coarse distance exceeds the largest fine one."""
    mass = np.bincount(cell, w)
    return np.stack([np.bincount(cell, w * x) for x in p.T], axis=1) / mass[:, None], mass


def _cheapest(R: np.ndarray, k: int) -> np.ndarray:
    """Mask of each row's and each column's k smallest entries of R."""
    m, n = R.shape
    if k >= min(m, n):
        return np.ones((m, n), dtype=bool)
    mask = np.zeros((m, n), dtype=bool)
    mask[np.arange(m)[:, None], np.argpartition(R, k, axis=1)[:, :k]] = True
    mask[np.argpartition(R, k, axis=0)[:k], np.arange(n)] = True
    return mask


def _transport(
    Cq: np.ndarray, pa: np.ndarray, wa: np.ndarray, pb: np.ndarray, wb: np.ndarray, q: float
) -> tuple[Coupling, np.ndarray, np.ndarray, tuple[int, ...], int, int]:
    """Optimal plan and duals for costs Cq by a multiscale restricted LP.

    Instances of at most FULL_EDGE_PAIRS pairs solve the LP on all pairs.
    Larger ones solve a coarse problem on a lattice of about a third as many
    cells, recursively, and start from its support expanded to the atoms of
    each coarse cell (it holds a feasible plan) plus each row's and column's
    cheapest pairs under the coarse duals.  Each round solves the LP on the
    edge set and adds each row's and column's most negative reduced costs
    Cq - u - v over all pairs; it stops once no pair outside the set is below
    -OPTIMALITY_TOL * max(1, max Cq).  The rounds of a level grow one HiGHS
    model by columns, so each re-solve starts from the last optimal basis.
    Returns the plan (entries sorted by source, then target), the duals, the
    LP solves per level (finest first), the final edge count and the simplex
    iterations of this level's solves.
    """
    m, n = Cq.shape
    if m * n <= FULL_EDGE_PAIRS:
        [(plan, u, v)], iterations = _solve_blocks([(Cq, wa, wb)])
        return plan, u, v, (1,), m * n, iterations
    ca, cb = _cells(pa, pb, max(m, n) // COARSE_RATIO)
    (qa, ma), (qb, mb) = _pool(ca, pa, wa), _pool(cb, pb, wb)
    cplan, cu, cv, solves, _, _ = _transport(_distances(qa, qb) ** q, qa, ma, qb, mb, q)
    support = np.zeros((len(qa), len(qb)), dtype=bool)
    support[cplan.src, cplan.dst] = True
    edges = support[ca][:, cb] | _cheapest(Cq - cu[ca][:, None] - cv[cb][None, :], LINE_EDGES)
    bound = _certificate_bound(Cq)
    src, dst = np.nonzero(edges)
    model = _model(Cq[src, dst], src, dst, wa, wb)
    rounds = iterations = 0
    while True:
        x, u, v, its = _run(model, m)
        rounds += 1
        iterations += its
        R = Cq - u[:, None] - v[None, :]
        new = _cheapest(R, LINE_EDGES) & (R < -bound) & ~edges
        if not new.any():
            order = np.lexsort((dst, src))
            order = order[x[order] > 0]
            plan = Coupling(src[order], dst[order], x[order], m, n)
            return plan, u, v, (rounds, *solves), len(src), iterations
        add_src, add_dst = np.nonzero(new)
        model.add_cols(Cq[add_src, add_dst], *_columns(add_src, add_dst, m))
        src, dst = np.concatenate([src, add_src]), np.concatenate([dst, add_dst])
        edges |= new


def check_optimality(
    Cq: np.ndarray,
    plan: Coupling,
    u: np.ndarray,
    v: np.ndarray,
    wa: np.ndarray,
    wb: np.ndarray,
) -> tuple[float, float]:
    """Certify that `plan` is optimal for costs Cq and weights wa, wb.

    The duals must be feasible, Cq - u - v >= -OPTIMALITY_TOL * max(1, max Cq)
    on all m x n pairs, and close the gap: |<plan, Cq> - (u.wa + v.wb)| within
    the same bound.  Returns (worst negative reduced cost, gap), both
    absolute; raises InfeasibleError when either exceeds the bound.
    """
    bound = _certificate_bound(Cq)
    neg = max(0.0, -float((Cq - u[:, None] - v[None, :]).min()))
    gap = abs(float(np.dot(plan.flow, Cq[plan.src, plan.dst])) - float(u @ wa + v @ wb))
    if neg > bound or gap > bound:
        raise InfeasibleError(
            f"transport optimality certificate fails: reduced cost -{neg:.3g}, "
            f"gap {gap:.3g}, bound {bound:.3g}"
        )
    return neg, gap


def _batches(sizes: list[int], cap: int) -> list[list[int]]:
    """Split indices 0..len(sizes)-1 into consecutive runs whose sizes sum to
    at most `cap`; an index whose size alone exceeds `cap` runs alone."""
    runs: list[list[int]] = []
    room = 0
    for k, size in enumerate(sizes):
        if runs and size <= room:
            runs[-1].append(k)
            room -= size
        else:
            runs.append([k])
            room = cap - size
    return runs


def _costs(mu: DiscreteMeasure, nu: DiscreteMeasure, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Distances D and costs D^q of one pair; InputError if D^q overflows."""
    D = _pairwise_distances(mu, nu)
    with np.errstate(over="ignore"):
        Cq = D**q
    if not math.isfinite(float(Cq.max())):
        raise InputError(f"distances to the power q = {q} overflow")
    return D, Cq


def wq_many(pairs: list[tuple[DiscreteMeasure, DiscreteMeasure]], q: float) -> list[TransportResult]:
    """Exact optimum of the transport problem with ground cost d(x, y)^q for
    every pair (mu, nu), in order.

    Pairs of at most FULL_EDGE_PAIRS pairs are packed, in order, into
    block-diagonal LPs of at most BATCH_EDGES edges; larger pairs run the
    multiscale route one at a time.  Every pair is checked and certified on
    its own, at its own bound: its marginals, and `check_optimality` on its
    own costs with its own block of the duals.  Raises if any pair fails
    its input checks or its certificate.
    """
    if math.isinf(q):
        raise InputError("q = inf: use the bottleneck module")
    if q < 1:
        raise InputError("need q >= 1")
    for mu, nu in pairs:
        if len(mu) > MAX_DENSE_ATOMS or len(nu) > MAX_DENSE_ATOMS:
            raise InputError(f"instance exceeds {MAX_DENSE_ATOMS} atoms per side")
        if mu.dim != nu.dim:
            raise InputError("dimension mismatch between measures")
    small = [k for k, (mu, nu) in enumerate(pairs) if len(mu) * len(nu) <= FULL_EDGE_PAIRS]
    costs = {k: _costs(*pairs[k], q) for k in small}
    out: list[TransportResult | None] = [None] * len(pairs)

    def certify(k, D, Cq, plan, u, v, solves, edges, batch, iterations):
        mu, nu = pairs[k]
        plan.check_marginals(mu, nu)
        neg, gap = check_optimality(Cq, plan, u, v, mu.weights, nu.weights)
        stats = TransportStats(solves, edges, neg, gap, batch, iterations)
        out[k] = TransportResult(_plan_cost(D, plan, q), q, plan, stats)

    for run in _batches([costs[k][1].size for k in small], BATCH_EDGES):
        ks = [small[i] for i in run]
        blocks = [(costs[k][1], pairs[k][0].weights, pairs[k][1].weights) for k in ks]
        solved, iterations = _solve_blocks(blocks)
        for k, (plan, u, v) in zip(ks, solved):
            certify(k, *costs[k], plan, u, v, (1,), costs[k][1].size, len(ks), iterations)
    for k, (mu, nu) in enumerate(pairs):
        if out[k] is None:
            D, Cq = _costs(mu, nu, q)
            plan, u, v, solves, edges, iterations = _transport(
                Cq, mu.points, mu.weights, nu.points, nu.weights, q
            )
            certify(k, D, Cq, plan, u, v, solves, edges, 1, iterations)
    return out


def wq(mu: DiscreteMeasure, nu: DiscreteMeasure, q: float) -> TransportResult:
    """Exact optimum of the transport problem with ground cost d(x, y)^q
    (`wq_many` on one pair)."""
    return wq_many([(mu, nu)], q)[0]


def _assignments(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """Every permutation of range(m), one per row, for the brute-force
    oracles; they take uniform equal weights, m <= 8 only."""
    m = len(mu)
    if m != len(nu) or m > 8:
        raise InputError("oracle needs equal atom counts <= 8")
    if np.abs(mu.weights - 1.0 / m).max() > 1e-12 or np.abs(nu.weights - 1.0 / m).max() > 1e-12:
        raise InputError("oracle needs uniform weights")
    return np.array(list(itertools.permutations(range(m))), dtype=np.intp)


def wq_permutation_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure, q: float) -> float:
    """Brute force over all assignments; uniform equal weights, m <= 8 only."""
    P = _assignments(mu, nu)
    Dq = _pairwise_distances(mu, nu) ** q
    # the row terms are added left to right, as a sum over one permutation
    cost = 0.0
    for i in range(len(mu)):
        cost = cost + Dq[i, P[:, i]]
    return float((cost / len(mu)).min()) ** (1.0 / q)


def monotone_1d(mu: DiscreteMeasure, nu: DiscreteMeasure, q: float) -> float:
    """Cost of the sorted (quantile) coupling; optimal on the line for q >= 1.

    It is (sum mass gap^q)^(1/q) over the segments of
    `bottleneck.quantile_gaps`, with mu sorted as the row and nu as the
    reference.
    """
    # bottleneck imports this module, so its kernel is looked up at call time
    from .bottleneck import quantile_gaps, quantile_reference

    if mu.dim != 1 or nu.dim != 1:
        raise InputError("monotone coupling is 1-dimensional only")
    if q < 1 or math.isinf(q):
        raise InputError("need finite q >= 1")
    xs = np.argsort(mu.points[:, 0], kind="stable")
    ys = np.argsort(nu.points[:, 0], kind="stable")
    ref = quantile_reference(nu.points[ys, 0], nu.weights[ys])
    mass, gap = quantile_gaps(mu.points[xs, 0], mu.weights[xs], *ref)
    return float((mass * gap**q).sum() ** (1.0 / q))
