"""Exact q-Wasserstein distances between discrete measures, 1 <= q < infinity.

`wq` solves the transport linear program on the complete bipartite graph with
HiGHS (Huangfu & Hall, Math. Prog. Comp. 2018), presolve off, on every
instance size.  Each solve is certified against the true float weights: the
plan's marginals to MARGINAL_TOL, and optimality by the LP duals (u, v):
reduced costs d^q - u - v >= 0 on all pairs and a zero duality gap, both to
OPTIMALITY_TOL * max(1, max d^q).  The reported cost is re-evaluated
from the returned plan in float, so it matches the plan to machine precision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

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
# hard cap on instance size: error out instead of approximating
MAX_DENSE_ATOMS = 5_000


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
class TransportResult:
    cost: float
    q: float
    plan: Coupling


def _pairwise_distances(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    if mu.dim != nu.dim:
        raise InputError("dimension mismatch between measures")
    diff = mu.points[:, None, :] - nu.points[None, :, :]
    return np.linalg.norm(diff, axis=2)


def _plan_cost(D: np.ndarray, plan: Coupling, q: float) -> float:
    dq = D[plan.src, plan.dst] ** q
    return float(np.dot(plan.flow, dq)) ** (1.0 / q)


def _solve_lp(
    Cq: np.ndarray, wa: np.ndarray, wb: np.ndarray
) -> tuple[Coupling, np.ndarray, np.ndarray]:
    """Dense transport LP via HiGHS: the plan and the duals u, v of the
    supply and demand rows."""
    m, n = Cq.shape
    cols = np.arange(m * n)
    rows_supply = np.repeat(np.arange(m), n)
    rows_demand = m + np.tile(np.arange(n), m)
    A = sparse.csr_matrix(
        (
            np.ones(2 * m * n),
            (np.concatenate([rows_supply, rows_demand]), np.concatenate([cols, cols])),
        ),
        shape=(m + n, m * n),
    )
    b = np.concatenate([wa, wb])
    res = linprog(Cq.ravel(), A_eq=A, b_eq=b, bounds=(0, None), method="highs", options=LP_OPTIONS)
    if res.status != 0:
        raise InfeasibleError(f"transport LP failed: {res.message}")
    x = np.asarray(res.x).reshape(m, n)
    x[x < 0] = 0.0
    src, dst = np.nonzero(x)
    duals = np.asarray(res.eqlin.marginals)
    return Coupling(src, dst, x[src, dst], m, n), duals[:m], duals[m:]


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
    bound = OPTIMALITY_TOL * max(1.0, float(Cq.max()))
    neg = max(0.0, -float((Cq - u[:, None] - v[None, :]).min()))
    gap = abs(float(np.dot(plan.flow, Cq[plan.src, plan.dst])) - float(u @ wa + v @ wb))
    if neg > bound or gap > bound:
        raise InfeasibleError(
            f"transport optimality certificate fails: reduced cost -{neg:.3g}, "
            f"gap {gap:.3g}, bound {bound:.3g}"
        )
    return neg, gap


def wq(mu: DiscreteMeasure, nu: DiscreteMeasure, q: float) -> TransportResult:
    """Exact optimum of the transport problem with ground cost d(x, y)^q."""
    if math.isinf(q):
        raise InputError("q = inf: use the bottleneck module")
    if q < 1:
        raise InputError("need q >= 1")
    if len(mu) > MAX_DENSE_ATOMS or len(nu) > MAX_DENSE_ATOMS:
        raise InputError(f"instance exceeds {MAX_DENSE_ATOMS} atoms per side")
    D = _pairwise_distances(mu, nu)
    Cq = D**q
    plan, u, v = _solve_lp(Cq, mu.weights, nu.weights)
    plan.check_marginals(mu, nu)
    check_optimality(Cq, plan, u, v, mu.weights, nu.weights)
    return TransportResult(_plan_cost(D, plan, q), q, plan)


def wq_permutation_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure, q: float) -> float:
    """Brute force over all assignments; uniform equal weights, m <= 8 only."""
    m = len(mu)
    if m != len(nu) or m > 8:
        raise InputError("oracle needs equal atom counts <= 8")
    if np.abs(mu.weights - 1.0 / m).max() > 1e-12 or np.abs(nu.weights - 1.0 / m).max() > 1e-12:
        raise InputError("oracle needs uniform weights")
    Dq = _pairwise_distances(mu, nu) ** q
    best = math.inf
    for perm in itertools.permutations(range(m)):
        cost = sum(Dq[i, perm[i]] for i in range(m)) / m
        best = min(best, cost)
    return best ** (1.0 / q)


def monotone_1d(mu: DiscreteMeasure, nu: DiscreteMeasure, q: float) -> float:
    """Cost of the sorted (quantile) coupling; optimal on the line for q >= 1."""
    if mu.dim != 1 or nu.dim != 1:
        raise InputError("monotone coupling is 1-dimensional only")
    if q < 1 or math.isinf(q):
        raise InputError("need finite q >= 1")
    xs = np.argsort(mu.points[:, 0], kind="stable")
    ys = np.argsort(nu.points[:, 0], kind="stable")
    cost = 0.0
    i = j = 0
    ra = mu.weights[xs[0]]
    rb = nu.weights[ys[0]]
    while True:
        f = min(ra, rb)
        cost += f * abs(mu.points[xs[i], 0] - nu.points[ys[j], 0]) ** q
        ra -= f
        rb -= f
        if ra <= 1e-15:
            i += 1
            if i == len(xs):
                break
            ra = mu.weights[xs[i]]
        if rb <= 1e-15:
            j += 1
            if j == len(ys):
                break
            rb = nu.weights[ys[j]]
    return cost ** (1.0 / q)
