"""The HiGHS adapter against `scipy.optimize.linprog`, its oracle."""

import subprocess
import sys

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from plqp import _highs, transport
from plqp.measures import DiscreteMeasure
from plqp.transport import LP_OPTIONS, wq_many


def test_adapter_names_exist_in_a_fresh_interpreter():
    # scipy.optimize._highspy is private to scipy: every name the adapter
    # reads must be there on the installed version, and the array form of
    # passModel and addCols, and the calls that change a model in place,
    # must take the arguments the adapter passes
    script = """
import numpy as np
import scipy.optimize._highspy._core as h
for name in ("_Highs", "HighsModelStatus", "HighsStatus", "MatrixFormat", "ObjSense",
             "kHighsInf", "simplex_constants"):
    assert hasattr(h, name), name
assert h.kHighsInf == float("inf")
h.MatrixFormat.kColwise, h.ObjSense.kMinimize, h.HighsStatus.kError
h.HighsModelStatus.kOptimal, h.HighsModelStatus.kUnbounded
h.simplex_constants.SimplexStrategy.kSimplexStrategyDual
H = h._Highs()
for method in ("passModel", "addCols", "run", "setOptionValue", "getModelStatus",
               "getInfo", "getSolution", "modelStatusToString", "changeColsBounds",
               "changeColsCost", "changeRowBounds", "changeCoeff", "getColEntries"):
    assert callable(getattr(H, method)), method
for option in ("output_flag", "simplex_strategy", "presolve",
               "primal_feasibility_tolerance", "dual_feasibility_tolerance"):
    assert H.getOptionType(option)[0] == h.HighsStatus.kOk, option
assert hasattr(H.getInfo(), "simplex_iteration_count")
from plqp import _highs
assert _highs.INF == h.kHighsInf
# min x0 + 2 x1 with x0 + x1 = 1, then a cheaper column x2
model = _highs.Model([1.0, 2.0], [0.0, 0.0], [_highs.INF] * 2, [0, 1, 2], [0, 0], [1.0, 1.0],
                     [1.0], [1.0], {"presolve": False, "primal_feasibility_tolerance": 1e-10})
assert list(model.run().x) == [1.0, 0.0]
model.add_cols([0.5], [0.0], [_highs.INF], [0, 1], [0], [1.0])
sol = model.run()
assert sol.optimal and list(sol.x) == [0.0, 0.0, 1.0] and list(sol.row_dual) == [0.5]
# x0 costs 3 and x2 at most 0.25, then x0 + x1 + x2 = 2, then x2 holds 2 in the row
model.change_cols([0, 2], [0.0, 0.0], [_highs.INF, 0.25], [3.0, 0.5])
assert list(model.run().x) == [0.0, 0.75, 0.25]
model.change_rows(np.array([2.0]), np.array([2.0]))
assert list(model.run().x) == [0.0, 1.75, 0.25]
model.replace_col(2, [0], [2.0])
assert list(model.run().x) == [0.0, 1.5, 0.25]
print("ok")
"""
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["ok"]


def random_measure(rng, m, dim=2):
    return DiscreteMeasure(rng.uniform(0, 10, (m, dim)), rng.dirichlet(np.ones(m)))


def recorded_transport_lps(monkeypatch, pairs, q):
    """Every transport LP that `wq_many` builds from scratch on these pairs:
    (cost, src, dst, wa, wb)."""
    lps = []
    build = transport._model

    def recording(cost, src, dst, wa, wb):
        lps.append((cost.copy(), src.copy(), dst.copy(), wa, wb))
        return build(cost, src, dst, wa, wb)

    with monkeypatch.context() as patch:
        patch.setattr(transport, "_model", recording)
        wq_many(pairs, q)
    return lps


@pytest.mark.parametrize("dim, q", [(2, 2.0), (1, 1.5), (3, 1.0)])
def test_transport_lps_match_linprog(monkeypatch, dim, q):
    rng = np.random.default_rng(31)
    # small pairs share block-diagonal LPs on all pairs; the larger ones
    # take the multiscale route, whose levels start on restricted edge sets
    pairs = [(random_measure(rng, m, dim), random_measure(rng, n, dim)) for m, n in rng.integers(2, 30, (12, 2))]
    pairs += [(random_measure(rng, 90, dim), random_measure(rng, 70, dim))]
    lps = recorded_transport_lps(monkeypatch, pairs, q)
    restricted = 0
    for cost, src, dst, wa, wb in lps:
        m, k = len(wa), len(src)
        restricted += k < m * len(wb)
        x, u, v, iterations = transport._run(transport._model(cost, src, dst, wa, wb), m)
        cols = np.arange(k)
        A = sparse.csr_matrix(
            (np.ones(2 * k), (np.concatenate([src, m + dst]), np.concatenate([cols, cols]))),
            shape=(m + len(wb), k),
        )
        b = np.concatenate([wa, wb])
        res = linprog(cost, A_eq=A, b_eq=b, bounds=(0, None), method="highs", options=LP_OPTIONS)
        assert res.status == 0
        np.testing.assert_array_equal(x, res.x)
        np.testing.assert_array_equal(np.concatenate([u, v]), res.eqlin.marginals)
        assert iterations == res.nit
    assert restricted >= 1 and len(lps) - restricted >= 1


def test_unbounded_and_infeasible_status():
    # min -x0 with x0 - x1 = 0 and x >= 0 is unbounded; x0 + x1 = -1 is infeasible
    start, index = [0, 1, 2], [0, 0]
    lower, upper = np.zeros(2), np.full(2, _highs.INF)
    options = {"presolve": False}
    sol = _highs.Model([-1.0, 0.0], lower, upper, start, index, [1.0, -1.0], [0.0], [0.0], options).run()
    assert sol.unbounded and not sol.optimal and sol.x is None
    sol = _highs.Model([1.0, 1.0], lower, upper, start, index, [1.0, 1.0], [-1.0], [-1.0], options).run()
    assert not sol.unbounded and not sol.optimal and "nfeasible" in sol.message


def test_add_cols_resolves_from_the_last_basis():
    # the grown model reaches the optimum of a cold solve of the same LP
    rng = np.random.default_rng(32)
    m = n = 40
    Cq = rng.uniform(0, 1, (m, n))
    wa = wb = np.full(m, 1.0 / m)
    # the diagonal holds a feasible plan
    first = transport._cheapest(Cq, 4) | np.eye(m, dtype=bool)
    src, dst = np.nonzero(first)
    model = transport._model(Cq[src, dst], src, dst, wa, wb)
    transport._run(model, m)
    add_src, add_dst = np.nonzero(~first)
    model.add_cols(Cq[add_src, add_dst], *transport._columns(add_src, add_dst, m))
    x, _, _, _ = transport._run(model, m)
    warm = float(np.dot(x, Cq[np.concatenate([src, add_src]), np.concatenate([dst, add_dst])]))
    all_src, all_dst = np.nonzero(np.ones((m, n), dtype=bool))
    plan, _, _, _ = transport._solve_lp(Cq.ravel(), all_src, all_dst, wa, wb)
    cold = float(np.dot(plan.flow, Cq[plan.src, plan.dst]))
    assert abs(warm - cold) <= 1e-12 * cold
