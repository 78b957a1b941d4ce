"""The HiGHS adapter against `scipy.optimize.linprog`, its oracle."""

import subprocess
import sys

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog
from scipy.optimize._highspy._core import simplex_constants

from plqp import _highs, dynamics, transport
from plqp.measures import DiscreteMeasure, make_ramp_ball, translate_curve
from plqp.transport import LP_OPTIONS, wq_lp_many

from helpers import square_grid


def test_adapter_names_exist_in_a_fresh_interpreter():
    # scipy.optimize._highspy and scipy.sparse.csgraph._flow are private to
    # scipy: every name the adapter and the max-flow read must be there on
    # the installed version, and the array form of passModel and addCols,
    # and the calls that change a model in place, must take the arguments
    # the adapter passes
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
from plqp import _highs
for name in _highs.EDGE_WEIGHT_STRATEGIES.values():
    getattr(h.simplex_constants.SimplexEdgeWeightStrategy, name)
H = h._Highs()
for method in ("passModel", "addCols", "run", "setOptionValue", "getOptionValue", "getModelStatus",
               "getInfo", "getSolution", "modelStatusToString", "changeColsBounds",
               "changeColsCost", "changeRowBounds", "changeCoeff", "getColEntries"):
    assert callable(getattr(H, method)), method
for option in ("output_flag", "simplex_strategy", "presolve", "simplex_dual_edge_weight_strategy",
               "primal_feasibility_tolerance", "dual_feasibility_tolerance"):
    assert H.getOptionType(option)[0] == h.HighsStatus.kOk, option
assert hasattr(H.getInfo(), "simplex_iteration_count")
assert _highs.INF == h.kHighsInf
# scipy.sparse.csgraph._flow is private too: bottleneck.maximum_flow calls
# its maximum_flow(graph, source, sink) and reads the CSR arrays of .flow
import scipy.sparse.csgraph._flow as flow
from scipy import sparse
from plqp import bottleneck
assert bottleneck.FLOW == flow.__name__
f = flow.maximum_flow(sparse.csr_matrix(np.array([[0, 2], [0, 0]], dtype=np.int32)), 0, 1).flow
assert list(f.indptr) == [0, 1, 2] and list(f.indices) == [1, 0] and list(f.data) == [2, -2]
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


# solves min x0 + 2 x1 with x0 + x1 = 1 through plqp and through linprog, in
# the order argv[1] names first, then checks that both ran on one module
IMPORT_ORDER_CHILD = """
import sys

def plqp_lp():
    from plqp import _highs
    model = _highs.Model([1.0, 2.0], [0.0, 0.0], [_highs.INF] * 2, [0, 1, 2], [0, 0], [1.0, 1.0],
                         [1.0], [1.0], {"presolve": False})
    assert list(model.run().x) == [1.0, 0.0]
    return model._core

def scipy_lp():
    from scipy.optimize import linprog
    res = linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], method="highs")
    assert res.status == 0 and list(res.x) == [1.0, 0.0], res

if sys.argv[1] == "plqp":
    used = plqp_lp()
    # the adapter alone leaves the scipy.optimize package unloaded
    assert "scipy.optimize" not in sys.modules
    scipy_lp()
else:
    scipy_lp()
    used = plqp_lp()
from plqp import _highs
from scipy.optimize._highspy import _highs_wrapper
assert used is sys.modules[_highs.CORE] is _highs_wrapper._h
print("ok")
"""


@pytest.mark.parametrize("first", ["plqp", "scipy"])
def test_plqp_and_linprog_share_one_highs_module_in_either_order(first):
    # plqp loads HiGHS's binding from its file; scipy.optimize, imported
    # before or after, must run on that same module object, not a copy
    r = subprocess.run([sys.executable, "-c", IMPORT_ORDER_CHILD, first], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["ok"]


# one max-flow through plqp (on a unit path 0 -> 1 -> 2 of capacities 5 and
# 3) and one through scipy.sparse.csgraph, in the order argv[1] names first,
# then checks that both ran on one module
FLOW_ORDER_CHILD = """
import sys
import numpy as np
from scipy import sparse

GRAPH = sparse.csr_matrix(np.array([[0, 5, 0], [0, 0, 3], [0, 0, 0]], dtype=np.int32))

def plqp_flow():
    from plqp import bottleneck
    assert bottleneck.maximum_flow(GRAPH, 0, 2).flow_value == 3
    return sys.modules[bottleneck.FLOW]

def scipy_flow():
    from scipy.sparse import csgraph
    assert csgraph.maximum_flow(GRAPH, 0, 2).flow_value == 3

if sys.argv[1] == "plqp":
    used = plqp_flow()
    # the extension alone leaves the csgraph package and linear algebra unloaded
    for name in ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg"):
        assert name not in sys.modules, name
    scipy_flow()
else:
    scipy_flow()
    used = plqp_flow()
from plqp import bottleneck
from scipy.sparse import csgraph
assert used is sys.modules[bottleneck.FLOW]
assert csgraph.maximum_flow is used.maximum_flow
print("ok")
"""


@pytest.mark.parametrize("first", ["plqp", "scipy"])
def test_plqp_and_csgraph_share_one_max_flow_module_in_either_order(first):
    # plqp loads scipy's max-flow extension from its file; the csgraph
    # package, imported before or after, must hold that same module's function
    r = subprocess.run([sys.executable, "-c", FLOW_ORDER_CHILD, first], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["ok"]


def random_measure(rng, m, dim=2):
    return DiscreteMeasure(rng.uniform(0, 10, (m, dim)), rng.dirichlet(np.ones(m)))


def recorded_transport_lps(monkeypatch, pairs, q):
    """Every transport LP that the LP route builds from scratch on these
    pairs, lines included (`wq_lp_many`): (cost, src, dst, wa, wb)."""
    lps = []
    build = transport._model

    def recording(cost, src, dst, wa, wb):
        lps.append((cost.copy(), src.copy(), dst.copy(), wa, wb))
        return build(cost, src, dst, wa, wb)

    with monkeypatch.context() as patch:
        patch.setattr(transport, "_model", recording)
        wq_lp_many(pairs, q)
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


def one_row_model(options):
    """min x0 + 2 x1 with x0 + x1 = 1, under `options`."""
    return _highs.Model([1.0, 2.0], [0.0, 0.0], [_highs.INF] * 2, [0, 1, 2], [0, 0], [1.0, 1.0],
                        [1.0], [1.0], options)


@pytest.mark.parametrize(
    "option, value",
    [
        ("dual_feasibility_tolerence", 1e-10),  # misspelled
        ("simplex_crash_strategy", 99),  # out of range
        ("dual_feasibility_tolerance", -1e-10),  # negative
        ("simplex_strategy", 1.0),  # a float for an integer option
        ("simplex_dual_edge_weight_strategy", "steep"),  # not a linprog value
    ],
)
def test_adapter_rejects_the_options_highs_rejects(option, value):
    # HiGHS returns an error status and keeps its default; the adapter raised
    # nothing and solved under that default before
    with pytest.raises(ValueError, match=option):
        one_row_model({"presolve": False, option: value})


@pytest.mark.parametrize("value, enum", [
    ("dantzig", "kSimplexEdgeWeightStrategyDantzig"),
    ("devex", "kSimplexEdgeWeightStrategyDevex"),
    ("steepest-devex", "kSimplexEdgeWeightStrategyChoose"),
    ("steepest", "kSimplexEdgeWeightStrategySteepestEdge"),
])
def test_adapter_maps_linprog_edge_weight_strategies(value, enum):
    model = one_row_model({"presolve": False, "simplex_dual_edge_weight_strategy": value})
    want = int(getattr(simplex_constants.SimplexEdgeWeightStrategy, enum))
    assert model._highs.getOptionValue("simplex_dual_edge_weight_strategy")[1] == want
    assert list(model.run().x) == [1.0, 0.0]


def test_devex_pricing_covers_transport_lps_only():
    # every transport model prices with Devex; the sup-norm phases of
    # dynamics keep HiGHS's default (-1, chosen by HiGHS)
    option = "simplex_dual_edge_weight_strategy"
    devex = int(simplex_constants.SimplexEdgeWeightStrategy.kSimplexEdgeWeightStrategyDevex)
    wa = wb = np.full(3, 1 / 3)
    src, dst = np.nonzero(np.ones((3, 3), dtype=bool))
    model = transport._model(np.arange(9.0), src, dst, wa, wb)
    assert model._highs.getOptionValue(option)[1] == devex
    spec = square_grid(16, 2.0)
    traj = translate_curve(make_ramp_ball(spec, (0.0, 0.0), 0.5, 0.2, guard=0.05), (0.125, 0.0), [0.0, 1.0])
    densities = [d.values for d in traj.densities]
    system = dynamics._FaceSystem(spec, densities)
    rhs = (densities[0] - densities[1]).ravel()[system.rows]
    system.sup_norm_momentum(0, rhs, spec.cell_volume)
    for phase in (system.phase1, system.phase2):
        assert phase._highs.getOptionValue(option)[1] == -1
