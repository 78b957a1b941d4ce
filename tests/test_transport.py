import ast
import itertools
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plqp
from plqp import _highs, transport
from plqp.errors import InfeasibleError, InputError
from plqp.measures import DiscreteMeasure
from plqp.transport import (
    _pairwise_distances,
    _solve_lp,
    check_optimality,
    monotone_1d,
    wq,
    wq_many,
    wq_permutation_oracle,
)

TOL = 1e-9


def uniform_pair(rng, m, dim=2, box=10.0):
    a = DiscreteMeasure(rng.uniform(0, box, (m, dim)), np.full(m, 1.0 / m))
    b = DiscreteMeasure(rng.uniform(0, box, (m, dim)), np.full(m, 1.0 / m))
    return a, b


def random_measure(rng, m, dim=2, box=10.0):
    return DiscreteMeasure(rng.uniform(0, box, (m, dim)), rng.dirichlet(np.ones(m)))


# ---------------------------------------------------------------------------
# spec examples
# ---------------------------------------------------------------------------


def test_single_atom_pair():
    mu = DiscreteMeasure([[0.0]], [1.0])
    nu = DiscreteMeasure([[3.0]], [1.0])
    assert wq(mu, nu, 2.0).cost == pytest.approx(3.0, abs=TOL)


def test_two_atom_example_all_routes():
    # independent oracle: scan the one-parameter 2x2 transport polytope
    mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[0.0], [2.0]], [0.5, 0.5])
    D = np.abs(mu.points - nu.points.T)
    best = math.inf
    for t in np.linspace(0, 0.5, 100_001):
        flow = np.array([[t, 0.5 - t], [0.5 - t, t]])
        best = min(best, (flow * D).sum())
    assert best == pytest.approx(0.5, abs=1e-9)
    assert wq(mu, nu, 1.0).cost == pytest.approx(0.5, abs=TOL)
    assert monotone_1d(mu, nu, 1.0) == pytest.approx(0.5, abs=TOL)
    assert wq_permutation_oracle(mu, nu, 1.0) == pytest.approx(0.5, abs=TOL)


def test_self_distance_zero_identity_plan():
    rng = np.random.default_rng(0)
    mu = random_measure(rng, 5)
    res = wq(mu, mu, 2.0)
    assert res.cost == pytest.approx(0.0, abs=TOL)
    on_diag = res.plan.src == res.plan.dst
    assert res.plan.flow[~on_diag].sum() == pytest.approx(0.0, abs=TOL)


def test_permutation_oracle_m1():
    mu = DiscreteMeasure([[1.0, 2.0]], [1.0])
    nu = DiscreteMeasure([[4.0, 6.0]], [1.0])
    assert wq_permutation_oracle(mu, nu, 3.0) == pytest.approx(5.0, abs=TOL)


def test_permutation_oracle_rejects_nonuniform():
    mu = DiscreteMeasure([[0.0], [1.0]], [0.3, 0.7])
    nu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    with pytest.raises(InputError):
        wq_permutation_oracle(mu, nu, 1.0)


def test_monotone_translate_is_shift():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 5, (7, 1))
    w = rng.dirichlet(np.ones(7))
    mu = DiscreteMeasure(pts, w)
    for q in (1.0, 2.0, 3.5):
        nu = DiscreteMeasure(pts + 0.75, w)
        assert monotone_1d(mu, nu, q) == pytest.approx(0.75, abs=1e-12)


def test_monotone_rejects_2d():
    rng = np.random.default_rng(2)
    a, b = uniform_pair(rng, 3, dim=2)
    with pytest.raises(InputError):
        monotone_1d(a, b, 1.0)


# ---------------------------------------------------------------------------
# exactness cross-checks
# ---------------------------------------------------------------------------


def test_wq_equals_permutation_oracle():
    rng = np.random.default_rng(7)
    for _ in range(60):
        m = int(rng.integers(2, 7))
        q = float(rng.choice([1.0, 1.5, 2.0, 4.0]))
        a, b = uniform_pair(rng, m)
        assert abs(wq(a, b, q).cost - wq_permutation_oracle(a, b, q)) <= TOL


def test_wq_equals_monotone_1d():
    rng = np.random.default_rng(8)
    for _ in range(40):
        m, k = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        q = float(rng.choice([1.0, 2.0, 3.0]))
        a = random_measure(rng, m, dim=1)
        b = random_measure(rng, k, dim=1)
        assert abs(wq(a, b, q).cost - monotone_1d(a, b, q)) <= TOL


def eighths(rng, m):
    """m positive multiples of 1/8 summing to 1, not all equal."""
    while True:
        cuts = np.sort(rng.choice(np.arange(1, 8), m - 1, replace=False))
        counts = np.diff(np.concatenate([[0], cuts, [8]]))
        if len(set(counts)) > 1:
            return counts


def test_wq_exact_on_nonuniform_pairs_via_split_atoms():
    # splitting an atom of weight k/8 into k copies of weight 1/8 leaves W_q
    # unchanged, and the split pair is uniform with 8 atoms a side, so brute
    # force over its 8! assignments is an independent reference for m != n,
    # non-uniform.  DiscreteMeasure merges duplicate points, so the split pair
    # is kept as its repeated cost matrix, not as measures.
    perms = np.array(list(itertools.permutations(range(8))))
    rng = np.random.default_rng(9)
    for q in (1.0, 1.5, 2.0, 3.0, 2.0, 1.0):
        m = int(rng.integers(2, 6))
        n = int(rng.choice([k for k in range(2, 7) if k != m]))
        ca, cb = eighths(rng, m), eighths(rng, n)
        mu = DiscreteMeasure(rng.uniform(0, 10, (m, 2)), ca / 8)
        nu = DiscreteMeasure(rng.uniform(0, 10, (n, 2)), cb / 8)
        Dq = _pairwise_distances(mu, nu) ** q
        split = np.repeat(np.repeat(Dq, ca, axis=0), cb, axis=1)
        best = split[np.arange(8), perms].sum(axis=1).min() / 8
        assert abs(wq(mu, nu, q).cost - best ** (1 / q)) <= TOL


def test_optimality_certificate_holds_and_rejects_perturbed_duals():
    rng = np.random.default_rng(10)
    for _ in range(10):
        # unit box: the bound 1e-9 * max(1, max Cq) stays below 3e-9
        a = random_measure(rng, int(rng.integers(1, 30)), box=1.0)
        b = random_measure(rng, int(rng.integers(1, 30)), box=1.0)
        q = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        Cq = _pairwise_distances(a, b) ** q
        src, dst = np.nonzero(np.ones(Cq.shape, dtype=bool))
        plan, u, v, _ = _solve_lp(Cq.ravel(), src, dst, a.weights, b.weights)
        neg, gap = check_optimality(Cq, plan, u, v, a.weights, b.weights)
        assert max(neg, gap) <= 1e-9 * max(1.0, Cq.max())
        # every row and column carries flow, so raising any one dual by 1e-6
        # makes a reduced cost on the plan's support negative by 1e-6
        for i in range(len(u)):
            bad = u.copy()
            bad[i] += 1e-6
            with pytest.raises(InfeasibleError, match="certificate"):
                check_optimality(Cq, plan, bad, v, a.weights, b.weights)
        for j in range(len(v)):
            bad = v.copy()
            bad[j] += 1e-6
            with pytest.raises(InfeasibleError, match="certificate"):
                check_optimality(Cq, plan, u, bad, a.weights, b.weights)


def test_wq_raises_when_certificate_fails(monkeypatch):
    # 4 x 5 atoms: one LP on all pairs, whose perturbed duals reach the
    # final certificate unchanged
    def perturbed(cost, src, dst, wa, wb):
        plan, u, v, iterations = _solve_lp(cost, src, dst, wa, wb)
        return plan, u + 1e-6, v, iterations

    monkeypatch.setattr(transport, "_solve_lp", perturbed)
    rng = np.random.default_rng(11)
    with pytest.raises(InfeasibleError, match="certificate"):
        wq(random_measure(rng, 4, box=1.0), random_measure(rng, 5, box=1.0), 2.0)


def batch_pairs(rng, count, dim, sizes=(1, 31)):
    """Random pairs with m != n mostly, uniform weights every fourth pair."""
    pairs = []
    for k in range(count):
        m, n = (int(x) for x in rng.integers(*sizes, 2))
        a, b = random_measure(rng, m, dim), random_measure(rng, n, dim)
        if k % 4 == 0:
            a = DiscreteMeasure(a.points, np.full(m, 1.0 / m))
            b = DiscreteMeasure(b.points, np.full(n, 1.0 / n))
        pairs.append((a, b))
    return pairs


@pytest.mark.parametrize("dim, q", [(2, 2.0), (1, 1.5)])
def test_wq_many_matches_singleton_wq(monkeypatch, dim, q):
    rng = np.random.default_rng(23)
    pairs = batch_pairs(rng, 40, dim)
    # one pair above FULL_EDGE_PAIRS takes the multiscale route in the same call
    pairs.insert(17, (random_measure(rng, 50, dim), random_measure(rng, 45, dim)))
    edges = []

    def spy(cost, src, dst, wa, wb):
        edges.append(len(src))
        return _solve_lp(cost, src, dst, wa, wb)

    monkeypatch.setattr(transport, "_solve_lp", spy)
    many = wq_many(pairs, q)
    assert max(edges) <= transport.BATCH_EDGES
    small = [r for (a, b), r in zip(pairs, many) if len(a) * len(b) <= transport.FULL_EDGE_PAIRS]
    # each LP of b pairs gives b results with batch = b: the edge cap split
    # the small pairs into several block LPs of several pairs each
    assert sum(1 / r.stats.batch for r in small) >= 2
    assert min(r.stats.batch for r in small) > 1
    assert many[17].stats.batch == 1 and many[17].stats.levels >= 1
    for (a, b), res in zip(pairs, many):
        one = wq(a, b, q)
        assert abs(res.cost - one.cost) <= 1e-15 * one.cost
        assert res.plan.check_marginals(a, b) <= TOL
        bound = transport.OPTIMALITY_TOL * max(1.0, float((_pairwise_distances(a, b) ** q).max()))
        assert 0.0 <= res.stats.reduced_cost <= bound and 0.0 <= res.stats.gap <= bound


def test_wq_many_certifies_each_block(monkeypatch):
    rng = np.random.default_rng(24)
    pairs = [(random_measure(rng, m, box=1.0), random_measure(rng, m + 1, box=1.0)) for m in (3, 4, 5, 6)]
    rows = np.cumsum([0] + [len(a) for a, _ in pairs])

    def perturbed(cost, src, dst, wa, wb):
        # raise the supply duals of the third block only
        plan, u, v, iterations = _solve_lp(cost, src, dst, wa, wb)
        u = u.copy()
        u[rows[2] : rows[3]] += 1e-6
        return plan, u, v, iterations

    assert {r.stats.batch for r in wq_many(pairs, 2.0)} == {4}
    monkeypatch.setattr(transport, "_solve_lp", perturbed)
    with pytest.raises(InfeasibleError, match="certificate"):
        wq_many(pairs, 2.0)


def test_wq_many_checks_every_pair():
    rng = np.random.default_rng(25)
    good = (random_measure(rng, 3), random_measure(rng, 4))
    flat = (random_measure(rng, 3, dim=1), random_measure(rng, 4))
    with pytest.raises(InputError, match="dimension"):
        wq_many([good, flat], 2.0)
    far = (DiscreteMeasure([[0.0]], [1.0]), DiscreteMeasure([[10.0]], [1.0]))
    with pytest.raises(InputError, match="overflow"):
        wq_many([good, far], 1e5)
    assert wq_many([], 2.0) == []


def full_edge_cost(mu, nu, q):
    """W_q from one LP on all m x n pairs: the reference for the multiscale route."""
    D = _pairwise_distances(mu, nu)
    Cq = D**q
    src, dst = np.nonzero(np.ones(Cq.shape, dtype=bool))
    plan, _, _, _ = _solve_lp(Cq.ravel(), src, dst, mu.weights, nu.weights)
    return float(np.dot(plan.flow, Cq[plan.src, plan.dst])) ** (1 / q)


def lattice_shift(k, shift):
    """Uniform weights on a k x k lattice and on its translate: degenerate."""
    pts = np.stack(np.meshgrid(np.arange(k), np.arange(k), indexing="ij"), -1).reshape(-1, 2)
    w = np.full(k * k, 1.0 / (k * k))
    return DiscreteMeasure(pts.astype(float), w), DiscreteMeasure(pts + np.asarray(shift), w)


def far_clouds(rng, m, n, dim):
    # unit boxes 20 apart: every pair costs about the same
    return random_measure(rng, m, dim, box=1.0), DiscreteMeasure(
        20.0 + rng.uniform(0, 1, (n, dim)), rng.dirichlet(np.ones(n))
    )


MULTISCALE_CASES = {
    **{f"lattice_q{q}": (lambda rng: lattice_shift(15, (1.0, 0.0)), q) for q in (1.0, 1.5, 2.0, 3.0)},
    "far_q1": (lambda rng: far_clouds(rng, 140, 110, 2), 1.0),
    "far_q2": (lambda rng: far_clouds(rng, 110, 140, 2), 2.0),
    "line_q1.5": (lambda rng: (random_measure(rng, 240, 1), random_measure(rng, 170, 1)), 1.5),
    "cube_q2": (lambda rng: (random_measure(rng, 120, 3), random_measure(rng, 150, 3)), 2.0),
    "few_by_many_q2": (lambda rng: (random_measure(rng, 3, 2), random_measure(rng, 700, 2)), 2.0),
}


@pytest.mark.parametrize("case", sorted(MULTISCALE_CASES))
def test_multiscale_matches_full_edge_lp(case):
    make, q = MULTISCALE_CASES[case]
    mu, nu = make(np.random.default_rng(20))
    assert len(mu) * len(nu) > transport.FULL_EDGE_PAIRS
    res = wq(mu, nu, q)
    full = full_edge_cost(mu, nu, q)
    assert abs(res.cost - full) <= 1e-12 * full
    st = res.stats
    assert st.levels >= 1 and len(st.lp_solves) == st.levels + 1
    assert st.edges <= len(mu) * len(nu)
    bound = transport.OPTIMALITY_TOL * max(1.0, float((_pairwise_distances(mu, nu) ** q).max()))
    assert 0.0 <= st.reduced_cost <= bound and 0.0 <= st.gap <= bound
    if case == "lattice_q1.0":
        # the degenerate W_1 shift needs pricing rounds beyond the seeded solve
        assert st.lp_solves[0] >= 2


def test_multiscale_is_deterministic():
    rng = np.random.default_rng(21)
    mu, nu = random_measure(rng, 160), random_measure(rng, 130)
    one, two = wq(mu, nu, 2.0), wq(mu, nu, 2.0)
    assert one.stats.levels >= 1
    assert one.cost == two.cost and one.stats == two.stats
    for field in ("src", "dst", "flow"):
        np.testing.assert_array_equal(getattr(one.plan, field), getattr(two.plan, field))


def unique_cells(pa, pb, target):
    """`transport._cells` with every lattice numbered by `np.unique(axis=0)`:
    the reference for its flat keys."""
    pts = np.concatenate([pa, pb])
    lo = pts.min(axis=0)
    extent = pts.max(axis=0) - lo
    logs = np.log(extent[extent > 0])
    side = 1.0
    if len(logs):
        side = math.exp(max((logs.sum() - math.log(target)) / len(logs), logs.max() - math.log(target)))
    while True:
        idx = np.floor((pts - lo) / side).astype(np.int64)
        cells_a, ca = np.unique(idx[: len(pa)], axis=0, return_inverse=True)
        cells_b, cb = np.unique(idx[len(pa) :], axis=0, return_inverse=True)
        if max(len(cells_a), len(cells_b)) <= target:
            return ca.ravel(), cb.ravel()
        side *= 1.5


@pytest.mark.filterwarnings("error")
def test_cells_number_as_unique_rows():
    rng = np.random.default_rng(22)
    clouds = []
    for dim in (1, 2, 3):
        for _ in range(20):
            m, n = rng.integers(2, 400, 2)
            scale = 10.0 ** rng.uniform(-3, 3, dim)
            clouds.append((rng.uniform(0, 1, (m, dim)) * scale, rng.normal(0, 1, (n, dim)) * scale))
    # thin along one axis, where cells are (largest extent) / target wide; in
    # 11D the indices of ten wide axes overflow one int64 key
    for scale in ([1.0, 1e-40], [1.0, 1.0, 1e-30], [1.0] * 10 + [1e-30]):
        clouds.append(tuple(rng.uniform(0, 1, (300, len(scale))) * scale for _ in "ab"))
    for pa, pb in clouds:
        target = max(len(pa), len(pb)) // transport.COARSE_RATIO
        got, want = transport._cells(pa, pb, target), unique_cells(pa, pb, target)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("thin", [1e-30, 1e-40])
def test_thin_cloud_lattice_takes_few_passes(monkeypatch, thin):
    # 60 atoms a side, 1e30 or 1e40 times thinner along y: the coarse cells
    # are at least (x extent) / target wide, so the lattice search neither
    # grows its side for dozens of passes nor overflows the index cast
    passes = []
    key = transport._lattice_key
    monkeypatch.setattr(transport, "_lattice_key", lambda idx: passes.append(idx) or key(idx))
    rng = np.random.default_rng(3)
    pa, pb = (rng.uniform(0, 1, (60, 2)) * [1.0, thin] + [shift, 0.0] for shift in (0.0, 0.1))
    wa, wb = rng.dirichlet(np.ones(60)), rng.dirichlet(np.ones(60))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = transport.wq(DiscreteMeasure(pa, wa), DiscreteMeasure(pb, wb), 2)
    assert 1 <= len(passes) <= 3
    line = transport.monotone_1d(DiscreteMeasure(pa[:, :1], wa), DiscreteMeasure(pb[:, :1], wb), 2)
    assert abs(res.cost - line) <= 1e-12


def test_pricing_rounds_grow_one_model_per_level(monkeypatch):
    # the degenerate W_1 lattice shift needs pricing rounds; each level's
    # rounds re-run one HiGHS model grown by columns, from its last basis
    mu, nu = lattice_shift(15, (1.0, 0.0))
    models, runs = [], []
    init, run = _highs.Model.__init__, _highs.Model.run

    def counted_init(model, *args):
        models.append(model)
        init(model, *args)

    def counted_run(model):
        runs.append((model, run(model)))
        return runs[-1][1]

    monkeypatch.setattr(_highs.Model, "__init__", counted_init)
    monkeypatch.setattr(_highs.Model, "run", counted_run)
    Cq = _pairwise_distances(mu, nu)
    plan, u, v, solves, edges, iterations = transport._transport(
        Cq, mu.points, mu.weights, nu.points, nu.weights, 1.0
    )
    assert solves[0] >= 2
    assert len(models) == len(solves) and len(runs) == sum(solves)
    assert iterations == sum(sol.simplex_iterations for model, sol in runs if model is models[-1])
    assert np.all(np.diff(plan.src * len(nu) + plan.dst) > 0)
    check_optimality(Cq, plan, u, v, mu.weights, nu.weights)
    cost = float(np.dot(plan.flow, Cq[plan.src, plan.dst]))
    monkeypatch.undo()
    assert abs(cost - full_edge_cost(mu, nu, 1.0)) <= 1e-12 * cost


def test_simplex_iterations_of_the_finest_level():
    rng = np.random.default_rng(26)
    pairs = [(random_measure(rng, 5), random_measure(rng, 6)) for _ in range(3)]
    pairs.append((random_measure(rng, 60), random_measure(rng, 50)))
    many = wq_many(pairs, 2.0)
    # the three small pairs share one LP and report its iterations
    assert len({r.stats.simplex_iterations for r in many[:3]}) == 1
    assert all(r.stats.simplex_iterations > 0 for r in many)
    a, b = pairs[0]
    Cq = _pairwise_distances(a, b) ** 2.0
    src, dst = np.nonzero(np.ones(Cq.shape, dtype=bool))
    assert wq(a, b, 2.0).stats.simplex_iterations == _solve_lp(Cq.ravel(), src, dst, a.weights, b.weights)[3]


def test_small_instances_solve_on_all_pairs():
    rng = np.random.default_rng(22)
    mu, nu = random_measure(rng, 30), random_measure(rng, 40)
    st = wq(mu, nu, 2.0).stats
    assert st.lp_solves == (1,) and st.levels == 0 and st.edges == 30 * 40 and st.batch == 1


def test_overflowing_exponent_is_input_error():
    mu = DiscreteMeasure([[0.0]], [1.0])
    nu = DiscreteMeasure([[10.0]], [1.0])
    with pytest.raises(InputError, match="overflow"):
        wq(mu, nu, 1e5)


def test_runs_on_numpy_and_scipy_alone():
    # plqp's sources import only the standard library, numpy and scipy ...
    named = set()
    for path in Path(plqp.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                named.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                named.add(node.module)
    third_party = {name for name in named if name.split(".")[0] not in sys.stdlib_module_names}
    assert {name.split(".")[0] for name in third_party} == {"numpy", "scipy"}
    # ... and, once those are loaded, importing plqp and running the CLI loads
    # nothing from site-packages outside plqp, numpy and scipy
    script = f"""
import contextlib, importlib, io, os, sys, sysconfig
for name in {sorted(third_party)!r}:
    importlib.import_module(name)
before = set(sys.modules)
import plqp, plqp.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert plqp.cli.main(["oracle", "--instances", "3", "--seed", "0"]) == 0
real = lambda path: os.path.realpath(path) + os.sep
own = [real(os.path.dirname(sys.modules[top].__file__)) for top in ("plqp", "numpy", "scipy")]
site = [real(sysconfig.get_paths()[k]) for k in ("purelib", "platlib")]
for name in sorted(set(sys.modules) - before):
    f = os.path.realpath(getattr(sys.modules[name], "__file__", None) or own[0])
    if not any(f.startswith(d) for d in own) and any(f.startswith(d) for d in site):
        print(name)
"""
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == []


# ---------------------------------------------------------------------------
# metric properties and plan invariants
# ---------------------------------------------------------------------------


def test_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_measure(rng, int(rng.integers(2, 7)))
        b = random_measure(rng, int(rng.integers(2, 7)))
        assert abs(wq(a, b, 2.0).cost - wq(b, a, 2.0).cost) <= TOL


def test_triangle_inequality():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = random_measure(rng, int(rng.integers(2, 6)))
        b = random_measure(rng, int(rng.integers(2, 6)))
        c = random_measure(rng, int(rng.integers(2, 6)))
        q = float(rng.choice([1.0, 2.0, 3.0]))
        assert wq(a, c, q).cost <= wq(a, b, q).cost + wq(b, c, q).cost + TOL


def test_monotone_in_q():
    rng = np.random.default_rng(13)
    for _ in range(15):
        a = random_measure(rng, int(rng.integers(2, 7)))
        b = random_measure(rng, int(rng.integers(2, 7)))
        qs = sorted(rng.uniform(1.0, 6.0, 3))
        costs = [wq(a, b, q).cost for q in qs]
        assert costs[0] <= costs[1] + TOL
        assert costs[1] <= costs[2] + TOL


def test_plan_feasibility_and_cost_consistency():
    rng = np.random.default_rng(14)
    for _ in range(20):
        a = random_measure(rng, int(rng.integers(2, 9)))
        b = random_measure(rng, int(rng.integers(2, 9)))
        q = float(rng.choice([1.0, 2.0]))
        res = wq(a, b, q)
        assert res.plan.check_marginals(a, b) <= TOL
        D = np.linalg.norm(a.points[:, None, :] - b.points[None, :, :], axis=2)
        direct = float(np.dot(res.plan.flow, D[res.plan.src, res.plan.dst] ** q)) ** (1 / q)
        assert res.cost == pytest.approx(direct, abs=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=6),
    st.lists(st.floats(-5, 5), min_size=2, max_size=6),
    st.floats(1.0, 5.0),
)
def test_property_monotone_matches_exact_solver(xs, ys, q):
    mu = DiscreteMeasure(np.array(xs)[:, None], np.full(len(xs), 1.0 / len(xs)))
    nu = DiscreteMeasure(np.array(ys)[:, None], np.full(len(ys), 1.0 / len(ys)))
    assert abs(wq(mu, nu, q).cost - monotone_1d(mu, nu, q)) <= 1e-8


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


def test_bad_exponents():
    mu = DiscreteMeasure([[0.0]], [1.0])
    nu = DiscreteMeasure([[1.0]], [1.0])
    with pytest.raises(InputError):
        wq(mu, nu, 0.5)
    with pytest.raises(InputError, match="bottleneck"):
        wq(mu, nu, math.inf)


def test_size_cap():
    pts = np.arange(5001, dtype=float)[:, None]
    w = np.full(5001, 1.0 / 5001)
    big = DiscreteMeasure(pts, w)
    small = DiscreteMeasure([[0.0]], [1.0])
    with pytest.raises(InputError, match="atoms"):
        wq(big, small, 1.0)
