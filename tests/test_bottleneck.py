import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plqp import bottleneck
from plqp.bottleneck import (
    RadialMeasure,
    quantile_gaps,
    quantile_reference,
    winf,
    winf_grid,
    winf_many,
    winf_permutation_oracle,
    winf_radial,
)
from plqp.errors import InputError
from plqp.instances import rectangle_split_instance
from plqp.measures import DiscreteMeasure, grid_to_atoms, make_ramp_ball, translate_curve
from plqp.transport import MARGINAL_TOL, monotone_1d, wq

from helpers import indicator_ball, square_grid

TOL = 1e-9


def uniform_pair(rng, m, dim=2, box=10.0):
    a = DiscreteMeasure(rng.uniform(0, box, (m, dim)), np.full(m, 1.0 / m))
    b = DiscreteMeasure(rng.uniform(0, box, (m, dim)), np.full(m, 1.0 / m))
    return a, b


def threshold_index(values, value):
    """The rank of `value` among the sorted distinct distances `values`,
    checked to be one of them."""
    idx = int(np.searchsorted(values, value))
    assert idx < len(values) and values[idx] == value
    return idx


def distinct_distances(mu, nu):
    return np.unique(bottleneck._pairwise_distances(mu, nu))


# ---------------------------------------------------------------------------
# spec examples
# ---------------------------------------------------------------------------


def test_single_pair():
    mu = DiscreteMeasure([[0.0]], [1.0])
    nu = DiscreteMeasure([[3.0]], [1.0])
    res = winf(mu, nu)
    assert res.value == pytest.approx(3.0, abs=TOL)


def test_two_atom_instance():
    mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[0.0], [2.0]], [0.5, 0.5])
    assert winf(mu, nu).value == pytest.approx(1.0, abs=TOL)
    assert winf_permutation_oracle(mu, nu) == pytest.approx(1.0, abs=TOL)


@pytest.mark.parametrize("j", [2, 5, 10, 100])
def test_mass_splitting_sequence(j):
    # (1 - 1/j) delta_0 + (1/j) delta_1 stays at bottleneck distance 1 from
    # delta_0 for every j, while the finite-q cost vanishes: the gap between
    # narrow and uniform-transport convergence
    mu = DiscreteMeasure([[0.0], [1.0]], [1 - 1 / j, 1 / j])
    nu = DiscreteMeasure([[0.0]], [1.0])
    res = winf(mu, nu)
    assert res.value == pytest.approx(1.0, abs=TOL)
    # the optimum is the diameter, which is also the nearest-neighbour bound
    # and the largest distance of the monotone coupling: no max-flow runs
    assert threshold_index(distinct_distances(mu, nu), res.value) == 1 and res.stats.route == "coupling"
    assert res.stats.thresholds == res.stats.maxflows == 0
    assert wq(mu, nu, 1.0).cost == pytest.approx(1.0 / j, abs=TOL)


def test_oracle_m1_and_coincident():
    mu = DiscreteMeasure([[0.0, 0.0]], [1.0])
    nu = DiscreteMeasure([[3.0, 4.0]], [1.0])
    assert winf_permutation_oracle(mu, nu) == pytest.approx(5.0, abs=TOL)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, (4, 2))
    same = DiscreteMeasure(pts, np.full(4, 0.25))
    assert winf(same, same).value == pytest.approx(0.0, abs=TOL)
    assert winf_permutation_oracle(same, same) == pytest.approx(0.0, abs=TOL)


def test_oracle_agreement():
    rng = np.random.default_rng(101)
    for _ in range(60):
        m = int(rng.integers(1, 7))
        a, b = uniform_pair(rng, m)
        assert abs(winf(a, b).value - winf_permutation_oracle(a, b)) <= TOL


# ---------------------------------------------------------------------------
# witness structure
# ---------------------------------------------------------------------------


def test_witness_attains_value_exactly():
    rng = np.random.default_rng(102)
    for _ in range(20):
        m, k = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        a = DiscreteMeasure(rng.uniform(0, 10, (m, 2)), rng.dirichlet(np.ones(m)))
        b = DiscreteMeasure(rng.uniform(0, 10, (k, 2)), rng.dirichlet(np.ones(k)))
        res = winf(a, b)
        assert res.witness_plan.max_distance(a, b) == res.value
        D = np.linalg.norm(a.points[:, None, :] - b.points[None, :, :], axis=2)
        threshold_index(np.unique(D), res.value)
        # marginals match up to the documented 1e-9 scaling slack
        assert res.witness_plan.check_marginals(a, b, tol=2e-9) <= 2e-9


def ref_scale_pair(wa, wb):
    """The capacities with the reconciling units added one at a time,
    cycling over the smaller side's entries in descending order of their
    shortfall w * T - v from their share of the other side's total T (index
    order on ties)."""
    wa, wb = np.asarray(wa, dtype=float), np.asarray(wb, dtype=float)
    a = np.maximum(np.rint(wa * 10**9).astype(np.int64), 1)
    b = np.maximum(np.rint(wb * 10**9).astype(np.int64), 1)
    diff = int(a.sum() - b.sum())
    v, w, total, units = (b, wb, int(a.sum()), diff) if diff > 0 else (a, wa, int(b.sum()), -diff)
    shortfall = [w[i] * total - v[i] for i in range(len(v))]
    order = sorted(range(len(v)), key=lambda i: (-shortfall[i], i))
    for i in range(units):
        v[order[i % len(v)]] += 1
    return a, b, int(a.sum())


def weight_cases(rng):
    for _ in range(40):
        yield rng.dirichlet(np.ones(rng.integers(1, 60))), rng.dirichlet(np.ones(rng.integers(1, 60)))
    for m, n in [(1, 1), (3, 3), (7, 5), (1000, 999)]:
        yield np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    # sub-unit weights, raised to one unit: more units than entries to spread
    for m in (3, 50):
        tiny = np.full(m, 1e-12)
        tiny[0] = 1.0 - tiny[1:].sum()
        yield tiny, np.full(2, 0.5)
        yield np.full(4, 0.25), tiny
    # very unequal sides and magnitudes
    yield np.array([1.0 - 1e-9, 1e-9]), rng.dirichlet(np.ones(1500))
    yield rng.dirichlet(np.full(2000, 0.05)), np.array([0.3, 0.7])


def test_scale_pair_matches_one_unit_spreading():
    for wa, wb in weight_cases(np.random.default_rng(108)):
        got, want = bottleneck.scale_pair(wa, wb), ref_scale_pair(wa, wb)
        assert got[2] == want[2]
        for x, y in zip(got[:2], want[:2]):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_instance_key_holds_what_winf_reads():
    rng = np.random.default_rng(109)
    pts = rng.uniform(0, 1, (6, 2))
    mu = DiscreteMeasure(pts, rng.dirichlet(np.ones(6)))
    nu = DiscreteMeasure(rng.uniform(0, 1, (4, 2)), np.full(4, 0.25))
    key = bottleneck.instance_key(mu, nu)
    # weights that round to the same capacities give the same key and result
    w = mu.weights.copy()
    w[0] += 1e-13
    w[1] -= 1e-13
    twin = DiscreteMeasure(pts, w)
    assert twin.weights.tobytes() != mu.weights.tobytes()
    assert bottleneck.instance_key(twin, nu) == key
    assert winf(twin, nu).value == winf(mu, nu).value
    # any point, any capacity or the side order changes it
    moved = DiscreteMeasure(pts + [[1e-9, 0.0]], mu.weights)
    heavier = DiscreteMeasure(pts, np.roll(mu.weights, 1))
    for other in (bottleneck.instance_key(moved, nu), bottleneck.instance_key(heavier, nu),
                  bottleneck.instance_key(nu, mu)):
        assert other != key


def test_winf_many_matches_singleton_winf():
    rng = np.random.default_rng(106)
    pairs = []
    for k in range(30):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        if k % 3 == 0:
            n = m
            a, b = uniform_pair(rng, m)
        else:
            a = DiscreteMeasure(rng.uniform(0, 10, (m, 2)), rng.dirichlet(np.ones(m)))
            b = DiscreteMeasure(rng.uniform(0, 10, (n, 2)), rng.dirichlet(np.ones(n)))
        pairs.append((a, b))
    # the union's total flow exceeds 2^31: no instance may read it
    assert sum(bottleneck.scale_pair(a.weights, b.weights)[2] for a, b in pairs) > 2**31
    many = winf_many(pairs)
    for (a, b), res in zip(pairs, many):
        one = winf(a, b)
        assert res.value == one.value
        values = distinct_distances(a, b)
        assert threshold_index(values, res.value) == threshold_index(values, one.value)
        assert res.witness_plan.max_distance(a, b) == one.witness_plan.max_distance(a, b)
        assert res.witness_plan.check_marginals(a, b, tol=2e-9) <= 2e-9
        assert one.stats.batch == 1 and one.stats.maxflows == one.stats.thresholds
        assert res.stats.thresholds == one.stats.thresholds
        assert res.stats.route == one.stats.route
        assert res.stats.batch == len(pairs)
    # lockstep: the instances that took the max-flow route shared as many
    # max-flows as the longest search; the others joined none
    routes = {r.stats.route for r in many}
    assert routes == {"coupling", "maxflow"}
    longest = max(r.stats.thresholds for r in many)
    assert all(r.stats.maxflows == (longest if r.stats.route == "maxflow" else 0) for r in many)


def full_range_bisection(mu, nu):
    """Reference search: bisection over every distinct distance from index
    0, one `_union_flow` per step.  Returns the optimal threshold index and
    the flow of the last feasible step."""
    s = bottleneck._Search(mu, nu)
    s.witness = None  # not the coupling: only a flow
    values = distinct_distances(mu, nu)
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if bottleneck._union_flow([s], [values[mid]])[0]:
            hi = mid
        else:
            lo = mid + 1
    if s.witness is None:
        assert bottleneck._union_flow([s], [values[hi]])[0]
    return hi, s.witness


def integer_units(plan, total):
    """The plan's masses in `scale_pair` units, checked to be whole."""
    units = np.rint(plan.flow * total).astype(np.int64)
    assert np.array_equal(units / float(total), plan.flow)
    return units


def check_witness(mu, nu, res, flow):
    """The witness of `res` against the reference search's `flow`.

    The search ends on its coupling exactly when the optimum is its
    coupling's largest distance, the last threshold of its search (no
    max-flow tests that one).  Then the witness is that coupling: its masses
    are whole `scale_pair` units with the integer capacities as marginals,
    and its largest distance is the value.  Otherwise it is the flow of the
    max-flow at the optimum, byte for byte.
    """
    s = bottleneck._Search(mu, nu)
    want = s.witness if s.values[s.hi] == res.value else flow
    for got, exp in zip(
        (res.witness_plan.src, res.witness_plan.dst, res.witness_plan.flow),
        (want.src, want.dst, want.flow),
    ):
        assert got.dtype == exp.dtype and got.tobytes() == exp.tobytes()
    if want is s.witness:
        units = integer_units(res.witness_plan, s.total)
        plan = res.witness_plan
        assert np.array_equal(np.bincount(plan.src, units, len(mu)), s.a)
        assert np.array_equal(np.bincount(plan.dst, units, len(nu)), s.b)
        assert plan.max_distance(mu, nu) == res.value
    return want is s.witness


# atoms on a coarse integer lattice (many tied distances) with weights 1..50
SIDE = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 50)),
                min_size=1, max_size=12)


def side_measure(atoms, points=None):
    xs, ys, w = np.array(atoms, dtype=float).T
    pts = np.column_stack([xs, ys]) if points is None else points
    w = np.resize(w, len(pts))
    return DiscreteMeasure(pts, w / w.sum())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(SIDE, SIDE, st.booleans())
def test_search_matches_full_range_bisection(a, b, coincident):
    mu = side_measure(a)
    # coincident supports with other weights: the nearest-neighbour bound is 0
    nu = side_measure(b, mu.points if coincident else None)
    res = winf(mu, nu)
    idx, witness = full_range_bisection(mu, nu)
    assert threshold_index(distinct_distances(mu, nu), res.value) == idx
    assert res.value == np.unique(bottleneck._pairwise_distances(mu, nu))[idx]
    check_witness(mu, nu, res, witness)


def test_search_decides_at_the_bound_in_one_step():
    # an integer-shifted ramp ball: its W_inf, the shift, is also the
    # distance from its trailing atoms to their nearest shifted atoms
    spec = square_grid(24, 4.8)
    a = make_ramp_ball(spec, (0.0, 0.0), 0.9, 0.3, guard=0.02)
    b = translate_curve(a, (2 * spec.h, 0.0), [0.0, 1.0]).densities[-1]
    res = winf_grid(a, b)
    assert res.value == pytest.approx(2 * spec.h, rel=1e-12)
    # the monotone coupling along x meets the bound: no max-flow
    assert res.stats.route == "coupling" and res.stats.thresholds == res.stats.maxflows == 0
    # the rectangle split, 576 x 576 atoms, likewise
    res = winf_grid(*rectangle_split_instance(12))
    assert res.stats.route == "coupling" and res.stats.thresholds == res.stats.maxflows == 0


def lattice_side(dim):
    """Atoms on a coarse integer lattice (many tied distances) with weights
    1..50, as rows (coordinates..., weight)."""
    cell = st.tuples(*[st.integers(0, 4)] * dim, st.integers(1, 50))
    return st.lists(cell, min_size=1, max_size=12)


def lattice_cloud(atoms):
    rows = np.array(atoms, dtype=float)
    return DiscreteMeasure(rows[:, :-1], rows[:, -1] / rows[:, -1].sum())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([1, 3]).flatmap(lambda d: st.tuples(lattice_side(d), lattice_side(d))))
def test_search_matches_full_range_bisection_in_1d_and_3d(sides):
    mu, nu = (lattice_cloud(side) for side in sides)
    res = winf(mu, nu)
    idx, witness = full_range_bisection(mu, nu)
    assert threshold_index(distinct_distances(mu, nu), res.value) == idx
    assert res.value == np.unique(bottleneck._pairwise_distances(mu, nu))[idx]
    check_witness(mu, nu, res, witness)


def whole_cell_translate(cells, shift):
    """Equal weights on distinct lattice cells, and the same cells moved by
    a whole number of cells."""
    pts = np.array(cells, dtype=float)
    w = np.full(len(pts), 1.0 / len(pts))
    return DiscreteMeasure(pts, w), DiscreteMeasure(pts + np.array(shift, dtype=float), w)


def random_pair(seed):
    rng = np.random.default_rng(seed)
    dim, m, n = int(rng.integers(1, 4)), int(rng.integers(1, 11)), int(rng.integers(1, 11))
    return (DiscreteMeasure(rng.uniform(0, 10, (m, dim)), rng.dirichlet(np.ones(m))),
            DiscreteMeasure(rng.uniform(0, 10, (n, dim)), rng.dirichlet(np.ones(n))))


PAIRS = st.one_of(
    st.integers(1, 3).flatmap(lambda d: st.tuples(lattice_side(d), lattice_side(d))).map(
        lambda sides: tuple(lattice_cloud(side) for side in sides)),
    st.builds(whole_cell_translate,
              st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=12, unique=True),
              st.tuples(st.integers(-3, 3), st.integers(-3, 3))),
    st.builds(random_pair, st.integers(0, 2**32 - 1)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(PAIRS)
def test_coupling_route_matches_full_range_bisection(pair):
    # the coupling route decides what the max-flow bisection decides, and
    # its witness is a plan of the integer capacities that attains the value
    mu, nu = pair
    res = winf(mu, nu)
    idx, witness = full_range_bisection(mu, nu)
    assert threshold_index(distinct_distances(mu, nu), res.value) == idx
    assert res.value == np.unique(bottleneck._pairwise_distances(mu, nu))[idx]
    on_coupling = check_witness(mu, nu, res, witness)
    if res.stats.route == "coupling":
        assert on_coupling and res.stats.thresholds == res.stats.maxflows == 0
    if mu.dim == 1:
        assert res.stats.route == "coupling"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(PAIRS)
def test_search_thresholds_are_the_distances_between_the_bounds(pair):
    # the search walks only the distinct distances from the lower bound up
    # to its coupling's largest distance, which is its last threshold
    mu, nu = pair
    s = bottleneck._Search(mu, nu)
    projected, cap, coupling = s._projected(mu, nu)
    D = bottleneck._pairwise_distances(mu, nu)
    bound = max(D.min(axis=1).max(), D.min(axis=0).max(), projected)
    values = np.unique(D)
    want = values[(values >= bound) & (values <= cap)]
    assert s.values.dtype == want.dtype and s.values.tobytes() == want.tobytes()
    assert s.values[-1] == cap == coupling.max_distance(mu, nu)
    assert (s.lo, s.hi, s.probe) == (0, len(want) - 1, 0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(lattice_side(d), lattice_side(d))))
def test_projected_bound_is_below_winf_and_exact_on_the_line(sides):
    mu, nu = (lattice_cloud(side) for side in sides)
    bound = bottleneck._Search(mu, nu)._projected(mu, nu)[0]
    res = winf(mu, nu)
    assert bound <= res.value
    if mu.dim == 1:
        # the monotone coupling of the integer weights is optimal on the line
        assert bound == res.value and res.stats.route == "coupling" and res.stats.thresholds == 0


def test_projected_bound_reads_the_scaled_weights():
    # weights 1e-12 apart round to equal capacities, so the scaled optimum is
    # 0; the float weights' monotone coupling would move 1e-12 by 10
    mu = DiscreteMeasure([[0.0], [10.0]], [0.5 + 1e-12, 0.5 - 1e-12])
    nu = DiscreteMeasure([[0.0], [10.0]], [0.5, 0.5])
    assert bottleneck._Search(mu, nu)._projected(mu, nu)[0] == 0.0
    res = winf(mu, nu)
    assert res.value == 0.0 and res.stats.route == "coupling" and res.stats.thresholds == 0


def test_projected_bound_rounds_as_the_distances_do():
    # a gap of 1e-170 squares to 0, so its distance is 0: the bound must be
    # the gap as the distances round it, not the gap itself
    mu, nu = DiscreteMeasure([[0.0]], [1.0]), DiscreteMeasure([[1e-170]], [1.0])
    assert bottleneck._Search(mu, nu)._projected(mu, nu)[0] == 0.0
    assert winf(mu, nu).value == winf_permutation_oracle(mu, nu) == 0.0


def test_line_pairs_decide_without_a_max_flow(monkeypatch):
    rng = np.random.default_rng(108)
    pairs = []
    for _ in range(40):
        m, n = rng.integers(1, 60, 2)
        pairs.append((DiscreteMeasure(rng.uniform(0, 10, (m, 1)), rng.dirichlet(np.ones(m))),
                      DiscreteMeasure(rng.normal(5, 3, (n, 1)), rng.dirichlet(np.ones(n)))))
    with monkeypatch.context() as patch:
        patch.setattr(bottleneck, "maximum_flow", None)  # any call fails
        many = winf_many(pairs)
    for res, (mu, nu) in zip(many, pairs):
        assert res.stats.route == "coupling"
        assert res.stats.thresholds == res.stats.maxflows == 0
        assert res.value == winf(mu, nu).value


def test_witness_meets_the_marginal_tolerance_on_dirichlet_weights():
    # the reconciling units go to the capacities furthest short of their
    # share, so every capacity stays within about one unit of its float
    # weight; giving them to the largest capacities missed MARGINAL_TOL on
    # 14 of these 24 pairs
    rng = np.random.default_rng(110)
    pairs = []
    for _ in range(24):
        m, n = (int(k) for k in rng.integers(20, 301, 2))
        pairs.append((DiscreteMeasure(rng.uniform(0, 10, (m, 2)), rng.dirichlet(np.ones(m))),
                      DiscreteMeasure(rng.uniform(0, 10, (n, 2)), rng.dirichlet(np.ones(n)))))
    for res, (mu, nu) in zip(winf_many(pairs), pairs):
        assert res.witness_plan.check_marginals(mu, nu) <= MARGINAL_TOL


def test_winf_many_batches_by_pair_count(monkeypatch):
    rng = np.random.default_rng(107)
    pairs = [uniform_pair(rng, 4) for _ in range(5)]
    monkeypatch.setattr(bottleneck, "LOCKSTEP_PAIRS", 40)
    many = winf_many(pairs)
    assert [r.stats.batch for r in many] == [2, 2, 2, 2, 1]
    assert [r.value for r in many] == [winf(a, b).value for a, b in pairs]


def test_size_cap(monkeypatch):
    # MAX_ATOMS atoms per side; the cap is read at each call
    cap = bottleneck.MAX_ATOMS
    line = np.arange(cap + 1, dtype=float)[:, None]
    big = DiscreteMeasure(line, np.full(cap + 1, 1.0 / (cap + 1)))
    one = DiscreteMeasure([[0.0]], [1.0])
    with pytest.raises(InputError, match=f"exceeds {cap} atoms per side"):
        winf(big, one)
    monkeypatch.setattr(bottleneck, "MAX_ATOMS", cap + 1)
    assert winf(big, one).value == cap


def concatenated_csr(searches, eps):
    """The union threshold graph built as `_union_flow` built it before it
    wrote in place: int64 pieces, concatenated, then cast to int32."""
    first = np.cumsum([1] + [len(s.a) + len(s.b) for s in searches])
    sink = int(first[-1])
    counts = [[sum(len(s.a) for s in searches)]]
    indices = [np.arange(f, f + len(s.a)) for s, f in zip(searches, first)]
    caps = [s.a for s in searches]
    for s, e, f in zip(searches, eps, first):
        m, n = len(s.a), len(s.b)
        rows, cols = np.nonzero(s.D <= e)
        counts += [np.bincount(rows, minlength=m), np.ones(n, np.int64)]
        indices += [f + m + cols, np.full(n, sink)]
        caps += [np.full(len(cols), s.total), s.b]
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts + [[0]]))])
    return (np.concatenate(caps).astype(np.int32), np.concatenate(indices).astype(np.int32),
            indptr.astype(np.int32))


@pytest.mark.parametrize("seed", range(4))
def test_union_graph_equals_the_concatenated_build(monkeypatch, seed):
    rng = np.random.default_rng(120 + seed)
    graphs = []
    maximum_flow = bottleneck.maximum_flow

    def recording(graph, source, sink):
        graphs.append(graph)
        return maximum_flow(graph, source, sink)

    monkeypatch.setattr(bottleneck, "maximum_flow", recording)
    empty_rows = 0
    for _ in range(5):
        searches, eps = [], []
        for _ in range(int(rng.integers(1, 7))):
            # one-atom sides, and thresholds from below the least distance
            # (no edge at all) to the diameter
            m, n = (1 if rng.random() < 0.25 else int(rng.integers(2, 12)) for _ in range(2))
            mu = DiscreteMeasure(rng.uniform(0, 10, (m, 2)), rng.dirichlet(np.ones(m)))
            nu = DiscreteMeasure(rng.uniform(0, 10, (n, 2)), rng.dirichlet(np.ones(n)))
            s = bottleneck._Search(mu, nu)
            searches.append(s)
            values = distinct_distances(mu, nu)
            eps.append(rng.choice(np.concatenate([[values[0] / 2], values])))
        empty_rows += sum(int((~(s.D <= e).any(axis=1)).sum()) for s, e in zip(searches, eps))
        bottleneck._union_flow(searches, eps)
        graph = graphs[-1]
        for got, want in zip((graph.data, graph.indices, graph.indptr), concatenated_csr(searches, eps)):
            assert got.dtype == want.dtype == np.int32
            assert np.array_equal(got, want)
    assert empty_rows > 0


def test_stats_count_the_witness_edges():
    rng = np.random.default_rng(109)
    pairs = [uniform_pair(rng, int(m)) for m in rng.integers(1, 30, 8)]
    pairs.append(tuple(grid_to_atoms(g) for g in rectangle_split_instance(6)))
    for res, (mu, nu) in zip(winf_many(pairs), pairs):
        assert res.stats.edges == (bottleneck._pairwise_distances(mu, nu) <= res.value).sum()


def test_totals_past_int32_are_refused(monkeypatch):
    # numpy wraps an int64 assigned into the int32 graph without a warning
    monkeypatch.setattr(bottleneck, "FLOW32_SCALE", 3 * 10**9)
    mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[0.0], [2.0]], [0.5, 0.5])
    assert bottleneck.scale_pair(mu.weights, nu.weights)[2] >= 2**31
    with pytest.raises(ValueError, match="does not fit the int32 max-flow"):
        winf(mu, nu)


def traced_peak_per_atom_pair(mu, nu):
    """The peak of traced allocations above the start of one `winf`, per
    atom pair, and its result; a first call makes scipy's imports."""
    winf(mu, nu)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        res = winf(mu, nu)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak / (len(mu) * len(nu)), res


def rotated(m, angle):
    c, s = math.cos(angle), math.sin(angle)
    return DiscreteMeasure(m.points @ np.array([[c, s], [-s, c]]), m.weights)


def test_rectangle_split_memory_per_atom_pair():
    mu, nu = (grid_to_atoms(g) for g in rectangle_split_instance(12))
    # turned by one radian, no axis coupling meets the bound: one 576 x 576
    # max-flow over 200,076 of its 331,776 pairs, 38.3 bytes measured, plus
    # about 10%; a graph built by concatenation took 57.6
    per_pair, res = traced_peak_per_atom_pair(rotated(mu, 1.0), rotated(nu, 1.0))
    assert res.stats.route == "maxflow" and res.stats.edges == 200_076
    assert per_pair < 42.0
    # as given, the coupling along x decides it: 16.4 bytes measured, where
    # building the distances peaks at 16 (a sorted copy of all of them took
    # 18.0), plus about 10%
    per_pair, res = traced_peak_per_atom_pair(mu, nu)
    assert res.stats.route == "coupling"
    assert per_pair < 18.0


def test_winf_dominates_finite_q():
    rng = np.random.default_rng(103)
    for _ in range(15):
        m = int(rng.integers(2, 6))
        a, b = uniform_pair(rng, m)
        v = winf(a, b).value
        for q in (1.0, 2.0, 5.0):
            assert v >= wq(a, b, q).cost - TOL


def test_symmetry_and_triangle():
    rng = np.random.default_rng(104)
    for _ in range(15):
        ms = [int(rng.integers(2, 6)) for _ in range(3)]
        a = DiscreteMeasure(rng.uniform(0, 10, (ms[0], 2)), rng.dirichlet(np.ones(ms[0])))
        b = DiscreteMeasure(rng.uniform(0, 10, (ms[1], 2)), rng.dirichlet(np.ones(ms[1])))
        c = DiscreteMeasure(rng.uniform(0, 10, (ms[2], 2)), rng.dirichlet(np.ones(ms[2])))
        assert abs(winf(a, b).value - winf(b, a).value) <= TOL
        assert winf(a, c).value <= winf(a, b).value + winf(b, c).value + TOL


# ---------------------------------------------------------------------------
# radial accelerator
# ---------------------------------------------------------------------------


def test_radial_identical_profiles():
    r = np.array([0.1, 0.5, 0.9])
    w = np.array([0.2, 0.3, 0.5])
    a = RadialMeasure(np.zeros(2), r, w)
    assert winf_radial(a, a) == 0.0


def test_radial_uniform_balls():
    # uniform ball radius CDFs: (r/R)^2; the monotone map sends r to 2r,
    # so the largest displacement is at the rim: |R - 2R| = 1 for R = 1
    k = 4000
    u = (np.arange(k) + 0.5) / k
    r1 = np.sqrt(u) * 1.0
    r2 = np.sqrt(u) * 2.0
    w = np.full(k, 1.0 / k)
    a = RadialMeasure(np.zeros(2), r1, w)
    b = RadialMeasure(np.zeros(2), r2, w)
    assert winf_radial(a, b) == pytest.approx(1.0, abs=1e-3)


def test_radial_center_mismatch():
    a = RadialMeasure(np.zeros(2), np.array([0.5]), np.array([1.0]))
    b = RadialMeasure(np.ones(2), np.array([0.5]), np.array([1.0]))
    with pytest.raises(InputError):
        winf_radial(a, b)


@pytest.mark.parametrize(
    "radii, weights",
    [
        ([0.1, 0.5], [1.0]),  # two radii, one weight
        ([0.5], [0.5, 0.5]),
        ([], []),
        ([[0.1, 0.5]], [[0.5, 0.5]]),
        ([0.1, np.nan], [0.5, 0.5]),
        ([0.1, np.inf], [0.5, 0.5]),
        ([0.1, 0.5], [np.nan, 1.0]),
    ],
)
def test_radial_measure_rejects_malformed_input(radii, weights):
    with pytest.raises(InputError):
        RadialMeasure(np.zeros(2), np.array(radii), np.array(weights))


def test_radial_agrees_with_winf_on_ramp_balls():
    # concentric ramp balls on a 24^2 grid: the monotone radial coupling
    # should agree with the exact bottleneck within 2h (coarse grid, so the
    # sampling guard is relaxed explicitly)
    spec = square_grid(24, 4.8)
    a = make_ramp_ball(spec, (0.0, 0.0), 0.9, 0.3, guard=0.02)
    b = make_ramp_ball(spec, (0.0, 0.0), 1.6, 0.3, guard=0.02)
    exact = winf_grid(a, b).value
    rad = winf_radial(
        RadialMeasure.from_grid(a, (0.0, 0.0)), RadialMeasure.from_grid(b, (0.0, 0.0))
    )
    assert abs(exact - rad) <= 2 * spec.h


def merged_quantile_gap(radii, weights, ref_radii, ref_weights):
    """Per-row reference: the merged quantile-grid formula on positive atoms,
    over the level intervals longer than the rounding bound (n + m) eps of
    n radii and m positive reference atoms."""
    ka, kb = weights > 0, ref_weights > 0
    ra, rb = radii[ka], ref_radii[kb]
    ca, cb = np.cumsum(weights[ka]), np.cumsum(ref_weights[kb])
    levels = np.union1d(ca, cb)
    lows = np.concatenate([[0.0], levels[:-1]])
    mids = (lows + levels) / 2
    ia = np.minimum(np.searchsorted(ca, mids), len(ca) - 1)
    ib = np.minimum(np.searchsorted(cb, mids), len(cb) - 1)
    counts = levels - lows > (len(radii) + len(rb)) * np.finfo(float).eps
    return float(np.abs(ra[ia] - rb[ib])[counts].max())


def ring_profiles(rng, n, rings, sub, zero_first=False):
    """Sub-ring weight rows of random ring profiles: each ring is split into
    `sub` sub-rings, and some rings are empty (zero-weight sub-rings)."""
    h = rng.uniform(0.0, 1.0, (n, rings))
    h[rng.uniform(size=(n, rings)) < 0.3] = 0.0
    if zero_first:
        h[:, 0] = 0.0
    h[h.sum(axis=1) == 0, -1] = 1.0
    w = np.repeat(h, sub, axis=1) * rng.uniform(0.5, 1.5, (n, rings * sub))
    return w / w.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("case", ["random", "zero_first", "short", "absorbed"])
def test_quantile_gaps_match_merged_quantile_formula(case):
    rng = np.random.default_rng(["random", "zero_first", "short", "absorbed"].index(case))
    for trial in range(60):
        rings, sub = int(rng.integers(1, 9)), int(rng.integers(1, 8))
        radii = np.sort(rng.uniform(0.0, 2.0, rings * sub))
        rows = ring_profiles(rng, 12, rings, sub, zero_first=case == "zero_first")
        if trial % 2:
            # shared quantile levels: the reference is one of the rows
            ref_radii, ref_w = radii, rows[0].copy()
        else:
            ref_rings, ref_sub = int(rng.integers(1, 9)), int(rng.integers(1, 8))
            ref_radii = np.sort(rng.uniform(0.0, 2.0, ref_rings * ref_sub))
            ref_w = ring_profiles(rng, 1, ref_rings, ref_sub, zero_first=case == "zero_first")[0]
        if case == "short":
            # rows end 3-6 ulps below 1; the reference's outermost sub-ring
            # holds 2 ulps, so it is only reached through those last quantiles
            for row in rows[1:]:
                row[np.flatnonzero(row)[-1]] -= int(rng.integers(3, 7)) * 2.0**-53
            ref_radii = np.append(ref_radii, 2.5)
            ref_w = np.append(ref_w * (1 - 2.0**-52), 2.0**-52)
        if case == "absorbed":
            # a far sub-ring too light to move the cumulative weight
            rows[1:, -1] = 1e-20
            radii[-1] = 2.5
        nu = RadialMeasure(np.zeros(2), ref_radii, ref_w)
        got = quantile_gaps(radii, rows, *quantile_reference(nu.radii, nu.weights))[1].max(axis=1)
        want = [merged_quantile_gap(radii, w, nu.radii, nu.weights) for w in rows]
        np.testing.assert_array_equal(got, want)
        if case == "short":
            # the 2-ulp ring is below the rounding bound, so it is not
            # scored: where it sits does not change any row's value
            moved = np.append(nu.radii[:-1], nu.radii[-2])
            ref = quantile_reference(moved, nu.weights)
            np.testing.assert_array_equal(quantile_gaps(radii, rows, *ref)[1].max(axis=1), got)


def dyadic(rng, k, unit=512):
    """k positive multiples of 1/unit summing to 1 (exact at the 1e9 scale of
    the bottleneck max-flow, since unit divides 1e9)."""
    return (rng.multinomial(unit - k, np.full(k, 1.0 / k)) + 1) / unit


@pytest.mark.parametrize("seed", range(6))
def test_winf_radial_equals_winf_on_the_half_line(seed):
    # dyadic weights make winf's integer capacities the true weights; the
    # jittered copy differs from them by 1e-15 relative, which must not
    # change the monotone coupling either
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 65)), int(rng.integers(1, 65))
    x, y = np.sort(rng.uniform(0.0, 2.0, m)), np.sort(rng.uniform(0.0, 2.0, n))
    wx, wy = dyadic(rng, m), dyadic(rng, n)
    jitter = wy * (1 + 1e-15 * rng.uniform(-1, 1, n))
    for xs, w, ys, v in ((x, wx, y, wy), (x, wx, y, jitter), (y, wy, y, jitter)):
        exact = winf(DiscreteMeasure(xs[:, None], w), DiscreteMeasure(ys[:, None], v)).value
        radial = winf_radial(RadialMeasure(np.zeros(2), xs, w), RadialMeasure(np.zeros(2), ys, v))
        assert radial == pytest.approx(exact, abs=1e-15)


# atoms on a 0.01 lattice in [-5, 5] with weights in 1..100 (renormalized),
# so powers of the gaps neither underflow nor overflow up to q = 12
ATOMS = st.lists(st.tuples(st.integers(-500, 500), st.integers(1, 100)), min_size=1, max_size=12)


def lattice_measure(atoms):
    points, weights = np.array(atoms, dtype=float).T
    return DiscreteMeasure(points[:, None] / 100, weights / weights.sum())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ATOMS, ATOMS)
def test_monotone_coupling_wq_is_monotone_in_q_and_below_winf(a, b):
    mu, nu = lattice_measure(a), lattice_measure(b)
    x, y = np.argsort(mu.points[:, 0]), np.argsort(nu.points[:, 0])
    ref = quantile_reference(nu.points[y, 0], nu.weights[y])
    top = quantile_gaps(mu.points[x, 0], mu.weights[x], *ref)[1].max()
    values = [monotone_1d(mu, nu, q) for q in (1.0, 1.5, 2.0, 3.0, 6.0, 12.0)]
    # equal up to rounding where the coupling moves every atom equally far
    slack = 1e-12 * top
    assert all(lo <= hi + slack for lo, hi in zip(values, values[1:]))
    assert values[-1] <= top + slack


def test_grid_quantization_bound_reported():
    spec = square_grid(24, 4.8)
    a = make_ramp_ball(spec, (0.0, 0.0), 0.9, 0.3, guard=0.02)
    b = indicator_ball(spec, (0.3, 0.0), 0.9)
    res = winf_grid(a, b)
    assert res.quantization_bound == pytest.approx(spec.h * math.sqrt(2), abs=1e-15)
