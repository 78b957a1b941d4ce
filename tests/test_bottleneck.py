import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plqp import bottleneck
from plqp._scaling import scale_pair
from plqp.bottleneck import (
    RadialMeasure,
    neighborhood_check,
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
from plqp.measures import DiscreteMeasure, make_ramp_ball, translate_curve
from plqp.transport import monotone_1d, wq

from helpers import indicator_ball, square_grid

TOL = 1e-9


def uniform_pair(rng, m, dim=2, box=10.0):
    a = DiscreteMeasure(rng.uniform(0, box, (m, dim)), np.full(m, 1.0 / m))
    b = DiscreteMeasure(rng.uniform(0, box, (m, dim)), np.full(m, 1.0 / m))
    return a, b


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
    assert res.threshold_index == 1 and res.stats.thresholds == 1
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
        values = np.unique(D)
        assert values[res.threshold_index] == res.value
        # marginals match up to the documented 1e-9 scaling slack
        assert res.witness_plan.check_marginals(a, b, tol=2e-9) <= 2e-9


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
    assert sum(scale_pair(a.weights, b.weights)[2] for a, b in pairs) > 2**31
    many = winf_many(pairs)
    for (a, b), res in zip(pairs, many):
        one = winf(a, b)
        assert res.value == one.value
        assert res.threshold_index == one.threshold_index
        assert res.witness_plan.max_distance(a, b) == one.witness_plan.max_distance(a, b)
        assert res.witness_plan.check_marginals(a, b, tol=2e-9) <= 2e-9
        assert one.stats.batch == 1 and one.stats.maxflows == one.stats.thresholds
        assert res.stats.thresholds == one.stats.thresholds
        assert res.stats.batch == len(pairs)
    # lockstep: the batch ran as many max-flows as its longest search
    assert many[0].stats.maxflows == max(r.stats.thresholds for r in many)


def full_range_bisection(mu, nu):
    """Reference search: bisection over every distinct distance from index
    0, one `_union_flow` per step.  Returns the optimal threshold index and
    the flow of the last feasible step."""
    s = bottleneck._Search(mu, nu)
    lo, hi = 0, len(s.values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if bottleneck._union_flow([s], [s.values[mid]])[0]:
            hi = mid
        else:
            lo = mid + 1
    if s.witness is None:
        assert bottleneck._union_flow([s], [s.values[hi]])[0]
    return hi, s.witness


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
    assert res.threshold_index == idx
    assert res.value == np.unique(bottleneck._pairwise_distances(mu, nu))[idx]
    for got, want in zip(
        (res.witness_plan.src, res.witness_plan.dst, res.witness_plan.flow),
        (witness.src, witness.dst, witness.flow),
    ):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_search_decides_at_the_bound_in_one_step():
    # an integer-shifted ramp ball: its W_inf, the shift, is also the
    # distance from its trailing atoms to their nearest shifted atoms
    spec = square_grid(24, 4.8)
    a = make_ramp_ball(spec, (0.0, 0.0), 0.9, 0.3, guard=0.02)
    b = translate_curve(a, (2 * spec.h, 0.0), [0.0, 1.0]).densities[-1]
    res = winf_grid(a, b)
    assert res.value == pytest.approx(2 * spec.h, rel=1e-12)
    assert res.stats.thresholds == 1
    # the rectangle split: one 576 x 576 max-flow
    res = winf_grid(*rectangle_split_instance(12))
    assert res.stats.thresholds == 1


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
    assert res.threshold_index == idx
    assert res.value == np.unique(bottleneck._pairwise_distances(mu, nu))[idx]
    for got, want in zip(
        (res.witness_plan.src, res.witness_plan.dst, res.witness_plan.flow),
        (witness.src, witness.dst, witness.flow),
    ):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(lattice_side(d), lattice_side(d))))
def test_projected_bound_is_below_winf_and_exact_on_the_line(sides):
    mu, nu = (lattice_cloud(side) for side in sides)
    bound = bottleneck._Search(mu, nu)._projected(mu, nu)
    res = winf(mu, nu)
    assert bound <= res.value
    if mu.dim == 1:
        # the monotone coupling of the integer weights is optimal on the line
        assert bound == res.value and res.stats.thresholds == 1


def test_projected_bound_reads_the_scaled_weights():
    # weights 1e-12 apart round to equal capacities, so the scaled optimum is
    # 0; the float weights' monotone coupling would move 1e-12 by 10
    mu = DiscreteMeasure([[0.0], [10.0]], [0.5 + 1e-12, 0.5 - 1e-12])
    nu = DiscreteMeasure([[0.0], [10.0]], [0.5, 0.5])
    assert bottleneck._Search(mu, nu)._projected(mu, nu) == 0.0
    res = winf(mu, nu)
    assert res.value == 0.0 and res.stats.thresholds == 1


def test_projected_bound_rounds_as_the_distances_do():
    # a gap of 1e-170 squares to 0, so its distance is 0: the bound must be
    # the gap as the distances round it, not the gap itself
    mu, nu = DiscreteMeasure([[0.0]], [1.0]), DiscreteMeasure([[1e-170]], [1.0])
    assert bottleneck._Search(mu, nu)._projected(mu, nu) == 0.0
    assert winf(mu, nu).value == winf_permutation_oracle(mu, nu) == 0.0


def test_line_pairs_decide_in_one_max_flow():
    rng = np.random.default_rng(108)
    pairs = []
    for _ in range(40):
        m, n = rng.integers(1, 60, 2)
        pairs.append((DiscreteMeasure(rng.uniform(0, 10, (m, 1)), rng.dirichlet(np.ones(m))),
                      DiscreteMeasure(rng.normal(5, 3, (n, 1)), rng.dirichlet(np.ones(n)))))
    many = winf_many(pairs)
    assert many[0].stats.maxflows == 1
    for res, (mu, nu) in zip(many, pairs):
        assert res.stats.thresholds == 1
        assert res.value == winf(mu, nu).value


def test_winf_many_batches_by_pair_count(monkeypatch):
    rng = np.random.default_rng(107)
    pairs = [uniform_pair(rng, 4) for _ in range(5)]
    monkeypatch.setattr(bottleneck, "LOCKSTEP_PAIRS", 40)
    many = winf_many(pairs)
    assert [r.stats.batch for r in many] == [2, 2, 2, 2, 1]
    assert [r.value for r in many] == [winf(a, b).value for a, b in pairs]


def test_size_cap(monkeypatch):
    # the default cap is MAX_ATOMS_DEFAULT atoms per side; PLQP_MAX_ATOMS moves it
    monkeypatch.delenv("PLQP_MAX_ATOMS", raising=False)
    cap = bottleneck.MAX_ATOMS_DEFAULT
    line = np.arange(cap + 1, dtype=float)[:, None]
    big = DiscreteMeasure(line, np.full(cap + 1, 1.0 / (cap + 1)))
    one = DiscreteMeasure([[0.0]], [1.0])
    with pytest.raises(InputError, match=f"PLQP_MAX_ATOMS={cap} atoms"):
        winf(big, one)
    monkeypatch.setenv("PLQP_MAX_ATOMS", str(cap + 1))
    assert winf(big, one).value == cap


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
# neighborhood characterization
# ---------------------------------------------------------------------------


def test_neighborhood_large_eps_accepts_everything():
    rng = np.random.default_rng(105)
    a, b = uniform_pair(rng, 5)
    diam = 10 * math.sqrt(2) + 1
    probes = [a.points, a.points[:2], a.points[3:]]
    assert neighborhood_check(a, b, diam, probes)


def test_neighborhood_zero_eps_disjoint_fails():
    mu = DiscreteMeasure([[0.0]], [1.0])
    nu = DiscreteMeasure([[1.0]], [1.0])
    assert not neighborhood_check(mu, nu, 0.0, [mu.points])


def test_neighborhood_falsifies_below_optimum():
    mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[0.0], [2.0]], [0.5, 0.5])
    v = winf(mu, nu).value
    # at the optimum every probe passes
    assert neighborhood_check(mu, nu, v, [mu.points, mu.points[:1], mu.points[1:]])
    # just below it, the full-support probe A = {0, 1} fails: nu(A_eps) = 1/2 < 1
    assert not neighborhood_check(mu, nu, v - 1e-6, [mu.points])


def test_winf_witness_passes_own_neighborhood_check():
    rng = np.random.default_rng(106)
    for _ in range(10):
        a, b = uniform_pair(rng, 4)
        v = winf(a, b).value
        probes = [a.points[list(idx)] for idx in [(0,), (1, 2), (0, 1, 2, 3)]]
        assert neighborhood_check(a, b, v + 1e-12, probes)


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
