import math

import numpy as np
import pytest

from plqp import bottleneck, mms
from plqp.errors import InputError
from plqp.functionals import BALL_ISOP_2D, isop, sobolev_ratio
from plqp.measures import make_multiball, make_ramp_ball
from plqp.mms import (
    GridSearchFamily,
    RadialFamily,
    ResolventProblem,
    StepPartition,
    refine_and_compare,
    resolvent,
    run_scheme,
    solution_ledger,
)
from plqp.plmetric import lp_norm_diff

from helpers import square_grid


def ball_setup(tau=0.1):
    spec = square_grid(48, 6.0)
    ball = make_ramp_ball(spec, (0.0, 0.0), 1.0, 0.25)
    fam = RadialFamily.from_anchor(ball, [(0.0, 0.0)], [1.3], rings=8, levels=32)
    return ball, ResolventProblem("isop", tau, ball, fam)


def two_ball_setup(tau=0.1):
    spec = square_grid(48, 6.0)
    mb = make_multiball(spec, [(-1.4, 0.0), (1.4, 0.0)], [0.9, 0.9], [0.75, 0.25], 0.25)
    fam = RadialFamily.from_anchor(mb, [(-1.4, 0.0), (1.4, 0.0)], [1.2, 1.2], rings=8, levels=32)
    return mb, ResolventProblem("isop", tau, mb, fam)


def grid_setup():
    spec = square_grid(20, 4.4)
    mb = make_multiball(
        spec, [(-1.1, 0.0), (1.1, 0.0)], [0.6, 0.6], [0.7, 0.3], 2 * spec.h, guard=0.1
    )
    fam = GridSearchFamily(quantum=2e-3, budget=40, coarse_bins=8)
    return mb, ResolventProblem("isop", 0.5, mb, fam)


def test_partition_validation():
    with pytest.raises(InputError):
        StepPartition(())
    with pytest.raises(InputError):
        StepPartition((0.1, -0.1))
    p = StepPartition.uniform(0.25, 4)
    assert p.horizon == pytest.approx(1.0)
    assert p.sup_step == 0.25


def test_resolvent_never_exceeds_anchor_value():
    ball, prob = ball_setup()
    out, val, diag = resolvent(prob)
    assert val <= diag["phi_anchor"] + 1e-12
    assert out.mass == pytest.approx(1.0, abs=1e-9)


def test_resolvent_small_tau_stays_close():
    # tiny step: the movement penalty dominates and the state barely moves
    ball, prob = ball_setup(tau=1e-4)
    out, val, diag = resolvent(prob)
    assert diag["movement_profile"] <= 0.05


def test_resolvent_two_ball_descends():
    # unequal mass/radius ratios admit a strict descent direction
    mb, prob = two_ball_setup(tau=0.1)
    out, val, diag = resolvent(prob)
    assert val < diag["phi_anchor"] - 1e-4


def test_scheme_ledger_invariants():
    mb, prob = two_ball_setup(tau=0.1)
    part = StepPartition.uniform(0.1, 6)
    sol = run_scheme(mb, part, prob)
    phis = np.array(sol.phi_values)
    assert np.all(np.diff(phis) <= 1e-12)  # nonincreasing
    for k in range(len(part.steps)):
        # per-step minimality against the anchor itself
        assert sol.moreau_values[k] <= sol.phi_values[k] + 1e-9
    # telescoped dissipation ledger
    for j in range(len(part.steps)):
        acc = phis[j + 1] + sum(
            sol.movement[k] ** 2 / (2 * part.steps[k]) for k in range(j + 1)
        )
        assert acc <= phis[0] + 1e-9


def test_scheme_ball_stationarity_surrogate():
    ball, prob = ball_setup(tau=0.1)
    part = StepPartition.uniform(0.1, 10)
    sol = run_scheme(ball, part, prob)
    h = ball.spec.h
    assert max(sol.movement) <= 2 * h
    assert min(sol.phi_values) >= BALL_ISOP_2D - 1e-9  # sharp lower bound


def test_scheme_ac2_surrogate():
    mb, prob = two_ball_setup(tau=0.1)
    part = StepPartition.uniform(0.1, 6)
    sol = run_scheme(mb, part, prob)
    energy = sum(m * m / t for m, t in zip(sol.movement, part.steps))
    assert energy <= 2 * (sol.phi_values[0] - min(sol.phi_values)) + 1e-9


def test_scheme_determinism():
    mb, prob = two_ball_setup(tau=0.1)
    part = StepPartition.uniform(0.1, 3)
    a = run_scheme(mb, part, prob)
    b = run_scheme(mb, part, prob)
    assert a.phi_values == b.phi_values
    assert a.movement == b.movement
    for x, y in zip(a.states, b.states):
        np.testing.assert_array_equal(x.values, y.values)


def test_scheme_cross_check_records_grid_bottleneck():
    mb, prob = two_ball_setup(tau=0.1)
    part = StepPartition.uniform(0.1, 2)
    sol = run_scheme(mb, part, prob, cross_check_every=1)
    for d in sol.diagnostics:
        assert "winf_grid_cross_check" in d


def test_ledger_json_roundtrip():
    import json

    mb, prob = two_ball_setup(tau=0.1)
    sol = run_scheme(mb, StepPartition.uniform(0.1, 2), prob)
    led = solution_ledger(sol)
    text = json.dumps(led, sort_keys=True)
    assert json.loads(text)["steps"][0]["tau"] == 0.1


def test_refine_requires_two_partitions():
    ball, prob = ball_setup()
    with pytest.raises(InputError, match=">= 2"):
        refine_and_compare(ball, [StepPartition.uniform(0.1, 4)], prob)


def test_refine_requires_halving():
    ball, prob = ball_setup()
    with pytest.raises(InputError, match="halving"):
        refine_and_compare(
            ball,
            [StepPartition.uniform(0.1, 4), StepPartition.uniform(0.09, 5)],
            prob,
        )


def test_refine_ball_is_tight():
    # a near-stationary anchor: interpolants at shared times stay 2h-close
    ball, prob = ball_setup(tau=0.05)
    parts = [StepPartition.uniform(0.2, 3), StepPartition.uniform(0.1, 6)]
    rep = refine_and_compare(ball, parts, prob)
    h = ball.spec.h
    for comp in rep["comparisons"]:
        assert comp["max_sigma_distance"] <= 10 * h  # diagnostic-scale check
    assert all(
        a >= b - 1e-12
        for env in rep["phi_envelopes"]
        for a, b in zip(env, env[1:])
    )


def test_grid_search_family_descends_on_small_grid():
    spec = square_grid(20, 4.4)
    mb = make_multiball(
        spec, [(-1.1, 0.0), (1.1, 0.0)], [0.6, 0.6], [0.7, 0.3], 2 * spec.h, guard=0.1
    )
    fam = GridSearchFamily(quantum=2e-3, budget=40, coarse_bins=8)
    prob = ResolventProblem("isop", 0.5, mb, fam)
    out, val, diag = resolvent(prob)
    assert val <= diag["phi_anchor"] + 1e-12
    assert diag["family"] == "grid-local-search"


def test_grid_search_size_cap():
    spec = square_grid(96, 6.0)
    ball = make_ramp_ball(spec, (0.0, 0.0), 1.0, 0.2)
    prob = ResolventProblem("isop", 0.1, ball, GridSearchFamily())
    with pytest.raises(InputError, match="4096"):
        resolvent(prob)


def test_equal_ratio_probe_reports_without_asserting_outcome():
    # probes around the candidate stationary configurations: the report may
    # say "moved" or not (open question); only family-relative minimality is
    # guaranteed
    from plqp.mms import equal_ratio_probe

    spec = square_grid(48, 6.0)
    radii = [0.8, 1.2]
    R = sum(radii)
    weights = [r / R for r in radii]
    mb = make_multiball(spec, [(-1.5, 0.0), (1.3, 0.0)], radii, weights, 0.25)
    rep = equal_ratio_probe(mb, [(-1.5, 0.0), (1.3, 0.0)], [1.1, 1.5], tau=0.1)
    assert rep["moreau_out"] <= rep["phi_anchor"] + 1e-12
    assert "moved" in rep and "note" in rep


@pytest.mark.parametrize(
    "setup, sweeps, candidates", [(two_ball_setup, 41, 20829), (ball_setup, 29, 7396)]
)
def test_radial_search_counts_are_pinned(setup, sweeps, candidates):
    # whole-sweep scoring runs the search of the one-candidate-at-a-time loop
    _, prob = setup()
    _, _, diag = resolvent(prob)
    assert (diag["sweeps"], diag["candidates_evaluated"]) == (sweeps, candidates)


def test_grid_search_reuses_exact_coarse_values(monkeypatch):
    mb, prob = grid_setup()
    bins = prob.family.coarse_bins
    anchor_coarse = mms._coarse(mb, bins)
    fresh = {}
    used = []

    class Checked(mms._CoarseBottleneck):
        def __call__(self, g):
            value = super().__call__(g)
            coarse = mms._coarse(g, bins)
            pair = (coarse.points.tobytes(), coarse.weights.tobytes())
            if pair not in fresh:
                fresh[pair] = bottleneck.winf(coarse, anchor_coarse).value
            used.append((value, fresh[pair]))
            return value

    monkeypatch.setattr(mms, "_CoarseBottleneck", Checked)
    out, val, diag = resolvent(prob)
    # bound first: only candidates whose cheap bound can win are solved
    assert diag["candidates_evaluated"] > len(used) > len(fresh)
    assert all(value == want for value, want in used)
    w = bottleneck.winf(mms._coarse(out, bins), anchor_coarse).value
    assert val == isop(out).value + (w + lp_norm_diff(out, mb, math.inf)) ** 2 / (2 * prob.tau)


def test_grid_scheme_ledger():
    mb, _ = grid_setup()
    prob = ResolventProblem("isop", 0.5, mb, GridSearchFamily(quantum=2e-3, budget=4, coarse_bins=8))
    part = StepPartition.uniform(0.5, 2)
    sol = run_scheme(mb, part, prob)
    phis = np.array(sol.phi_values)
    assert np.all(np.diff(phis) <= 1e-12)
    for j in range(len(part.steps)):
        acc = phis[j + 1] + sum(
            sol.movement[k] ** 2 / (2 * part.steps[k]) for k in range(j + 1)
        )
        assert acc <= phis[0] + 1e-9
    # the step movement is the distance the resolvent scored for its output
    for k, m in enumerate(sol.movement):
        assert sol.moreau_values[k] == sol.phi_values[k + 1] + m**2 / (2 * part.steps[k])


def test_run_scheme_keeps_every_template_field():
    # each step's problem is the template with that step's tau and anchor
    mb, _ = grid_setup()
    fam = GridSearchFamily(quantum=2e-3, budget=1, coarse_bins=8)
    prob = ResolventProblem("sobolev", 0.5, mb, fam, sobolev_r=1.3)
    taus = (0.5, 0.25)
    sol = run_scheme(mb, StepPartition(taus), prob)
    for state, phi in zip(sol.states, sol.phi_values):
        assert phi == sobolev_ratio(state, 1.3).value
    for k, m in enumerate(sol.movement):
        assert sol.moreau_values[k] == sol.phi_values[k + 1] + m**2 / (2 * taus[k])


@pytest.mark.parametrize("phi", ["isop", "sobolev"])
def test_radial_sweeps_reuse_exact_component_scores(monkeypatch, phi):
    mb, prob = two_ball_setup()
    if phi == "sobolev":
        fam = RadialFamily.from_anchor(mb, [(-1.4, 0.0), (1.4, 0.0)], [1.2, 1.2], rings=4, levels=6)
        prob = ResolventProblem("sobolev", 0.1, mb, fam)
        radial_phi = mms._radial_phi

        def rejecting(prob, state):
            # the Sobolev branch drops the moves phi rejects from its mask
            if state.heights[0][0] == 0.0:
                raise InputError("rejected")
            return radial_phi(prob, state)

        monkeypatch.setattr(mms, "_radial_phi", rejecting)
    reused = []
    made = []

    class Checked(mms._ComponentScores):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

        def __call__(self, j, h, own=None):
            if (j, h.tobytes()) in self.scored:
                reused.append(j)
            return super().__call__(j, h, own)

    monkeypatch.setattr(mms, "_ComponentScores", Checked)
    resolvent(prob)
    assert len(reused) > 0 and set(reused) <= {0, 1}
    (score,) = made
    computed = valid = 0
    for (j, key), c in score.scored.items():
        # every stored term equals a fresh computation, the seeded terms of
        # an accepted move's profile included
        h = np.frombuffer(key)
        rows, mask = mms._ring_moves(score.rings[j], score.fam.masses[j], h, score.ladders[j])
        np.testing.assert_array_equal(c.rows, rows)
        np.testing.assert_array_equal(c.valid, mask)
        tv, l2sq, lgap = score.row_sums(j, h[None, :])
        for a, b in zip(c.own, (tv, l2sq, score.radial_bottleneck(j, h[None, :]), lgap)):
            np.testing.assert_array_equal(a, b)
        for a, b in zip((c.tv, c.l2sq, c.lgap), score.row_sums(j, rows)):
            np.testing.assert_array_equal(a, b)
        # the bottleneck, where a sweep computed it, is the full batch's
        done = ~np.isnan(c.w)
        np.testing.assert_array_equal(c.w[done], score.radial_bottleneck(j, rows)[done])
        computed += int(done.sum())
        valid += int(c.valid.sum())
    assert 0 < computed < valid


@pytest.mark.parametrize(
    "fields",
    [{"quantum": -1e-3}, {"quantum": 0.0}, {"quantum": math.nan}, {"budget": -1}, {"coarse_bins": 0}],
    ids=["negative_quantum", "zero_quantum", "nan_quantum", "budget", "coarse_bins"],
)
def test_grid_family_rejects_malformed_fields(fields):
    with pytest.raises(InputError):
        GridSearchFamily(**fields)
