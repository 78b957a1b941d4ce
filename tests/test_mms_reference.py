"""The bound-first resolvents against reference loops that score every
candidate in full.

`reference_radial` and `reference_grid` below are the radial and grid
resolvents as they were before a candidate's bottleneck term was skipped
when its cheap lower bound could not win: every move's radial bottleneck
and every candidate's coarse bottleneck is computed.  The resolvents in
`plqp.mms` must return the same states, Phi values, movements and
diagnostics, bit for bit, while computing fewer bottleneck terms.
"""

import math
from functools import reduce

import numpy as np
import pytest

from plqp import mms
from plqp.bottleneck import quantile_gaps, quantile_reference
from plqp.errors import InputError
from plqp.measures import GridDensity, make_multiball, make_ramp_ball
from plqp.mms import GridSearchFamily, RadialFamily, ResolventProblem
from plqp.plmetric import lp_norm_diff

from helpers import square_grid
from test_mms import ball_setup, grid_setup, two_ball_setup

# ---------------------------------------------------------------------------
# reference: score every candidate
# ---------------------------------------------------------------------------


def ring_areas(R, rings):
    edges = np.linspace(0.0, R, rings + 1)
    return math.pi * np.diff(edges**2)


def rescale_component(fam, j, h):
    mass = (h * ring_areas(fam.outer_radii[j], fam.rings)).sum(axis=-1)
    if np.any(mass <= 0):
        raise InputError("component lost all mass")
    return h * np.expand_dims(fam.masses[j] / mass, -1)


def fit_anchor_profile(anchor, fam):
    pts = anchor.spec.centers()
    vol = anchor.spec.cell_volume
    heights = []
    for j, (c, R) in enumerate(zip(fam.centers, fam.outer_radii)):
        r = np.linalg.norm(pts - np.asarray(c), axis=-1)
        edges = np.linspace(0.0, R, fam.rings + 1)
        areas = ring_areas(R, fam.rings)
        h = np.zeros(fam.rings)
        for k in range(fam.rings):
            mask = (r >= edges[k]) & (r < edges[k + 1])
            h[k] = anchor.values[mask].sum() * vol / areas[k]
        heights.append(rescale_component(fam, j, h))
    return mms._RadialState(fam, heights)


def subring_radii(fam, j):
    fine_edges = np.linspace(0.0, fam.outer_radii[j], fam.rings * mms.SUBRINGS + 1)
    return 0.5 * (fine_edges[:-1] + fine_edges[1:])


def subring_weights(fam, j, h):
    fine_edges = np.linspace(0.0, fam.outer_radii[j], fam.rings * mms.SUBRINGS + 1)
    w = np.repeat(h, mms.SUBRINGS, axis=-1) * (math.pi * np.diff(fine_edges**2))
    return w / w.sum(axis=-1, keepdims=True)


def ring_moves(fam, j, h, ladder):
    ring = np.repeat(np.arange(fam.rings), len(ladder))
    lev = np.tile(ladder, fam.rings)
    rows = np.repeat(h[None, :], len(lev), axis=0)
    rows[np.arange(len(lev)), ring] = lev
    valid = (lev != h[ring]) & ((rows * ring_areas(fam.outer_radii[j], fam.rings)).sum(axis=1) > 0)
    rows[valid] = rescale_component(fam, j, rows[valid])
    rows[~valid] = h
    return rows, valid


class FullScores:
    """Per distinct (j, h): move rows, mask, and (TV, squared L^2, radial
    bottleneck, L^inf gap) of h and of every move, all computed."""

    def __init__(self, fam, anchor_state):
        self.fam = fam
        self.anchor_heights = anchor_state.heights
        self.refs = [
            quantile_reference(subring_radii(fam, j), subring_weights(fam, j, h))
            for j, h in enumerate(anchor_state.heights)
        ]
        self.ladders = [
            np.linspace(0.0, 1.5 * max(h.max(), 1e-12), fam.levels) for h in anchor_state.heights
        ]
        self.scored = {}

    def terms(self, j, rows):
        fam = self.fam
        R = fam.outer_radii[j]
        edges = np.linspace(0.0, R, fam.rings + 1)
        tv = (np.abs(np.diff(rows, axis=-1, append=0.0)) * 2 * math.pi * edges[1:]).sum(axis=-1)
        l2sq = (rows * rows * ring_areas(R, fam.rings)).sum(axis=-1)
        gap = quantile_gaps(subring_radii(fam, j), subring_weights(fam, j, rows), *self.refs[j])[1]
        return tv, l2sq, gap.max(axis=-1), np.abs(rows - self.anchor_heights[j]).max(axis=-1)

    def __call__(self, j, h):
        key = (j, h.tobytes())
        if key not in self.scored:
            rows, valid = ring_moves(self.fam, j, h, self.ladders[j])
            self.scored[key] = (rows, valid, self.terms(j, h[None, :]), self.terms(j, rows))
        return self.scored[key]


def reference_radial(prob, anchor_state=None):
    fam = prob.family
    if anchor_state is None:
        anchor_state = fit_anchor_profile(prob.anchor, fam)
    score = FullScores(fam, anchor_state)

    def own_terms(state):
        return zip(*(score(j, h)[2] for j, h in enumerate(state.heights)))

    def phi_of(state):
        if prob.phi == "isop":
            tv, l2sq, _, _ = own_terms(state)
            return float((sum(tv) / np.sqrt(sum(l2sq)))[0])
        return mms._radial_phi(prob, state)

    phi_anchor = phi_of(anchor_state)
    current = anchor_state
    best_phi_val = phi_anchor
    evaluated = 1
    sweeps = 0
    while sweeps < fam.max_sweeps:
        sweeps += 1
        best_move = None
        best_val = best_phi_val
        comps = [score(j, h) for j, h in enumerate(current.heights)]
        fixed = [c[2] for c in comps]
        for j, (rows, valid, _, moved) in enumerate(comps):
            tv, l2sq, w, lgap = zip(*fixed[:j], moved, *fixed[j + 1 :])
            if prob.phi == "isop":
                phi = sum(tv) / np.sqrt(sum(l2sq))
            else:
                valid = valid.copy()
                phi = np.full(len(rows), np.nan)
                for r in np.flatnonzero(valid):
                    try:
                        phi[r] = mms._radial_phi(prob, current.replace(j, rows[r]))
                    except InputError:
                        valid[r] = False
            vals = phi + (reduce(np.maximum, w) + reduce(np.maximum, lgap)) ** 2 / (2 * prob.tau)
            evaluated += int(valid.sum())
            for r in np.flatnonzero(valid & (vals < best_val - 1e-12)):
                if vals[r] < best_val - 1e-12:
                    best_val = float(vals[r])
                    best_move = current.replace(j, rows[r])
        if best_move is None:
            break
        current = best_move
        best_phi_val = best_val
    out = mms._materialize(current, prob.anchor.spec)
    _, _, w, lgap = own_terms(current)
    move = float(reduce(np.maximum, w)[0] + reduce(np.maximum, lgap)[0])
    diag = {
        "family": "radial",
        "rings": fam.rings,
        "levels": fam.levels,
        "sweeps": sweeps,
        "candidates_evaluated": evaluated,
        "phi_anchor": phi_anchor,
        "phi_out": phi_of(current),
        "movement_profile": move,
    }
    return out, current, float(best_phi_val), move, diag


def reference_grid(prob, _state=None):
    fam = prob.family
    spec = prob.anchor.spec
    vol = spec.cell_volume
    anchor = prob.anchor
    coarse_winf = mms._CoarseBottleneck(anchor, fam.coarse_bins)

    def dist_to_anchor(g):
        return coarse_winf(g) + lp_norm_diff(g, anchor, math.inf)

    cur = anchor.values.copy()
    phi_anchor = mms._grid_phi(prob, anchor)
    cur_val = phi_anchor
    moves = 0
    evaluated = 0
    neighbors = [(ax, sgn) for ax in range(spec.dim) for sgn in (1, -1)]
    improved = True
    while moves < fam.budget and improved:
        improved = False
        order = np.argsort(-cur.ravel(), kind="stable")
        for flat in order:
            if cur.ravel()[flat] * vol < fam.quantum:
                continue
            src = np.unravel_index(flat, spec.shape)
            for ax, sgn in neighbors:
                dst = list(src)
                dst[ax] += sgn
                if not (1 <= dst[ax] < spec.shape[ax] - 1):
                    continue
                cand = cur.copy()
                cand[src] -= fam.quantum / vol
                cand[tuple(dst)] += fam.quantum / vol
                if cand[src] < 0:
                    continue
                try:
                    g = GridDensity(spec, cand)
                    val = mms._grid_phi(prob, g) + dist_to_anchor(g) ** 2 / (2 * prob.tau)
                except InputError:
                    continue
                evaluated += 1
                if val < cur_val - 1e-12:
                    cur = cand
                    cur_val = val
                    moves += 1
                    improved = True
                    break
            if improved:
                break
    out = GridDensity(spec, cur)
    diag = {
        "family": "grid-local-search",
        "quantum": fam.quantum,
        "moves_accepted": moves,
        "candidates_evaluated": evaluated,
        "coarse_bins": fam.coarse_bins,
        "phi_anchor": phi_anchor,
        "phi_out": mms._grid_phi(prob, out),
    }
    return out, None, float(cur_val), dist_to_anchor(out), diag


# ---------------------------------------------------------------------------
# problems
# ---------------------------------------------------------------------------


def sobolev_setup():
    mb, _ = two_ball_setup()
    fam = RadialFamily.from_anchor(mb, [(-1.4, 0.0), (1.4, 0.0)], [1.2, 1.2], rings=4, levels=6)
    return mb, ResolventProblem("sobolev", 0.1, mb, fam)


def random_radial(seed):
    """A seeded multiball anchor with 1-3 components, a radial family fitted
    to it, and, for odd seeds, a random start profile in place of the fit."""
    rng = np.random.default_rng(seed)
    spec = square_grid(48, 8.0)
    k = int(rng.integers(1, 4))
    xs = {1: [0.0], 2: [-1.6, 1.6], 3: [-2.6, 0.0, 2.6]}[k]
    centers = [(x + rng.uniform(-0.1, 0.1), rng.uniform(-0.4, 0.4)) for x in xs]
    radii = list(rng.uniform(0.6, 0.9, k))
    weights = rng.uniform(0.5, 1.5, k)
    weights = list(weights / weights.sum())
    mb = make_multiball(spec, centers, radii, weights, 0.25, guard=0.1)
    phi = "sobolev" if seed % 5 == 4 else "isop"
    rings = int(rng.integers(1, 5)) if phi == "sobolev" else int(rng.integers(1, 9))
    levels = int(rng.integers(3, 7)) if phi == "sobolev" else int(rng.integers(3, 17))
    fam = RadialFamily.from_anchor(
        mb, centers, [r + 0.2 for r in radii], rings=rings, levels=levels, max_sweeps=40
    )
    tau = float(10 ** rng.uniform(-2, 0))
    prob = ResolventProblem(phi, tau, mb, fam)
    state = None
    if seed % 2:
        heights = []
        for j, h in enumerate(fit_anchor_profile(mb, fam).heights):
            noisy = h * rng.uniform(0.5, 1.5, len(h)) * (rng.uniform(size=len(h)) < 0.8)
            noisy[0] += h.max()  # never empty
            heights.append(rescale_component(fam, j, noisy))
        state = mms._RadialState(fam, heights)
    return prob, state


def random_grid(seed):
    """A seeded ramp-ball or two-ball anchor on a small grid and a grid
    family with a seeded quantum, bin count and step."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 15))
    spec = square_grid(n, 4.0)
    if seed % 2:
        c = (rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        anchor = make_ramp_ball(spec, c, rng.uniform(1.0, 1.3), 0.5, guard=0.1)
    else:
        w = float(rng.uniform(0.3, 0.7))
        anchor = make_multiball(
            spec, [(-0.9, 0.0), (0.9, 0.0)], [0.6, 0.6], [w, 1 - w], 0.25, guard=0.1
        )
    fam = GridSearchFamily(
        quantum=float(rng.choice([1e-3, 2e-3, 5e-3])),
        budget=int(rng.integers(3, 9)),
        coarse_bins=int(rng.integers(4, 9)),
    )
    phi = "sobolev" if seed % 4 == 3 else "isop"
    return ResolventProblem(phi, float(10 ** rng.uniform(-1, 0.5)), anchor, fam), None


def fixed(setup):
    return lambda: (setup()[1], None)


RADIAL_CASES = [pytest.param(fixed(s), id=s.__name__) for s in (ball_setup, two_ball_setup, sobolev_setup)]
RADIAL_CASES += [pytest.param(lambda s=s: random_radial(s), id=f"random-{s}") for s in range(24)]
GRID_CASES = [pytest.param(fixed(grid_setup), id="grid_setup")]
GRID_CASES += [pytest.param(lambda s=s: random_grid(s), id=f"random-{s}") for s in range(20)]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def assert_same_step(got, want):
    out, fam_state, val, move, diag = got
    ref_out, ref_state, ref_val, ref_move, ref_diag = want
    assert out.values.tobytes() == ref_out.values.tobytes()
    if ref_state is None:
        assert fam_state is None
    else:
        assert [h.tobytes() for h in fam_state.heights] == [h.tobytes() for h in ref_state.heights]
    assert repr((val, move, diag)) == repr((ref_val, ref_move, ref_diag))


@pytest.mark.parametrize("case", RADIAL_CASES)
def test_radial_resolvent_matches_full_scoring(monkeypatch, case):
    prob, state = case()
    rows = []

    def counting(points, weights, *ref):
        rows.append(len(np.atleast_2d(weights)))
        return quantile_gaps(points, weights, *ref)

    want = reference_radial(prob, state)
    monkeypatch.setattr(mms, "quantile_gaps", counting)
    got = mms._radial_resolvent(prob, state)
    assert_same_step(got, want)
    # every bottleneck row the bound-first sweeps computed, own terms included
    assert sum(rows) < got[4]["candidates_evaluated"]


@pytest.mark.parametrize("case", GRID_CASES)
def test_grid_resolvent_matches_full_scoring(monkeypatch, case):
    prob, _ = case()
    want = reference_grid(prob)
    calls = []

    class Counted(mms._CoarseBottleneck):
        def __call__(self, g):
            calls.append(1)
            return super().__call__(g)

    monkeypatch.setattr(mms, "_CoarseBottleneck", Counted)
    got = mms._grid_resolvent(prob)
    assert_same_step(got, want)
    assert len(calls) < got[4]["candidates_evaluated"]
