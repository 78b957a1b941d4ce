"""Minimizing-movement scheme for the isoperimetric ratio.

One implicit step minimizes
    Phi(x; tau, anchor) = phi(x) + d(x, anchor)^2 / (2 tau)
with d the composite distance W_inf + L^inf, the (inf, inf) metric, the
only one the scheme uses.  Minimizing over all densities is out of reach,
so the resolvent searches a declared family and reports family-relative
minimality only:

* Radial family: each component is a piecewise-constant ring profile about a
  fixed center with fixed component mass; candidate moves set one ring height
  to a quantized ladder level and rescale the component.  A cell lies in
  ring k when k R / rings <= r < (k + 1) R / rings (`_ring_index`), for the
  family's masses, the fitted anchor profile and the materialized state
  alike.  The functional and the distance are evaluated in profile space
  with continuum closed forms (ring-jump total variation, exact L^2/L^inf,
  monotone radial bottleneck), with periodic cross-checks against the grid
  bottleneck.  A sweep scores all moves of one component at once: row sums
  for the closed forms, the components that did not move contributing
  constants, and one batched quantile-gap kernel against the anchor's
  cumulative weights for the radial bottleneck.  A component's moves and
  their scores are computed once per distinct height profile in one
  resolvent call, so a sweep re-scores only the component that last moved.
* Grid local search: greedy first-improvement descent over quantum mass
  transfers between adjacent cells; the transport part of the distance is
  evaluated on coarse-binned atoms (`coarse_measure`, sub-sampling factor
  recorded).  Within one resolvent call each distinct coarse pair is solved
  once, keyed on what the bottleneck solver reads (`bottleneck.instance_key`),
  so a reused value equals a fresh solve.

Both searches score bound first.  A candidate's value is
    phi + (B + L)^2 / (2 tau)
with B >= 0 the bottleneck term (the largest radial bottleneck over the
components, or the coarse `winf`) and L the L^inf gap.  With B0 <= B known
without computing B (the largest stored bottleneck of the components that
did not move, or 0), phi + (B0 + L)^2 / (2 tau) is a lower bound in float
too, since every rounded operation in it is monotone.  A candidate is kept
only if its value is below the best so far less 1e-12, and the best only
falls during a sweep or scan; so B is computed only for the candidates whose
bound passes, and the search keeps the same candidates, with the same
values, as scoring every one.

Every reuse and every skip leaves the outputs bit for bit as a full scoring
of every candidate would give them.

The anchor is always candidate 0, so Phi(out) <= phi(anchor) holds by
construction, and so do the telescoped dissipation inequalities.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from . import bottleneck
from .bottleneck import quantile_gaps, quantile_reference, winf_grid
# unused here but stays bound: perfbench/tracer.py patches it
from .bottleneck import winf_radial  # noqa: F401
from .errors import InputError
from .functionals import isop, sobolev_ratio
from .measures import (
    DiscreteMeasure,
    GridDensity,
    GridSpec,
    coarse_measure,
    grid_to_atoms,
    normalized_density,
)
from .plmetric import lp_norm_diff

SUBRINGS = 32  # sub-ring resolution used for the radial bottleneck
# Largest grid the grid-family search accepts, set so that one scan of the
# candidates stays within about 5 s.  A scan tries up to 4 moves per cell,
# and a step rescans after each accepted move.  A scan that accepted no move
# (ramp ball R = 1, w = 0.6 on [-2, 2]^2, quantum 1e-3, 8 coarse bins, tau
# 0.1 or 2, one core of a 2-vCPU x86_64 VM) took 0.07-0.11 s at 32^2 cells
# (688 candidates), 0.19-0.23 s at 48^2 (1,328) and 0.31-0.34 s at 64^2
# (1,792): about 0.18 ms per candidate, all of it phi and the L^inf gap, as
# no candidate's bound passed and no coarse bottleneck was solved.  A scan
# in which every bound passes solves them too, as scoring every candidate
# did (0.48-0.56 s at 64^2, about 0.3 ms per candidate), so all 4 * 4096
# moves of a 64^2 grid would take about 5 s.
GRID_SEARCH_CELLS = 4096
# Size caps on the other integers of a scheme, measured on one core of a
# 2-vCPU x86_64 VM.  Steps: each is one resolvent and one written state, so
# the cap bounds what a run holds and writes.  1,024 steps of a one-ball
# radial family (16^2 grid, 4 rings, 8 levels) took 1.1 s and wrote 4.6 MB;
# a 16^2 grid-family step takes about 0.09 s, so 1,024 of them about 90 s.
MAX_STEPS = 1_024
# Levels: the heights a radial sweep tries per ring, capped from a budget of
# about 5 s and 300 MB as `bottleneck.MAX_ATOMS` is.  On two balls on a 32^2
# grid (4 rings, 2 steps) 4,096 levels took 1.1 s at 108 MB peak RSS, 8,192
# took 3.6 s at 190 MB and 32,768 took 6.1 s at 510 MB.
MAX_LEVELS = 4_096
# Coarse bins per axis of the grid family's bottleneck term.  A 2D grid the
# search accepts has at most GRID_SEARCH_CELLS / 2 cells along an axis, so
# more bins separate no more of its cells; at 2,048 bins a 16^2 grid-family
# run (budget 4, 2 steps) took 1.1 s at 98 MB.
MAX_COARSE_BINS = GRID_SEARCH_CELLS // 2


@dataclass(frozen=True)
class StepPartition:
    """Finite list of positive steps (the infinite tail is truncated)."""

    steps: tuple[float, ...]

    def __post_init__(self):
        if len(self.steps) == 0 or any(t <= 0 for t in self.steps):
            raise InputError("steps must be positive")
        _check_step_count(len(self.steps))

    @property
    def horizon(self) -> float:
        return float(sum(self.steps))

    @property
    def sup_step(self) -> float:
        return float(max(self.steps))

    def times(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.steps)])

    @staticmethod
    def uniform(tau: float, n: int) -> "StepPartition":
        _check_step_count(n)
        return StepPartition((float(tau),) * n)


def _check_step_count(n: int) -> None:
    if n > MAX_STEPS:
        raise InputError(f"steps must be at most {MAX_STEPS}, got {n}")


@dataclass(frozen=True)
class RadialFamily:
    """Per-component ring-height profiles with fixed centers and masses."""

    centers: tuple[tuple[float, ...], ...]
    masses: tuple[float, ...]
    outer_radii: tuple[float, ...]
    rings: int = 8
    levels: int = 32
    max_sweeps: int = 60

    def __post_init__(self):
        if not len(self.centers) == len(self.masses) == len(self.outer_radii):
            raise InputError("centers, masses and outer_radii must have one length")
        if not all(0 < R < math.inf for R in self.outer_radii):
            raise InputError(f"outer radii must be positive, got {self.outer_radii}")
        if self.rings < 1 or self.rings > 8:
            raise InputError("rings must be in 1..8")
        if self.levels < 1:
            raise InputError(f"levels must be >= 1, got {self.levels}")
        if self.levels > MAX_LEVELS:
            raise InputError(f"levels must be at most {MAX_LEVELS}, got {self.levels}")
        if self.max_sweeps < 0:
            raise InputError(f"max_sweeps must be >= 0, got {self.max_sweeps}")
        if abs(sum(self.masses) - 1.0) > 1e-9:
            raise InputError("component masses must sum to 1")

    @staticmethod
    def from_anchor(
        anchor: GridDensity,
        centers,
        outer_radii,
        rings: int = 8,
        levels: int = 32,
        max_sweeps: int = 60,
    ) -> "RadialFamily":
        n = len(centers)
        fam = RadialFamily(
            tuple(tuple(float(x) for x in c) for c in centers),
            (1.0 / max(n, 1),) * n,  # stand-ins until the rings measure the anchor
            tuple(float(R) for R in outer_radii),
            rings, levels, max_sweeps,
        )
        pts = anchor.spec.centers()
        masses = [
            float(anchor.values[_ring_index(fam, j, pts) >= 0].sum() * anchor.spec.cell_volume)
            for j in range(n)
        ]
        total = sum(masses)
        if abs(total - 1.0) > 1e-6:
            raise InputError("outer radii do not capture the anchor mass")
        return dataclasses.replace(fam, masses=tuple(m / total for m in masses))


@dataclass(frozen=True)
class GridSearchFamily:
    """Greedy adjacent-cell mass transfers with a fixed move quantum."""

    quantum: float = 1e-3
    budget: int = 200
    coarse_bins: int = 12

    def __post_init__(self):
        if not self.quantum > 0:
            raise InputError(f"move quantum must be positive, got {self.quantum}")
        if self.budget < 0:
            raise InputError(f"move budget must be >= 0, got {self.budget}")
        if self.coarse_bins < 1:
            raise InputError(f"coarse_bins must be >= 1, got {self.coarse_bins}")
        if self.coarse_bins > MAX_COARSE_BINS:
            raise InputError(f"coarse_bins must be at most {MAX_COARSE_BINS}, got {self.coarse_bins}")


@dataclass(frozen=True)
class ResolventProblem:
    phi: str  # "isop" or "sobolev"
    tau: float
    anchor: GridDensity
    family: RadialFamily | GridSearchFamily
    sobolev_r: float = 1.5

    def __post_init__(self):
        if self.tau <= 0:
            raise InputError("tau must be positive")
        if self.phi not in ("isop", "sobolev"):
            raise InputError(f"unknown functional tag {self.phi!r}")


@dataclass(frozen=True)
class DiscreteSolution:
    partition: StepPartition
    states: tuple[GridDensity, ...]  # states[0] is the initial datum
    phi_values: tuple[float, ...]
    moreau_values: tuple[float, ...]  # Phi at each accepted state, len = steps
    movement: tuple[float, ...]  # d(x_k, x_{k-1}) per step
    diagnostics: tuple[dict, ...]


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------


class _RadialState:
    """Heights per component on that component's ring partition."""

    __slots__ = ("family", "heights")

    def __init__(self, family: RadialFamily, heights: list[np.ndarray]):
        self.family = family
        self.heights = [np.asarray(h, dtype=float) for h in heights]

    def replace(self, j: int, h: np.ndarray) -> "_RadialState":
        heights = list(self.heights)
        heights[j] = h
        return _RadialState(self.family, heights)


class _Rings(NamedTuple):
    """One component's ring partition: ring edges and areas, and the
    sub-ring mid radii and areas that the radial bottleneck reads."""

    edges: np.ndarray
    areas: np.ndarray
    sub_radii: np.ndarray
    sub_areas: np.ndarray


def _rings(fam: RadialFamily, j: int) -> _Rings:
    R = fam.outer_radii[j]
    edges = np.linspace(0.0, R, fam.rings + 1)
    fine = np.linspace(0.0, R, fam.rings * SUBRINGS + 1)
    return _Rings(
        edges, math.pi * np.diff(edges**2), 0.5 * (fine[:-1] + fine[1:]), math.pi * np.diff(fine**2)
    )


def _ring_index(fam: RadialFamily, j: int, pts: np.ndarray) -> np.ndarray:
    """The ring of component j holding each point: k where
    k R / rings <= r < (k + 1) R / rings, with r its distance to the
    component's center, and -1 where r >= R."""
    R = fam.outer_radii[j]
    r = np.linalg.norm(pts - np.asarray(fam.centers[j]), axis=-1)
    k = np.minimum((r / (R / fam.rings)).astype(int), fam.rings - 1)
    return np.where(r < R, k, -1)


def _rescale_component(mass: float, areas: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Rescale height rows of a component with these ring areas to its mass."""
    total = (h * areas).sum(axis=-1)
    if np.any(total <= 0):
        raise InputError("component lost all mass")
    return h * np.expand_dims(mass / total, -1)


def _fit_anchor_profile(anchor: GridDensity, family: RadialFamily) -> _RadialState:
    pts = anchor.spec.centers()
    vol = anchor.spec.cell_volume
    heights = []
    for j in range(len(family.centers)):
        g = _rings(family, j)
        ring = _ring_index(family, j, pts)
        h = np.array([anchor.values[ring == k].sum() * vol / g.areas[k] for k in range(family.rings)])
        heights.append(_rescale_component(family.masses[j], g.areas, h))
    return _RadialState(family, heights)


def _subring_weights(g: _Rings, h: np.ndarray) -> np.ndarray:
    """Normalized sub-ring radius marginal of each height row of a component
    (zero entries kept, so every row lives on `g.sub_radii`)."""
    w = np.repeat(h, SUBRINGS, axis=-1) * g.sub_areas
    return w / w.sum(axis=-1, keepdims=True)


def _materialize(state: _RadialState, spec: GridSpec) -> GridDensity:
    fam = state.family
    pts = spec.centers()
    raw = np.zeros(spec.shape)
    for j, h in enumerate(state.heights):
        ring = _ring_index(fam, j, pts)
        raw += np.where(ring >= 0, h[ring], 0.0)
    # ring profiles are coarse objects; allow a looser sampling mismatch
    return normalized_density(spec, raw, guard=0.1)


def _radial_phi(prob: ResolventProblem, state: _RadialState) -> float:
    """The Sobolev ratio of the materialized profile (the isoperimetric ratio
    is read off the component terms of `_ComponentScores`)."""
    return sobolev_ratio(_materialize(state, prob.anchor.spec), prob.sobolev_r).value


def _ring_moves(g: _Rings, mass: float, h: np.ndarray, ladder: np.ndarray):
    """Every single-ring move of a component in (ring, level) order, rescaled
    to the component mass, and the mask of the moves that count: a move must
    change the height and leave the component some mass.  Rows of the other
    moves hold `h` unchanged."""
    ring = np.repeat(np.arange(len(h)), len(ladder))
    lev = np.tile(ladder, len(h))
    rows = np.repeat(h[None, :], len(lev), axis=0)
    rows[np.arange(len(lev)), ring] = lev
    valid = (lev != h[ring]) & ((rows * g.areas).sum(axis=1) > 0)
    rows[valid] = _rescale_component(mass, g.areas, rows[valid])
    rows[~valid] = h
    return rows, valid


class _Component:
    """One component at one height profile h, against the resolvent's anchor.

    `rows` and `valid` are its single-ring moves and their mask
    (`_ring_moves`); `own` is (TV, squared L^2, radial bottleneck, L^inf gap)
    of h, each a one-element array.  Per move row: `tv`, `l2sq` and `lgap`
    always, and the radial bottleneck `w` where a sweep asked for it, NaN
    (not yet computed) elsewhere.
    """

    __slots__ = ("j", "rows", "valid", "own", "tv", "l2sq", "lgap", "w")

    def __init__(self, j, rows, valid, own, tv, l2sq, lgap):
        self.j, self.rows, self.valid, self.own = j, rows, valid, own
        self.tv, self.l2sq, self.lgap = tv, l2sq, lgap
        self.w = np.full(len(rows), np.nan)


class _ComponentScores:
    """What a sweep reads of each component, against one fixed anchor.

    None of a `_Component`'s terms depends on the other components, and a
    sweep changes at most one component, so each is built once per distinct
    (j, h) and reused by later sweeps.  Building one computes the moves' row
    sums (TV, squared L^2, L^inf gap); the radial bottleneck, a
    `quantile_gaps` call, is computed only for the rows a sweep asks for and
    then kept.  A Sobolev phi depends on every component and is never stored
    here.  Each component's ring geometry is computed once.  One instance
    serves one resolvent call.
    """

    def __init__(self, fam: RadialFamily, anchor_state: _RadialState):
        self.fam = fam
        self.anchor_heights = anchor_state.heights
        self.rings = [_rings(fam, j) for j in range(len(fam.masses))]
        self.refs = [
            quantile_reference(g.sub_radii, _subring_weights(g, h))
            for g, h in zip(self.rings, anchor_state.heights)
        ]
        self.ladders = [
            np.linspace(0.0, 1.5 * max(h.max(), 1e-12), fam.levels) for h in anchor_state.heights
        ]
        self.scored: dict[tuple, _Component] = {}

    def row_sums(self, j: int, rows: np.ndarray):
        """Per-row ring-jump total variation, squared L^2 norm (continuum
        closed forms of the piecewise-constant profile) and L^inf gap to the
        anchor of height rows of component j."""
        g = self.rings[j]
        tv = (np.abs(np.diff(rows, axis=-1, append=0.0)) * 2 * math.pi * g.edges[1:]).sum(axis=-1)
        l2sq = (rows * rows * g.areas).sum(axis=-1)
        return tv, l2sq, np.abs(rows - self.anchor_heights[j]).max(axis=-1)

    def radial_bottleneck(self, j: int, rows: np.ndarray) -> np.ndarray:
        g = self.rings[j]
        _, gap = quantile_gaps(g.sub_radii, _subring_weights(g, rows), *self.refs[j])
        return gap.max(axis=-1)

    def __call__(self, j: int, h: np.ndarray, own=None) -> _Component:
        """Component j at heights h.  `own`, if given, holds the terms of h
        already computed as a move row of another component entry."""
        key = (j, h.tobytes())
        if key not in self.scored:
            if own is None:
                tv, l2sq, lgap = self.row_sums(j, h[None, :])
                own = (tv, l2sq, self.radial_bottleneck(j, h[None, :]), lgap)
            rows, valid = _ring_moves(self.rings[j], self.fam.masses[j], h, self.ladders[j])
            self.scored[key] = _Component(j, rows, valid, own, *self.row_sums(j, rows))
        return self.scored[key]

    def move_bottleneck(self, comp: _Component, idx: np.ndarray) -> np.ndarray:
        """The radial bottleneck of the move rows idx of comp, computed for
        the rows that do not have it yet."""
        todo = idx[np.isnan(comp.w[idx])]
        if len(todo):
            comp.w[todo] = self.radial_bottleneck(comp.j, comp.rows[todo])
        return comp.w[idx]


def _radial_resolvent(prob: ResolventProblem, anchor_state: _RadialState | None = None):
    """Best-improvement sweeps over single-ring moves, bound first.

    Each sweep takes the components in order and forms, for all moves of
    one component as arrays, phi (for an isoperimetric phi, from the TV and
    L^2 row sums) and the L^inf gap L, the other components contributing
    constants.  A move's value is phi + (B + L)^2 / (2 tau), with B the
    largest radial bottleneck over the components; B is at least B0, the
    largest stored bottleneck of the other components, and every float
    operation is monotone, so phi + (B0 + L)^2 / (2 tau) bounds the value
    below in float.  The sweep keeps each move, in (ring, level) order, that
    beats the best value so far by more than 1e-12, and that value only
    falls; so the bottleneck, one `quantile_gaps` call, is computed only for
    the moves whose bound beats it when their component's turn starts.  The
    sweep keeps exactly the moves, and the values, that scoring every move
    would give.

    The terms come from `_ComponentScores`, once per component profile.  An
    accepted move passed its bound, so its stored terms become those of its
    component's new profile.  `candidates_evaluated` counts every valid
    move, bounded or scored.  The step's movement, and an isoperimetric phi,
    are read off the stored terms of the accepted state.
    """
    fam: RadialFamily = prob.family
    if anchor_state is None:
        anchor_state = _fit_anchor_profile(prob.anchor, fam)
    score = _ComponentScores(fam, anchor_state)

    def own_terms(state: _RadialState):
        """(TV, squared L^2, radial bottleneck, L^inf gap) of the state's own
        heights, each a tuple over the components."""
        return zip(*(score(j, h).own for j, h in enumerate(state.heights)))

    def phi_of(state: _RadialState) -> float:
        if prob.phi == "isop":
            tv, l2sq, _, _ = own_terms(state)
            return float((sum(tv) / np.sqrt(sum(l2sq)))[0])
        return _radial_phi(prob, state)

    phi_anchor = phi_of(anchor_state)
    current = anchor_state
    best_phi_val = phi_anchor  # Phi(anchor) = phi(anchor): distance term is 0
    evaluated = 1
    sweeps = 0
    while sweeps < fam.max_sweeps:
        sweeps += 1
        best = None
        best_val = best_phi_val
        comps = [score(j, h) for j, h in enumerate(current.heights)]
        for j, c in enumerate(comps):
            before, after = [o.own for o in comps[:j]], [o.own for o in comps[j + 1 :]]
            tv, l2sq, _, lgap = zip(*before, (c.tv, c.l2sq, None, c.lgap), *after)
            if prob.phi == "isop":
                valid = c.valid
                phi = sum(tv) / np.sqrt(sum(l2sq))
            else:
                valid = c.valid.copy()  # later sweeps reuse the stored mask
                phi = np.full(len(c.rows), np.nan)
                for r in np.flatnonzero(valid):
                    try:
                        phi[r] = _radial_phi(prob, current.replace(j, c.rows[r]))
                    except InputError:
                        valid[r] = False
            evaluated += int(valid.sum())
            lgap = reduce(np.maximum, lgap)
            w0 = reduce(np.maximum, [o[2] for o in before + after], 0.0)
            bound = phi + (w0 + lgap) ** 2 / (2 * prob.tau)
            idx = np.flatnonzero(valid & (bound < best_val - 1e-12))
            if len(idx) == 0:
                continue
            w = np.maximum(w0, score.move_bottleneck(c, idx))
            vals = phi[idx] + (w + lgap[idx]) ** 2 / (2 * prob.tau)
            for r, val in zip(idx, vals):
                if val < best_val - 1e-12:
                    best_val = float(val)
                    best = (c, r)
        if best is None:
            break
        c, r = best
        moved = slice(r, r + 1)
        score(c.j, c.rows[r], own=(c.tv[moved], c.l2sq[moved], c.w[moved], c.lgap[moved]))
        current = current.replace(c.j, c.rows[r])
        best_phi_val = best_val
    out = _materialize(current, prob.anchor.spec)
    # components keep their mass, so couplings stay component-wise
    _, _, w, lgap = own_terms(current)
    move = float(reduce(np.maximum, w)[0] + reduce(np.maximum, lgap)[0])
    phi_cur = phi_of(current)
    diag = {
        "family": "radial",
        "rings": fam.rings,
        "levels": fam.levels,
        "sweeps": sweeps,
        "candidates_evaluated": evaluated,
        "phi_anchor": phi_anchor,
        "phi_out": phi_cur,
        "movement_profile": move,
    }
    return out, current, float(best_phi_val), move, diag


# ---------------------------------------------------------------------------
# grid local search
# ---------------------------------------------------------------------------


def _coarse(g: GridDensity, bins: int) -> DiscreteMeasure:
    """Coarse-binned atomization (the sub-sampled transport metric's input)."""
    atoms = grid_to_atoms(g)
    return coarse_measure(atoms.points, atoms.weights, g.spec, bins)


def _grid_phi(prob: ResolventProblem, g: GridDensity) -> float:
    if prob.phi == "isop":
        return isop(g).value
    return sobolev_ratio(g, prob.sobolev_r).value


class _CoarseBottleneck:
    """Coarse bottleneck from grid states to one fixed anchor.

    Most moves of the grid search leave the coarse-binned measure unchanged,
    so each distinct coarse pair is solved once, keyed on
    `bottleneck.instance_key`, which holds exactly what `winf` reads.  A
    reused value is therefore the value a fresh solve returns.  One instance
    serves one resolvent call.
    """

    def __init__(self, anchor: GridDensity, bins: int):
        self.bins = bins
        self.anchor = _coarse(anchor, bins)
        self.solved: dict[tuple, float] = {}

    def __call__(self, g: GridDensity) -> float:
        coarse = _coarse(g, self.bins)
        key = bottleneck.instance_key(coarse, self.anchor)
        if key not in self.solved:
            self.solved[key] = bottleneck.winf(coarse, self.anchor).value
        return self.solved[key]


def _grid_resolvent(prob: ResolventProblem, _state=None):
    """Greedy first-improvement descent over quantum transfers between
    adjacent cells, bound first.

    A candidate's value is phi + (B + L)^2 / (2 tau), with B >= 0 the coarse
    bottleneck and L the L^inf gap to the anchor.  Every float operation in
    it is monotone, so phi + L^2 / (2 tau) bounds it below in float as well,
    and a candidate whose bound is not below the current value less 1e-12
    can never be accepted.  The coarse bottleneck is computed only for the
    candidates whose bound passes; `candidates_evaluated` counts both."""
    fam: GridSearchFamily = prob.family
    spec = prob.anchor.spec
    if int(np.prod(spec.shape)) > GRID_SEARCH_CELLS:
        raise InputError(f"grid local search is limited to {GRID_SEARCH_CELLS} cells")
    vol = spec.cell_volume
    anchor = prob.anchor
    coarse_winf = _CoarseBottleneck(anchor, fam.coarse_bins)

    cur = anchor.values.copy()
    phi_anchor = _grid_phi(prob, anchor)
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
                    phi = _grid_phi(prob, g)
                    gap = lp_norm_diff(g, anchor, math.inf)
                    val = math.inf
                    if phi + gap**2 / (2 * prob.tau) < cur_val - 1e-12:
                        val = phi + (coarse_winf(g) + gap) ** 2 / (2 * prob.tau)
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
        "phi_out": _grid_phi(prob, out),
    }
    return out, None, float(cur_val), coarse_winf(out) + lp_norm_diff(out, anchor, math.inf), diag


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


def _family_resolvent(prob: ResolventProblem):
    """The family's resolvent: (prob, family state or None) ->
    (state, family state, Phi value, movement, diagnostics)."""
    if isinstance(prob.family, RadialFamily):
        return _radial_resolvent
    if isinstance(prob.family, GridSearchFamily):
        return _grid_resolvent
    raise InputError(f"unknown family {type(prob.family).__name__}")


def resolvent(prob: ResolventProblem):
    """Approximate minimizer of Phi(. ; tau, anchor) within the declared
    family.  Returns (state, Phi value, diagnostics)."""
    out, _, val, _, diag = _family_resolvent(prob)(prob)
    return out, val, diag


def run_scheme(
    anchor: GridDensity,
    partition: StepPartition,
    prob_template: ResolventProblem,
    cross_check_every: int = 0,
) -> DiscreteSolution:
    """Iterate the resolvent along the partition, recording the ledger.

    With `cross_check_every = k > 0`, every k-th step also records the grid
    bottleneck between consecutive states next to the family metric.
    """
    step = _family_resolvent(prob_template)
    fam = prob_template.family
    # carry the family state: the anchor of each step is exactly the previous
    # minimizer, keeping the dissipation ledger exact
    fam_state = _fit_anchor_profile(anchor, fam) if isinstance(fam, RadialFamily) else None
    states = [anchor]
    diags = []
    movements = []
    moreaus = []
    for step_i, tau in enumerate(partition.steps):
        prob = dataclasses.replace(prob_template, tau=tau, anchor=states[-1])
        out, fam_state, val, move, diag = step(prob, fam_state)
        if cross_check_every and (step_i + 1) % cross_check_every == 0:
            check = winf_grid(out, states[-1])
            diag["winf_grid_cross_check"] = check.value
            diag["winf_grid_quantization"] = check.quantization_bound
        movements.append(move)
        moreaus.append(val)
        diags.append(diag)
        states.append(out)
    return DiscreteSolution(
        partition,
        tuple(states),
        (diags[0]["phi_anchor"],) + tuple(d["phi_out"] for d in diags),
        tuple(moreaus),
        tuple(movements),
        tuple(diags),
    )


def equal_ratio_probe(
    anchor: GridDensity,
    centers,
    outer_radii,
    tau: float = 0.1,
    rings: int = 8,
    levels: int = 32,
) -> dict:
    """Resolvent probe around a multiball anchor whose mass/radius ratios are
    equal (the candidate stationary configurations).

    Whether these anchors are stationary for the scheme is an open question;
    the probe reports what the family search found without asserting an
    expected outcome.
    """
    fam = RadialFamily.from_anchor(anchor, centers, outer_radii, rings=rings, levels=levels)
    prob = ResolventProblem("isop", tau, anchor, fam)
    out, val, diag = resolvent(prob)
    return {
        "tau": tau,
        "phi_anchor": diag["phi_anchor"],
        "phi_out": diag["phi_out"],
        "moreau_out": val,
        "movement_profile": diag["movement_profile"],
        "moved": diag["movement_profile"] > 1e-12,
        "candidates_evaluated": diag["candidates_evaluated"],
        "note": "family-relative search only; no stationarity claim",
    }


def solution_ledger(sol: DiscreteSolution) -> dict:
    """JSON-ready per-step ledger of a scheme run."""
    steps = []
    for k, tau in enumerate(sol.partition.steps):
        steps.append(
            {
                "step": k + 1,
                "tau": tau,
                "phi": sol.phi_values[k + 1],
                "moreau": sol.moreau_values[k],
                "movement": sol.movement[k],
                "diagnostics": sol.diagnostics[k],
            }
        )
    return {
        "phi_initial": sol.phi_values[0],
        "horizon": sol.partition.horizon,
        "sup_step": sol.partition.sup_step,
        "steps": steps,
    }


def refine_and_compare(
    anchor: GridDensity,
    partitions: list[StepPartition],
    prob_template: ResolventProblem,
    coarse_bins: int = 12,
) -> dict:
    """Run the scheme along refining partitions and compare the piecewise
    constant interpolants at shared times.  Diagnostic only: no continuum
    convergence is asserted."""
    if len(partitions) < 2:
        raise InputError("need >= 2 partitions")
    for a, b in zip(partitions, partitions[1:]):
        if b.sup_step > 0.6 * a.sup_step:
            raise InputError("partitions must have (roughly) halving sup_step")
    sols = [run_scheme(anchor, p, prob_template) for p in partitions]
    horizon = min(p.horizon for p in partitions)
    sample_times = np.linspace(0.0, horizon, 9)[1:]
    n = anchor.spec.dim
    p_sigma = n / (n - 1) if n > 1 else 1.0

    def state_at(sol: DiscreteSolution, t: float) -> GridDensity:
        # piecewise constant: x_t = x_j on (t_{j-1}, t_j]
        times = sol.partition.times()
        j = int(np.searchsorted(times, t - 1e-12))
        j = min(max(j, 1), len(sol.states) - 1)
        return sol.states[j]

    comparisons = []
    for a, b in zip(sols, sols[1:]):
        rows = []
        for t in sample_times:
            ga, gb = state_at(a, t), state_at(b, t)
            sigma_dist = lp_norm_diff(ga, gb, p_sigma)
            w = bottleneck.winf(_coarse(ga, coarse_bins), _coarse(gb, coarse_bins)).value
            rows.append(
                {
                    "t": float(t),
                    "sigma_distance": sigma_dist,
                    "dinf_coarse": w + lp_norm_diff(ga, gb, math.inf),
                }
            )
        comparisons.append(
            {
                "sup_steps": [a.partition.sup_step, b.partition.sup_step],
                "rows": rows,
                "max_sigma_distance": max(r["sigma_distance"] for r in rows),
            }
        )
    return {
        "anchor_phi": sols[0].phi_values[0],
        "coarse_bins": coarse_bins,
        "phi_envelopes": [list(s.phi_values) for s in sols],
        "comparisons": comparisons,
    }
