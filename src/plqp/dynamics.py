"""Continuity-equation tooling on grid trajectories.

Contains the conservative upwind solver, weak-form residual checks against a
fixed panel of smooth test functions, minimal-norm velocity reconstruction
from consecutive densities, the one-step displacement verification of the
bottleneck distance, path-ensemble action minimization, and characteristic
tracing.

Characteristic tracing samples the velocity field with the order-1 sampler
of `measures`: each set of points gets one corner table, which serves every
field component and, at the midpoint step, both fields.  The displacement
path of `bb_verify` deposits its moving masses on the grid by the same
corner table, the transpose of that sampler.

The reconstruction solves for the momentum m = v * f on staggered faces
(avoiding division by small densities); velocities are reported only where
f >= 1e-9.  The l2 solve is the discrete Benamou-Brenier field, the momentum
of least kinetic energy sum_e m_e^2 / f_e: one direct weighted-Laplacian
solve per interval, with nothing to iterate or tune (`_kinetic_momentum`).
The minimal sup-norm solve minimizes the face norm
max_e |m_e| / f_e over the staggered edge graph exactly, as two linear
programs whose only inequalities are box bounds on the columns, on the
divergence D of the faces a trajectory uses and the cells they touch
(`_FaceSystem`).  Both are homogeneous: copies of +-D and one column s
holding -rhs, with zero rows.  Phase 1 is max s subject to D m' = s rhs and
|m'_e| <= f_e, so the face norm is t = 1/s and the momentum m' / s.  Phase
2 fixes s at 1, writes m = p - q with 0 <= p, q <= t f and picks, among
momenta at that bound, the one of least total face speed
sum (p_e + q_e) / f_e.  D is built once per trajectory, and each phase is
one model of the HiGHS adapter `_highs.Model`: the first interval solves it
cold, and every later one sets the bounds and costs of every column and
rewrites the s column, and re-solves from the last basis, with HiGHS
presolve off and its default tolerances (LP_OPTIONS); a phase 1 that HiGHS
proves unbounded is no motion.  The per-cell Euclidean speed is assembled
from face values afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _highs
from .bottleneck import winf, winf_grid
from .errors import InfeasibleError, InputError
from .measures import (
    DiscreteMeasure,
    GridDensity,
    GridSpec,
    Trajectory,
    VelocityField,
    _linear_sample,
    _linear_table,
    boundary_ring,
    coarse_measure,
    grid_to_atoms,
)
from .transport import wq

SUPPORT_EPS = 1e-12  # relative threshold separating support from splat dust
DENSITY_FLOOR = 1e-9  # report v = m/f only where f >= this floor
# Largest step count `bb_verify` accepts.  Each step is one reconstructed
# interval; on the 32^2 knight-move ramp-ball pair of the `continuity`
# benchmark (one core of a 2-vCPU x86_64 VM) 256 steps took 1.5 s at 97 MB
# peak RSS and 1,024 steps 5.3 s at 138 MB; at 64^2, 256 steps took 6.1 s.
MAX_BB_STEPS = 1_024
# HiGHS options of both sup-norm LPs: presolve off, so that every interval
# after the first re-solves from the last basis; default tolerances and
# default pricing.  Devex, which the transport LPs use, moves the chained
# face norms in their last digits and can move phase 2's non-unique optimum.
LP_OPTIONS = {"presolve": False}


def __getattr__(name):
    # `linprog` and `lsqr` are never called here.  They are bound on first
    # look-up only because perfbench/tracer.py patches them; ROADMAP item 6
    # deletes them.
    if name == "linprog":
        from scipy.optimize import linprog as fn
    elif name == "lsqr":
        from scipy.sparse.linalg import lsqr as fn
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = fn
    return fn


# ---------------------------------------------------------------------------
# staggered-grid operators
# ---------------------------------------------------------------------------


def _sides(a: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """The two cells of every interior face normal to `axis`: views of `a`
    without its last and without its first slice along that axis."""
    before = (slice(None),) * axis
    return a[(*before, slice(None, -1))], a[(*before, slice(1, None))]


def _divergence_matrix(spec: GridSpec):
    """Sparse divergence: cells x faces, (div m)_c = sum_axis (m_out - m_in)/h.

    Faces are numbered axis by axis, each axis's faces in row-major order."""
    from scipy import sparse

    ncells = int(np.prod(spec.shape))
    cell_idx = np.arange(ncells).reshape(spec.shape)
    rows, cols, vals = [], [], []
    offset = 0
    for ax in range(spec.dim):
        left, right = _sides(cell_idx, ax)
        nf = left.size
        f = offset + np.arange(nf)
        rows.extend([left.ravel(), right.ravel()])
        cols.extend([f, f])
        vals.extend([np.full(nf, 1.0 / spec.h), np.full(nf, -1.0 / spec.h)])
        offset += nf
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ncells, offset),
    )


def _face_density(fbar: np.ndarray, axis: int) -> np.ndarray:
    lo, hi = _sides(fbar, axis)
    return 0.5 * (lo + hi)


def _cell_vectors(m: np.ndarray, faces: list[np.ndarray], spec: GridSpec) -> np.ndarray:
    """Per-face velocities v = m / f_face (0 below the density floor),
    averaged onto cell centers.  `m` is the flat face vector and `faces` the
    face densities, axis by axis."""
    v = np.zeros((*spec.shape, spec.dim))
    cuts = np.cumsum([f.size for f in faces])[:-1]
    for ax, (mf, fface) in enumerate(zip(np.split(m, cuts), faces)):
        mf = mf.reshape(fface.shape)
        with np.errstate(invalid="ignore", divide="ignore"):
            vface = np.where(fface >= DENSITY_FLOOR, mf / np.maximum(fface, DENSITY_FLOOR), 0.0)
        pad = [(0, 0)] * spec.dim
        pad[ax] = (1, 1)
        lo, hi = _sides(np.pad(vface, pad), ax)  # zero velocity outside
        v[..., ax] = 0.5 * (lo + hi)
    return v


# ---------------------------------------------------------------------------
# velocity reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReconstructedField(VelocityField):
    """Velocity field recovered from a trajectory, with per-interval norms.

    `sup_norms[k]` is the max per-cell Euclidean speed on interval k;
    `face_norms[k]` is the solver bound max_e |m_e| / f_e on staggered faces.
    """

    sup_norms: tuple[float, ...] = ()
    face_norms: tuple[float, ...] = ()
    residuals: tuple[float, ...] = ()


def _dilate(mask: np.ndarray) -> np.ndarray:
    """The boolean mask grown by one cell in every direction, diagonals
    included (a 3^d box), one axis at a time; False outside the grid."""
    for ax in range(mask.ndim):
        grown = mask.copy()
        lo, hi = _sides(mask, ax)
        grown_lo, grown_hi = _sides(grown, ax)
        grown_lo |= hi
        grown_hi |= lo
        mask = grown
    return mask


def _support_compatible(f0: np.ndarray, f1: np.ndarray) -> bool:
    s0 = f0 > SUPPORT_EPS * f0.max()
    s1 = f1 > SUPPORT_EPS * f1.max()
    return bool(np.all(s1 <= _dilate(s0)) and np.all(s0 <= _dilate(s1)))


def _residual_bound(rhs: np.ndarray) -> float:
    """Largest |div m - rhs| (2-norm) accepted as solving the continuity
    constraint."""
    return 1e-7 * max(1.0, float(np.abs(rhs).max()))


def _face_components(Da) -> np.ndarray:
    """Label of every cell's connected component in the graph of the active
    faces; a cell on no active face is a component of its own."""
    from scipy.sparse.csgraph import connected_components

    inc = abs(Da)
    return connected_components(inc @ inc.T, directed=False)[1]


def _unroutable(Da, rhs: np.ndarray, mass_unit: float) -> str:
    """The mass that no flow along the active faces can move, stated: half
    the summed net imbalance of rhs over the connected components."""
    net = np.bincount(_face_components(Da), weights=rhs) * mass_unit
    return f"mass {0.5 * float(np.abs(net).sum()):.3g} cannot move along faces of positive density"


class _FaceSystem:
    """The divergence on the faces one trajectory uses, and its two sup-norm
    LPs, for one `reconstruct_velocity` call.

    The columns of `D` are the faces of positive density on some interval,
    its rows the cells those faces touch.  A cell whose density changes has
    positive density, so it is a row.  D is built once.  Each sup-norm phase
    is one HiGHS model, built by `_model` on the first interval that needs
    it; on a later interval `_model` sets its column bounds and costs and
    its s column, and HiGHS re-solves from the last basis.
    """

    def __init__(self, spec: GridSpec, densities: list[np.ndarray]):
        self.spec = spec
        self.fbars = [0.5 * (f0 + f1) for f0, f1 in zip(densities, densities[1:])]
        # face densities per interval, axis by axis, as `_cell_vectors` reads them
        self.faces = [[_face_density(fbar, ax) for ax in range(spec.dim)] for fbar in self.fbars]
        fface = [np.concatenate([f.ravel() for f in faces]) for faces in self.faces]
        self.columns = np.logical_or.reduce([f > 0 for f in fface])
        D = _divergence_matrix(spec)[:, self.columns]
        self.rows = np.flatnonzero(D.getnnz(axis=1))
        self.D = D[self.rows]
        self.Dc = self.D.tocsc()  # column-wise, as the LPs take it
        # each interval's density on the used faces; 0 where it has none
        self.fface = [f[self.columns] for f in fface]
        self.phase1 = self.phase2 = None

    def sup_norm_momentum(self, k: int, rhs: np.ndarray, mass_unit: float):
        """Momentum of least face norm max_e |m_e| / f_e with D m = rhs on
        interval k, and that norm.  Both LPs use box bounds only, no
        inequality rows; a face of zero density on interval k is fixed at 0.

        An unbounded phase 1 (rhs below the solver tolerance, or exactly 0) is
        no motion: face norm 0.  An optimum s = 0, or a phase-1 momentum that
        misses rhs, is infeasible; the error names the mass (`mass_unit` per
        unit of rhs in a cell) that no flow along interval k's faces can move.
        """
        D, f = self.D, self.fface[k]
        n = len(f)
        # phase 1: max s subject to D m' = s rhs and |m'_e| <= f_e, so the
        # face norm is t = 1/s and the momentum m' / s
        self.phase1 = self._model(
            self.phase1, (1.0,), rhs, np.concatenate([np.zeros(n), [-1.0]]),
            np.concatenate([-f, [0.0]]), np.concatenate([f, [_highs.INF]]),
        )
        sol = self.phase1.run()
        if sol.unbounded:
            # s unbounded above: t = 0 moves rhs within the solver tolerance
            return np.zeros(n), 0.0
        if not sol.optimal:
            raise InfeasibleError(f"sup-norm reconstruction failed: {sol.message}")
        s = float(sol.x[-1])
        face_norm = 1.0 / s if s > 0.0 else 0.0
        m1 = face_norm * sol.x[:-1]
        resid = float(np.linalg.norm(D @ m1 - rhs))
        if s <= 0.0 or resid > _residual_bound(rhs):
            # s = 0, or an s that balances rhs only within the solver tolerance
            raise InfeasibleError(
                f"sup-norm reconstruction infeasible: {_unroutable(D[:, f > 0], rhs, mass_unit)} "
                f"(phase-1 residual {resid:.3g})"
            )
        # phase 2: the sup-norm optimum is degenerate; among momenta at the
        # optimal bound, m = p - q with 0 <= p, q <= cap, take the one of least
        # total face speed sum (p_e + q_e) / f_e to kill transverse wiggle.
        # Its s is fixed at 1: D p - D q = rhs.
        active = f > 0
        cap = np.where(active, face_norm * (1.0 + 1e-9) * f + 1e-15, 0.0)
        speed = np.divide(1.0, f, out=np.zeros(n), where=active)
        self.phase2 = self._model(
            self.phase2, (1.0, -1.0), rhs, np.concatenate([speed, speed, [0.0]]),
            np.concatenate([np.zeros(2 * n), [1.0]]), np.concatenate([cap, cap, [1.0]]),
        )
        sol2 = self.phase2.run()
        if sol2.optimal:
            # p - q can pass cap by a few ulps; the bound is stated exactly
            return np.clip(sol2.x[:n] - sol2.x[n:-1], -cap, cap), face_norm
        return m1, face_norm

    def _model(self, model, signs, rhs, cost, lower, upper) -> _highs.Model:
        """`model` set to the LP on the columns sign * D for each of `signs`
        and an s column holding -rhs, with zero rows [sign * D ..., -rhs] x = 0
        and `cost`, `lower` and `upper` on every column, s last.  It is
        built on the first call (`model` None); later calls rewrite the
        columns in place, and HiGHS re-solves from the last basis."""
        nz = np.flatnonzero(rhs)
        if model is None:
            C, copies = self.Dc, len(signs)
            nnz = C.indptr[-1]
            return _highs.Model(
                cost, lower, upper,
                np.concatenate([C.indptr[:-1] + k * nnz for k in range(copies)]
                               + [[copies * nnz, copies * nnz + len(nz)]]),
                np.concatenate([C.indices] * copies + [nz]),
                np.concatenate([sign * C.data for sign in signs] + [-rhs[nz]]),
                np.zeros(len(rhs)),
                LP_OPTIONS,
            )
        model.change_cols(cost, lower, upper)
        model.replace_col(len(cost) - 1, nz, -rhs[nz])
        return model


def _kinetic_momentum(Da, fa: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Momentum of least kinetic energy sum_e m_e^2 / f_e with Da m = rhs.

    It is m = fa Da^T p, where p solves the weighted graph Laplacian
    (Da diag(fa) Da^T) p = rhs, factorized directly.  In each connected
    component of the active faces p is pinned to 0 at one cell, so that
    cell's row is dropped: a component whose rhs does not sum to 0 leaves
    its net imbalance there, as the residual.
    """
    from scipy import sparse
    from scipy.sparse.linalg import spsolve

    free = np.ones(len(rhs), bool)
    free[np.unique(_face_components(Da), return_index=True)[1]] = False
    Df = Da[free]
    p = np.zeros(len(rhs))
    p[free] = spsolve(Df @ sparse.diags(fa) @ Df.T, rhs[free])
    return fa * (Da.T @ p)


def _solve_interval(system: _FaceSystem, k: int, f0, f1, dt, norm):
    """Minimal-norm momentum on faces with div m = (f0 - f1)/dt, the
    densities of interval k of `system`'s trajectory.

    With norm='l2' it is the momentum of `_kinetic_momentum`, and its face
    norm is max |m_e| / f_e over faces with f_e >= DENSITY_FLOOR.  With
    norm='linf' the face bound of phase 1 is an LP optimum value and
    does not depend on the solver or on the basis it starts from.  Phase 2
    minimizes the total face speed sum |m_e| / f_e under that bound; its
    optimum is not unique, so the cell sup-norms depend on the vertex HiGHS
    reaches.  On the 96^2 ramp ball translated at speed 0.25 of
    `test_reconstruct_translation_sup_norm_and_direction`, every interval has
    face norm 0.258887 and the largest cell sup-norm is 0.2608, with the
    chained LPs run without HiGHS presolve (LP_OPTIONS) and with it alike.
    """
    spec = system.spec
    rhs = (f0 - f1).ravel() / dt
    if abs(rhs.sum() * spec.cell_volume) > 1e-9:
        raise InfeasibleError("mass mismatch between consecutive densities")
    if not _support_compatible(f0, f1):
        raise InputError("consecutive supports differ by more than one cell")
    rhs = rhs[system.rows]
    D, f = system.D, system.fface[k]
    if norm == "l2":
        active = f > 0
        Da, fa = D[:, active], f[active]
        ma = _kinetic_momentum(Da, fa, rhs)
        resid = float(np.linalg.norm(Da @ ma - rhs))
        if resid > _residual_bound(rhs):
            raise InfeasibleError(
                f"kinetic-energy reconstruction infeasible: "
                f"{_unroutable(Da, rhs, spec.cell_volume * dt)} (residual {resid:.3g})"
            )
        solid = fa >= DENSITY_FLOOR
        face_norm = float(np.abs(ma[solid] / fa[solid]).max()) if solid.any() else 0.0
        mu = np.zeros(len(f))
        mu[active] = ma
    else:
        mu, face_norm = system.sup_norm_momentum(k, rhs, spec.cell_volume * dt)
        resid = float(np.linalg.norm(D @ mu - rhs))
    m = np.zeros(len(system.columns))
    m[system.columns] = mu
    vcell = _cell_vectors(m, system.faces[k], spec)
    speed = np.linalg.norm(vcell, axis=-1)
    fbar = system.fbars[k]
    sup_norm = float(speed[fbar >= DENSITY_FLOOR].max()) if np.any(fbar >= DENSITY_FLOOR) else 0.0
    return vcell, sup_norm, face_norm, resid


def reconstruct_velocity(traj: Trajectory, norm: str = "linf") -> ReconstructedField:
    """Per-interval minimal-norm velocity solving the discrete continuity
    constraint between consecutive densities.

    norm='l2' gives the momentum of least kinetic energy sum m^2 / f (one
    direct weighted-Laplacian solve per interval); norm='linf' gives the
    minimal sup-norm momentum, from two LPs that every interval after the
    first re-solves from the last basis (`_FaceSystem`).  Either raises
    InfeasibleError, naming the mass that cannot move, when no flow along
    faces of positive density carries the change.  The returned field is
    indexed by interval, with times at the interval left endpoints.
    """
    if len(traj) < 2:
        raise InputError("need at least 2 time samples")
    if norm not in ("l2", "linf"):
        raise InputError(f"unknown norm {norm!r}; use 'l2' or 'linf'")
    densities = [d.values for d in traj.densities]
    system = _FaceSystem(traj.spec, densities)
    vectors, sup_norms, face_norms, residuals = [], [], [], []
    for k in range(len(traj) - 1):
        dt = traj.times[k + 1] - traj.times[k]
        vcell, sup_n, face_n, resid = _solve_interval(system, k, densities[k], densities[k + 1], dt, norm)
        vectors.append(vcell)
        sup_norms.append(sup_n)
        face_norms.append(face_n)
        residuals.append(resid)
    return ReconstructedField(
        times=tuple(traj.times[:-1]),
        vectors=tuple(vectors),
        sup_norms=tuple(sup_norms),
        face_norms=tuple(face_norms),
        residuals=tuple(residuals),
    )


# ---------------------------------------------------------------------------
# conservative upwind evolution
# ---------------------------------------------------------------------------


def evolve(density0: GridDensity, field: VelocityField, times: list[float]) -> Trajectory:
    """First-order donor-cell upwind solve of d_t f + div(v f) = 0.

    The field must provide one snapshot per output time (the last one is
    unused).  CFL condition: max |v| * dt <= 0.5 h on every interval.
    """
    spec = density0.spec
    times = tuple(float(t) for t in times)
    if len(field.times) != len(times):
        raise InputError("field snapshots must align with requested times")
    f = density0.values.copy()
    densities = [density0]
    ring = boundary_ring(spec.shape)
    leaked_total = 0.0
    for k in range(len(times) - 1):
        dt = times[k + 1] - times[k]
        v = field.at(k)
        vmax = float(np.linalg.norm(v, axis=-1).max())
        if vmax * dt > 0.5 * spec.h + 1e-15:
            raise InputError(
                f"CFL violation: max|v|*dt = {vmax * dt:.3g} > 0.5h; "
                f"use dt <= {0.5 * spec.h / vmax:.3g}"
            )
        f = _upwind_step(f, v, dt, spec)
        # the upwind front advances one cell per step carrying CFL^k dust;
        # only meaningful ring mass indicates the support leaving the grid
        leaked = float(f[ring].sum() * spec.cell_volume)
        leaked_total += max(leaked, 0.0)
        if leaked > 1e-10 or leaked_total > 1e-9:
            raise InputError(f"support exits grid at t={times[k + 1]}")
        if leaked > 0:
            f[ring] = 0.0
            f /= 1.0 - leaked
        densities.append(GridDensity(spec, f))
    return Trajectory(times, tuple(densities), field)


def _upwind_step(f, v, dt, spec: GridSpec) -> np.ndarray:
    out = f.copy()
    for ax in range(spec.dim):
        f_lo, f_hi = _sides(f, ax)
        v_lo, v_hi = _sides(v[..., ax], ax)
        vface = 0.5 * (v_lo + v_hi)
        flux = np.where(vface > 0, vface * f_lo, vface * f_hi)
        out_lo, out_hi = _sides(out, ax)
        out_lo -= dt / spec.h * flux
        out_hi += dt / spec.h * flux
    return out


# ---------------------------------------------------------------------------
# weak-form residuals
# ---------------------------------------------------------------------------

TEST_PANEL_VERSION = 1


def _test_panel(spec: GridSpec):
    """Fixed, versioned panel of 12 smooth compactly supported bumps.

    Placements and scales are relative to the grid bounding box so reports
    are comparable across resolutions of the same domain.
    """
    lo = np.asarray(spec.origin)
    extent = spec.h * (np.asarray(spec.shape) - 1)
    if spec.dim == 1:
        fracs = [(0.3,), (0.4,), (0.5,), (0.6,), (0.7,), (0.35,), (0.5,), (0.65,)]
        scales = [0.22, 0.22, 0.22, 0.22, 0.22, 0.45, 0.45, 0.45]
    else:
        fracs = [
            (0.3, 0.3), (0.3, 0.5), (0.3, 0.7),
            (0.5, 0.3), (0.5, 0.5), (0.5, 0.7),
            (0.7, 0.3), (0.7, 0.5), (0.7, 0.7),
            (0.4, 0.4), (0.6, 0.5), (0.5, 0.6),
        ]
        scales = [0.25] * 9 + [0.45] * 3
    panel = []
    for frac, s in zip(fracs, scales):
        center = lo + np.asarray(frac) * extent
        width = s * float(extent.min())
        panel.append((center, width))
    return panel


def _bump_and_grad(pts: np.ndarray, center: np.ndarray, width: float):
    """Tensor bump prod_a exp(-1/(1-u_a^2)) on |u_a| < 1 and its gradient."""
    u = (pts - center) / width
    inside = np.abs(u) < 1.0
    safe = np.where(inside, u, 0.0)
    phi = np.where(inside, np.exp(-1.0 / np.maximum(1.0 - safe**2, 1e-300)), 0.0)
    dphi = np.where(inside, phi * (-2.0 * safe / np.maximum((1.0 - safe**2) ** 2, 1e-300)), 0.0)
    g = np.prod(phi, axis=-1)
    grad = np.empty_like(u)
    ndim = u.shape[-1]
    for a in range(ndim):
        others = np.prod(np.delete(phi, a, axis=-1), axis=-1) if ndim > 1 else 1.0
        grad[..., a] = dphi[..., a] / width * others
    return g, grad


@dataclass(frozen=True)
class ResidualReport:
    """Weak-identity defects per test function and time interval."""

    panel_version: int
    defects: np.ndarray  # (n_test, n_intervals), absolute defects
    max_defect: float
    l1_defect: float  # worst over the panel of the time-summed defect


def continuity_residual(traj: Trajectory) -> ResidualReport:
    """Compare d/dt of integrals of test bumps with the transport rate.

    For each bump g the identity d/dt int g dmu_t = int <grad g, v_t> dmu_t
    is integrated over each interval with the trapezoid rule; the defect is
    the absolute mismatch with the difference of the endpoint integrals.
    """
    if traj.field is None:
        raise InputError("trajectory carries no velocity field")
    if len(traj) < 3:
        raise InputError("need at least 3 time samples")
    spec = traj.spec
    pts = spec.centers()
    vol = spec.cell_volume
    panel = _test_panel(spec)
    nt = len(traj)
    defects = np.zeros((len(panel), nt - 1))
    for gi, (center, width) in enumerate(panel):
        g, grad = _bump_and_grad(pts, center, width)
        ints = np.array([float((g * d.values).sum() * vol) for d in traj.densities])
        rates = np.array(
            [
                float(((grad * traj.field.at(k)).sum(axis=-1) * traj.densities[k].values).sum() * vol)
                for k in range(nt)
            ]
        )
        for k in range(nt - 1):
            dt = traj.times[k + 1] - traj.times[k]
            quad = 0.5 * (rates[k] + rates[k + 1]) * dt
            defects[gi, k] = abs(ints[k + 1] - ints[k] - quad)
    return ResidualReport(
        TEST_PANEL_VERSION,
        defects,
        float(defects.max()),
        float(defects.sum(axis=1).max()),
    )


# ---------------------------------------------------------------------------
# displacement interpolation and the one-step verification
# ---------------------------------------------------------------------------


def _splat_to_grid(spec: GridSpec, pts: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Deposit point masses into the 2^n nearest cells by the order-1
    weights of `measures._linear_table`: the transpose of the sampler, so
    <splat(p, m), v> = sum m * sample(v, p).  InputError if a point lies
    outside the cell centers' box, [0, n - 1] in cell indices, on any axis."""
    idx = (pts - np.asarray(spec.origin)) / spec.h
    if not np.all((idx >= 0) & (idx <= np.array(spec.shape) - 1)):
        raise InputError("splat target outside grid")
    vals = np.zeros(math.prod(spec.shape))
    for flat, weights in _linear_table(list(idx.T), spec.shape):
        np.add.at(vals, flat, np.prod(weights, axis=0) * masses)
    return vals.reshape(spec.shape)


@dataclass(frozen=True)
class BBReport:
    """One-step verification of the dynamic formulation of the bottleneck
    distance: displacement interpolation of the witness plan, minimal
    sup-norm field per step."""

    winf_value: float
    quantization_bound: float
    achieved_norm: float  # max over steps of the reconstructed sup-norm
    steps: int
    lower_tol: float
    lower_ok: bool  # achieved >= winf - lower_tol
    gap: float  # achieved - winf


def bb_verify(mu0: GridDensity, mu1: GridDensity, steps: int = 0) -> BBReport:
    """Build the displacement path from the bottleneck witness plan and check
    both directions of the dynamic formulation at grid tolerance."""
    if mu0.spec != mu1.spec:
        raise InputError("grid spec mismatch")
    if steps > MAX_BB_STEPS:
        raise InputError(f"steps must be at most {MAX_BB_STEPS}, got {steps}")
    spec = mu0.spec
    res = winf_grid(mu0, mu1)
    atoms0 = grid_to_atoms(mu0)
    atoms1 = grid_to_atoms(mu1)
    plan = res.witness_plan
    x = atoms0.points[plan.src]
    y = atoms1.points[plan.dst]
    nsteps = max(int(steps), int(math.ceil(res.value / spec.h)) if res.value > 0 else 1, 1)
    times = np.linspace(0.0, 1.0, nsteps + 1)
    densities = []
    for t in times:
        pts = (1 - t) * x + t * y
        vals = _splat_to_grid(spec, pts, plan.flow) / spec.cell_volume
        vals[vals < SUPPORT_EPS * vals.max()] = 0.0
        vals /= vals.sum() * spec.cell_volume
        densities.append(GridDensity(spec, vals))
    traj = Trajectory(tuple(times), tuple(densities))
    recon = reconstruct_velocity(traj, norm="linf")
    achieved = max(recon.sup_norms)
    lower_tol = 1e-6
    return BBReport(
        winf_value=res.value,
        quantization_bound=res.quantization_bound,
        achieved_norm=achieved,
        steps=nsteps,
        lower_tol=lower_tol,
        lower_ok=achieved >= res.value - lower_tol,
        gap=achieved - res.value,
    )


# ---------------------------------------------------------------------------
# path ensembles and action minimization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathEnsemble:
    """Finite weighted family of polyline paths [0, 1] -> R^n.

    paths has shape (P, B, n): P paths sharing B breakpoints at uniform
    parameter values.
    """

    paths: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        paths = np.asarray(self.paths, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if paths.ndim != 3:
            raise InputError("paths must have shape (P, B, n)")
        if len(w) != paths.shape[0]:
            raise InputError("weights/path count mismatch")
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
            raise InputError("weights must be positive and sum to 1")
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "weights", w)

    def actions(self) -> np.ndarray:
        """Sup-speed of each polyline: max segment chord over the uniform
        parameter step."""
        segs = np.diff(self.paths, axis=1)
        lengths = np.linalg.norm(segs, axis=2)
        nseg = self.paths.shape[1] - 1
        return lengths.max(axis=1) * nseg

    def sup_action(self) -> float:
        return float(self.actions().max())

    def endpoint_distances(self) -> np.ndarray:
        return np.linalg.norm(self.paths[:, -1] - self.paths[:, 0], axis=1)


def action_minimize(
    mu: DiscreteMeasure, nu: DiscreteMeasure, breakpoints: int = 5
) -> tuple[PathEnsemble, float]:
    """Straight constant-speed paths along the bottleneck witness plan.

    The sup-action of the returned ensemble equals the bottleneck value
    exactly, and every path satisfies d(w(0), w(1)) <= action(w).
    """
    res = winf(mu, nu)
    plan = res.witness_plan
    x = mu.points[plan.src]
    y = nu.points[plan.dst]
    ts = np.linspace(0.0, 1.0, breakpoints)
    paths = x[:, None, :] * (1 - ts)[None, :, None] + y[:, None, :] * ts[None, :, None]
    ens = PathEnsemble(paths, plan.flow / plan.flow.sum())
    actions = ens.actions()
    if np.any(ens.endpoint_distances() > actions + 1e-12):
        raise InfeasibleError("endpoint distance exceeds path action")
    return ens, float(actions.max())


# ---------------------------------------------------------------------------
# characteristics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceReport:
    initial: np.ndarray  # (N, n) particle starts
    terminal: np.ndarray  # (N, n) particle ends
    w1_to_target: float
    coarse_bins: int
    # one bin diagonal: each cloud moves by at most half of it when binned,
    # so w1_to_target is within this of the W_1 between the unbinned clouds
    quantization_bound: float


def _field_table(spec: GridSpec, pts: np.ndarray) -> list:
    """Order-1 corner table of the points (N, n); a point off the grid box
    takes the field of the nearest cells (clamped indices)."""
    idx = (pts - np.asarray(spec.origin)) / spec.h
    return _linear_table([idx[:, a] for a in range(spec.dim)], spec.shape)


def _components(v: np.ndarray) -> np.ndarray:
    """A field of shape (*grid, n) as n contiguous rows of cell values."""
    return np.ascontiguousarray(v.reshape(-1, v.shape[-1]).T)


def _systematic_particles(g: GridDensity, samples: int) -> np.ndarray:
    atoms = grid_to_atoms(g)
    cum = np.cumsum(atoms.weights)
    u = (np.arange(samples) + 0.5) / samples
    cells = np.searchsorted(cum, u)
    return atoms.points[np.minimum(cells, len(atoms) - 1)].copy()


def trace_characteristics(traj: Trajectory, samples: int, coarse_bins: int = 16) -> TraceReport:
    """Push particles through the trajectory's field by the midpoint rule and
    compare the terminal cloud with the terminal density in W_1.

    Particles are drawn from mu_0 by systematic sampling of the cell masses.
    The W_1 comparison aggregates both clouds to a coarse lattice first;
    particles stay in the grid box, so `quantization_bound` bounds its error.
    """
    if traj.field is None:
        raise InputError("trajectory carries no velocity field")
    spec = traj.spec
    pts = _systematic_particles(traj.densities[0], samples)
    start = pts.copy()
    lo = np.asarray(spec.origin)
    hi = lo + spec.h * (np.asarray(spec.shape) - 1)
    fields_at = len(traj.field.times) == len(traj)
    for k in range(len(traj) - 1):
        dt = traj.times[k + 1] - traj.times[k]
        # fields as (n, cells): every component is gathered with one corner
        # table per point set, and both fields share the midpoint's table
        v0, v1 = (_components(traj.field.at(j)) for j in (k, k + 1 if fields_at else k))
        half = pts + 0.5 * dt * _linear_sample(v0, _field_table(spec, pts)).T
        table = _field_table(spec, half)
        vmid = 0.5 * (_linear_sample(v0, table) + _linear_sample(v1, table)).T
        pts = pts + dt * vmid
        # written so that a NaN position (from an overflowing step) exits too
        if not np.all((pts >= lo - spec.h / 2) & (pts <= hi + spec.h / 2)):
            raise InputError("particle exits grid")
    w = np.full(len(pts), 1.0 / len(pts))
    cloud = coarse_measure(pts, w, spec, coarse_bins)
    target_atoms = grid_to_atoms(traj.densities[-1])
    target = coarse_measure(target_atoms.points, target_atoms.weights, spec, coarse_bins)
    w1 = wq(cloud, target, 1.0).cost
    bound = float(np.linalg.norm(spec.h * np.asarray(spec.shape) / coarse_bins))
    return TraceReport(start, pts, w1, coarse_bins, bound)
