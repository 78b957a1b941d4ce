import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from plqp import _highs, dynamics
from plqp.bottleneck import winf_grid
from plqp.dynamics import (
    PathEnsemble,
    action_minimize,
    bb_verify,
    continuity_residual,
    evolve,
    reconstruct_velocity,
    trace_characteristics,
)
from plqp.errors import InfeasibleError, InputError
from plqp.measures import (
    DiscreteMeasure,
    GridDensity,
    Trajectory,
    VelocityField,
    dilate_curve,
    make_ramp_ball,
    translate_curve,
)

from helpers import int_shift, random_blob, square_grid, two_ball_swap


def const_field(spec, V, times):
    v = np.broadcast_to(np.asarray(V, dtype=float), (*spec.shape, spec.dim)).copy()
    return VelocityField(tuple(times), tuple(v for _ in times))


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def test_evolve_zero_field_identity():
    spec = square_grid(48, 3.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.7, 0.2)
    times = list(np.linspace(0, 1, 5))
    traj = evolve(g, const_field(spec, (0.0, 0.0), times), times)
    for d in traj.densities:
        np.testing.assert_array_equal(d.values, g.values)


def test_evolve_mass_conserved():
    spec = square_grid(96, 4.8)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.8, 0.15)
    times = list(np.linspace(0, 1, 41))
    traj = evolve(g, const_field(spec, (0.4, 0.0), times), times)
    for d in traj.densities:
        assert d.mass == pytest.approx(1.0, abs=1e-12)


def test_evolve_tracks_translation_first_order():
    V = (0.4, 0.0)
    errs = []
    for n, nt in ((96, 40), (192, 80)):
        spec = square_grid(n, 4.8)
        g = make_ramp_ball(spec, (0.0, 0.0), 0.8, 0.15)
        times = list(np.linspace(0, 1, nt + 1))
        traj = evolve(g, const_field(spec, V, times), times)
        exact = translate_curve(g, V, [0.0, 1.0]).densities[-1]
        errs.append(
            float(np.abs(traj.densities[-1].values - exact.values).sum() * spec.cell_volume)
        )
    assert errs[1] < errs[0]
    assert errs[0] / errs[1] > 1.3  # O(h) convergence


def test_evolve_cfl_guard():
    spec = square_grid(48, 3.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.7, 0.2)
    times = [0.0, 1.0]
    with pytest.raises(InputError, match="CFL"):
        evolve(g, const_field(spec, (1.0, 0.0), times), times)


def test_evolve_support_exit_guard():
    spec = square_grid(48, 3.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 1.2, 0.2)
    times = list(np.linspace(0, 1, 65))
    with pytest.raises(InputError, match="exit"):
        evolve(g, const_field(spec, (0.3, 0.0), times), times)


# ---------------------------------------------------------------------------
# continuity residual
# ---------------------------------------------------------------------------


def test_residual_constant_trajectory_zero():
    spec = square_grid(48, 3.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.7, 0.2)
    times = [0.0, 0.5, 1.0]
    traj = Trajectory(tuple(times), (g, g, g), const_field(spec, (0.0, 0.0), times))
    rep = continuity_residual(traj)
    assert rep.max_defect <= 1e-12


def test_residual_requires_field():
    spec = square_grid(48, 3.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.7, 0.2)
    traj = Trajectory((0.0, 0.5, 1.0), (g, g, g))
    with pytest.raises(InputError):
        continuity_residual(traj)


def test_residual_translation_halves_under_refinement():
    reps = []
    for n, nt in ((96, 8), (192, 16)):
        spec = square_grid(n, 4.8)
        g = make_ramp_ball(spec, (0.0, 0.0), 0.8, 0.15)
        traj = translate_curve(g, (0.3, 0.2), list(np.linspace(0, 1, nt + 1)))
        reps.append(continuity_residual(traj))
    ratio = reps[0].l1_defect / reps[1].l1_defect
    assert 1.5 <= ratio <= 3.0


def test_residual_dilation_halves_under_refinement():
    reps = []
    for n, nt in ((96, 16), (192, 32)):
        spec = square_grid(n, 5.0)
        g = make_ramp_ball(spec, (0.0, 0.0), 1.0, 0.25)
        traj = dilate_curve(g, 1.5, list(np.linspace(0, 1, nt + 1)), guard=0.02)
        reps.append(continuity_residual(traj))
    ratio = reps[0].l1_defect / reps[1].l1_defect
    assert 1.5 <= ratio <= 3.0


def test_residual_reparametrization_invariance():
    # applying sigma(t) = t^2 and scaling the field by sigma' keeps the
    # weak-identity defects within 2x at matched resolution
    spec = square_grid(96, 4.8)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.8, 0.15)
    V = np.array([0.3, 0.2])
    base_times = list(np.linspace(0, 1, 9))
    base = translate_curve(g, tuple(V), base_times)
    rep0 = continuity_residual(base)
    # reparametrized curve: density at sigma(t), field sigma'(t) * V
    sig = [t * t for t in base_times]
    densities = translate_curve(g, tuple(V), sig).densities
    vectors = tuple(
        np.broadcast_to(2 * t * V, (*spec.shape, 2)).copy() for t in base_times
    )
    traj2 = Trajectory(tuple(base_times), densities, VelocityField(tuple(base_times), vectors))
    rep2 = continuity_residual(traj2)
    assert rep2.l1_defect <= 2.0 * rep0.l1_defect + 1e-12


# ---------------------------------------------------------------------------
# velocity reconstruction
# ---------------------------------------------------------------------------


def test_reconstruct_constant_trajectory_zero_field():
    spec = square_grid(32, 2.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.6, 0.2, guard=0.02)
    traj = Trajectory((0.0, 1.0), (g, g))
    for norm in ("l2", "linf"):
        rec = reconstruct_velocity(traj, norm)
        assert rec.sup_norms[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(rec.at(0), 0.0, atol=1e-12)


def check_translation_sup_norm_and_direction():
    spec = square_grid(96, 4.8)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.8, 0.15)
    V = 0.25
    traj = translate_curve(g, (V, 0.0), list(np.linspace(0, 1, 6)))
    rec = reconstruct_velocity(traj, "linf")
    assert max(rec.sup_norms) == pytest.approx(V, rel=0.10)
    half = g.values.max() / 2
    bulk = (traj.densities[0].values >= half) & (traj.densities[1].values >= half)
    v = rec.at(0)[bulk]
    angles = np.degrees(np.arctan2(v[:, 1], v[:, 0]))
    assert np.abs(angles).max() <= 10.0


def test_reconstruct_translation_sup_norm_and_direction():
    check_translation_sup_norm_and_direction()


def test_reconstruct_translation_sup_norm_with_presolve(monkeypatch):
    # the phase-2 vertex, and so the cell sup-norm, must not hinge on a
    # solver setting: the same bounds hold with HiGHS presolve on, which
    # the chained LPs run without (LP_OPTIONS)
    calls = []
    run = _highs.Model.run

    def counted(model):
        calls.append(model)
        return run(model)

    monkeypatch.setattr(dynamics, "LP_OPTIONS", {"presolve": True})
    monkeypatch.setattr(_highs.Model, "run", counted)
    check_translation_sup_norm_and_direction()
    assert len(calls) == 10  # two LPs per interval
    assert all(m._highs.getOptionValue("presolve")[1] == "on" for m in calls)


def test_reconstruct_l2_direction_on_bulk():
    spec = square_grid(96, 4.8)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.8, 0.15)
    traj = translate_curve(g, (0.25, 0.0), list(np.linspace(0, 1, 6)))
    rec = reconstruct_velocity(traj, "l2")
    half = g.values.max() / 2
    bulk = (traj.densities[0].values >= half) & (traj.densities[1].values >= half)
    v = rec.at(0)[bulk]
    angles = np.degrees(np.arctan2(v[:, 1], v[:, 0]))
    assert np.abs(np.median(angles)) <= 10.0
    assert max(rec.residuals) <= 1e-7


def kkt_momentum(Da, fa, rhs):
    """Oracle: min sum m^2 / f subject to Da m = rhs, from the dense KKT
    system [[diag(1/f), Da^T], [Da, 0]] [m, lam] = [0, rhs].  The
    multipliers are fixed only up to a constant per component, so the
    system is solved in least squares; m is unique."""
    A = Da.toarray()
    nc, nf = A.shape
    kkt = np.block([[np.diag(1.0 / fa), A.T], [A, np.zeros((nc, nc))]])
    sol = np.linalg.lstsq(kkt, np.concatenate([np.zeros(nf), rhs]), rcond=None)[0]
    return sol[:nf]


def random_face_problem(rng, spec, blobs):
    """Da, fa and a balanced rhs on the faces of `blobs` random boxes of
    positive cell density; each box is a component of its own."""
    from scipy.sparse.csgraph import connected_components

    fbar = np.zeros(spec.shape)
    for box in blobs:
        fbar[box] = rng.uniform(0.1, 2.0, fbar[box].shape)
    fface = np.concatenate([dynamics._face_density(fbar, ax).ravel() for ax in range(spec.dim)])
    active = fface > 0
    Da, fa = dynamics._divergence_matrix(spec)[:, active], fface[active]
    inc = abs(Da)
    ncomp, labels = connected_components(inc @ inc.T, directed=False)
    on_faces = np.asarray(inc.sum(axis=1)).ravel() > 0
    rhs = np.where(on_faces, rng.normal(size=len(labels)), 0.0)
    rhs -= (np.bincount(labels, weights=rhs) / np.bincount(labels))[labels]
    return Da, fa, rhs, ncomp - int((~on_faces).sum())


@pytest.mark.parametrize("seed", range(4))
def test_kinetic_momentum_matches_the_dense_kkt_solve(seed):
    rng = np.random.default_rng(seed)
    line, square = square_grid(14, 1.0, dim=1), square_grid(12, 1.5)
    cases = [
        (line, [np.s_[2:11]]),
        (line, [np.s_[1:5], np.s_[8:13]]),
        (square, [np.s_[2:9, 3:10]]),
        (square, [np.s_[1:5, 1:6], np.s_[7:11, 5:11]]),
    ]
    for spec, blobs in cases:
        Da, fa, rhs, supports = random_face_problem(rng, spec, blobs)
        assert supports == len(blobs)
        m = dynamics._kinetic_momentum(Da, fa, rhs)
        want = kkt_momentum(Da, fa, rhs)
        assert np.abs(m - want).max() <= 1e-10 * np.abs(want).max()
        assert np.linalg.norm(Da @ m - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_reconstruct_l2_is_the_least_kinetic_energy_field():
    # a ramp ball moved one cell at speed V: W_2 / dt = W_inf / dt = V
    V, gaps = 0.25, []
    for n in (32, 48, 64):
        spec = square_grid(n, 2.0)
        h, dt = spec.h, spec.h / V
        g = make_ramp_ball(spec, (0.0, 0.0), 0.45, 0.2, guard=0.05)
        traj = translate_curve(g, (V, 0.0), [0.0, dt])
        l2, linf = reconstruct_velocity(traj, "l2"), reconstruct_velocity(traj, "linf")
        # the sup-norm solve minimizes the face norm the l2 field also meets
        assert l2.face_norms[0] >= linf.face_norms[0] * (1 - 1e-9)
        assert abs(l2.face_norms[0] - V) <= h
        assert l2.residuals[0] <= 1e-10
        Da, fa, rhs = face_lp(*traj.densities, dt)
        m = dynamics._kinetic_momentum(Da, fa, rhs)
        kinetic = float(np.sqrt((m**2 / fa).sum() * spec.cell_volume))
        gaps.append(abs(kinetic - V))
        # measured: 0.31-0.32 h^2 at 32^2, 48^2 and 64^2
        assert gaps[-1] <= 0.5 * h**2
    assert gaps[0] > gaps[1] > gaps[2]


def test_reconstruct_lower_bound_against_bottleneck():
    # one-step lower bound of the dynamic formulation on random pairs
    rng = np.random.default_rng(2024)
    spec = square_grid(24, 1.0)
    for _ in range(10):
        f0 = random_blob(rng, spec)
        ax = int(rng.integers(0, 2))
        sgn = int(rng.choice([-1, 1]))
        f1 = GridDensity(spec, int_shift(f0.values, ax, sgn))
        traj = Trajectory((0.0, 1.0), (f0, f1))
        rec = reconstruct_velocity(traj, "linf")
        assert rec.sup_norms[0] >= winf_grid(f0, f1).value - 1e-6


def test_reconstruct_mass_mismatch_errors():
    spec = square_grid(24, 1.0)
    rng = np.random.default_rng(1)
    f0 = random_blob(rng, spec)
    vals = f0.values.copy()
    # same spec but different mass cannot even be built; emulate by hacking
    g2 = GridDensity(spec, vals)
    object.__setattr__(g2, "values", vals * 1.5)
    traj = Trajectory((0.0, 1.0), (f0, f0))
    object.__setattr__(traj, "densities", (f0, g2))
    with pytest.raises(InfeasibleError, match="mass"):
        reconstruct_velocity(traj, "linf")


def face_lp(f0: GridDensity, f1: GridDensity, dt: float):
    """The divergence on the active faces of one interval, their densities
    and the rhs, restricted to the cells those faces touch, as
    `_FaceSystem` builds them for a one-interval trajectory."""
    system = dynamics._FaceSystem(f0.spec, [f0.values, f1.values])
    rhs = (f0.values - f1.values).ravel() / dt
    return system.D, system.fface[0], rhs[system.rows]


CHAINS = ("translate_cells", "translate_fraction", "dilate", "blob_shifts")


def chain(name: str) -> Trajectory:
    """A seeded multi-interval curve: a ramp ball translated by whole cells
    or by fractions of a cell, dilated, or a random blob shifted one cell
    per interval in random directions."""
    rng = np.random.default_rng([2027, CHAINS.index(name)])
    spec = square_grid(32, 4.0)
    times = list(np.linspace(0.0, 1.0, 5))
    g = make_ramp_ball(spec, tuple(spec.h * rng.integers(-2, 3, 2)), 1.0, 0.4, guard=0.05)
    if name == "translate_cells":
        axis, sign = int(rng.integers(2)), int(rng.choice([-1, 1]))
        V = np.zeros(2)
        V[axis] = 4 * sign * spec.h  # one cell per interval
        return translate_curve(g, tuple(V), times)
    if name == "translate_fraction":
        return translate_curve(g, tuple(rng.uniform(-0.4, 0.4, 2)), times)
    if name == "dilate":
        return dilate_curve(g, float(rng.uniform(1.1, 1.25)), times, guard=0.05)
    spec = square_grid(24, 1.0)
    states = [random_blob(rng, spec, margin=6)]
    for _ in range(4):
        values = int_shift(states[-1].values, int(rng.integers(2)), int(rng.choice([-1, 1])))
        states.append(GridDensity(spec, values))
    return Trajectory(tuple(times), tuple(states))


def chain_intervals(traj: Trajectory):
    """Every interval of the chained sup-norm solve of `traj`, in order, as
    `reconstruct_velocity` runs it: (system, k, rhs, m, face norm)."""
    densities = [d.values for d in traj.densities]
    system = dynamics._FaceSystem(traj.spec, densities)
    for k in range(len(traj) - 1):
        dt = traj.times[k + 1] - traj.times[k]
        rhs = ((densities[k] - densities[k + 1]).ravel() / dt)[system.rows]
        m, face_norm = system.sup_norm_momentum(k, rhs, traj.spec.cell_volume * dt)
        yield system, k, rhs, m, face_norm


def cold_face_norm(traj: Trajectory, k: int) -> float:
    """Interval k's face norm from a trajectory of that interval alone, whose
    LPs start cold."""
    one = Trajectory((0.0, traj.times[k + 1] - traj.times[k]), traj.densities[k : k + 2])
    return reconstruct_velocity(one, "linf").face_norms[0]


@pytest.mark.parametrize("name", CHAINS)
def test_chained_intervals_match_cold_solves(name):
    traj = chain(name)
    rec = reconstruct_velocity(traj, "linf")
    for system, k, rhs, m, face_norm in chain_intervals(traj):
        assert face_norm > 0.0
        assert face_norm == pytest.approx(cold_face_norm(traj, k), rel=1e-12, abs=0.0)
        assert rec.face_norms[k] == face_norm
        f = system.fface[k]
        cap = np.where(f > 0, face_norm * (1.0 + 1e-9) * f + 1e-15, 0.0)
        assert np.all(np.abs(m) <= cap)
        assert np.linalg.norm(system.D @ m - rhs) <= dynamics._residual_bound(rhs)
        assert rec.residuals[k] <= dynamics._residual_bound(rhs)


def test_reconstruct_builds_one_model_per_phase(monkeypatch):
    # the LPs of every interval after the first re-solve the same two models
    built = []
    init = _highs.Model.__init__

    def counted(model, *args):
        built.append(model)
        init(model, *args)

    monkeypatch.setattr(_highs.Model, "__init__", counted)
    traj = chain("dilate")
    reconstruct_velocity(traj, "linf")
    assert len(built) == 2
    # the l2 field solves no LP
    reconstruct_velocity(traj, "l2")
    assert len(built) == 2


def test_zero_motion_between_moving_intervals():
    # a pause leaves phase 1 unbounded (no motion) and the next interval's
    # value as it is without the pause
    moving = chain("translate_cells")
    f0, f1, f2 = moving.densities[:3]
    paused = Trajectory((0.0, 0.25, 0.5, 0.75), (f0, f1, f1, f2))
    rec = reconstruct_velocity(paused, "linf")
    want = reconstruct_velocity(moving, "linf").face_norms
    assert rec.face_norms[1] == 0.0
    assert rec.sup_norms[1] <= 1e-12
    assert rec.face_norms[0] == want[0]
    assert rec.face_norms[2] == pytest.approx(want[1], rel=1e-12, abs=0.0)
    assert max(rec.residuals) <= 1e-9


@pytest.mark.parametrize("norm", ["l2", "linf"])
@pytest.mark.parametrize("swap", [0.1, 1e-6])
def test_unroutable_swap_after_a_moving_interval(swap, norm):
    # the error of a chained interval names the mass of that interval's own
    # faces, as the interval alone does
    alone = two_ball_swap(swap)
    f0, f1 = (d.values for d in alone.densities)
    spec = alone.spec
    moved = GridDensity(spec, int_shift(f0, 1, 1))
    traj = Trajectory((0.0, 1.0, 2.0), (alone.densities[0], moved, GridDensity(spec, int_shift(f1, 1, 1))))
    with pytest.raises(InfeasibleError) as chained:
        reconstruct_velocity(traj, norm)
    with pytest.raises(InfeasibleError) as cold:
        reconstruct_velocity(Trajectory((0.0, 1.0), traj.densities[1:]), norm)
    assert f"mass {swap:.3g} cannot move" in str(chained.value)
    assert str(chained.value).split(" (")[0] == str(cold.value).split(" (")[0]


def inequality_row_face_norm(Da, fa, rhs) -> float:
    """Oracle: minimize t with the 2 nfa rows |m_e| <= t f_e written out
    as inequalities beside div m = rhs."""
    nfa = len(fa)
    cost = np.zeros(nfa + 1)
    cost[-1] = 1.0
    eye = sparse.eye(nfa, format="csr")
    fcol = sparse.csr_matrix(-fa.reshape(-1, 1))
    res = linprog(
        cost,
        A_ub=sparse.vstack([sparse.hstack([eye, fcol]), sparse.hstack([-eye, fcol])]).tocsr(),
        b_ub=np.zeros(2 * nfa),
        A_eq=sparse.hstack([Da, sparse.csr_matrix((Da.shape[0], 1))], format="csr"),
        b_eq=rhs,
        bounds=[(None, None)] * nfa + [(0, None)],
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.x[-1])


def oracle_pairs():
    # the seeded shifts of test_reconstruct_lower_bound_against_bottleneck
    rng = np.random.default_rng(2024)
    spec = square_grid(24, 1.0)
    for _ in range(10):
        f0 = random_blob(rng, spec)
        ax = int(rng.integers(0, 2))
        sgn = int(rng.choice([-1, 1]))
        yield f0, GridDensity(spec, int_shift(f0.values, ax, sgn)), 1.0
    # a whole-cell translation on the 32^2 grid of the continuity benchmark
    spec = square_grid(32, 4.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 1.0, 0.4, guard=0.05)
    yield g, GridDensity(spec, int_shift(g.values, 0, 1)), 0.25


def oracle_trajectories():
    """The chains, and every oracle pair as a trajectory of one interval."""
    for name in CHAINS:
        yield chain(name)
    for f0, f1, dt in oracle_pairs():
        yield Trajectory((0.0, dt), (f0, f1))


def test_sup_norm_phase1_matches_inequality_row_oracle():
    for traj in oracle_trajectories():
        rec = reconstruct_velocity(traj, "linf")
        for system, k, rhs, m, face_norm in chain_intervals(traj):
            f = system.fface[k]
            active = f > 0
            oracle = inequality_row_face_norm(system.D[:, active], f[active], rhs)
            assert face_norm == pytest.approx(oracle, rel=1e-9)
            assert np.all(np.abs(m) <= np.where(active, face_norm * (1.0 + 1e-9) * f + 1e-15, 0.0))
            assert np.linalg.norm(system.D @ m - rhs) <= 1e-9
            assert rec.face_norms[k] == face_norm
            assert rec.residuals[k] <= 1e-9


def linprog_phases(D, f, rhs):
    """Oracle: both sup-norm LPs of a chain's first interval as `linprog`
    solves them, built the way `_FaceSystem.sup_norm_momentum` states them."""
    n = len(f)
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    res1 = linprog(
        cost,
        A_eq=sparse.hstack([D, sparse.csr_matrix(-rhs[:, None])], format="csr"),
        b_eq=np.zeros(len(rhs)),
        bounds=np.column_stack([np.concatenate([-f, [0.0]]), np.concatenate([f, [np.inf]])]),
        method="highs",
        options=dynamics.LP_OPTIONS,
    )
    active = f > 0
    cap = np.where(active, 1.0 / res1.x[-1] * (1.0 + 1e-9) * f + 1e-15, 0.0)
    speed = np.divide(1.0, f, out=np.zeros(n), where=active)
    res2 = linprog(
        np.concatenate([speed, speed]),
        A_eq=sparse.hstack([D, -D], format="csr"),
        b_eq=rhs,
        bounds=np.column_stack([np.zeros(2 * n), np.concatenate([cap, cap])]),
        method="highs",
        options=dynamics.LP_OPTIONS,
    )
    return res1, res2


def test_sup_norm_phases_match_linprog(monkeypatch):
    # a chain's first interval is a cold solve of each phase, run as
    # linprog(method="highs") would run it, bit for bit
    runs = []
    run = _highs.Model.run

    def recorded(model):
        runs.append(run(model))
        return runs[-1]

    monkeypatch.setattr(_highs.Model, "run", recorded)
    for name in CHAINS:
        traj = chain(name)
        runs.clear()
        reconstruct_velocity(traj, "linf")
        assert len(runs) == 2 * (len(traj) - 1)
        densities = [d.values for d in traj.densities]
        system = dynamics._FaceSystem(traj.spec, densities)
        rhs = ((densities[0] - densities[1]).ravel() / traj.times[1])[system.rows]
        for sol, res in zip(runs[:2], linprog_phases(system.D, system.fface[0], rhs)):
            assert sol.optimal and res.status == 0
            np.testing.assert_array_equal(sol.x, res.x)
            np.testing.assert_array_equal(sol.row_dual, res.eqlin.marginals)
            assert sol.simplex_iterations == res.nit


@pytest.mark.parametrize("norm", ["l2", "linf"])
@pytest.mark.parametrize("swap", [0.1, 1e-6])
def test_reconstruct_unroutable_swap_is_infeasible(swap, norm):
    with pytest.raises(InfeasibleError) as err:
        reconstruct_velocity(two_ball_swap(swap), norm)
    message = str(err.value)
    assert f"mass {swap:.3g} cannot move" in message
    assert "terminated successfully" not in message


@pytest.mark.parametrize("swap", [1e-12, 0.0])
def test_reconstruct_negligible_swap_is_no_motion(swap):
    # a swap below the solver tolerance leaves the homogenized phase 1
    # unbounded (r -> -inf), which is face norm 0, not an error
    rec = reconstruct_velocity(two_ball_swap(swap), "linf")
    assert rec.face_norms == (0.0,)
    assert rec.sup_norms[0] <= 1e-12
    assert rec.residuals[0] <= 1e-10


@pytest.mark.parametrize("exponent", range(1, 14))
def test_reconstruct_swap_is_infeasible_or_no_motion(exponent):
    # every swap between two unjoined balls either raises or is no motion;
    # near the solver tolerance, phase 1 can balance rhs only approximately
    # with some r < 0, and that r must not be reported as a face norm
    try:
        rec = reconstruct_velocity(two_ball_swap(10.0**-exponent), "linf")
    except InfeasibleError as err:
        assert "cannot move" in str(err)
    else:
        assert rec.face_norms == (0.0,)


def test_reconstruct_support_condition():
    spec = square_grid(48, 3.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.7, 0.2)
    far = translate_curve(g, (6 * spec.h, 0.0), [0.0, 1.0])
    with pytest.raises(InputError, match="support"):
        reconstruct_velocity(far, "linf")


# ---------------------------------------------------------------------------
# one-step displacement verification
# ---------------------------------------------------------------------------


def test_bb_identical_inputs():
    spec = square_grid(32, 2.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.6, 0.2, guard=0.02)
    rep = bb_verify(g, g)
    assert rep.winf_value == pytest.approx(0.0, abs=1e-12)
    assert rep.achieved_norm == pytest.approx(0.0, abs=1e-9)


def test_bb_translation_pair_two_sided():
    spec = square_grid(64, 3.2)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.8, 0.15)
    V = 0.25
    end = translate_curve(g, (V, 0.0), [0.0, 1.0]).densities[-1]
    rep = bb_verify(g, end)
    assert rep.winf_value == pytest.approx(V, abs=2 * spec.h)
    assert rep.lower_ok
    assert rep.gap <= 2 * spec.h


# ---------------------------------------------------------------------------
# path ensembles
# ---------------------------------------------------------------------------


def test_action_two_diracs():
    mu = DiscreteMeasure([[0.0, 0.0]], [1.0])
    nu = DiscreteMeasure([[3.0, 4.0]], [1.0])
    ens, act = action_minimize(mu, nu)
    assert act == pytest.approx(5.0, abs=1e-12)
    assert ens.paths.shape[0] == 1


def test_action_matches_bottleneck_value():
    mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[0.0], [2.0]], [0.5, 0.5])
    ens, act = action_minimize(mu, nu)
    assert act == pytest.approx(1.0, abs=1e-12)
    assert (ens.endpoint_distances() <= ens.actions() + 1e-12).all()


def test_action_random_equals_winf():
    from plqp.bottleneck import winf

    rng = np.random.default_rng(3)
    for _ in range(10):
        m, k = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        a = DiscreteMeasure(rng.uniform(0, 5, (m, 2)), rng.dirichlet(np.ones(m)))
        b = DiscreteMeasure(rng.uniform(0, 5, (k, 2)), rng.dirichlet(np.ones(k)))
        ens, act = action_minimize(a, b)
        assert act == pytest.approx(winf(a, b).value, abs=1e-12)


def test_path_ensemble_validation():
    with pytest.raises(InputError):
        PathEnsemble(np.zeros((2, 3, 2)), np.array([0.5, 0.6]))


def test_polyline_action_constant_speed():
    # a straight polyline at uniform parameter has action = endpoint distance
    ts = np.linspace(0, 1, 9)[None, :, None]
    a = np.array([[0.0, 0.0]])[:, None, :]
    b = np.array([[3.0, 4.0]])[:, None, :]
    paths = a * (1 - ts) + b * ts
    ens = PathEnsemble(paths, np.array([1.0]))
    assert ens.sup_action() == pytest.approx(5.0, abs=1e-12)


# ---------------------------------------------------------------------------
# characteristics
# ---------------------------------------------------------------------------


def test_trace_zero_field_stays_put():
    spec = square_grid(48, 3.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.7, 0.2)
    times = [0.0, 0.5, 1.0]
    traj = Trajectory(tuple(times), tuple(translate_curve(g, (0, 0), times).densities),
                      const_field(spec, (0.0, 0.0), times))
    rep = trace_characteristics(traj, 2000)
    np.testing.assert_array_equal(rep.initial, rep.terminal)
    assert rep.w1_to_target <= 2 * spec.h


def test_trace_constant_field_translates_cloud():
    spec = square_grid(96, 4.8)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.8, 0.15)
    V = np.array([0.3, 0.1])
    times = list(np.linspace(0, 1, 9))
    traj = translate_curve(g, tuple(V), times)
    rep = trace_characteristics(traj, 4000)
    np.testing.assert_allclose(
        rep.terminal - rep.initial, np.broadcast_to(V, rep.initial.shape), atol=1e-9
    )
    assert rep.w1_to_target <= 3 * spec.h


@pytest.mark.parametrize("M", [0.5, 2.0])
def test_trace_dilation_scales_radii(M):
    spec = square_grid(192, 5.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 1.0, 0.1)
    traj = dilate_curve(g, M, list(np.linspace(0, 1, 21)))
    rep = trace_characteristics(traj, 10_000)
    r0 = np.linalg.norm(rep.initial, axis=1)
    r1 = np.linalg.norm(rep.terminal, axis=1)
    keep = r0 > 3 * spec.h
    ratios = r1[keep] / r0[keep]
    assert np.abs(ratios / M - 1).max() <= 0.05


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_trace_overflowing_step_exits_grid():
    # a finite field so large that the half step overflows: the particles
    # become NaN, which must count as leaving the grid
    spec = square_grid(32, 4.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.5, 0.3, guard=0.05)
    traj = dilate_curve(g, 1.2, [0.0, 0.5, 1.0], guard=0.05)
    huge = np.full(traj.field.at(0).shape, 1e308)
    fast = Trajectory(traj.times, traj.densities, VelocityField(traj.times, (huge,) * 3))
    with pytest.raises(InputError, match="particle exits grid"):
        trace_characteristics(fast, 200)


def test_trace_requires_field():
    spec = square_grid(32, 2.0)
    g = make_ramp_ball(spec, (0.0, 0.0), 0.6, 0.2, guard=0.02)
    traj = Trajectory((0.0, 1.0), (g, g))
    with pytest.raises(InputError):
        trace_characteristics(traj, 100)


def test_dilation_matches_ndimage_box_dilation():
    from scipy import ndimage

    rng = np.random.default_rng(41)
    for _ in range(250):
        dim = int(rng.integers(1, 4))
        mask = rng.random(tuple(rng.integers(1, 9, dim))) < rng.uniform(0.0, 0.4)
        want = ndimage.binary_dilation(mask, structure=np.ones((3,) * dim, bool))
        got = dynamics._dilate(mask)
        assert got.dtype == bool and got.shape == mask.shape
        np.testing.assert_array_equal(got, want)
