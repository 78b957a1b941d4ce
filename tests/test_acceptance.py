"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single `[criterion N] PASS ...` line (run with -s to see
them on success) and asserts both the numeric tolerance and the runtime
budget of the criterion.
"""

import math
import time

import numpy as np
import pytest

from plqp.bottleneck import winf, winf_grid, winf_permutation_oracle
from plqp.dynamics import (
    action_minimize,
    bb_verify,
    continuity_residual,
    reconstruct_velocity,
    trace_characteristics,
)
from plqp.functionals import (
    BALL_ISOP_2D,
    isop,
    isop_multiball_formula,
    ramp_ball_isop_oracle,
)
from plqp.instances import (
    BOTTLENECK_VALUE,
    rectangle_split_instance,
    rotation_mix_ensemble,
    translation_ensemble,
)
from plqp.measures import (
    DiscreteMeasure,
    GridDensity,
    Trajectory,
    dilate_curve,
    grid_to_atoms,
    make_multiball,
    make_ramp_ball,
    ramp_ball_normalizer,
    translate_curve,
)
from plqp.mms import RadialFamily, ResolventProblem, StepPartition, run_scheme
from plqp.plmetric import PLMetricParams, dqp, metric_derivative
from plqp.transport import monotone_1d, wq, wq_lp_many, wq_permutation_oracle

from helpers import int_shift, random_blob, square_grid


def report(n, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n}] {status}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {n}: {detail}"
    assert elapsed < budget, f"criterion {n} exceeded runtime budget: {elapsed:.1f}s"


def test_criterion_1_bottleneck_exactness():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 7))
        a = DiscreteMeasure(rng.uniform(0, 10, (m, 2)), np.full(m, 1.0 / m))
        b = DiscreteMeasure(rng.uniform(0, 10, (m, 2)), np.full(m, 1.0 / m))
        worst = max(worst, abs(winf(a, b).value - winf_permutation_oracle(a, b)))
    elapsed = time.time() - t0
    report(1, worst <= 1e-9, f"winf vs permutation oracle, max |diff| = {worst:.2e}", elapsed, 10)


def test_criterion_2_finite_q_exactness():
    t0 = time.time()
    rng = np.random.default_rng(1002)
    worst_1d = 0.0
    for _ in range(100):
        m, k = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        q = float(rng.uniform(1.0, 4.0))
        a = DiscreteMeasure(rng.uniform(0, 10, (m, 1)), rng.dirichlet(np.ones(m)))
        b = DiscreteMeasure(rng.uniform(0, 10, (k, 1)), rng.dirichlet(np.ones(k)))
        w = wq(a, b, q).cost
        # the LP on all pairs is the oracle of the line route, as is monotone_1d
        worst_1d = max(worst_1d, abs(w - monotone_1d(a, b, q)), abs(w - wq_lp_many([(a, b)], q)[0].cost))
    worst_perm = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 7))
        q = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        a = DiscreteMeasure(rng.uniform(0, 10, (m, 2)), np.full(m, 1.0 / m))
        b = DiscreteMeasure(rng.uniform(0, 10, (m, 2)), np.full(m, 1.0 / m))
        worst_perm = max(worst_perm, abs(wq(a, b, q).cost - wq_permutation_oracle(a, b, q)))
    elapsed = time.time() - t0
    ok = worst_1d <= 1e-9 and worst_perm <= 1e-9
    report(
        2,
        ok,
        f"wq vs monotone and LP max {worst_1d:.2e}, vs permutation max {worst_perm:.2e}",
        elapsed,
        30,
    )


def test_criterion_3_metric_axioms():
    t0 = time.time()
    rng = np.random.default_rng(1003)
    spec = square_grid(10, 1.0)
    params = [PLMetricParams(2.0, 2.0), PLMetricParams(math.inf, math.inf), PLMetricParams(math.inf, 1.0)]
    sym_exact = True
    worst_tri = -math.inf
    for _ in range(100):
        a, b, c = (random_blob(rng, spec, margin=1) for _ in range(3))
        for prm in params:
            dab = dqp(a, b, prm)
            dba = dqp(b, a, prm)
            sym_exact &= dab.total == dba.total
            dbc = dqp(b, c, prm).total
            dac = dqp(a, c, prm).total
            worst_tri = max(worst_tri, dac - (dab.total + dbc))
    elapsed = time.time() - t0
    ok = sym_exact and worst_tri <= 1e-9
    report(
        3,
        ok,
        f"symmetry exact = {sym_exact}, worst triangle violation = {worst_tri:.2e}",
        elapsed,
        60,
    )


def test_criterion_4_isoperimetric_closed_forms():
    t0 = time.time()
    # (a) ramp ball against the radial quadrature oracle at 256^2
    spec = square_grid(256, 2.4)
    ball = make_ramp_ball(spec, (0.0, 0.0), 1.0, 0.1)
    oracle = ramp_ball_isop_oracle(1.0, 0.1)
    rel_a = abs(isop(ball).value - oracle) / oracle
    # (b) three multiball configurations at 256^2 with ramp width 2h
    spec6 = square_grid(256, 6.0)
    w = 2 * spec6.h
    configs = [
        ([(-1.4, 0.0), (1.4, 0.0)], [0.9, 0.9], [0.75, 0.25]),
        ([(-1.5, 0.0), (1.3, 0.0)], [0.8, 1.2], [0.4, 0.6]),
        ([(-1.8, -0.9), (1.2, 0.9), (1.2, -1.6)], [0.6, 0.9, 0.7], [0.3, 0.4, 0.3]),
    ]
    rel_b = 0.0
    for centers, radii, weights in configs:
        g = make_multiball(spec6, centers, radii, weights, w)
        closed = isop_multiball_formula(radii, weights)
        rel_b = max(rel_b, abs(isop(g).value - closed) / closed)
    # (c) the equal-ratio case attains the sharp bound exactly
    err_c = 0.0
    for r in ([1.0, 1.0], [0.5, 1.0, 1.5], [0.4, 0.8, 1.2, 1.6]):
        r = np.asarray(r)
        c = r / r.sum()
        n = len(r)
        err_c = max(
            err_c,
            abs(isop_multiball_formula(list(r), list(c)) - BALL_ISOP_2D * math.sqrt(n)),
        )
    elapsed = time.time() - t0
    ok = rel_a <= 0.03 and rel_b <= 0.05 and err_c <= 1e-9
    report(
        4,
        ok,
        f"ramp ball rel {rel_a:.3f} (<=3%), multiball rel {rel_b:.3f} (<=5%), "
        f"equal-ratio err {err_c:.1e}",
        elapsed,
        60,
    )


def test_criterion_5_scheme_invariants():
    t0 = time.time()
    spec = square_grid(48, 6.0)
    # two-ball anchor, 20 steps at tau = 0.1
    mb = make_multiball(spec, [(-1.4, 0.0), (1.4, 0.0)], [0.9, 0.9], [0.75, 0.25], 0.25)
    fam = RadialFamily.from_anchor(mb, [(-1.4, 0.0), (1.4, 0.0)], [1.2, 1.2], rings=8, levels=32)
    part = StepPartition.uniform(0.1, 20)
    sol = run_scheme(mb, part, ResolventProblem("isop", 0.1, mb, fam))
    phis = np.array(sol.phi_values)
    noninc = bool(np.all(np.diff(phis) <= 1e-12))
    ledger_ok = all(
        phis[j + 1] + sum(sol.movement[k] ** 2 / (2 * part.steps[k]) for k in range(j + 1))
        <= phis[0] + 1e-9
        for j in range(len(part.steps))
    )
    # ball anchor: stationarity surrogate
    ball = make_ramp_ball(spec, (0.0, 0.0), 1.0, 0.25)
    bfam = RadialFamily.from_anchor(ball, [(0.0, 0.0)], [1.3], rings=8, levels=32)
    bsol = run_scheme(ball, StepPartition.uniform(0.1, 10), ResolventProblem("isop", 0.1, ball, bfam))
    move_ok = max(bsol.movement) <= 2 * spec.h
    elapsed = time.time() - t0
    ok = noninc and ledger_ok and move_ok
    report(
        5,
        ok,
        f"phi nonincreasing = {noninc}, dissipation ledger = {ledger_ok}, "
        f"ball movement max {max(bsol.movement):.3f} <= 2h = {2 * spec.h:.3f}",
        elapsed,
        300,
    )


def test_criterion_6_dynamic_lower_bound_one_step():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    spec = square_grid(24, 1.0)
    worst = math.inf
    for _ in range(50):
        f0 = random_blob(rng, spec)
        ax = int(rng.integers(0, 2))
        sgn = int(rng.choice([-1, 1]))
        f1 = GridDensity(spec, int_shift(f0.values, ax, sgn))
        rec = reconstruct_velocity(Trajectory((0.0, 1.0), (f0, f1)), "linf")
        worst = min(worst, rec.sup_norms[0] - (winf_grid(f0, f1).value - 1e-6))
    lower_ok = worst >= 0
    # translation pairs: the displacement construction achieves the value
    spec2 = square_grid(64, 3.2)
    ball = make_ramp_ball(spec2, (0.0, 0.0), 0.8, 0.15)
    gaps = []
    for V in (0.25, 0.5):
        end = translate_curve(ball, (V, 0.0), [0.0, 1.0]).densities[-1]
        rep = bb_verify(ball, end)
        gaps.append(abs(rep.gap))
        lower_ok &= rep.lower_ok
    achieve_ok = max(gaps) <= 2 * spec2.h
    elapsed = time.time() - t0
    ok = lower_ok and achieve_ok
    report(
        6,
        ok,
        f"worst lower-bound margin {worst:.2e} >= 0, translation gap max "
        f"{max(gaps):.3f} <= 2h = {2 * spec2.h:.3f}",
        elapsed,
        120,
    )


def test_criterion_7_rotation_instance():
    t0 = time.time()
    mu, nu = rectangle_split_instance(16)  # 64 x 32 cells per measure rectangle
    h = mu.spec.h
    res = winf_grid(mu, nu)
    winf_ok = abs(res.value - BOTTLENECK_VALUE) <= 3 * h
    te = translation_ensemble()
    me = rotation_mix_ensemble()
    act_ok = (
        abs(te.sup_action() - 4.0) <= 1e-9
        and abs(me.sup_action() - 4.0) <= 1e-9
    )
    # and the plan-based ensemble on atoms agrees as well
    _, act = action_minimize(grid_to_atoms(mu), grid_to_atoms(nu))
    act_ok &= abs(act - res.value) <= 1e-9
    elapsed = time.time() - t0
    ok = winf_ok and act_ok
    report(
        7,
        ok,
        f"winf = {res.value:.4f} (|.-4| <= {3 * h:.3f}), ensemble actions "
        f"{te.sup_action():.10f} / {me.sup_action():.10f}",
        elapsed,
        120,
    )


def test_criterion_8_continuity_equation_order():
    t0 = time.time()
    ratios = {}
    reps = []
    for n, nt in ((96, 8), (192, 16)):
        spec = square_grid(n, 4.8)
        g = make_ramp_ball(spec, (0.0, 0.0), 0.8, 0.15)
        traj = translate_curve(g, (0.3, 0.2), list(np.linspace(0, 1, nt + 1)))
        reps.append(continuity_residual(traj))
    ratios["translation"] = reps[0].l1_defect / reps[1].l1_defect
    reps = []
    for n, nt in ((96, 16), (192, 32)):
        spec = square_grid(n, 5.0)
        g = make_ramp_ball(spec, (0.0, 0.0), 1.0, 0.25)
        traj = dilate_curve(g, 1.5, list(np.linspace(0, 1, nt + 1)), guard=0.02)
        reps.append(continuity_residual(traj))
    ratios["dilation"] = reps[0].l1_defect / reps[1].l1_defect
    elapsed = time.time() - t0
    ok = all(1.5 <= r <= 3.0 for r in ratios.values())
    report(
        8,
        ok,
        "defect halving ratios "
        + ", ".join(f"{k} {v:.2f}" for k, v in ratios.items())
        + " in [1.5, 3]",
        elapsed,
        120,
    )


def test_criterion_9_ac_vs_non_ac_discrimination():
    t0 = time.time()
    spec = square_grid(96, 3.2)
    h = spec.h
    R, w, V = 0.6, 0.3, 0.25
    ball = make_ramp_ball(spec, (0.0, 0.0), R, w)
    Lip = ramp_ball_normalizer(R, w) / w
    bound = (Lip + 1) * V
    dt = 2 * h / V  # central differences span exactly 4h of displacement
    times = [k * dt for k in range(4)]
    traj = translate_curve(ball, (V, 0.0), times)
    est = metric_derivative(traj, PLMetricParams(math.inf, math.inf))
    lip_max = float(est.quotient[1:-1].max())
    lip_ok = lip_max <= 1.1 * bound
    # indicator translation: the density part of the quotient blows up
    pts = spec.centers()
    ind = (np.linalg.norm(pts, axis=-1) <= 0.15).astype(float)
    ind_d = GridDensity(spec, ind / (ind.sum() * spec.cell_volume))
    traj2 = translate_curve(ind_d, (V, 0.0), [0.0, dt, 2 * dt])
    est2 = metric_derivative(traj2, PLMetricParams(math.inf, math.inf))
    ind_quot = float(est2.lp_component[1])
    ind_ok = ind_quot > 10 * 1.1 * bound
    elapsed = time.time() - t0
    ok = lip_ok and ind_ok
    report(
        9,
        ok,
        f"Lipschitz quotient {lip_max:.3f} <= {1.1 * bound:.3f}; indicator density "
        f"quotient {ind_quot:.1f} > {10 * 1.1 * bound:.1f}",
        elapsed,
        60,
    )


@pytest.mark.parametrize("M", [0.5, 2.0])
def test_criterion_10_superposition_surrogate(M):
    t0 = time.time()
    spec = square_grid(192, 5.0)
    ball = make_ramp_ball(spec, (0.0, 0.0), 1.0, 0.1)
    traj = dilate_curve(ball, M, list(np.linspace(0, 1, 21)))
    rep = trace_characteristics(traj, 10_000)
    r0 = np.linalg.norm(rep.initial, axis=1)
    r1 = np.linalg.norm(rep.terminal, axis=1)
    keep = r0 > 3 * spec.h
    rel = float(np.abs(r1[keep] / r0[keep] / M - 1).max())
    elapsed = time.time() - t0
    report(
        10,
        rel <= 0.05,
        f"M = {M}: max radius-scaling relative error {rel:.4f} <= 0.05 "
        f"(N = 10000 particles)",
        elapsed,
        60,
    )
