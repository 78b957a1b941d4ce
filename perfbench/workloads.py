"""Inputs, operations and output checks of the three benchmark workloads.

A workload is built in two stages.  `build_inputs` turns a seed into files
under a work directory (grid files in the plqp-grid/v1 format, mms configs)
and in-memory objects for the few operations that have no CLI command.
`make_round` turns those inputs into one round: the fixed list of operations
every timed pass runs, each with the check applied to its output.

Every check compares an output with a value the benchmark computes itself
(own grid reader, own quantile coupling, own integer shifts, own
isoperimetric ratio), or with a property the method must have.  None compares
with a stored copy of an earlier output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("distances", "scheme", "continuity")

# witness plans are checked against the true float weights at the solver's
# stated marginal tolerance (plqp.transport.MARGINAL_TOL)
MARGINAL_TOL = 1e-9
EXACT_TOL = 1e-9


# ---------------------------------------------------------------------------
# grid files, written and read without plqp.gridio
# ---------------------------------------------------------------------------

_HEADER = re.compile(r"#plqp-grid v1 dim=(\d+) shape=([\dx]+) h=(\S+) origin=(\S+)\s*$")


@dataclass(frozen=True)
class Grid:
    values: np.ndarray
    h: float
    origin: tuple[float, ...]

    @property
    def dim(self) -> int:
        return self.values.ndim

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell centers and normalized masses of the positive cells."""
        idx = np.argwhere(self.values > 0)
        points = np.asarray(self.origin) + self.h * idx
        w = self.values[self.values > 0] * self.h**self.dim
        return points, w / w.sum()

    def mass(self) -> float:
        return float(self.values.sum() * self.h**self.dim)


def square(n: int, extent: float) -> tuple[float, tuple[float, float]]:
    """Spacing and origin of an n x n grid centered at 0."""
    h = extent / n
    return h, (-extent / 2 + h / 2, -extent / 2 + h / 2)


def write_grid(path: Path, g: Grid) -> None:
    shape = "x".join(str(s) for s in g.values.shape)
    origin = ",".join(format(x, ".17g") for x in g.origin)
    lines = [f"#plqp-grid v1 dim={g.dim} shape={shape} h={g.h:.17g} origin={origin}"]
    for row in g.values.reshape(g.values.shape[0], -1):
        lines.append(",".join(format(v, ".17g") for v in row))
    path.write_text("\n".join(lines) + "\n")


def read_grid(path: Path) -> Grid:
    lines = path.read_text().strip().splitlines()
    m = _HEADER.match(lines[0])
    if not m:
        raise ValueError(f"bad grid header in {path}")
    shape = tuple(int(s) for s in m.group(2).split("x"))
    values = np.array([[float(t) for t in line.split(",")] for line in lines[1:]])
    origin = tuple(float(s) for s in m.group(4).split(","))
    return Grid(values.reshape(shape), float(m.group(3)), origin)


def density(raw: np.ndarray, h: float, origin) -> Grid:
    return Grid(raw / (raw.sum() * h**raw.ndim), h, tuple(origin))


def blob(rng, n: int, dim: int, atoms: int, lo: int, hi: int) -> np.ndarray:
    """Three random Gaussian bumps on cells [lo, hi) of every axis, cut to the
    `atoms` largest cells, so each class has an exact atom count."""
    idx = np.stack(np.meshgrid(*[np.arange(n)] * dim, indexing="ij"), axis=-1).astype(float)
    width = hi - lo
    raw = np.zeros((n,) * dim)
    for _ in range(3):
        c = lo + rng.uniform(0.2, 0.8, dim) * width
        s = rng.uniform(0.15, 0.35) * width
        raw += rng.uniform(0.5, 1.5) * np.exp(-0.5 * ((idx - c) ** 2).sum(-1) / s**2)
    window = np.zeros((n,) * dim, bool)
    window[(slice(lo, hi),) * dim] = True
    raw[~window] = 0.0
    raw[raw < np.partition(raw.ravel(), -atoms)[-atoms]] = 0.0
    return raw


def int_shift(values: np.ndarray, shift) -> np.ndarray:
    """Move values by whole cells, filling with zeros (no wrap-around)."""
    out = values
    for axis, k in enumerate(shift):
        if k:
            out = np.roll(out, k, axis=axis)
            edge = [slice(None)] * out.ndim
            edge[axis] = slice(None, k) if k > 0 else slice(k, None)
            out[tuple(edge)] = 0.0
    return out


def quantile_gaps(a: Grid, b: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Lengths and gaps of the monotone (quantile) coupling of two 1D grids."""
    (x, wx), (y, wy) = a.atoms(), b.atoms()
    x, y = x[:, 0], y[:, 0]
    cx, cy = np.cumsum(wx), np.cumsum(wy)
    cx, cy = cx / cx[-1], cy / cy[-1]
    levels = np.union1d(cx, cy)
    starts = np.concatenate([[0.0], levels[:-1]])
    mids = 0.5 * (starts + levels)
    ix = np.minimum(np.searchsorted(cx, mids), len(x) - 1)
    iy = np.minimum(np.searchsorted(cy, mids), len(y) - 1)
    return levels - starts, np.abs(x[ix] - y[iy])


def grid_isop(g: Grid) -> float:
    """TV / L^2 with isotropic zero-padded forward differences (n = 2)."""
    v = g.values
    dx = np.diff(np.concatenate([v, np.zeros((1, v.shape[1]))], axis=0), axis=0)
    dy = np.diff(np.concatenate([v, np.zeros((v.shape[0], 1))], axis=1), axis=1)
    tv = np.sqrt(dx * dx + dy * dy).sum() * g.h
    return float(tv / math.sqrt((v * v).sum() * g.h**2))


def manifest_problems(directory: Path) -> list[str]:
    """Every file listed in manifest.json exists and has its sha256."""
    manifest = json.loads((directory / "manifest.json").read_text())
    bad = [
        e["path"]
        for e in manifest["files"]
        if hashlib.sha256((directory / e["path"]).read_bytes()).hexdigest() != e["sha256"]
    ]
    return [f"{directory.name}: sha256 mismatch for {bad}"] if bad else []


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# operations and rounds
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One operation: `run` calls the program, `check` inspects its output.

    `group` names the time metric the operation feeds; witness checks have no
    group.  `check` returns a list of problems (empty when the output is
    right); a witness check instead raises `WitnessMiss` when the program's
    certificate misses its tolerance, which counts the operation as failed.
    """

    name: str
    group: str | None
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    prepare: Callable[[], None] | None = None


class WitnessMiss(Exception):
    """The witness plan returned by winf misses MARGINAL_TOL."""


@dataclass
class Round:
    ops: list[Op]
    # checks that relate the outputs of several operations of one round
    cross_check: Callable[[dict], list[str]] = lambda results: []
    stats: dict = field(default_factory=dict)


def cli_call(argv: list[str]) -> dict:
    """Run `plqp <argv>` in-process and return its JSON payload."""
    from plqp import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
    if rc != 0:
        raise RuntimeError(f"plqp {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def fresh_dir(path: Path) -> Callable[[], None]:
    return lambda: shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

# Each class: grid cells per axis and the [first, last+1) window of cells that
# hold mass, for the random 2D pairs and the shifted 2D pairs.
# small: 50 atoms a side, 2500 edges, min-cost-flow route of transport.wq;
# large: 120 atoms a side, 14400 edges, above MCF_EDGE_CAP: dense-LP route.
# "pairs" is the number of random, shifted and 1D pairs each: several
# instances per class, so that one instance's solver luck moves the class
# time by a fraction of its share.
DIST_CLASSES = {
    "small": {"random": (10, 1, 9), "shift": (12, 2, 10), "atoms": 50, "max_shift": 1, "pairs": 4},
    "large": {"random": (16, 1, 15), "shift": (20, 3, 17), "atoms": 120, "max_shift": 2, "pairs": 2},
}
RECT_CELLS_PER_UNIT = 12  # 576 atoms a side
ORACLE_INSTANCES = 50
# The oracle draws its own instance sizes from its seed and brute-forces them
# in m! time, so its work moves by +-10% with the seed: keep the seed fixed.
ORACLE_SEED = 0
# witness-check pairs: fixed, independent of --seed
WITNESS_SEEDS = (7, 11)
WITNESS_GRID = (16, 1, 15)
WITNESS_ATOMS = 100


def line_pair(rng, atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """Random weights on two runs of `atoms` cells, the second run starting
    atoms // 12 cells after the first, on a line with a one-cell zero ring.

    Flat random weights at a fixed offset, not smooth bumps at random places:
    with those, the LP's solve time swings 5x from one seed to the next."""
    off = atoms // 12
    a, b = np.zeros(atoms + off + 4), np.zeros(atoms + off + 4)
    a[2 : 2 + atoms] = rng.uniform(0.5, 1.5, atoms)
    b[2 + off : 2 + off + atoms] = rng.uniform(0.5, 1.5, atoms)
    return a, b


def _distances_inputs(seed: int, work: Path) -> dict:
    rng = np.random.default_rng([seed, 0])
    files = {}
    shifts = {}
    for cls, spec in DIST_CLASSES.items():
        k = spec["atoms"]
        n, lo, hi = spec["random"]
        h, origin = square(n, 1.0)
        for i in range(spec["pairs"]):
            for side in "ab":
                files[f"{cls}_random{i}_{side}"] = density(blob(rng, n, 2, k, lo, hi), h, origin)
        n, lo, hi = spec["shift"]
        h, origin = square(n, 1.0)
        m = spec["max_shift"]
        for i in range(spec["pairs"]):
            base = blob(rng, n, 2, k, lo, hi)
            shift = (0, 0)
            while shift == (0, 0):
                shift = tuple(int(s) for s in rng.integers(-m, m + 1, 2))
            files[f"{cls}_shift{i}_a"] = density(base, h, origin)
            files[f"{cls}_shift{i}_b"] = density(int_shift(base, shift), h, origin)
            shifts[f"{cls}_shift{i}"] = h * math.hypot(*shift)
        for i in range(spec["pairs"]):
            for side, raw in zip("ab", line_pair(rng, k)):
                h = 1.0 / len(raw)
                files[f"{cls}_line{i}_{side}"] = density(raw, h, (h / 2,))
    from plqp.instances import rectangle_split_instance

    mu, nu = rectangle_split_instance(RECT_CELLS_PER_UNIT)
    for side, g in (("a", mu), ("b", nu)):
        files[f"rect_{side}"] = Grid(np.array(g.values), g.spec.h, g.spec.origin)
    paths = {}
    for name, g in files.items():
        paths[name] = work / f"{name}.csv"
        write_grid(paths[name], g)
    witness = []
    for ws in WITNESS_SEEDS:
        wrng = np.random.default_rng(ws)
        n, lo, hi = WITNESS_GRID
        h, origin = square(n, 1.0)
        pair = [density(blob(wrng, n, 2, WITNESS_ATOMS, lo, hi), h, origin) for _ in "ab"]
        witness.append([g.atoms() for g in pair])
    return {"seed": seed, "paths": paths, "grids": files, "shifts": shifts, "witness": witness}


def _distances_round(inputs: dict) -> Round:
    grids, paths = inputs["grids"], inputs["paths"]
    ops = []

    def dist(group, name, q, a, b, want=None, lo=None):
        """`plqp dist` on files a, b; p = 2 with q = 2 and p = inf with q = inf.

        Checks the L^p part against numpy and, given `want`, the transport
        part: equal to `want` to 1e-9, or inside [lo, want] when lo is given."""
        p = "2" if q == "2" else "inf"
        fa, fb = grids[a], grids[b]
        diff = np.abs(fa.values - fb.values)
        lp = float(diff.max()) if p == "inf" else float(np.sqrt((diff**2).sum() * fa.h**fa.dim))

        def check(out):
            bad = []
            if not close(out["lp_part"], lp, 1e-12):
                bad.append(f"{name}: lp_part {out['lp_part']} != numpy {lp}")
            if not close(out["total"], out["transport_part"] + out["lp_part"], 1e-12):
                bad.append(f"{name}: total != transport_part + lp_part")
            w = out["transport_part"]
            if want is not None and lo is None and abs(w - want) > EXACT_TOL:
                bad.append(f"{name}: transport_part {w!r} != {want!r}")
            if lo is not None and not (lo - 1e-12 <= w <= want + 1e-12):
                bad.append(f"{name}: transport_part {w!r} outside quantile gaps [{lo!r}, {want!r}]")
            return bad

        argv = ["dist", "--q", q, "--p", p, str(paths[a]), str(paths[b])]
        ops.append(Op(name, group, lambda: cli_call(argv), check))

    for q, qname in (("2", "q2"), ("inf", "qinf")):
        for cls, spec in DIST_CLASSES.items():
            group = f"dist_{qname}_{cls}_s"
            for i in range(spec["pairs"]):
                a, b = f"{cls}_random{i}_a", f"{cls}_random{i}_b"
                dist(group, f"{qname}_{a}", q, a, b)
                if i == 0:
                    dist(group, f"{qname}_{a}_swapped", q, b, a)
            for i in range(spec["pairs"]):
                pair = f"{cls}_shift{i}"
                dist(group, f"{qname}_{pair}", q, f"{pair}_a", f"{pair}_b", want=inputs["shifts"][pair])
            for i in range(spec["pairs"]):
                a, b = f"{cls}_line{i}_a", f"{cls}_line{i}_b"
                lengths, gaps = quantile_gaps(grids[a], grids[b])
                if q == "2":
                    dist(group, f"{qname}_{a}", q, a, b, want=float(np.sqrt((lengths * gaps**2).sum())))
                else:
                    # the bottleneck solver rounds masses to 1e-9, so quantile
                    # intervals shorter than that may or may not bind
                    dist(group, f"{qname}_{a}", q, a, b, want=float(gaps[lengths > 1e-15].max()),
                         lo=float(gaps[lengths > 1e-8].max()))
    # |W_inf - 4| <= 3h on the rectangle split
    dist("dist_qinf_large_s", "qinf_rect", "inf", "rect_a", "rect_b",
         want=4.0 + 3.0 / RECT_CELLS_PER_UNIT, lo=4.0 - 3.0 / RECT_CELLS_PER_UNIT)
    oracle_argv = ["oracle", "--instances", str(ORACLE_INSTANCES), "--seed", str(ORACLE_SEED)]
    ops.append(Op("oracle", "oracle_s", lambda: cli_call(oracle_argv),
                  lambda out: [] if out["pass"] is True else [f"oracle failed: {out}"]))
    for i, (a, b) in enumerate(inputs["witness"]):
        ops.append(Op(f"witness_{i}", None, _witness_call(a, b), lambda err: []))

    def cross_check(results):
        bad = []
        for cls, spec in DIST_CLASSES.items():
            for qname in ("q2", "qinf"):
                one = results[f"{qname}_{cls}_random0_a"]
                two = results[f"{qname}_{cls}_random0_a_swapped"]
                if one != two:
                    bad.append(f"{qname} {cls}: swapped call differs: {one} vs {two}")
            for i in range(spec["pairs"]):
                pa, wa = grids[f"{cls}_random{i}_a"].atoms()
                pb, wb = grids[f"{cls}_random{i}_b"].atoms()
                w2 = results[f"q2_{cls}_random{i}_a"]["transport_part"]
                winf = results[f"qinf_{cls}_random{i}_a"]["transport_part"]
                means = float(np.linalg.norm(wa @ pa - wb @ pb))
                if not (winf >= w2 - EXACT_TOL and w2 >= means - EXACT_TOL):
                    bad.append(f"{cls} pair {i}: need W_inf {winf} >= W_2 {w2} >= |mean gap| {means}")
                d = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
                if np.abs(d - winf).min() > 1e-12:
                    bad.append(f"{cls} pair {i}: W_inf {winf} is not a pairwise atom distance")
        return bad

    return Round(ops, cross_check)


def marginal_error(mu, nu, plan) -> float:
    """Largest gap between a plan's marginals and the true float weights."""
    rows = np.zeros(len(mu))
    cols = np.zeros(len(nu))
    np.add.at(rows, plan.src, plan.flow)
    np.add.at(cols, plan.dst, plan.flow)
    return float(max(np.abs(rows - mu.weights).max(), np.abs(cols - nu.weights).max()))


def _witness_call(a, b):
    def run():
        from plqp import bottleneck
        from plqp.measures import DiscreteMeasure

        (pa, wa), (pb, wb) = a, b
        mu, nu = DiscreteMeasure(pa, wa), DiscreteMeasure(pb, wb)
        err = marginal_error(mu, nu, bottleneck.winf(mu, nu).witness_plan)
        if err > MARGINAL_TOL:
            raise WitnessMiss(f"witness marginal error {err:.3g} > {MARGINAL_TOL}")
        return err

    return run


# ---------------------------------------------------------------------------
# scheme
# ---------------------------------------------------------------------------

RADIAL_GRID = {"n": 24, "extent": 6.0}  # h = 0.25
RADIAL_RINGS, RADIAL_LEVELS, RADIAL_STEPS, RADIAL_TAU = 6, 8, 2, 0.1
GRID_N, GRID_EXTENT = 16, 4.0  # h = 0.25, 8 coarse bins of 2 cells
GRID_FAMILY = {"quantum": 1e-3, "budget": 4, "coarse_bins": 8}
GRID_STEPS, GRID_TAU = 2, 2.0


def _scheme_inputs(seed: int, work: Path) -> dict:
    # The work of both families is invariant under whole-cell moves (whole
    # coarse bins for the grid family), so the seed moves the anchors without
    # changing the candidate counts; changing their shape would change the
    # sweep count several-fold and make the time a function of the seed.
    rng = np.random.default_rng([seed, 1])
    h = RADIAL_GRID["extent"] / RADIAL_GRID["n"]
    ox, oy = h * int(rng.integers(-1, 2)), h * int(rng.integers(-2, 3))
    centers = [[-1.4 + ox, oy], [1.4 + ox, oy]]
    family = {"kind": "radial", "rings": RADIAL_RINGS, "levels": RADIAL_LEVELS}
    configs = {
        "two_balls": {
            "anchor": {"kind": "multiball", "grid": RADIAL_GRID, "centers": centers,
                       "radii": [0.9, 0.9], "weights": [0.7, 0.3], "w": 0.3, "guard": 0.05},
            "family": dict(family, centers=centers, outer_radii=[1.2, 1.2]),
        },
        "one_ball": {
            "anchor": {"kind": "ramp_ball", "grid": RADIAL_GRID, "center": [ox, oy],
                       "R": 1.0, "w": 0.3, "guard": 0.05},
            "family": dict(family, centers=[[ox, oy]], outer_radii=[1.3]),
        },
    }
    paths = {}
    for name, cfg in configs.items():
        cfg.update(tau=RADIAL_TAU, steps=RADIAL_STEPS, seed=seed)
        paths[name] = work / f"{name}.json"
        paths[name].write_text(json.dumps(cfg, indent=2))
    from plqp.measures import GridSpec, make_ramp_ball

    gh, origin = square(GRID_N, GRID_EXTENT)
    center = (gh * 2 * int(rng.integers(-1, 2)), gh * 2 * int(rng.integers(-1, 2)))
    anchor = make_ramp_ball(GridSpec(2, (GRID_N, GRID_N), gh, origin), center, 1.0, 0.6, guard=0.05)
    return {"work": work, "paths": paths, "h": h, "grid_anchor": anchor}


def _scheme_round(inputs: dict) -> Round:
    work = inputs["work"]
    ops = []
    stats = {"radial_candidates": 0, "radial_sweeps": 0, "grid_candidates": 0}

    def mms_check(name, out_dir):
        def check(out):
            bad = manifest_problems(out_dir)
            ledger = json.loads((out_dir / "ledger.json").read_text())
            steps = ledger["steps"]
            phis = [ledger["phi_initial"]] + [s["phi"] for s in steps]
            if np.any(np.diff(phis) > 1e-12):
                bad.append(f"{name}: phi increases: {phis}")
            spent = 0.0
            for j, s in enumerate(steps):
                spent += s["movement"] ** 2 / (2 * s["tau"])
                if phis[j + 1] + spent > phis[0] + 1e-9:
                    bad.append(f"{name}: dissipation ledger broken at step {j + 1}")
            for k in range(len(steps) + 1):
                g = read_grid(out_dir / f"state_{k:04d}.csv")
                if np.any(g.values < 0) or abs(g.mass() - 1.0) > 1e-9:
                    bad.append(f"{name}: state {k} is not a unit-mass density")
            if name == "one_ball":
                move = max(s["movement"] for s in steps)
                if move > 2 * inputs["h"]:
                    bad.append(f"ball anchor moved {move} > 2h")
            stats["radial_candidates"] += sum(s["diagnostics"]["candidates_evaluated"] for s in steps)
            stats["radial_sweeps"] += sum(s["diagnostics"]["sweeps"] for s in steps)
            return bad

        return check

    for name, cfg in inputs["paths"].items():
        out_dir = work / f"mms_{name}"
        argv = ["mms", "--config", str(cfg), "--out", str(out_dir)]
        ops.append(Op(f"mms_{name}", "mms_radial_s", lambda argv=argv: cli_call(argv),
                      mms_check(name, out_dir), fresh_dir(out_dir)))

    chain = {}
    for step in range(GRID_STEPS):
        def run(step=step):
            from plqp import mms

            # each step starts from the previous step's output
            anchor = chain["anchor"] if step else inputs["grid_anchor"]
            fam = mms.GridSearchFamily(**GRID_FAMILY)
            out, val, diag = mms.resolvent(mms.ResolventProblem("isop", GRID_TAU, anchor, fam))
            chain["anchor"] = out
            return anchor, out, val, diag

        def check(res):
            anchor, out, val, diag = res
            stats["grid_candidates"] += diag["candidates_evaluated"]
            a = Grid(np.array(anchor.values), anchor.spec.h, anchor.spec.origin)
            o = Grid(np.array(out.values), out.spec.h, out.spec.origin)
            bad = []
            if val > grid_isop(a) + 1e-9:
                bad.append(f"grid step: Phi(out) {val} > phi(anchor) {grid_isop(a)}")
            if val < grid_isop(o) - 1e-9:
                bad.append(f"grid step: Phi(out) {val} < phi(out) {grid_isop(o)}")
            if np.any(o.values < 0) or abs(o.mass() - 1.0) > 1e-9:
                bad.append("grid step: output is not a unit-mass density")
            return bad

        ops.append(Op(f"grid_step_{step}", "mms_grid_step_s", run, check))
    return Round(ops, stats=stats)


# ---------------------------------------------------------------------------
# continuity
# ---------------------------------------------------------------------------

CURVE_N, CURVE_EXTENT = 32, 4.0  # h = 0.125; one cell per quarter time unit
CURVE_TIMES = "0,0.25,0.5,0.75,1"
DILATE_N, DILATE_M = 48, 1.5
BB_N = 32
TRACE_N, TRACE_EXTENT, TRACE_SAMPLES, TRACE_TIMES = 48, 5.0, 2000, 11
TRACE_FACTORS = (0.5, 2.0)
DIRECTIONS = ((1, 0), (-1, 0), (0, 1), (0, -1))
# knight moves: every bb pair has shift length sqrt(5) cells, hence 3 steps
KNIGHT = ((2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1))


def _continuity_inputs(seed: int, work: Path) -> dict:
    from plqp.measures import GridSpec, dilate_curve, make_ramp_ball

    rng = np.random.default_rng([seed, 2])

    def ball(n, extent, center_cells, R, w):
        h, origin = square(n, extent)
        c = tuple(h * k for k in center_cells)
        g = make_ramp_ball(GridSpec(2, (n, n), h, origin), c, R, w, guard=0.05)
        return Grid(np.array(g.values), h, origin)

    paths = {}
    curve = ball(CURVE_N, CURVE_EXTENT, rng.integers(-1, 2, 2), 1.0, 0.4)
    direction = DIRECTIONS[int(rng.integers(len(DIRECTIONS)))]
    dilate = ball(DILATE_N, 4.0, (0, 0), 1.0, 0.9)
    bb_a = ball(BB_N, 4.0, rng.integers(-1, 2, 2), 1.0, 0.4)
    knight = KNIGHT[int(rng.integers(len(KNIGHT)))]
    bb_b = Grid(int_shift(bb_a.values, knight), bb_a.h, bb_a.origin)
    for name, g in (("curve", curve), ("dilate", dilate), ("bb_a", bb_a), ("bb_b", bb_b)):
        paths[name] = work / f"{name}.csv"
        write_grid(paths[name], g)
    th, torigin = square(TRACE_N, TRACE_EXTENT)
    tball = make_ramp_ball(GridSpec(2, (TRACE_N, TRACE_N), th, torigin), (0.0, 0.0), 1.0, 0.2, guard=0.05)
    times = list(np.linspace(0.0, 1.0, TRACE_TIMES))
    trajectories = {M: dilate_curve(tball, M, times, guard=0.05) for M in TRACE_FACTORS}
    return {"work": work, "paths": paths, "grids": {"curve": curve, "bb_a": bb_a},
            "direction": direction, "knight": knight, "trace": trajectories, "trace_h": th}


def _continuity_round(inputs: dict) -> Round:
    work, paths, grids = inputs["work"], inputs["paths"], inputs["grids"]
    times = [float(t) for t in CURVE_TIMES.split(",")]
    ops = []

    translate_dir = work / "curve_translate"
    g = grids["curve"]
    V = tuple(4 * g.h * d for d in inputs["direction"])

    def translate_check(out):
        bad = manifest_problems(translate_dir)
        for k, t in enumerate(times):
            state = read_grid(translate_dir / f"curve_{k:04d}.csv")
            want = int_shift(g.values, [k * d for d in inputs["direction"]])
            if not np.array_equal(state.values, want):
                bad.append(f"translate state {k} != integer-cell shift by {k} cells")
        return bad

    argv = ["curve", "--kind", "translate", "--grid", str(paths["curve"]),
            # with "=", a negative first component is not read as an option
            "--param=" + ",".join(repr(v) for v in V), "--times", CURVE_TIMES, "--out", str(translate_dir)]
    ops.append(Op("curve_translate", "curve_s", lambda: cli_call(argv), translate_check, fresh_dir(translate_dir)))

    dilate_dir = work / "curve_dilate"

    def dilate_check(out):
        bad = manifest_problems(dilate_dir)
        radius0 = None
        for k, t in enumerate(times):
            state = read_grid(dilate_dir / f"curve_{k:04d}.csv")
            if np.any(state.values < 0) or abs(state.mass() - 1.0) > 1e-9:
                bad.append(f"dilate state {k} is not a unit-mass density")
            pts, w = state.atoms()
            radius = math.sqrt(float(w @ (pts**2).sum(1)))
            radius0 = radius0 or radius
            lam = 1 - t + t * DILATE_M
            if abs(radius / radius0 / lam - 1) > 0.02:
                bad.append(f"dilate state {k}: rms radius ratio {radius / radius0} vs {lam}")
        return bad

    argv_d = ["curve", "--kind", "dilate", "--grid", str(paths["dilate"]), "--param", repr(DILATE_M),
              "--times", CURVE_TIMES, "--out", str(dilate_dir)]
    ops.append(Op("curve_dilate", "curve_s", lambda: cli_call(argv_d), dilate_check, fresh_dir(dilate_dir)))

    manifest = translate_dir / "curve_manifest.json"
    # consecutive states differ by one whole cell, so W_inf = h exactly
    winf_rate = g.h / (times[1] - times[0])
    for norm in ("linf", "l2"):
        argv_r = ["reconstruct", "--manifest", str(manifest), "--norm", norm]

        def check(out, norm=norm):
            bad = [f"{norm}: residual {r}" for r in out["residuals"] if r > 1e-7]
            if norm == "linf":
                bad += [f"linf sup norm {s} < W_inf/dt {winf_rate}"
                        for s in out["interval_sup_norms"] if s < winf_rate - 1e-6]
            return bad

        ops.append(Op(f"reconstruct_{norm}", f"reconstruct_{norm}_s", lambda a=argv_r: cli_call(a), check))

    bb_h = grids["bb_a"].h
    bb_winf = bb_h * math.hypot(*inputs["knight"])

    def bb_check(out):
        bad = []
        if abs(out["winf"] - bb_winf) > EXACT_TOL:
            bad.append(f"bb winf {out['winf']} != shift length {bb_winf}")
        if not out["lower_bound_ok"]:
            bad.append("bb lower bound not met")
        if out["gap"] > 2 * bb_h:
            bad.append(f"bb gap {out['gap']} > 2h")
        return bad

    argv_b = ["bb", str(paths["bb_a"]), str(paths["bb_b"])]
    ops.append(Op("bb", "bb_s", lambda: cli_call(argv_b), bb_check))

    for M, traj in inputs["trace"].items():
        def run(traj=traj):
            from plqp import dynamics

            return dynamics.trace_characteristics(traj, TRACE_SAMPLES)

        def check(rep, M=M):
            r0 = np.linalg.norm(rep.initial, axis=1)
            r1 = np.linalg.norm(rep.terminal, axis=1)
            keep = r0 > 3 * inputs["trace_h"]
            rel = float(np.abs(r1[keep] / r0[keep] / M - 1).max())
            return [] if rel <= 0.05 else [f"trace M={M}: radius scaling error {rel}"]

        ops.append(Op(f"trace_{M}", "trace_s", run, check))

    def cross_check(results):
        linf, l2 = results["reconstruct_linf"], results["reconstruct_l2"]
        # the linf solve minimizes the face bound that the l2 field also meets
        return [f"l2 face norm {b} < linf optimum {a}"
                for a, b in zip(linf["interval_face_norms"], l2["interval_face_norms"])
                if b < a * (1 - 1e-6)]

    return Round(ops, cross_check)


# ---------------------------------------------------------------------------

STAGES = {
    "distances": (_distances_inputs, _distances_round),
    "scheme": (_scheme_inputs, _scheme_round),
    "continuity": (_continuity_inputs, _continuity_round),
}

GROUPS = {
    "distances": ("dist_q2_small_s", "dist_q2_large_s", "dist_qinf_small_s", "dist_qinf_large_s", "oracle_s"),
    "scheme": ("mms_radial_s", "mms_grid_step_s"),
    "continuity": ("curve_s", "reconstruct_linf_s", "reconstruct_l2_s", "bb_s", "trace_s"),
}


def build_inputs(workload: str, seed: int, work: Path) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    return STAGES[workload][0](seed, work)


def make_round(workload: str, inputs: dict) -> Round:
    return STAGES[workload][1](inputs)
