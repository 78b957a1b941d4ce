"""Batch command-line front end.

Commands read grid CSV files and JSON configs, and write JSON reports (and
grid/ledger artifacts under an output directory).  Output is deterministic:
identical inputs, config, and seed produce byte-identical JSON.  No search
reads a seed: `plqp mms` only records its seed in the ledger, and
`plqp oracle` draws its random instances from its seed.

Exit codes: 0 success, 2 malformed input, 3 solver infeasibility.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

from . import gridio
# `wq` (below) and `winf` are unused here but stay bound: perfbench/tracer.py patches them
from .bottleneck import winf, winf_many, winf_permutation_oracle  # noqa: F401
from .dynamics import bb_verify, continuity_residual, reconstruct_velocity
from .errors import InfeasibleError, InputError
from .functionals import isop
from .measures import (
    RENORM_GUARD,
    DiscreteMeasure,
    GridSpec,
    dilate_curve,
    make_multiball,
    make_ramp_ball,
    translate_curve,
)
from .mms import (
    GridSearchFamily,
    RadialFamily,
    ResolventProblem,
    StepPartition,
    run_scheme,
    solution_ledger,
)
from .plmetric import PLMetricParams, dqp
from .transport import monotone_1d, wq, wq_many, wq_permutation_oracle  # noqa: F401


def _real(value, what: str) -> float:
    """A finite number from a flag or a config field, else InputError."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(x):
        raise InputError(f"{what} must be finite, got {value!r}")
    return x


def _integer(value, what: str, least: int | None = None) -> int:
    x = _real(value, what)
    if not x.is_integer() or (least is not None and x < least):
        bound = "" if least is None else f" >= {least}"
        raise InputError(f"{what} must be an integer{bound}, got {value!r}")
    return int(x)


def _reals(values, what: str, length: int | None = None) -> list[float]:
    """Finite numbers from a list (a JSON array or a split flag)."""
    if not isinstance(values, list) or (length is not None and len(values) != length):
        size = "" if length is None else f"{length} "
        raise InputError(f"{what} must be a list of {size}numbers, got {values!r}")
    return [_real(v, what) for v in values]


def _points(values, what: str) -> list[tuple[float, float]]:
    if not isinstance(values, list):
        raise InputError(f"{what} must be a list of points, got {values!r}")
    return [tuple(_reals(c, what, length=2)) for c in values]


def _section(cfg, key: str) -> dict:
    value = cfg[key]
    if not isinstance(value, dict):
        raise InputError(f"config field {key!r} must be an object, got {value!r}")
    return value


def _parse_exponent(text: str) -> float:
    if text.lower() in ("inf", "infinity"):
        return math.inf
    return _real(text, "exponent (a number or inf)")


def _dump_json(payload: dict, out: str | None) -> None:
    if out:
        gridio.write_json(out, payload)
    else:
        sys.stdout.write(gridio.json_text(payload))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(directory: Path) -> None:
    files = sorted(p for p in directory.rglob("*") if p.is_file() and p.name != "manifest.json")
    manifest = {
        "files": [
            {"path": str(p.relative_to(directory)), "sha256": _sha256(p)} for p in files
        ]
    }
    gridio.write_json(directory / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_dist(args) -> dict:
    a = gridio.read_grid(args.grid_a)
    b = gridio.read_grid(args.grid_b)
    q = _parse_exponent(args.q)
    p = _parse_exponent(args.p)
    val = dqp(a, b, PLMetricParams(q, p))
    return {
        "q": "inf" if math.isinf(q) else q,
        "p": "inf" if math.isinf(p) else p,
        "total": val.total,
        "transport_part": val.w_part,
        "lp_part": val.lp_part,
        "quantization_bound": val.quantization_bound,
    }


def cmd_isop(args) -> dict:
    g = gridio.read_grid(args.grid)
    v = isop(g)
    return {
        "value": v.value,
        "numerator_tv": v.numerator,
        "denominator_norm": v.denominator,
        "exponents": list(v.exponents),
        "grid_h": g.spec.h,
        "tolerance_note": "first-order grid quantity; compare at <= 5% against closed forms",
    }


# Largest anchor grid side n of an `mms` config (n^2 cells), set from a
# budget of about 5 s and 300 MB as `bottleneck.MAX_ATOMS` is: a one-ball
# radial scheme step (one core of a 2-vCPU x86_64 VM) took 0.85 s at 134 MB
# peak RSS on 1024^2 cells and 3.6 s at 351 MB on 2048^2.
MAX_ANCHOR_N = 1_024


def _anchor_from_config(cfg: dict):
    if "grid_file" in cfg:
        if not isinstance(cfg["grid_file"], str):
            raise InputError(f"anchor grid_file must be a path, got {cfg['grid_file']!r}")
        return gridio.read_grid(cfg["grid_file"])
    grid = _section(cfg, "grid")
    n = _integer(grid["n"], "grid n", least=2)
    if n > MAX_ANCHOR_N:
        raise InputError(f"grid n must be at most {MAX_ANCHOR_N}, got {n}")
    extent = _real(grid["extent"], "grid extent")
    h = extent / n
    spec = GridSpec(2, (n, n), h, (-extent / 2 + h / 2, -extent / 2 + h / 2))
    guard = _real(cfg.get("guard", 1e-3), "anchor guard")
    if cfg["kind"] == "ramp_ball":
        return make_ramp_ball(
            spec,
            tuple(_reals(cfg["center"], "anchor center", length=2)),
            _real(cfg["R"], "anchor R"),
            _real(cfg["w"], "anchor w"),
            guard=guard,
        )
    if cfg["kind"] == "multiball":
        return make_multiball(
            spec,
            _points(cfg["centers"], "anchor centers"),
            _reals(cfg["radii"], "anchor radii"),
            _reals(cfg["weights"], "anchor weights"),
            _real(cfg["w"], "anchor w"),
            guard=guard,
        )
    raise InputError(f"unknown anchor kind {cfg.get('kind')!r}")


def cmd_mms(args) -> dict:
    cfg = json.loads(gridio.read_text(args.config, "config"))
    if not isinstance(cfg, dict):
        raise InputError(f"config must be a JSON object, got {cfg!r}")
    # flag overrides for the config fields
    if args.tau is not None:
        cfg["tau"] = args.tau
        cfg.pop("taus", None)
    if args.steps is not None:
        cfg["steps"] = args.steps
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.family is not None:
        cfg.setdefault("family", {})
    seed = _integer(cfg.get("seed", 0), "seed")
    anchor = _anchor_from_config(_section(cfg, "anchor"))
    fam_cfg = _section(cfg, "family")
    kind = args.family or fam_cfg["kind"]
    if kind == "radial":
        family = RadialFamily.from_anchor(
            anchor,
            _points(fam_cfg["centers"], "family centers"),
            _reals(fam_cfg["outer_radii"], "family outer_radii"),
            rings=_integer(fam_cfg.get("rings", 8), "family rings"),
            levels=_integer(fam_cfg.get("levels", 32), "family levels"),
        )
    elif kind == "grid":
        family = GridSearchFamily(
            quantum=_real(fam_cfg.get("quantum", 1e-3), "family quantum"),
            budget=_integer(fam_cfg.get("budget", 200), "family budget"),
            coarse_bins=_integer(fam_cfg.get("coarse_bins", 12), "family coarse_bins"),
        )
    else:
        raise InputError(f"unknown family kind {kind!r}")
    if "taus" in cfg:
        partition = StepPartition(tuple(_reals(cfg["taus"], "taus")))
    else:
        partition = StepPartition.uniform(
            _real(cfg["tau"], "tau"), _integer(cfg["steps"], "steps", least=1)
        )
    prob = ResolventProblem(cfg.get("phi", "isop"), partition.steps[0], anchor, family)
    every = _integer(cfg.get("cross_check_every", 0), "cross_check_every", least=0)
    # an unusable --out fails before the solve, not after it
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sol = run_scheme(anchor, partition, prob, cross_check_every=every)
    ledger = solution_ledger(sol)
    ledger["seed"] = seed
    gridio.write_json(out_dir / "ledger.json", ledger)
    for k, state in enumerate(sol.states):
        gridio.write_grid(state, out_dir / f"state_{k:04d}.csv")
    _write_manifest(out_dir)
    return {"out": str(out_dir), "steps": len(partition.steps), "phi_final": sol.phi_values[-1]}


def cmd_bb(args) -> dict:
    a = gridio.read_grid(args.grid_a)
    b = gridio.read_grid(args.grid_b)
    if args.out:
        # an unusable --out fails before the solve, not after it
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    rep = bb_verify(a, b, steps=args.steps)
    payload = {
        "winf": rep.winf_value,
        "winf_quantization_bound": rep.quantization_bound,
        "achieved_norm": rep.achieved_norm,
        "steps": rep.steps,
        "lower_tolerance": rep.lower_tol,
        "lower_bound_ok": bool(rep.lower_ok),
        "gap": rep.gap,
        "gap_tolerance_note": "gap is a grid quantity, O(h) for rigid pairs",
    }
    if args.out:
        gridio.write_json(out_dir / "bb_report.json", payload)
        _write_manifest(out_dir)
    return payload


def cmd_curve(args) -> dict:
    g = gridio.read_grid(args.grid)
    times = _reals(args.times.split(","), "--times")
    guard = _real(args.guard, "--guard")
    if args.kind == "translate":
        V = tuple(_reals(args.param.split(","), "--param"))
        traj = translate_curve(g, V, times)
    elif args.kind == "dilate":
        traj = dilate_curve(g, _real(args.param, "--param"), times, guard=guard)
    else:
        raise InputError(f"unknown curve kind {args.kind!r}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    gridio.save_trajectory(traj, out_dir, stem="curve")
    rep = continuity_residual(traj)
    payload = {
        "kind": args.kind,
        "times": times,
        "residual_max": rep.max_defect,
        "residual_l1": rep.l1_defect,
        "panel_version": rep.panel_version,
    }
    gridio.write_json(out_dir / "residuals.json", payload)
    _write_manifest(out_dir)
    return payload


def cmd_reconstruct(args) -> dict:
    traj = gridio.load_trajectory(args.manifest)
    rec = reconstruct_velocity(traj, norm=args.norm)
    return {
        "norm": args.norm,
        "interval_sup_norms": list(rec.sup_norms),
        "interval_face_norms": list(rec.face_norms),
        "residuals": list(rec.residuals),
        "tolerance_note": "face norms bound |m|/f on faces with f >= 1e-9",
    }


def _uniform_pair(rng, m: int) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    a = DiscreteMeasure(rng.uniform(0, 10, (m, 2)), np.full(m, 1.0 / m))
    b = DiscreteMeasure(rng.uniform(0, 10, (m, 2)), np.full(m, 1.0 / m))
    return a, b


def cmd_oracle(args) -> dict:
    if args.instances < 1:
        raise InputError(f"--instances must be at least 1, got {args.instances}")
    # three independently seeded cross-check loops; each draws its instances
    # first and solves them in one batch
    rng = np.random.default_rng(args.seed)
    pairs = [_uniform_pair(rng, int(rng.integers(2, 7))) for _ in range(args.instances)]
    worst_winf = max(
        abs(r.value - winf_permutation_oracle(a, b)) for r, (a, b) in zip(winf_many(pairs), pairs)
    )
    rng = np.random.default_rng(args.seed + 1)
    q = 2.0
    pairs = [_uniform_pair(rng, int(rng.integers(2, 7))) for _ in range(args.instances)]
    worst_wq = max(
        abs(r.cost - wq_permutation_oracle(a, b, q)) for r, (a, b) in zip(wq_many(pairs, q), pairs)
    )
    rng = np.random.default_rng(args.seed + 2)
    pairs = []
    for _ in range(args.instances):
        m = int(rng.integers(2, 9))
        k = int(rng.integers(2, 9))
        a = DiscreteMeasure(rng.uniform(0, 10, (m, 1)), rng.dirichlet(np.ones(m)))
        b = DiscreteMeasure(rng.uniform(0, 10, (k, 1)), rng.dirichlet(np.ones(k)))
        pairs.append((a, b))
    worst_1d = max(
        abs(r.cost - monotone_1d(a, b, 1.5)) for r, (a, b) in zip(wq_many(pairs, 1.5), pairs)
    )
    return {
        "instances": args.instances,
        "seed": args.seed,
        "winf_vs_permutation_max_abs": worst_winf,
        "wq_vs_permutation_max_abs": worst_wq,
        "wq_vs_monotone1d_max_abs": worst_1d,
        "tolerance": 1e-9,
        "pass": bool(max(worst_winf, worst_wq, worst_1d) <= 1e-9),
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `plqp` argument parser, built on the first call and reused by every
    later one in the process.

    Each subcommand's handler (`cmd_*`) is bound by `set_defaults(func=...)`
    when the parser is built, so replacing a `cmd_*` attribute of this module
    afterwards does not change what `main` runs.
    """
    ap = argparse.ArgumentParser(prog="plqp", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dist", help="composite distance between two grid files")
    d.add_argument("grid_a")
    d.add_argument("grid_b")
    d.add_argument("--q", default="inf")
    d.add_argument("--p", default="inf")
    d.add_argument("--out")
    d.set_defaults(func=cmd_dist)

    i = sub.add_parser("isop", help="isoperimetric ratio of a grid file")
    i.add_argument("grid")
    i.add_argument("--out")
    i.set_defaults(func=cmd_isop)

    m = sub.add_parser("mms", help="run the minimizing-movement scheme")
    m.add_argument("--config", required=True)
    m.add_argument("--out", required=True)
    m.add_argument("--tau", type=float, help="override the config step size")
    m.add_argument("--steps", type=int, help="override the config step count")
    m.add_argument("--family", choices=["radial", "grid"], help="override the family kind")
    m.add_argument("--seed", type=int, help="override the config seed")
    m.set_defaults(func=cmd_mms)

    b = sub.add_parser("bb", help="one-step dynamic verification of the bottleneck distance")
    b.add_argument("grid_a")
    b.add_argument("grid_b")
    b.add_argument("--steps", type=int, default=0)
    b.add_argument("--out")
    b.set_defaults(func=cmd_bb)

    c = sub.add_parser("curve", help="emit a generated curve and its residual report")
    c.add_argument("--kind", required=True, choices=["translate", "dilate"])
    c.add_argument("--grid", required=True)
    c.add_argument(
        "--param",
        required=True,
        help="vx,vy for translate; M for dilate (write a negative value as --param=-0.25,0)",
    )
    c.add_argument("--times", required=True, help="comma-separated times")
    c.add_argument(
        "--guard",
        default=RENORM_GUARD,
        help=f"dilate only: largest accepted |renormalization factor - 1| (default {RENORM_GUARD})",
    )
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_curve)

    r = sub.add_parser("reconstruct", help="minimal-norm velocity from a trajectory manifest")
    r.add_argument("--manifest", required=True)
    r.add_argument("--norm", default="linf", choices=["linf", "l2"])
    r.add_argument("--out")
    r.set_defaults(func=cmd_reconstruct)

    o = sub.add_parser("oracle", help="brute-force cross-checks of the exact solvers")
    o.add_argument("--instances", type=int, default=50)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--out")
    o.set_defaults(func=cmd_oracle)
    return ap


# commands whose --out is an artifact directory, not a JSON file target
DIR_COMMANDS = {"mms", "curve", "bb"}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    out_dir = getattr(args, "out", None) if args.command in DIR_COMMANDS else None
    # a failed run removes only an output directory it created itself
    created = bool(out_dir) and not Path(out_dir).exists()
    try:
        payload = args.func(args)
        # an unwritable --out (a missing parent, a directory) is bad input too
        _dump_json(payload, None if args.command in DIR_COMMANDS else getattr(args, "out", None))
    except (InputError, OSError, json.JSONDecodeError, KeyError) as exc:
        if created:
            shutil.rmtree(out_dir, ignore_errors=True)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        if created:
            shutil.rmtree(out_dir, ignore_errors=True)
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
