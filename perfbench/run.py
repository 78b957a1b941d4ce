"""plqp benchmark: one closed-loop client running one workload in-process.

    python3 perfbench/run.py --workload distances --seed 1 --seconds 20 --trace 0

Runs from the root of a plqp source tree and imports plqp from its `src`.
One run:

1. times `SETUP_STARTS` fresh interpreters, each importing plqp and building
   the workload's inputs from the seed (`setup_s` is their median);
2. builds the inputs in this process and runs one untimed warm-up round;
3. repeats whole rounds of the workload's fixed operations for `--seconds`
   (with `--trace 1`, untraced and traced rounds alternate);
4. checks every operation's output, prints the metrics by name and unit,
   the environment, and, as its last line, one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

A time metric is the median over rounds of the time one round spends in a
fixed set of operations, never a median across instances of different sizes.
The per-layer metrics (`--trace 1`) come from traced rounds only; the
end-to-end metrics (`--trace 0`) from untraced rounds only.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# pin BLAS/OpenMP pools to one thread before numpy loads, so the process
# never runs more compute threads than the machine has cores
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
RESULTS = BENCH_DIR / "results"
SETUP_STARTS = 5


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def environment() -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def measure_setup(workload: str, seed: int, starts: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its inputs being ready."""
    times = []
    for i in range(starts):
        work = WORK / f"setup-{os.getpid()}-{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child", str(work),
               "--workload", workload, "--seed", str(seed)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        shutil.rmtree(work, ignore_errors=True)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child exited {rc} without reporting ready")
        times.append(dt)
    return times


class Runner:
    """Runs rounds of one workload and keeps their samples and tallies."""

    def __init__(self, workload: str, inputs: dict, tracer=None):
        from workloads import make_round

        self.workload = workload
        self.round = make_round(workload, inputs)
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []

    def run_round(self, traced: bool = False, count: bool = True) -> tuple[dict, dict]:
        """One round; returns (seconds per group, per-layer values or {})."""
        from workloads import WitnessMiss

        rnd = self.round
        for key in rnd.stats:
            rnd.stats[key] = 0
        groups: dict[str, float] = {}
        results = {}
        gc.collect()
        if traced:
            self.tracer.reset()
            self.tracer.install()
        try:
            for op in rnd.ops:
                if op.prepare:
                    op.prepare()
                failure = None
                t0 = time.perf_counter()
                try:
                    if op.group is None and traced:
                        with self.tracer.paused():
                            out = op.run()
                    else:
                        out = op.run()
                except WitnessMiss as exc:
                    failure = f"{op.name}: {exc}"
                except Exception:  # one failed operation must not end the run
                    failure = f"{op.name}: {traceback.format_exc(limit=3)}"
                dt = time.perf_counter() - t0
                if op.group is not None:
                    groups[op.group] = groups.get(op.group, 0.0) + dt
                if count:
                    self.attempted += 1
                if failure is not None:
                    if count:
                        self.failed += 1
                    if failure not in self.failures:
                        self.failures.append(failure)
                    continue
                results[op.name] = out
                self._note(op.check(out))
        finally:
            if traced:
                self.tracer.uninstall()
        try:
            self._note(rnd.cross_check(results))
        except KeyError as exc:  # an operation it needs has failed, counted above
            self.failures.append(f"cross check skipped: no output of {exc}")
        layers = {}
        if traced:
            from tracer import layer_metrics

            layers = layer_metrics(self.tracer, rnd.stats)
        return groups, layers

    def _note(self, problems):
        for p in problems:
            if p not in self.problems:
                self.problems.append(p)


def run(workload: str, seed: int, seconds: float, trace: bool, setup_starts: int = SETUP_STARTS) -> dict:
    from workloads import GROUPS, build_inputs

    setup = measure_setup(workload, seed, setup_starts) if setup_starts else []
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        inputs = build_inputs(workload, seed, work)
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
        runner = Runner(workload, inputs, tracer)
        runner.run_round(count=False)  # warm-up
        rounds, traced_rounds, layer_rounds = [], [], []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            groups, _ = runner.run_round()
            rounds.append(groups)
            if trace:
                groups, layers = runner.run_round(traced=True)
                traced_rounds.append(groups)
                layer_rounds.append(layers)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    group_s = {g: _median([r.get(g, 0.0) for r in rounds]) for g in GROUPS[workload]}
    round_times = [sum(r.values()) for r in rounds]
    end_to_end = {
        "setup_s": _median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "round_s": _median(round_times),
    }
    per_layer = {}
    if trace:
        for key in layer_rounds[0]:
            values = [lr[key] for lr in layer_rounds]
            per_layer[key] = max(values) if key.endswith("_max") else _median(values)
        for groups in GROUPS.values():
            for g in groups:
                per_layer[g] = group_s.get(g, 0.0)
        traced_round = _median([sum(r.values()) for r in traced_rounds])
        per_layer["trace.overhead_pct"] = 100.0 * (traced_round / end_to_end["round_s"] - 1.0)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "rounds": len(rounds),
        "samples": {"setup_s": setup, "round_s": round_times,
                    **{g: [r.get(g, 0.0) for r in rounds] for g in GROUPS[workload]}},
        "group_s": group_s,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "problems": runner.problems,
    }


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "plqp" / "__init__.py").is_file():
        print(f"error: no plqp sources under {SRC}; run from a plqp source tree", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import plqp
    from workloads import WORKLOADS, build_inputs

    if Path(plqp.__file__).resolve().parent != (SRC / "plqp").resolve():
        print(f"error: plqp imported from {plqp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    if args.setup_child:
        build_inputs(args.workload, args.seed, Path(args.setup_child))
        print("ready", flush=True)
        return 0

    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    units = _units()
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(res, indent=2, sort_keys=True) + "\n")

    print(f"workload {res['workload']} seed {res['seed']}: {res['rounds']} rounds in {args.seconds:g} s")
    print("environment " + json.dumps(res["environment"], sort_keys=True))
    for name, value in {**res["end_to_end"], **res["group_s"]}.items():
        print(f"  {name:<28} {value:12.6f} {units[name]}")
    if args.trace:
        for name, value in res["per_layer"].items():
            if name not in res["group_s"]:
                print(f"  {name:<40} {value:14.6g} {units[name]}")
    print(f"  attempted {res['attempted']}  failed {res['failed']}")
    for f in res["failures"]:
        print(f"  failed: {f}")
    for p in res["problems"]:
        print(f"  WRONG: {p}")
    chosen = res["per_layer"] if args.trace else res["end_to_end"]
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
