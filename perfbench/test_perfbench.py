"""The benchmark's own test: one short round of every workload, all checks on.

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs its warm-up round and one measured round (plus one traced
round with tracing on).  Every output check must pass, and the only failed
operations must be the winf witness checks, which miss their stated
tolerance on the fixed witness pairs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
from workloads import WITNESS_SEEDS, WORKLOADS  # noqa: E402


def _spec():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_round(workload, trace):
    res = run.run(workload, seed=0, seconds=0, trace=trace, setup_starts=0)
    assert res["problems"] == []
    assert res["rounds"] == 1
    witness = len(WITNESS_SEEDS) if workload == "distances" else 0
    assert res["failed"] == witness * (2 if trace else 1)
    assert all(f.startswith("witness_") for f in res["failures"])
    assert set(res["group_s"]) and all(v > 0 for v in res["group_s"].values())
    if trace:
        assert set(res["per_layer"]) == {m["name"] for m in _spec()["per_layer"]}
        from plqp import bottleneck, cli

        # the traced round leaves the program's functions as they were
        assert cli.main.__module__ == "plqp.cli" and cli.main.__name__ == "main"
        assert bottleneck.winf.__name__ == "winf"


def test_setup_child_reports_ready():
    (t,) = run.measure_setup("continuity", 0, 1)
    assert 0 < t < 60


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "scheme", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
