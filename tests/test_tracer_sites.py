"""The benchmark's tracer patches plqp at named look-up sites, and reads each
one before every traced round.  A site that plqp no longer binds would crash
the traced runs, which Tier-1 does not start, so the names are checked here.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_site_is_bound():
    pytest.importorskip("networkx")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(owner.__name__, attr) for owner, attr, _ in tracer._sites() if not hasattr(owner, attr)]
    assert missing == []
