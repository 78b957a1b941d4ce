"""Which scipy modules a plqp process loads: `import plqp` costs numpy
alone, each command imports only the scipy solvers it runs, and no plqp
module uses scipy.ndimage."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plqp
from plqp import gridio
from plqp.measures import make_ramp_ball

from helpers import square_grid

# runs each argv in turn through cli.main in this interpreter, then prints
# the scipy modules loaded so far as the last line
CHILD = """
import json, sys
import plqp, plqp.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = [scipy_modules()]
for argv in json.loads(sys.argv[1]):
    rc = plqp.cli.main(argv)
    assert rc == 0, (argv, rc)
    loaded.append(scipy_modules())
print(json.dumps(loaded))
"""

RADIAL_CONFIG = {
    "anchor": {"kind": "ramp_ball", "grid": {"n": 16, "extent": 3.0}, "center": [0.0, 0.0],
               "R": 0.9, "w": 0.5, "guard": 0.05},
    "family": {"kind": "radial", "centers": [[0.0, 0.0]], "outer_radii": [1.2], "rings": 4, "levels": 8},
    "tau": 0.1,
    "steps": 2,
}


# builds a 32^2 ramp ball, runs the code given in argv[1], then prints the
# scipy modules loaded so far as the last line
SNIPPET_CHILD = """
import json, sys
from plqp.measures import GridSpec, make_ramp_ball

g = make_ramp_ball(GridSpec(2, (32, 32), 0.125, (-1.9375, -1.9375)), (0.0, 0.0), 0.5, 0.3, guard=0.05)
exec(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def run_child(*args):
    """Last stdout line of a fresh interpreter, parsed as JSON."""
    env = {**os.environ, "PYTHONPATH": str(Path(plqp.__file__).resolve().parents[1])}
    r = subprocess.run([sys.executable, "-c", *args], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def loaded_after(*argvs):
    """The scipy modules loaded after `import plqp, plqp.cli` and after each
    command, in one fresh interpreter."""
    return [set(mods) for mods in run_child(CHILD, json.dumps(argvs))]


def loaded_by(code):
    """The scipy modules loaded by `code`, run on the ball `g` in a fresh
    interpreter."""
    return set(run_child(SNIPPET_CHILD, code))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("cold")
    spec = square_grid(16, 3.0)
    for name, center in (("a", (0.0, 0.0)), ("b", (0.375, 0.0))):
        gridio.write_grid(make_ramp_ball(spec, center, 0.9, 0.5, guard=0.05), base / f"{name}.csv")
    (base / "radial.json").write_text(json.dumps(RADIAL_CONFIG))
    return base


def test_import_mms_and_curve_load_no_scipy(files):
    imported, mms, translate, dilate = loaded_after(
        ["mms", "--config", str(files / "radial.json"), "--out", str(files / "mms")],
        ["curve", "--kind", "translate", "--grid", str(files / "a.csv"), "--param", "0.1875,0",
         "--times", "0,0.5,1", "--out", str(files / "curve")],
        ["curve", "--kind", "dilate", "--grid", str(files / "a.csv"), "--param", "1.2",
         "--times", "0,0.5,1", "--guard", "0.05", "--out", str(files / "dilate")],
    )
    assert imported == mms == translate == dilate == set()


def test_mollify_loads_no_scipy():
    assert loaded_by(
        "from plqp.measures import MollifierConfig, mollify\n"
        "mollify(g, MollifierConfig(0.25))"
    ) == set()


def test_trace_characteristics_loads_no_ndimage():
    loaded = loaded_by(
        "from plqp.dynamics import trace_characteristics\n"
        "from plqp.measures import dilate_curve\n"
        "trace_characteristics(dilate_curve(g, 1.2, [0.0, 0.5, 1.0], guard=0.05), 200)"
    )
    # the W_1 comparison solves one transport LP
    assert "scipy.optimize" in loaded
    assert "scipy.ndimage" not in loaded


def modules_naming(word: str) -> list[str]:
    src = Path(plqp.__file__).resolve().parent
    return [p.name for p in sorted(src.glob("*.py")) if word in p.read_text()]


def test_no_plqp_module_names_ndimage():
    assert modules_naming("ndimage") == []


def test_no_plqp_module_reads_the_environment():
    assert modules_naming("environ") == []


def test_only_bottleneck_names_the_capacity_scaling():
    # what winf reads has one owner; callers key on bottleneck.instance_key
    assert modules_naming("scale_pair") == ["bottleneck.py"]


def test_bottleneck_distance_loads_csgraph_only(files):
    _, dist = loaded_after(["dist", "--q", "inf", str(files / "a.csv"), str(files / "b.csv")])
    assert "scipy.sparse.csgraph" in dist
    assert "scipy.optimize" not in dist and "scipy.ndimage" not in dist


def test_lp_commands_load_no_ndimage(files):
    manifest = files / "traj" / "curve_manifest.json"
    _, curve, *runs = loaded_after(
        ["curve", "--kind", "translate", "--grid", str(files / "a.csv"), "--param", "0.1875,0",
         "--times", "0,0.5,1", "--out", str(files / "traj")],
        ["dist", "--q", "2", str(files / "a.csv"), str(files / "b.csv")],
        ["reconstruct", "--manifest", str(manifest), "--norm", "linf"],
        ["reconstruct", "--manifest", str(manifest), "--norm", "l2"],
        ["bb", "--steps", "2", str(files / "a.csv"), str(files / "b.csv")],
    )
    assert curve == set()
    assert "scipy.optimize" in runs[0]
    assert "scipy.sparse.linalg" in runs[2]
    assert not any("scipy.ndimage" in mods for mods in runs)
    # alone, the l2 field is one sparse factorization: no LP solver loads
    _, _, l2 = loaded_after(
        ["curve", "--kind", "translate", "--grid", str(files / "a.csv"), "--param", "0.1875,0",
         "--times", "0,0.5,1", "--out", str(files / "traj_l2")],
        ["reconstruct", "--manifest", str(files / "traj_l2" / "curve_manifest.json"), "--norm", "l2"],
    )
    assert {"scipy.sparse.linalg", "scipy.sparse.csgraph"} <= l2
    assert "scipy.optimize" not in l2


def test_l2_reconstruction_has_no_iteration_settings():
    # the l2 field is a direct solve: no iteration cap or stopping tolerance
    assert modules_naming("iter_lim") == modules_naming("btol") == []
