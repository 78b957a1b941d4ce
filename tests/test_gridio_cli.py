import contextlib
import copy
import io
import json
import math
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plqp import cli, dynamics, gridio, mms
from plqp.errors import InputError
from plqp.measures import make_ramp_ball, translate_curve

from helpers import int_shift, square_grid, two_ball_swap


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "plqp.cli", *args], capture_output=True, text=True
    )


@pytest.fixture()
def ball_file(tmp_path):
    spec = square_grid(48, 3.0)
    ball = make_ramp_ball(spec, (0.0, 0.0), 0.9, 0.2)
    path = tmp_path / "ball.csv"
    gridio.write_grid(ball, path)
    return path, ball


# ---------------------------------------------------------------------------
# grid file format
# ---------------------------------------------------------------------------


def test_grid_roundtrip_bit_exact(tmp_path, ball_file):
    path, ball = ball_file
    back = gridio.read_grid(path)
    assert back.spec == ball.spec
    np.testing.assert_array_equal(back.values, ball.values)


def test_grid_header_format(ball_file):
    path, ball = ball_file
    header = path.read_text().splitlines()[0]
    assert header.startswith("#plqp-grid v1 dim=2 shape=48x48 h=")


def test_grid_read_errors(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(InputError, match="not found"):
        gridio.read_grid(missing)
    bad = tmp_path / "bad.csv"
    bad.write_text("not a header\n1,2\n")
    with pytest.raises(InputError, match="header"):
        gridio.read_grid(bad)


def test_grid_and_field_writers_share_one_layout(tmp_path):
    spec = square_grid(6, 1.5)
    vectors = np.arange(6 * 6 * 2, dtype=float).reshape(6, 6, 2) / 7
    gridio.write_field_snapshot(spec, vectors, tmp_path / "f.csv")
    text = (tmp_path / "f.csv").read_text()
    assert text.startswith("#plqp-field v1 dim=2 shape=6x6 h=0.25 origin=-0.625,-0.625\n")
    assert text.splitlines()[1] == ",".join(format(v, ".17g") for v in vectors[0].ravel())
    back_spec, back = gridio.read_field_snapshot(tmp_path / "f.csv")
    assert back_spec == spec
    np.testing.assert_array_equal(back, vectors)
    # each reader accepts only its own header
    with pytest.raises(InputError, match="plqp-grid header"):
        gridio.read_grid(tmp_path / "f.csv")


def reference_write(kind, spec, values, path):
    """A grid or field file written one format(v, ".17g") per value: the
    bytes `gridio._write` must reproduce."""
    shape = "x".join(str(s) for s in spec.shape)
    origin = ",".join(format(x, ".17g") for x in spec.origin)
    lines = [f"#plqp-{kind} v1 dim={spec.dim} shape={shape} h={spec.h:.17g} origin={origin}"]
    for row in values.reshape(spec.shape[0], -1):
        lines.append(",".join(format(v, ".17g") for v in row))
    path.write_text("\n".join(lines) + "\n")


def test_writers_match_the_per_value_reference(tmp_path):
    rng = np.random.default_rng(31)
    specials = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, 0.1, 1 / 3, 2.0**-1074 * 3])
    for dim, n in ((1, 7), (1, 40), (2, 5), (2, 48)):
        spec = square_grid(n, rng.uniform(0.5, 10.0), dim)
        values = rng.normal(0, 1, spec.shape) * 10.0 ** rng.integers(-300, 300, spec.shape)
        values.flat[: len(specials)] = specials[: values.size]
        vectors = rng.normal(0, 1, (*spec.shape, dim))
        vectors.flat[: len(specials)] = specials[: vectors.size]
        for kind, arr in (("grid", values), ("field", vectors)):
            gridio._write(kind, spec, arr, tmp_path / "got.csv")
            reference_write(kind, spec, arr, tmp_path / "want.csv")
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda lines: [lines[0].replace("h=0.0625", "h=abc")] + lines[1:], "header"),
        (lambda lines: [lines[0].replace("shape=48x48", "shape=48x")] + lines[1:], "header"),
        (lambda lines: [lines[0].replace("origin=", "origin=nan,")] + lines[1:], "header"),
        (lambda lines: lines[:3] + ["xyz," + lines[3].split(",", 1)[1]] + lines[4:], "numbers"),
        (lambda lines: lines[:3] + [lines[3] + ",0"] + lines[4:], "values"),
        (lambda lines: lines[:-1], "rows"),
    ],
    ids=["h", "shape", "origin", "value", "row_width", "row_count"],
)
def test_grid_read_malformed_is_input_error(tmp_path, ball_file, edit, match):
    path, _ = ball_file
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(InputError, match=match):
        gridio.read_grid(bad)
    r = run_cli("dist", str(bad), str(path))
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr


def test_grid_read_binary_is_input_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"#plqp-grid v1 \xff\xfe\n")
    with pytest.raises(InputError, match="text"):
        gridio.read_grid(bad)


def test_trajectory_roundtrip(tmp_path):
    spec = square_grid(32, 2.4)
    ball = make_ramp_ball(spec, (0.0, 0.0), 0.7, 0.2, guard=0.02)
    traj = translate_curve(ball, (0.2, 0.1), [0.0, 0.5, 1.0])
    manifest = gridio.save_trajectory(traj, tmp_path / "traj")
    back = gridio.load_trajectory(manifest)
    assert back.times == traj.times
    for a, b in zip(back.densities, traj.densities):
        np.testing.assert_array_equal(a.values, b.values)
    for a, b in zip(back.field.vectors, traj.field.vectors):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_dist_identical_zero(ball_file):
    path, _ = ball_file
    r = run_cli("dist", "--q", "inf", "--p", "inf", str(path), str(path))
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["total"] == 0.0
    assert "quantization_bound" in payload


def test_cli_dist_missing_file_exit_2(tmp_path, ball_file):
    path, _ = ball_file
    missing = tmp_path / "missing.csv"
    r = run_cli("dist", str(missing), str(path))
    assert r.returncode == 2
    assert "missing.csv" in r.stderr


def test_cli_dist_indicator_pair(tmp_path):
    # 1D indicator pair: W_1 + L^1 = 1.5 up to grid quantization
    from helpers import indicator_interval, line_grid

    spec = line_grid(160, 4.0, left=-1.0)
    f = indicator_interval(spec, 0.0, 1.0)
    g = indicator_interval(spec, 0.5, 1.5)
    fa, ga = tmp_path / "f.csv", tmp_path / "g.csv"
    gridio.write_grid(f, fa)
    gridio.write_grid(g, ga)
    r = run_cli("dist", "--q", "1.5", "--p", "1", str(fa), str(ga))
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["lp_part"] == pytest.approx(1.0, abs=2 * spec.h)
    assert payload["transport_part"] == pytest.approx(0.5, abs=2 * spec.h)


def test_cli_dist_bad_exponent_exit_2(ball_file):
    path, _ = ball_file
    r = run_cli("dist", "--q", "abc", str(path), str(path))
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr


def test_cli_isop(ball_file):
    path, ball = ball_file
    r = run_cli("isop", str(path))
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    from plqp.functionals import isop

    assert payload["value"] == pytest.approx(isop(ball).value, abs=1e-12)


def test_cli_determinism(ball_file):
    path, _ = ball_file
    a = run_cli("dist", "--q", "2", "--p", "2", str(path), str(path))
    b = run_cli("dist", "--q", "2", "--p", "2", str(path), str(path))
    assert a.stdout == b.stdout


def test_cli_bb_and_manifest(tmp_path, ball_file):
    path, ball = ball_file
    end = translate_curve(ball, (3 * ball.spec.h, 0.0), [0.0, 1.0]).densities[-1]
    other = tmp_path / "end.csv"
    gridio.write_grid(end, other)
    out = tmp_path / "bbout"
    r = run_cli("bb", "--steps", "4", str(path), str(other), "--out", str(out))
    assert r.returncode == 0
    report = json.loads((out / "bb_report.json").read_text())
    assert report["lower_bound_ok"]
    manifest = json.loads((out / "manifest.json").read_text())
    names = {f["path"] for f in manifest["files"]}
    assert "bb_report.json" in names
    for entry in manifest["files"]:
        assert len(entry["sha256"]) == 64


def test_cli_curve_reconstruct_roundtrip(tmp_path, ball_file):
    path, ball = ball_file
    out = tmp_path / "curve"
    h = ball.spec.h
    times = ",".join(str(k * 0.25) for k in range(5))
    r = run_cli(
        "curve", "--kind", "translate", "--grid", str(path),
        "--param", f"{h},0", "--times", times, "--out", str(out),
    )
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["residual_max"] >= 0
    r2 = run_cli("reconstruct", "--manifest", str(out / "curve_manifest.json"), "--norm", "linf")
    assert r2.returncode == 0
    rec = json.loads(r2.stdout)
    assert len(rec["interval_sup_norms"]) == 4


def test_cli_curve_negative_param(tmp_path, ball_file):
    # a value starting with "-" must be attached with "=", or argparse reads
    # it as an option; a leftward whole-cell translation is an exact shift
    path, ball = ball_file
    out = tmp_path / "curve"
    h = ball.spec.h
    r = run_cli(
        "curve", "--kind", "translate", "--grid", str(path),
        f"--param=-{h!r},0", "--times", "0,1,2", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    for k in range(3):
        state = gridio.read_grid(out / f"curve_{k:04d}.csv")
        np.testing.assert_array_equal(state.values, int_shift(ball.values, 0, -k))


RADIAL_CONFIG = {
    "anchor": {
        "kind": "multiball",
        "grid": {"n": 32, "extent": 6.0},
        "centers": [[-1.4, 0.0], [1.4, 0.0]],
        "radii": [0.9, 0.9],
        "weights": [0.75, 0.25],
        "w": 0.4,
    },
    "family": {
        "kind": "radial",
        "centers": [[-1.4, 0.0], [1.4, 0.0]],
        "outer_radii": [1.2, 1.2],
        "rings": 4,
        "levels": 8,
    },
    "tau": 0.1,
    "steps": 2,
    "seed": 0,
}

GRID_CONFIG = {
    "anchor": {
        "kind": "ramp_ball",
        "grid": {"n": 16, "extent": 4.0},
        "center": [0.0, 0.0],
        "R": 1.0,
        "w": 0.6,
        "guard": 0.05,
    },
    "family": {"kind": "grid", "quantum": 1e-3, "budget": 4, "coarse_bins": 8},
    "tau": 2.0,
    "steps": 2,
}


def test_cli_mms_roundtrip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(RADIAL_CONFIG))
    out = tmp_path / "mmsout"
    r = run_cli("mms", "--config", str(cfg_path), "--out", str(out))
    assert r.returncode == 0, r.stderr
    ledger = json.loads((out / "ledger.json").read_text())
    phis = [ledger["phi_initial"]] + [s["phi"] for s in ledger["steps"]]
    assert all(a >= b - 1e-12 for a, b in zip(phis, phis[1:]))
    assert (out / "state_0000.csv").exists()
    assert (out / "manifest.json").exists()


def test_cli_mms_grid_family(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(GRID_CONFIG))
    out = tmp_path / "mmsout"
    r = run_cli("mms", "--config", str(cfg_path), "--out", str(out))
    assert r.returncode == 0, r.stderr
    ledger = json.loads((out / "ledger.json").read_text())
    phis = [ledger["phi_initial"]] + [s["phi"] for s in ledger["steps"]]
    assert all(a >= b - 1e-12 for a, b in zip(phis, phis[1:]))
    spent = 0.0
    for phi, step in zip(phis[1:], ledger["steps"]):
        spent += step["movement"] ** 2 / (2 * step["tau"])
        assert phi + spent <= phis[0] + 1e-9
    assert (out / "state_0002.csv").exists()


def test_cli_mms_bad_config_exit_2(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"anchor": {"kind": "nope"}}))
    out = tmp_path / "mmsout"
    r = run_cli("mms", "--config", str(cfg_path), "--out", str(out))
    assert r.returncode == 2
    assert not out.exists()


@pytest.mark.parametrize("quantum", [-0.001, 0.0])
def test_cli_mms_nonpositive_quantum_exits_2(tmp_path, quantum):
    cfg = copy.deepcopy(GRID_CONFIG)
    cfg["family"]["quantum"] = quantum
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "mmsout"
    r = run_cli("mms", "--config", str(cfg_path), "--out", str(out))
    assert r.returncode == 2
    assert r.stderr.startswith("error: move quantum must be positive")
    assert "Traceback" not in r.stderr
    assert not out.exists()


def test_cli_failed_run_removes_only_an_out_dir_it_created(tmp_path, monkeypatch):
    keep = tmp_path / "keep"
    keep.mkdir()
    (keep / "notes.txt").write_text("mine\n")
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"anchor": {"kind": "nope"}}))
    rc, err = run_main("mms", "--config", str(cfg_path), "--out", str(keep))
    assert rc == 2, err
    assert (keep / "notes.txt").read_text() == "mine\n"
    # a run that fails after writing its outputs: the directory it created
    # goes, the one that was there stays with the user's file in it
    grid = tmp_path / "ball.csv"
    gridio.write_grid(make_ramp_ball(square_grid(12, 3.0), (0.0, 0.0), 0.9, 0.5, guard=0.05), grid)

    def fail(out_dir):
        raise InputError("manifest refused")

    monkeypatch.setattr(cli, "_write_manifest", fail)
    for out in (tmp_path / "fresh", keep):
        rc, err = run_main("curve", "--kind", "translate", "--grid", str(grid),
                           "--param=0.125,0", "--times=0,1,2", "--out", str(out))
        assert rc == 2 and "manifest refused" in err, err
    assert not (tmp_path / "fresh").exists()
    assert (keep / "notes.txt").read_text() == "mine\n"


def test_cli_oracle():
    r = run_cli("oracle", "--instances", "8", "--seed", "3")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["pass"] is True
    assert payload["winf_vs_permutation_max_abs"] <= 1e-9
    # the line route against the all-pairs LP, under the key that says so
    assert payload["line_vs_lp_1d_max_abs"] <= 1e-9
    assert "wq_vs_monotone1d_max_abs" not in payload


@pytest.mark.parametrize("instances", ["0", "-3", "4097"])
def test_cli_oracle_needs_an_instance(instances):
    # a pass on zero instances would be vacuous; past the cap, the instance
    # lists would grow without bound before anything is solved
    rc, err = run_main("oracle", "--instances", instances)
    assert rc == 2 and "--instances" in err, err


# ---------------------------------------------------------------------------
# malformed values: exit 2 (or a clean 0 / 3), never a traceback
# ---------------------------------------------------------------------------


def main_output(*argv):
    """cli.main in-process: (exit code, stdout, stderr).  An exception
    escaping main fails the test with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage error
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def run_main(*argv):
    """cli.main in-process: (exit code, stderr)."""
    rc, _, err = main_output(*argv)
    return rc, err


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    spec = square_grid(16, 3.0)
    for name, center in (("a", (0.0, 0.0)), ("b", (0.375, 0.0))):
        gridio.write_grid(make_ramp_ball(spec, center, 0.9, 0.5, guard=0.05), base / f"{name}.csv")
    return base


def assert_clean_exit(rc, err, out):
    assert rc in (0, 2, 3), err
    assert "Traceback" not in err
    if rc != 0:
        assert not out.exists()
    shutil.rmtree(out, ignore_errors=True)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    flag=st.sampled_from(["times", "translate", "dilate", "q", "p"]),
    value=st.text(alphabet="0123456789.,-+eEinfaxN ", max_size=8),
)
def test_cli_malformed_flag_values(fuzz_dir, flag, value):
    a, b, out = fuzz_dir / "a.csv", fuzz_dir / "b.csv", fuzz_dir / "out"
    if flag in ("q", "p"):
        other = "p" if flag == "q" else "q"
        argv = ["dist", f"--{flag}={value}", f"--{other}=2", str(a), str(b)]
    else:
        kind = "dilate" if flag == "dilate" else "translate"
        param = {"times": "0.05,0", "translate": value, "dilate": value}[flag]
        times = f"0,{value}" if flag == "times" else "0,0.5"
        argv = ["curve", "--kind", kind, "--grid", str(a), f"--param={param}",
                f"--times={times}", "--out", str(out)]
    assert_clean_exit(*run_main(*argv), out)


MALFORMED = ["abc", "", None, [], {}, [1.0, "x"], float("nan"), float("inf"), -float("inf"), 10**400]
# (config, path to the field, whether the field is an integer)
CONFIG_FIELDS = [
    (RADIAL_CONFIG, ("anchor",), False),
    (RADIAL_CONFIG, ("anchor", "grid"), False),
    (RADIAL_CONFIG, ("anchor", "grid", "n"), True),
    (RADIAL_CONFIG, ("anchor", "grid", "extent"), False),
    (RADIAL_CONFIG, ("anchor", "centers"), False),
    (RADIAL_CONFIG, ("anchor", "centers", 0), False),
    (RADIAL_CONFIG, ("anchor", "centers", 1, 0), False),
    (RADIAL_CONFIG, ("anchor", "radii", 1), False),
    (RADIAL_CONFIG, ("anchor", "weights"), False),
    (RADIAL_CONFIG, ("anchor", "w"), False),
    (RADIAL_CONFIG, ("family",), False),
    (RADIAL_CONFIG, ("family", "centers", 0, 1), False),
    (RADIAL_CONFIG, ("family", "outer_radii"), False),
    (RADIAL_CONFIG, ("family", "rings"), True),
    (RADIAL_CONFIG, ("family", "levels"), True),
    (RADIAL_CONFIG, ("tau",), False),
    (RADIAL_CONFIG, ("taus",), False),
    (RADIAL_CONFIG, ("steps",), True),
    (RADIAL_CONFIG, ("seed",), True),
    (RADIAL_CONFIG, ("cross_check_every",), True),
    (GRID_CONFIG, ("anchor", "center"), False),
    (GRID_CONFIG, ("anchor", "center", 1), False),
    (GRID_CONFIG, ("anchor", "R"), False),
    (GRID_CONFIG, ("anchor", "guard"), False),
    (GRID_CONFIG, ("anchor", "grid_file"), False),
    (GRID_CONFIG, ("family", "quantum"), False),
    (GRID_CONFIG, ("family", "budget"), True),
    (GRID_CONFIG, ("family", "coarse_bins"), True),
]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(field=st.sampled_from(CONFIG_FIELDS), data=st.data())
def test_cli_mms_malformed_config_values(fuzz_dir, field, data):
    base, path, integer = field
    value = data.draw(st.sampled_from(MALFORMED + ([2.5] if integer else [])))
    cfg = copy.deepcopy(base)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cfg_path, out = fuzz_dir / "cfg.json", fuzz_dir / "out"
    cfg_path.write_text(json.dumps(cfg))
    rc, err = run_main("mms", "--config", str(cfg_path), "--out", str(out))
    assert rc == 2, err
    assert_clean_exit(rc, err, out)


def test_cli_malformed_config_document(fuzz_dir):
    cfg_path, out = fuzz_dir / "doc.json", fuzz_dir / "out"
    for doc in ([1, 2], "abc", 3.5, None):
        cfg_path.write_text(json.dumps(doc))
        rc, err = run_main("mms", "--config", str(cfg_path), "--out", str(out))
        assert rc == 2, err
        assert_clean_exit(rc, err, out)
    # a directory, and a file that is not UTF-8 text
    cfg_path.write_bytes(b"\xff\xfe{}")
    for path in (fuzz_dir, cfg_path):
        rc, err = run_main("mms", "--config", str(path), "--out", str(out))
        assert rc == 2, err
        assert_clean_exit(rc, err, out)


@pytest.mark.parametrize(
    "config, field, value, message",
    [
        (RADIAL_CONFIG, "rings", 0, "rings must be in 1..8"),
        (RADIAL_CONFIG, "levels", 0, "levels must be >= 1"),
        (GRID_CONFIG, "budget", -1, "move budget must be >= 0"),
        (GRID_CONFIG, "coarse_bins", 0, "coarse_bins must be >= 1"),
    ],
)
def test_cli_mms_family_bounds_exit_2_with_the_family_message(tmp_path, config, field, value, message):
    cfg = copy.deepcopy(config)
    cfg["family"][field] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "mmsout"
    rc, err = run_main("mms", "--config", str(cfg_path), "--out", str(out))
    assert rc == 2
    assert err.startswith(f"error: {message}")
    assert_clean_exit(rc, err, out)


# one ramp ball, one radial component
ONE_BALL_CONFIG = dict(
    GRID_CONFIG,
    family={"kind": "radial", "centers": [[0.0, 0.0]], "outer_radii": [1.3], "rings": 4, "levels": 8},
    tau=0.1,
    steps=1,
)


@pytest.mark.parametrize(
    "edit",
    [
        {},
        {"outer_radii": [1.3, 1.3]},  # one center, two radii
        {"centers": [[0.0, 0.0], [1.0, 1.0]]},  # two centers, one radius
        {"centers": [[0.0, 0.0], [1.0, 1.0]], "outer_radii": [1.3, -0.5]},
        {"outer_radii": [0.0]},
    ],
)
def test_cli_mms_radial_family_shape(fuzz_dir, edit):
    # the family's centers and outer radii must pair up, with positive radii
    cfg = copy.deepcopy(ONE_BALL_CONFIG)
    cfg["family"].update(edit)
    cfg_path, out = fuzz_dir / "family.json", fuzz_dir / "out"
    cfg_path.write_text(json.dumps(cfg))
    rc, err = run_main("mms", "--config", str(cfg_path), "--out", str(out))
    assert rc == (0 if not edit else 2), err
    assert_clean_exit(rc, err, out)


GRID_PARTS = ["dim", "shape", "h", "origin", "value", "row"]


def mangle(text: str, part: str, junk: str) -> str:
    """`text` (a grid or field file) with one header field, one value or one
    row replaced by `junk`."""
    lines = text.splitlines()
    if part == "value":
        row = lines[5].split(",")
        row[3] = junk
        lines[5] = ",".join(row)
    elif part == "row":
        lines[5] = junk
    else:
        lines[0] = re.sub(rf"{part}=\S+", lambda _: f"{part}={junk}", lines[0])
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None, derandomize=True)
@given(part=st.sampled_from(GRID_PARTS), junk=st.text(alphabet="0123456789.,-+eEinfaxN ", max_size=8))
def test_cli_malformed_grid_files(fuzz_dir, part, junk):
    bad, b, out = fuzz_dir / "bad.csv", fuzz_dir / "b.csv", fuzz_dir / "out"
    bad.write_text(mangle((fuzz_dir / "a.csv").read_text(), part, junk))
    assert_clean_exit(*run_main("dist", str(bad), str(b)), out)
    assert_clean_exit(*run_main("isop", str(bad)), out)


# header values no grid may be read with, and the numeric ones a grid may
HEADER_JUNK = ["nan", "inf", "-inf", "-0", "0", "3", "1e400", ""]
VALUE_JUNK = ["abc", "", "nan", "-inf", "1e400", "1,2"]
GRID_FAULTS = ["none", "header", "rows", "columns", "negative", "value", "ring"]


def grid_text(n: int, h: float, values: np.ndarray) -> str:
    header = f"#plqp-grid v1 dim=2 shape={n}x{n} h={h!r} origin=0,0"
    return "\n".join([header] + [",".join(format(v, ".17g") for v in row) for row in values]) + "\n"


@st.composite
def grid_pairs(draw):
    """(fault, texts of two plqp-grid files on one small 2D grid): a valid
    unit-mass grid second, and first another one with the fault drawn from
    GRID_FAULTS: a junk header field, a row or a value too many or too few,
    a negative or junk value, or unit mass with a nonzero boundary-ring cell."""
    n = draw(st.integers(4, 7))
    h = draw(st.sampled_from([0.125, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fault = draw(st.sampled_from(GRID_FAULTS))

    def unit_mass(ring: bool) -> np.ndarray:
        vals = np.zeros((n, n))
        vals[1:-1, 1:-1] = rng.uniform(0.0, 1.0, (n - 2, n - 2))
        if ring:
            vals[draw(st.sampled_from([0, n - 1])), draw(st.integers(0, n - 1))] = rng.uniform(0.1, 1.0)
        return vals / (vals.sum() * h * h)

    good = grid_text(n, h, unit_mass(False))
    vals = unit_mass(fault == "ring")
    i, j = draw(st.integers(1, n - 2)), draw(st.integers(1, n - 2))
    if fault == "negative":
        vals[i, j] = -vals[i, j] - 1.0
    lines = grid_text(n, h, vals).splitlines()
    if fault == "header":
        field = draw(st.sampled_from(["dim", "shape", "h", "origin"]))
        junk = draw(st.sampled_from(HEADER_JUNK))
        if field == "origin":
            junk = draw(st.sampled_from([junk, f"{junk},0", f"0,{junk}", f"0,0,{junk}"]))
        lines[0] = re.sub(rf"{field}=\S+", lambda _: f"{field}={junk}", lines[0])
    elif fault == "rows":
        lines[i:i + 1] = [] if draw(st.booleans()) else [lines[i]] * 2
    elif fault == "columns":
        lines[i] = lines[i].rsplit(",", 1)[0] if draw(st.booleans()) else lines[i] + ",0"
    elif fault == "value":
        row = lines[i].split(",")
        row[j] = draw(st.sampled_from(VALUE_JUNK))
        lines[i] = ",".join(row)
    return fault, "\n".join(lines) + "\n", good


def numbers(payload):
    """Every number in a JSON payload."""
    if isinstance(payload, dict):
        payload = list(payload.values())
    if isinstance(payload, list):
        return [x for item in payload for x in numbers(item)]
    return [payload] if isinstance(payload, (int, float)) and not isinstance(payload, bool) else []


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(case=grid_pairs())
def test_cli_generated_grid_files(fuzz_dir, case):
    # isop and dist at q = 2 and q = inf keep the CLI's promise on every
    # generated grid: a clean exit 0, 2 or 3, and finite numbers on exit 0
    fault, text, good_text = case
    bad, good = fuzz_dir / "generated.csv", fuzz_dir / "generated_good.csv"
    bad.write_text(text)
    good.write_text(good_text)
    for argv in (["isop", str(bad)], ["dist", "--q", "2", str(bad), str(good)],
                 ["dist", "--q", "inf", str(bad), str(good)]):
        rc, out, err = main_output(*argv)
        assert rc in (0, 2, 3), err
        assert "Traceback" not in err
        if rc == 0:
            assert all(math.isfinite(x) for x in numbers(json.loads(out))), out
        else:
            assert err.startswith(("error:", "infeasible:")), err
        if fault in ("none", "ring"):
            assert rc == (0 if fault == "none" else 2), err


# a spacing whose cell volume h^2 overflows: each reading command exited 1
# with OverflowError from GridSpec.cell_volume


@pytest.fixture(scope="module")
def huge_h(fuzz_dir):
    path = fuzz_dir / "huge_h.csv"
    path.write_text(mangle((fuzz_dir / "a.csv").read_text(), "h", "1e300"))
    return str(path)


def assert_spacing_overflow_exits_2(argv, out):
    rc, err = run_main(*argv)
    assert rc == 2 and err.startswith("error: spacing h = 1e+300 overflows the cell volume"), err
    assert_clean_exit(rc, err, out)


def test_cli_isop_spacing_overflow_exits_2(huge_h, fuzz_dir):
    assert_spacing_overflow_exits_2(["isop", huge_h], fuzz_dir / "out")


@pytest.mark.parametrize("q", ["2", "inf"])
def test_cli_dist_spacing_overflow_exits_2(huge_h, fuzz_dir, q):
    assert_spacing_overflow_exits_2(["dist", "--q", q, str(fuzz_dir / "a.csv"), huge_h], fuzz_dir / "out")


def test_cli_bb_spacing_overflow_exits_2(huge_h, fuzz_dir):
    out = fuzz_dir / "out"
    assert_spacing_overflow_exits_2(["bb", huge_h, huge_h, "--out", str(out)], out)


def test_cli_curve_spacing_overflow_exits_2(huge_h, fuzz_dir):
    out = fuzz_dir / "out"
    argv = ["curve", "--kind", "translate", "--grid", huge_h, "--param=0.1875,0", "--times=0,1", "--out", str(out)]
    assert_spacing_overflow_exits_2(argv, out)


def test_cli_mms_anchor_extent_overflow_exits_2(fuzz_dir):
    cfg = json.loads(json.dumps(GRID_CONFIG))
    cfg["anchor"]["grid"]["extent"] = 1e300
    cfg_path, out = fuzz_dir / "huge_extent.json", fuzz_dir / "out"
    cfg_path.write_text(json.dumps(cfg))
    rc, err = run_main("mms", "--config", str(cfg_path), "--out", str(out))
    assert rc == 2 and err.startswith("error: spacing h = 6.25e+298 overflows the cell volume"), err
    assert_clean_exit(rc, err, out)


# integers past a size cap: each exited 1 with a traceback (an allocation
# numpy refused, or an int too large for an index) before its cap


@pytest.mark.parametrize("steps", [10**10, 10**20, dynamics.MAX_BB_STEPS + 1])
def test_cli_bb_steps_above_the_cap_exit_2(fuzz_dir, steps):
    # 10^10 raised _ArrayMemoryError and 10^20 ValueError in np.linspace
    out = fuzz_dir / "out"
    a, b = str(fuzz_dir / "a.csv"), str(fuzz_dir / "b.csv")
    rc, err = run_main("bb", "--steps", str(steps), a, b, "--out", str(out))
    assert rc == 2 and err.startswith(f"error: steps must be at most {dynamics.MAX_BB_STEPS}"), err
    assert_clean_exit(rc, err, out)


def assert_config_cap_exits_2(fuzz_dir, config, path, value, message):
    cfg = copy.deepcopy(config)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cfg_path, out = fuzz_dir / "capped.json", fuzz_dir / "out"
    cfg_path.write_text(json.dumps(cfg))
    rc, err = run_main("mms", "--config", str(cfg_path), "--out", str(out))
    assert rc == 2 and err.startswith(f"error: {message}"), err
    assert_clean_exit(rc, err, out)


@pytest.mark.parametrize("levels", [2**63, mms.MAX_LEVELS + 1])
def test_cli_mms_levels_above_the_cap_exit_2(fuzz_dir, levels):
    # 2^63 raised IndexError
    message = f"levels must be at most {mms.MAX_LEVELS}"
    assert_config_cap_exits_2(fuzz_dir, RADIAL_CONFIG, ("family", "levels"), levels, message)


@pytest.mark.parametrize("steps", [2**63, mms.MAX_STEPS + 1])
def test_cli_mms_steps_above_the_cap_exit_2(fuzz_dir, steps):
    # 2^63 raised OverflowError building the uniform partition
    message = f"steps must be at most {mms.MAX_STEPS}"
    assert_config_cap_exits_2(fuzz_dir, RADIAL_CONFIG, ("steps",), steps, message)


def test_cli_mms_taus_above_the_step_cap_exit_2(fuzz_dir):
    taus = [0.1] * (mms.MAX_STEPS + 1)
    message = f"steps must be at most {mms.MAX_STEPS}"
    assert_config_cap_exits_2(fuzz_dir, RADIAL_CONFIG, ("taus",), taus, message)


@pytest.mark.parametrize("bins", [2**63, mms.MAX_COARSE_BINS + 1])
def test_cli_mms_coarse_bins_above_the_cap_exit_2(fuzz_dir, bins):
    # 2^63 raised ValueError from numpy ("Maximum allowed dimension exceeded")
    message = f"coarse_bins must be at most {mms.MAX_COARSE_BINS}"
    assert_config_cap_exits_2(fuzz_dir, GRID_CONFIG, ("family", "coarse_bins"), bins, message)


@pytest.mark.parametrize("budget", [2**63, mms.MAX_BUDGET + 1])
def test_cli_mms_budget_above_the_cap_exit_2(fuzz_dir, budget):
    # a huge budget ran scan after scan for as long as moves kept improving
    message = f"move budget must be at most {mms.MAX_BUDGET}"
    assert_config_cap_exits_2(fuzz_dir, GRID_CONFIG, ("family", "budget"), budget, message)


@pytest.mark.parametrize("n", [2**40, cli.MAX_ANCHOR_N + 1])
def test_cli_mms_grid_n_above_the_cap_exit_2(fuzz_dir, n):
    # 2^40 raised _ArrayMemoryError building the anchor's cell centers
    message = f"grid n must be at most {cli.MAX_ANCHOR_N}"
    assert_config_cap_exits_2(fuzz_dir, RADIAL_CONFIG, ("anchor", "grid", "n"), n, message)


@pytest.fixture(scope="module")
def fuzz_trajectory(fuzz_dir):
    out = fuzz_dir / "traj"
    rc, err = run_main("curve", "--kind", "translate", "--grid", str(fuzz_dir / "a.csv"),
                       "--param=0.1875,0", "--times=0,1,2", "--out", str(out))
    assert rc == 0, err
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(part=st.sampled_from(GRID_PARTS), junk=st.text(alphabet="0123456789.,-+eEinfaxN ", max_size=8))
def test_cli_malformed_field_files(fuzz_trajectory, part, junk):
    copy_dir = fuzz_trajectory.parent / "traj_bad"
    shutil.rmtree(copy_dir, ignore_errors=True)
    shutil.copytree(fuzz_trajectory, copy_dir)
    field = copy_dir / "curve_field_0001.csv"
    field.write_text(mangle(field.read_text(), part, junk))
    rc, err = run_main("reconstruct", "--manifest", str(copy_dir / "curve_manifest.json"))
    assert_clean_exit(rc, err, fuzz_trajectory.parent / "out")


def edit_manifest(fuzz_trajectory, edit):
    """A copy of the fuzz trajectory whose manifest document is `edit(doc)`;
    returns the copied manifest's path."""
    copy_dir = fuzz_trajectory.parent / "traj_manifest"
    shutil.rmtree(copy_dir, ignore_errors=True)
    shutil.copytree(fuzz_trajectory, copy_dir)
    path = copy_dir / "curve_manifest.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return path


def set_at(doc, where, value):
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    return doc


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: set_at(doc, ("states", 1, "time"), "abc"),
        lambda doc: set_at(doc, ("states", 0, "grid"), 5),
        lambda doc: [doc],
        lambda doc: set_at(doc, ("states", 2, "time"), float("nan")),
        lambda doc: set_at(doc, ("fields", 0, "time"), 10**400),
        lambda doc: set_at(doc, ("states",), {"time": 0.0}),
        lambda doc: {k: v for k, v in doc.items() if k != "states"},
    ],
    ids=["time_text", "grid_number", "list_document", "time_nan", "time_huge", "states_object",
         "no_states"],
)
def test_load_trajectory_malformed_manifest_is_input_error(fuzz_trajectory, edit):
    path = edit_manifest(fuzz_trajectory, edit)
    with pytest.raises(InputError):
        gridio.load_trajectory(path)
    rc, err = run_main("reconstruct", "--manifest", str(path))
    assert rc == 2 and "Traceback" not in err, err


def test_load_trajectory_not_json_is_input_error(tmp_path):
    for name, data in (("text.json", b"{not json"), ("binary.json", b"\xff\xfe{}")):
        (tmp_path / name).write_bytes(data)
        with pytest.raises(InputError, match="JSON"):
            gridio.load_trajectory(tmp_path / name)
    with pytest.raises(InputError, match="not found"):
        gridio.load_trajectory(tmp_path)


# places in a trajectory manifest a fuzzed value can replace
MANIFEST_PARTS = [
    (),
    ("format",),
    ("states",),
    ("states", 0),
    ("states", 1, "time"),
    ("states", 2, "grid"),
    ("fields",),
    ("fields", 1),
    ("fields", 0, "time"),
    ("fields", 1, "field"),
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    where=st.sampled_from(MANIFEST_PARTS),
    value=st.one_of(
        st.sampled_from(MALFORMED + [True, -1, 0.5, 3, "curve_0000.csv", "missing.csv"]),
        st.text(alphabet="0123456789.,-+eEinfaxN/ ", max_size=8),
    ),
)
def test_cli_malformed_manifests(fuzz_trajectory, where, value):
    path = edit_manifest(fuzz_trajectory, lambda doc: set_at(doc, where, value) if where else value)
    rc, err = run_main("reconstruct", "--manifest", str(path))
    assert_clean_exit(rc, err, fuzz_trajectory.parent / "out")


@pytest.mark.parametrize("norm", ["l2", "linf"])
def test_cli_reconstruct_unroutable_swap_exits_3(tmp_path, norm):
    manifest = gridio.save_trajectory(two_ball_swap(0.1), tmp_path / "swap")
    rc, err = run_main("reconstruct", "--manifest", str(manifest), "--norm", norm)
    assert rc == 3
    assert "mass 0.1 cannot move" in err
    assert "Traceback" not in err


def test_cli_curve_dilate_guard(tmp_path):
    # a 12^2 ramp ball dilated by 1.2 renormalizes by about 3%: rejected
    # under the default guard, accepted under a looser one
    spec = square_grid(12, 4.0)
    path = tmp_path / "ball.csv"
    gridio.write_grid(make_ramp_ball(spec, (0.0, 0.0), 1.0, 0.4, guard=0.05), path)
    out = tmp_path / "dilate"
    argv = ["curve", "--kind", "dilate", "--grid", str(path), "--param", "1.2",
            "--times", "0,0.5,1", "--out", str(out)]
    rc, err = run_main(*argv)
    assert rc == 2 and "grid too coarse" in err
    assert not out.exists()
    rc, err = run_main(*argv, "--guard", "0.05")
    assert rc == 0, err
    traj = gridio.load_trajectory(out / "curve_manifest.json")
    assert len(traj) == 3
    for g in traj.densities:
        assert g.mass == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("param, times", [("1e200", "0,1"), ("1.2", "0,1e308"), ("0.5", "0,1,3")])
def test_cli_curve_dilate_bad_factor_exits_2(fuzz_dir, tmp_path, param, times):
    out = tmp_path / "out"
    rc, err = run_main("curve", "--kind", "dilate", "--grid", str(fuzz_dir / "a.csv"),
                       "--param", param, "--times", times, "--out", str(out))
    assert rc == 2 and err.startswith("error: dilation factor")
    assert_clean_exit(rc, err, out)


@pytest.mark.parametrize("guard", ["abc", "", "nan", "inf", "1e-3x"])
def test_cli_curve_malformed_guard_exits_2(fuzz_dir, guard):
    out = fuzz_dir / "out"
    for kind, param in (("dilate", "1.2"), ("translate", "0.1875,0")):
        rc, err = run_main("curve", "--kind", kind, "--grid", str(fuzz_dir / "a.csv"),
                           f"--param={param}", "--times=0,1", f"--guard={guard}", "--out", str(out))
        assert rc == 2 and "--guard" in err
        assert_clean_exit(rc, err, out)


# ---------------------------------------------------------------------------
# an unwritable --out, and one parser for every call of main
# ---------------------------------------------------------------------------


def json_out_argv(cmd, fuzz_dir, out):
    """A cheap successful run of a command whose --out is a JSON file."""
    a, b = str(fuzz_dir / "a.csv"), str(fuzz_dir / "b.csv")
    if cmd == "reconstruct":
        traj = translate_curve(gridio.read_grid(a), (0.1875, 0.0), [0.0, 1.0])
        manifest = gridio.save_trajectory(traj, fuzz_dir / "translate")
        return ["reconstruct", "--manifest", str(manifest), "--norm", "l2", "--out", str(out)]
    return {
        "dist": ["dist", "--q", "2", "--p", "2", a, b, "--out", str(out)],
        "isop": ["isop", a, "--out", str(out)],
        "oracle": ["oracle", "--instances", "2", "--out", str(out)],
    }[cmd]


def dir_out_argv(cmd, fuzz_dir, out):
    """A cheap run of a command whose --out is an artifact directory."""
    a, b = str(fuzz_dir / "a.csv"), str(fuzz_dir / "b.csv")
    if cmd == "mms":
        cfg = out.parent / "cfg.json"
        cfg.write_text(json.dumps({**GRID_CONFIG, "steps": 1}))
        return ["mms", "--config", str(cfg), "--out", str(out)]
    return {
        "curve": ["curve", "--kind", "translate", "--grid", a, "--param=0.1875,0",
                  "--times=0,1", "--out", str(out)],
        "bb": ["bb", a, b, "--out", str(out)],
    }[cmd]


def assert_error_exit(rc, err):
    assert rc == 2, err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("cmd", ["dist", "isop", "oracle", "reconstruct"])
def test_cli_out_in_a_missing_directory_exits_2(tmp_path, fuzz_dir, cmd):
    out = tmp_path / "missing" / "x.json"
    rc, err = run_main(*json_out_argv(cmd, fuzz_dir, out))
    assert_error_exit(rc, err)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("cmd", ["dist", "isop", "oracle", "reconstruct"])
def test_cli_out_that_is_a_directory_exits_2(tmp_path, fuzz_dir, cmd):
    out = tmp_path / "some_dir"
    out.mkdir()
    rc, err = run_main(*json_out_argv(cmd, fuzz_dir, out))
    assert_error_exit(rc, err)
    assert out.is_dir() and not any(out.iterdir())


@pytest.mark.parametrize("cmd", ["mms", "curve", "bb"])
def test_cli_out_directory_that_is_a_file_exits_2(tmp_path, fuzz_dir, cmd, monkeypatch):
    out = tmp_path / "existing_file"
    out.write_text("mine\n")

    def never(*args, **kwargs):
        raise AssertionError("the solve ran before --out was checked")

    monkeypatch.setattr(cli, "run_scheme", never)
    monkeypatch.setattr(cli, "bb_verify", never)
    rc, err = run_main(*dir_out_argv(cmd, fuzz_dir, out))
    assert_error_exit(rc, err)
    assert out.read_text() == "mine\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["existing_file"] + (["cfg.json"] if cmd == "mms" else [])
    )


def test_cli_parser_is_built_once_and_survives_failures(tmp_path, fuzz_dir):
    assert cli.build_parser() is cli.build_parser()
    dist = ["dist", "--q", "inf", "--p", "2", str(fuzz_dir / "a.csv"), str(fuzz_dir / "b.csv")]
    rc, first, err = main_output(*dist)
    assert rc == 0, err
    swap = gridio.save_trajectory(two_ball_swap(0.1), tmp_path / "swap")
    failures = [
        (["dist", str(fuzz_dir / "a.csv")], 2),  # argparse: a missing positional
        (["dist", "--q", "abc", str(fuzz_dir / "a.csv"), str(fuzz_dir / "b.csv")], 2),
        (["reconstruct", "--manifest", str(swap), "--norm", "linf"], 3),
    ]
    for argv, code in failures:
        rc, out, err = main_output(*argv)
        assert rc == code and out == "" and "Traceback" not in err, err
        rc, again, err = main_output(*dist)
        assert rc == 0 and again == first, err
    assert cli.build_parser() is cli.build_parser()
