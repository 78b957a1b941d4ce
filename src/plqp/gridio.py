"""Reading and writing grid densities in the plqp-grid/v1 CSV format.

Header line:
    #plqp-grid v1 dim=<n> shape=<a>[x<b>] h=<h> origin=<x0>[,<y0>]
followed by the values in row-major order, one grid row per line.
Writers emit 17 significant digits so round-trips are bit-exact.

Trajectories are stored as one grid file per time plus a manifest JSON
listing times, grid files, and (optionally) velocity-field files; field
files use the same layout with a #plqp-field header and one signed value
per component, row-major, components interleaved per cell.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .errors import InputError
from .measures import GridDensity, GridSpec, Trajectory, VelocityField

_HEADER_RE = re.compile(
    r"#plqp-grid v1 dim=(\d+) shape=([\dx]+) h=(\S+) origin=(\S+)\s*$"
)


def write_grid(g: GridDensity, path: str | Path) -> None:
    path = Path(path)
    spec = g.spec
    shape = "x".join(str(s) for s in spec.shape)
    origin = ",".join(format(x, ".17g") for x in spec.origin)
    lines = [f"#plqp-grid v1 dim={spec.dim} shape={shape} h={spec.h:.17g} origin={origin}"]
    vals = g.values.reshape(spec.shape[0], -1)
    for row in vals:
        lines.append(",".join(format(v, ".17g") for v in row))
    path.write_text("\n".join(lines) + "\n")


def read_grid(path: str | Path) -> GridDensity:
    path = Path(path)
    if not path.is_file():
        raise InputError(f"grid file not found: {path}")
    text = path.read_text().strip().splitlines()
    if not text:
        raise InputError(f"empty grid file: {path}")
    m = _HEADER_RE.match(text[0])
    if not m:
        raise InputError(f"bad plqp-grid header in {path}: {text[0]!r}")
    dim = int(m.group(1))
    shape = tuple(int(s) for s in m.group(2).split("x"))
    h = float(m.group(3))
    origin = tuple(float(s) for s in m.group(4).split(","))
    spec = GridSpec(dim, shape, h, origin)
    rows = [
        np.array([float(tok) for tok in line.split(",")]) for line in text[1:] if line.strip()
    ]
    if len(rows) != shape[0]:
        raise InputError(f"{path}: expected {shape[0]} rows, found {len(rows)}")
    vals = np.vstack(rows).reshape(shape)
    return GridDensity(spec, vals)


_FIELD_HEADER_RE = re.compile(
    r"#plqp-field v1 dim=(\d+) shape=([\dx]+) h=(\S+) origin=(\S+)\s*$"
)


def write_field_snapshot(spec: GridSpec, vectors: np.ndarray, path: str | Path) -> None:
    path = Path(path)
    shape = "x".join(str(s) for s in spec.shape)
    origin = ",".join(format(x, ".17g") for x in spec.origin)
    lines = [f"#plqp-field v1 dim={spec.dim} shape={shape} h={spec.h:.17g} origin={origin}"]
    flat = vectors.reshape(spec.shape[0], -1)
    for row in flat:
        lines.append(",".join(format(v, ".17g") for v in row))
    path.write_text("\n".join(lines) + "\n")


def read_field_snapshot(path: str | Path) -> tuple[GridSpec, np.ndarray]:
    path = Path(path)
    if not path.exists():
        raise InputError(f"field file not found: {path}")
    text = path.read_text().strip().splitlines()
    m = _FIELD_HEADER_RE.match(text[0]) if text else None
    if not m:
        raise InputError(f"bad plqp-field header in {path}")
    dim = int(m.group(1))
    shape = tuple(int(s) for s in m.group(2).split("x"))
    spec = GridSpec(dim, shape, float(m.group(3)), tuple(float(s) for s in m.group(4).split(",")))
    rows = [np.array([float(tok) for tok in line.split(",")]) for line in text[1:] if line.strip()]
    vectors = np.vstack(rows).reshape(*shape, dim)
    return spec, vectors


def save_trajectory(traj: Trajectory, directory: str | Path, stem: str = "state") -> Path:
    """Write a trajectory as grid files plus a manifest; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for k, (t, dens) in enumerate(zip(traj.times, traj.densities)):
        name = f"{stem}_{k:04d}.csv"
        write_grid(dens, directory / name)
        entries.append({"time": t, "grid": name})
    manifest = {"format": "plqp-trajectory/v1", "states": entries}
    if traj.field is not None:
        fentries = []
        for k, (t, vec) in enumerate(zip(traj.field.times, traj.field.vectors)):
            name = f"{stem}_field_{k:04d}.csv"
            write_field_snapshot(traj.spec, vec, directory / name)
            fentries.append({"time": t, "field": name})
        manifest["fields"] = fentries
    mpath = directory / f"{stem}_manifest.json"
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return mpath


def load_trajectory(manifest_path: str | Path) -> Trajectory:
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise InputError(f"manifest not found: {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != "plqp-trajectory/v1":
        raise InputError(f"not a trajectory manifest: {manifest_path}")
    base = manifest_path.parent
    times = []
    densities = []
    for entry in manifest["states"]:
        times.append(float(entry["time"]))
        densities.append(read_grid(base / entry["grid"]))
    field = None
    if "fields" in manifest:
        ftimes, vectors = [], []
        for entry in manifest["fields"]:
            ftimes.append(float(entry["time"]))
            _, vec = read_field_snapshot(base / entry["field"])
            vectors.append(vec)
        field = VelocityField(tuple(ftimes), tuple(vectors))
    return Trajectory(tuple(times), tuple(densities), field)
