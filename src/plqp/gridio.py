"""Reading and writing grid densities in the plqp-grid/v1 CSV format.

Header line:
    #plqp-grid v1 dim=<n> shape=<a>[x<b>] h=<h> origin=<x0>[,<y0>]
followed by the values in row-major order, one grid row per line.
Writers emit 17 significant digits so round-trips are bit-exact.

Trajectories are stored as one grid file per time plus a manifest JSON
listing times, grid files, and (optionally) velocity-field files; field
files use the same layout with a #plqp-field header and one signed value
per component, row-major, components interleaved per cell.  One codec
writes and reads both kinds; a malformed header, row or value raises
InputError.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from .errors import InputError
from .measures import GridDensity, GridSpec, Trajectory, VelocityField

_HEADER_RE = re.compile(
    r"#plqp-(grid|field) v1 dim=(\d+) shape=([\dx]+) h=(\S+) origin=(\S+)\s*$"
)


def _write(kind: str, spec: GridSpec, values: np.ndarray, path: str | Path) -> None:
    """A plqp-grid or plqp-field file: the header, then one grid row per line."""
    shape = "x".join(str(s) for s in spec.shape)
    origin = ",".join(format(x, ".17g") for x in spec.origin)
    lines = [f"#plqp-{kind} v1 dim={spec.dim} shape={shape} h={spec.h:.17g} origin={origin}"]
    rows = values.reshape(spec.shape[0], -1)
    # "%.17g" writes the bytes of format(v, ".17g"), one % per row
    row_format = ",".join(["%.17g"] * rows.shape[1])
    lines += [row_format % tuple(row) for row in rows.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_header(kind: str, header: str) -> GridSpec | None:
    """The spec in a `kind` header line; None if the line is not one."""
    m = _HEADER_RE.match(header)
    if not m or m.group(1) != kind:
        return None
    try:
        shape = tuple(int(s) for s in m.group(3).split("x"))
        h = float(m.group(4))
        origin = tuple(float(s) for s in m.group(5).split(","))
    except ValueError:
        return None
    if not all(math.isfinite(x) for x in origin):
        return None
    return GridSpec(int(m.group(2)), shape, h, origin)


def read_text(path: str | Path, kind: str) -> str:
    """The text of a `kind` file; InputError if it is not a file (missing, or
    a directory) or not UTF-8 text."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"{kind} file not found: {path}")
    try:
        return path.read_text()
    except UnicodeDecodeError:
        raise InputError(f"{path} is not a text file") from None


def _read(kind: str, path: str | Path) -> tuple[GridSpec, np.ndarray]:
    """The spec and the values, one row per grid row, of a file written by
    `_write`; InputError on anything malformed."""
    text = read_text(path, kind).strip().splitlines()
    if not text:
        raise InputError(f"empty {kind} file: {path}")
    spec = _parse_header(kind, text[0])
    if spec is None:
        raise InputError(f"bad plqp-{kind} header in {path}: {text[0]!r}")
    lines = [line for line in text[1:] if line.strip()]
    if len(lines) != spec.shape[0]:
        raise InputError(f"{path}: expected {spec.shape[0]} rows, found {len(lines)}")
    rows = [line.split(",") for line in lines]
    width = math.prod(spec.shape[1:]) * (spec.dim if kind == "field" else 1)
    if any(len(row) != width for row in rows):
        raise InputError(f"{path}: every row must hold {width} values")
    try:
        return spec, np.array(rows, dtype=float)
    except ValueError:
        raise InputError(f"{path}: values must be numbers") from None


def json_text(payload) -> str:
    """The JSON form of every report, ledger and manifest plqp writes:
    two-space indent, sorted keys, a final newline; equal payloads, equal
    bytes."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path: str | Path, payload) -> None:
    Path(path).write_text(json_text(payload))


def write_grid(g: GridDensity, path: str | Path) -> None:
    _write("grid", g.spec, g.values, path)


def read_grid(path: str | Path) -> GridDensity:
    spec, rows = _read("grid", path)
    return GridDensity(spec, rows.reshape(spec.shape))


def write_field_snapshot(spec: GridSpec, vectors: np.ndarray, path: str | Path) -> None:
    _write("field", spec, vectors, path)


def read_field_snapshot(path: str | Path) -> tuple[GridSpec, np.ndarray]:
    spec, rows = _read("field", path)
    return spec, rows.reshape(*spec.shape, spec.dim)


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
    write_json(mpath, manifest)
    return mpath


def _manifest_files(manifest: dict, key: str, file_key: str, path: Path) -> list[tuple[float, Path]]:
    """(time, file path) of each entry of the manifest list `key`;
    InputError on anything malformed."""
    entries = manifest.get(key)
    if not isinstance(entries, list):
        raise InputError(f"{path}: {key!r} must be a list, got {entries!r}")
    files = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise InputError(f"{path}: each {key!r} entry must be an object, got {entry!r}")
        t, name = entry.get("time"), entry.get(file_key)
        try:
            # JSON numbers only; float() of a huge integer overflows
            ok = isinstance(t, (int, float)) and not isinstance(t, bool) and math.isfinite(t)
        except OverflowError:
            ok = False
        if not ok:
            raise InputError(f"{path}: {key!r} time must be a finite number, got {t!r}")
        if not isinstance(name, str) or not name:
            raise InputError(f"{path}: {key!r} {file_key!r} must be a file name, got {name!r}")
        files.append((float(t), path.parent / name))
    return files


def load_trajectory(manifest_path: str | Path) -> Trajectory:
    """The trajectory a manifest written by `save_trajectory` lists;
    InputError on a malformed manifest or file."""
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise InputError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise InputError(f"{manifest_path} is not a JSON document") from None
    if not isinstance(manifest, dict) or manifest.get("format") != "plqp-trajectory/v1":
        raise InputError(f"not a trajectory manifest: {manifest_path}")
    states = _manifest_files(manifest, "states", "grid", manifest_path)
    densities = tuple(read_grid(f) for _, f in states)
    field = None
    if "fields" in manifest:
        fields = _manifest_files(manifest, "fields", "field", manifest_path)
        field = VelocityField(
            tuple(t for t, _ in fields), tuple(read_field_snapshot(f)[1] for _, f in fields)
        )
    return Trajectory(tuple(t for t, _ in states), densities, field)
