"""Readers and writers for scene and result files.

KITTI-style clouds are flat little-endian float32 quadruples; detections
and ground-truth labels share a JSON schema; saliency maps export as CSV
or ASCII PLY.

This module is the package's only place that opens files. ``read_bytes``,
``read_text`` and ``writing`` own the error mapping: a filesystem failure
becomes an ``IoFailure`` naming the path (exit code 2), and text that is
not UTF-8 a ``MalformedFile`` naming the path (exit code 1).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math

import numpy as np

from .boxes import OrientedBox
from .errors import IoFailure, LengthMismatch, MalformedFile, SchemaViolation
from .pipeline import Detection


def read_bytes(path) -> bytes:
    """The whole file; an ``OSError`` becomes an ``IoFailure``."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def read_text(path) -> str:
    """The whole file decoded as UTF-8. Line endings are kept as stored."""
    data = read_bytes(path)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: not UTF-8 text: {exc}") from exc


@contextlib.contextmanager
def writing(path, mode: str = "w"):
    """``path`` opened for writing (UTF-8 in text modes); an ``OSError``
    while opening, writing or closing becomes an ``IoFailure``."""
    encoding = None if "b" in mode else "utf-8"
    try:
        with open(path, mode, encoding=encoding) as fh:
            yield fh
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_kitti_bin(path) -> np.ndarray:
    """Point cloud from little-endian f32 (x, y, z, intensity) quadruples,
    every one finite."""
    data = read_bytes(path)
    if len(data) % 16 != 0:
        raise MalformedFile(
            f"{path}: length {len(data)} is not a multiple of 16 bytes"
        )
    cloud = np.frombuffer(data, dtype="<f4").reshape(-1, 4).astype(float)
    if not np.isfinite(cloud).all():
        # a row reduction is slow over 4 columns: only name the first bad point
        finite = np.isfinite(cloud).all(axis=1)
        raise MalformedFile(f"{path}: point {int(finite.argmin())} is not finite")
    return cloud


def write_kitti_bin(path, cloud: np.ndarray) -> None:
    cloud = np.asarray(cloud, dtype=float)
    if cloud.ndim != 2 or cloud.shape[1] != 4:
        raise ValueError(f"expected an (N, 4) cloud, got shape {cloud.shape}")
    with writing(path, "wb") as fh:
        fh.write(cloud.astype("<f4").tobytes())


def _require(record, key, path):
    if key not in record:
        raise SchemaViolation(f"{path}.{key}", "missing field")
    return record[key]


def _number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaViolation(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        raise SchemaViolation(path, f"number out of range: {value}") from None
    # json reads NaN, Infinity and overflowing literals such as 1e999 as floats
    if not math.isfinite(number):
        raise SchemaViolation(path, f"expected a finite number, got {value!r}")
    return number


def _triple(value, path):
    if not isinstance(value, list) or len(value) != 3:
        raise SchemaViolation(path, "expected a list of 3 numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _parse_records(path, require_score: bool):
    raw = read_text(path)
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # bad syntax, huge ints, deep nesting
        raise SchemaViolation("$", f"invalid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise SchemaViolation("$", "expected a top-level array")

    records = []
    for i, rec in enumerate(data):
        where = f"[{i}]"
        if not isinstance(rec, dict):
            raise SchemaViolation(where, "expected an object")
        center = _triple(_require(rec, "center", where), f"{where}.center")
        size = _triple(_require(rec, "size", where), f"{where}.size")
        for axis, value in enumerate(size):
            if value <= 0:
                raise SchemaViolation(f"{where}.size[{axis}]", "size must be > 0")
        yaw = _number(_require(rec, "yaw", where), f"{where}.yaw")
        label = _require(rec, "class", where)
        if not isinstance(label, str) or not label:
            raise SchemaViolation(f"{where}.class", "expected a non-empty string")
        score = None
        if "score" in rec:
            score = _number(rec["score"], f"{where}.score")
            if not 0.0 <= score <= 1.0:
                raise SchemaViolation(f"{where}.score", "score must be in [0, 1]")
        elif require_score:
            raise SchemaViolation(f"{where}.score", "missing field")
        records.append((center, size, yaw, score, label))
    return records


def read_detections_json(path) -> list[Detection]:
    """Detections (score required) from the shared JSON schema."""
    return [
        Detection(tuple(center), tuple(size), yaw, score, label)
        for center, size, yaw, score, label in _parse_records(path, require_score=True)
    ]


def read_labels_json(path) -> list[tuple[OrientedBox, str]]:
    """Ground-truth boxes and labels; any score field is ignored."""
    return [
        (OrientedBox(tuple(center), tuple(size), yaw), label)
        for center, size, yaw, _, label in _parse_records(path, require_score=False)
    ]


def _record_dict(center, size, yaw, label, score=None):
    rec = {
        "center": [float(v) for v in center],
        "size": [float(v) for v in size],
        "yaw": float(yaw),
        "class": label,
    }
    if score is not None:
        rec["score"] = float(score)
    return rec


def write_detections_json(path, detections: list[Detection]) -> None:
    records = [
        _record_dict(d.center, d.size, d.yaw, d.label, d.score) for d in detections
    ]
    write_json(path, records)


def write_labels_json(path, gts: list[tuple[OrientedBox, str]]) -> None:
    records = [_record_dict(b.center, b.size, b.yaw, label) for b, label in gts]
    write_json(path, records)


def write_json(path, payload) -> None:
    """``payload`` as two-space indented JSON plus a final newline."""
    text = json.dumps(payload, indent=2) + "\n"  # one write, not one per token
    with writing(path) as fh:
        fh.write(text)


_WRITE_ROWS = 4096  # rows formatted per batch; bounds the strings held
_CSV_ROW = "%d,%.6g,%.6g,%.6g,%.6g\n"  # %.6g formats exactly as format(x, ".6g")
_PLY_ROW = "%.6g %.6g %.6g %.6g\n"


def _saliency_text(cloud, saliency, row: str, indexed: bool):
    """The rows of ``row`` over (index,) x, y, z, score, one string per
    batch: a whole batch is formatted by one ``%`` on Python floats."""
    for lo in range(0, len(cloud), _WRITE_ROWS):
        hi = min(lo + _WRITE_ROWS, len(cloud))
        columns = [cloud[lo:hi, k].tolist() for k in range(3)] + [saliency[lo:hi].tolist()]
        if indexed:
            columns.insert(0, range(lo, hi))
        yield (row * (hi - lo)) % tuple(itertools.chain.from_iterable(zip(*columns)))


def write_saliency(cloud, saliency, fmt: str, path) -> None:
    """Export per-point scores as ``csv`` (index,x,y,z,score) or ASCII ``ply``."""
    cloud = np.asarray(cloud, dtype=float)
    saliency = np.asarray(saliency, dtype=float)
    if len(cloud) != len(saliency):
        raise LengthMismatch(
            f"saliency length {len(saliency)} != cloud length {len(cloud)}"
        )
    if fmt not in ("csv", "ply"):
        raise ValueError(f"format must be csv or ply, got {fmt!r}")
    with writing(path) as fh:
        if fmt == "csv":
            fh.write("index,x,y,z,score\n")
            fh.writelines(_saliency_text(cloud, saliency, _CSV_ROW, indexed=True))
        else:
            fh.write("ply\n")
            fh.write("format ascii 1.0\n")
            fh.write(f"element vertex {len(cloud)}\n")
            fh.write("property float x\n")
            fh.write("property float y\n")
            fh.write("property float z\n")
            fh.write("property float scalar_saliency\n")
            fh.write("end_header\n")
            fh.writelines(_saliency_text(cloud, saliency, _PLY_ROW, indexed=False))


def read_saliency_csv(path):
    """Parse a saliency CSV back into (points (N, 3), scores (N,))."""
    lines = read_text(path).splitlines()
    if not lines or lines[0] != "index,x,y,z,score":
        raise MalformedFile(f"{path}: missing saliency CSV header")
    points, scores = [], []
    for line in lines[1:]:
        try:  # a field that is not a number, or not four after the index
            x, y, z, score = map(float, line.split(",")[1:])
        except ValueError as exc:
            raise MalformedFile(f"{path}: bad row {line!r}") from exc
        points.append([x, y, z])
        scores.append(score)
    return np.array(points).reshape(-1, 3), np.array(scores)
