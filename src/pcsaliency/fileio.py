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
import functools
import json
import math
import os
import stat

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
    """``path`` opened for writing (UTF-8 in text modes) and overwritten in
    place: a regular file is cut to the written length when the block ends,
    also on an exception. An ``OSError`` while opening, writing or closing
    becomes an ``IoFailure``.

    Opening without ``O_TRUNC`` keeps symlinks, hard links and mode bits as
    ``open(path, "w")`` does, but an ext4 file truncated to zero is flushed
    to disk on close (``auto_da_alloc``): ~1 ms per MB rewritten.
    """
    encoding = None if "b" in mode else "utf-8"
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, mode, encoding=encoding) as fh:
            try:
                yield fh
            finally:
                # a device or pipe has no length to cut
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    fh.truncate()
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


_FIELD = 13  # bytes per field: "-1.23456e+308" is the longest %.6g
_ROWS = 16384  # rows formatted per batch; bounds the arrays held
# A value's source is four little-endian words, 16 bytes, that a field
# pattern picks from. A float's words are its six significant digits as
# two NUL-ended triples, ".0e-" and the two digits of its |exponent|; an
# index's are its twelve digits as four NUL-ended triples.
_DIGIT = (0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14)  # source offset of each digit
_NUL, _DOT, _ZERO, _E, _MINUS, _EXP = 3, 8, 9, 10, 11, 12
_X_MIN, _X_MAX = -16, 5  # the decimal exponents numpy formats: 10**(5 - x) is exact
_TIE = 0.5 - 2.0**-30  # a product this near an x.5 may round either way


def _float_pattern(x: int, negative: bool, digits: int) -> list[int]:
    """Source offsets of the ``%.6g`` field of a value with decimal exponent
    ``x`` and ``digits`` significant digits once trailing zeros go."""
    lead, rest = _DIGIT[:max(x + 1, 1)], _DIGIT[max(x + 1, 1):digits]
    out = [_MINUS] if negative else []
    if x < -4:  # %g's exponent form; -16 <= x keeps two exponent digits
        out += [*lead, *([_DOT, *rest] if rest else []), _E, _MINUS, _EXP, _EXP + 1]
    elif x < 0:
        out += [_ZERO, _DOT, *[_ZERO] * (-x - 1), *_DIGIT[:digits]]
    else:
        out += [*lead, *([_DOT, *rest] if rest else [])]
    return out + [_NUL] * (_FIELD - len(out))


@functools.cache  # ~40 kB, built by the first saliency write
def _field_tables():
    """``(triples, exponents, zeros, pow10, floats, indices)``: the words of
    0-999 as NUL-ended ASCII triples, and of 0-99 as two digits; the
    trailing zeros of each triple (3 for 000); 10**0 ... 10**22, each
    exactly a double; the float field patterns by (x, sign, significant
    digits); the index field patterns by digit count."""
    triples = [b"%03d" % k for k in range(1000)]
    floats = [_float_pattern(x, negative, digits) for x in range(_X_MIN, _X_MAX + 1)
              for negative in (False, True) for digits in range(1, 7)]
    indices = [[*_DIGIT[12 - n:], *[_NUL] * (_FIELD - n)] for n in range(1, 13)]
    return (
        np.frombuffer(b"\0".join(triples) + b"\0", "<u4"),
        np.frombuffer(b"".join(b"%02d\0\0" % k for k in range(100)), "<u4"),
        np.array([len(t) - len(t.rstrip(b"0")) for t in triples]),
        np.array([float(10**k) for k in range(23)]),
        np.array(floats, dtype=np.intp),
        np.array(indices, dtype=np.intp),
    )


def _pick(source: np.ndarray, patterns: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(n, _FIELD) bytes: the 16 bytes of ``source`` row i read through
    pattern ``rows[i]``."""
    flat = source.view(np.uint8).ravel()
    index = patterns.take(rows, axis=0, mode="clip")
    index += np.arange(0, flat.size, 16)[:, None]
    return flat.take(index)


def _float_fields(values: np.ndarray) -> np.ndarray:
    """(n, _FIELD) bytes: ``b"%.6g" % v`` for each value, NUL-padded.

    The six digits are ``rint(|v| * 10**(5 - x))`` for x = floor(log10|v|);
    where that rounds to 10**6, the value rounds to 10**(x + 1). While the
    product stays below 1e6 its one rounding errs by under 2**-33, so it
    decides the digits unless it lies within 2**-30 of a tie. Python formats
    those values, the ones with x outside [-16, 5], zeros, NaN and
    infinities.
    """
    triples, exponents, zeros, pow10, floats, _ = _field_tables()
    magnitude = np.abs(values)
    fast = (magnitude >= 1e-17) & (magnitude < 1e6)  # NaN is neither
    magnitude[~fast] = 1.0  # log10 warns on 0, inf and NaN
    x = np.floor(np.log10(magnitude)).astype(np.intp)  # off by one at most
    # 5 - x is -1 where log10 rounds a value just below 1e6 up to 6
    product = magnitude * pow10.take(5 - x, mode="clip")
    digits = np.rint(product)
    fast &= np.abs(product - digits) < _TIE
    carry = digits >= 1e6
    x += carry
    digits[carry] = 1e5
    fast &= (x >= _X_MIN) & (x <= _X_MAX) & (digits >= 1e5)
    high = np.floor(digits / 1000)  # exact: the digits are integers below 1e6
    low = (digits - high * 1000).astype(np.intp)
    high = high.astype(np.intp)
    source = np.empty((len(values), 4), "<u4")
    source[:, 0] = triples.take(high)
    source[:, 1] = triples.take(low)
    source[:, 2] = np.frombuffer(b".0e-", "<u4")
    source[:, 3] = exponents.take(-x, mode="clip")  # read only where x < -4
    trailing = zeros.take(low)
    trailing += (low == 0) * zeros.take(high)
    rows = ((x - _X_MIN) * 2 + np.signbit(values)) * 6 + 5 - trailing
    fields = _pick(source, floats, rows)  # Python overwrites the rows out of range
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = b"".join((b"%.6g" % v).ljust(_FIELD, b"\0") for v in values[slow].tolist())
        fields[slow] = np.frombuffer(text, np.uint8).reshape(-1, _FIELD)
    return fields


def _index_fields(lo: int, hi: int) -> np.ndarray:
    """(hi - lo, _FIELD) bytes: ``b"%d" % i`` for i in [lo, hi), NUL-padded;
    ``hi`` is at most 10**12, far past any cloud that fits in memory."""
    triples, *_, indices = _field_tables()
    i = np.arange(lo, hi)
    source = np.empty((hi - lo, 4), "<u4")
    rows = np.searchsorted(10 ** np.arange(1, 12), i, side="right")  # digits - 1
    for word in (3, 2, 1, 0):
        i, group = np.divmod(i, 1000)
        source[:, word] = triples.take(group)
    return _pick(source, indices, rows)


def _saliency_rows(cloud, saliency, separators: bytes, indexed: bool):
    """The rows of (index,) x, y, z, score, each field followed by its byte
    of ``separators``, as one ``bytes`` per batch of ``_ROWS`` rows."""
    n = min(len(cloud), _ROWS)
    width = _FIELD + 1
    buffer = np.empty((n, len(separators) * width), np.uint8)
    buffer[:, _FIELD::width] = np.frombuffer(separators, np.uint8)
    for lo in range(0, len(cloud), _ROWS):
        hi = min(lo + _ROWS, len(cloud))
        fields = [_float_fields(cloud[lo:hi, k]) for k in range(3)]
        fields.append(_float_fields(saliency[lo:hi]))
        if indexed:
            fields.insert(0, _index_fields(lo, hi))
        rows = buffer[:hi - lo]
        for k, field in enumerate(fields):
            rows[:, k * width:k * width + _FIELD] = field
        yield rows.tobytes().translate(None, b"\0")


def write_saliency(cloud, saliency, fmt: str, path) -> None:
    """Export per-point scores as ``csv`` (index,x,y,z,score) or ASCII ``ply``,
    every coordinate and score formatted as ``%.6g``."""
    cloud = np.asarray(cloud, dtype=float)
    saliency = np.asarray(saliency, dtype=float)
    if len(cloud) != len(saliency):
        raise LengthMismatch(
            f"saliency length {len(saliency)} != cloud length {len(cloud)}"
        )
    if fmt not in ("csv", "ply"):
        raise ValueError(f"format must be csv or ply, got {fmt!r}")
    with writing(path, "wb") as fh:
        if fmt == "csv":
            fh.write(b"index,x,y,z,score\n")
            fh.writelines(_saliency_rows(cloud, saliency, b",,,,\n", indexed=True))
        else:
            fh.write(
                b"ply\n"
                b"format ascii 1.0\n"
                b"element vertex %d\n"
                b"property float x\n"
                b"property float y\n"
                b"property float z\n"
                b"property float scalar_saliency\n"
                b"end_header\n" % len(cloud)
            )
            fh.writelines(_saliency_rows(cloud, saliency, b"   \n", indexed=False))


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
