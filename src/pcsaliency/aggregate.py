"""Average saliency maps in the canonical object frame and TP/FP modes.

Canonicalized points (object-centered, yaw-aligned, size-normalized into
[-0.5, 0.5]^3) are binned on a fixed cubic grid; cells accumulate
(saliency sum, point count) and finalize to per-cell averages.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import MalformedFile
from .fileio import _FIELD, _float_fields, _index_fields, read_bytes, writing


class CanonicalGrid:
    """(sum, count) accumulator over [-0.5, 0.5]^3 at a fixed resolution for
    ``maps`` saliency maps of the same points: one count per cell, and one
    sum per cell and map on the trailing axis of ``sums``."""

    def __init__(self, resolution: int = 32, maps: int = 1):
        if resolution < 2:
            raise ValueError("resolution must be >= 2")
        self.resolution = resolution
        self.sums = np.zeros((resolution,) * 3 + (maps,))
        self.counts = np.zeros((resolution,) * 3, dtype=np.int64)
        self.binned = 0
        self.discarded = 0

    def accumulate(self, points: np.ndarray, saliency) -> None:
        """Bin canonical points once for every map: ``saliency`` is one
        per-point map, or a sequence of ``maps`` of them. Points are tallied
        into ``binned``; points outside the closed unit cube are tallied into
        ``discarded`` instead."""
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        maps = np.asarray(saliency, dtype=float)
        if maps.ndim == 1:
            maps = maps[None]
        if maps.shape != (self.sums.shape[-1], len(points)):
            raise ValueError("points and saliency must align")
        for stale in ("_export", "_csv_parts"):  # the cached exports are stale
            self.__dict__.pop(stale, None)
        # per column: a row reduction over 3 columns runs one loop per row
        inside = np.abs(points[:, 0]) <= 0.5
        inside &= np.abs(points[:, 1]) <= 0.5
        inside &= np.abs(points[:, 2]) <= 0.5
        n_inside = int(np.count_nonzero(inside))
        self.binned += n_inside
        self.discarded += len(points) - n_inside
        if not n_inside:
            return
        pts = points[inside]
        idx = np.floor((pts + 0.5) * self.resolution).astype(np.int64)
        np.clip(idx, 0, self.resolution - 1, out=idx)  # upper face into last cell
        cell = (idx[:, 0] * self.resolution + idx[:, 1]) * self.resolution + idx[:, 2]
        # each cell adds its points in point order, every map's sum as a
        # one-map grid would
        np.add.at(self.sums.reshape(-1, len(maps)), cell, maps.T[inside])
        np.add.at(self.counts.reshape(-1), cell, 1)

    def averages(self, m: int = 0) -> np.ndarray:
        """Per-cell mean of map ``m``; empty cells are 0."""
        out = np.zeros(self.resolution**3)
        out[self._export.occupied] = self._export.values[m]
        return out.reshape(self.counts.shape, order="F")

    @functools.cached_property
    def _export(self) -> _GridExport:
        """What every map's files share, computed by the first write (or
        ``averages``) after the last ``accumulate``."""
        counts = self.counts.ravel(order="F")
        occupied = np.flatnonzero(counts)
        n = counts[occupied]
        values = self.sums[np.unravel_index(occupied, self.counts.shape, order="F")].T / n
        dense = np.zeros((len(values), len(counts)), "<f4")
        with np.errstate(over="ignore"):  # past float32's range is +-inf
            dense[:, occupied] = values
        return _GridExport(occupied, n, values, dense, counts.astype("<u4").tobytes())

    @functools.cached_property
    def _csv_parts(self) -> tuple[list, np.ndarray]:
        """The empty grid's CSV around the occupied cells' fields, and every
        map's NUL-padded ``value,count`` rows, each with its newline, from
        one formatting pass."""
        export = self._export
        template, ends = _csv_template(self.resolution)
        # each occupied cell's "0,0" gives way to its fields; its "\n" stays
        stops = ends[export.occupied] - len(_EMPTY_CELL)
        starts = stops + len(_EMPTY_CELL) - 1
        view = memoryview(template)
        pieces = [view[a:b] for a, b in zip([0, *starts.tolist()], [*stops.tolist(), len(view)])]
        shape = export.values.shape  # (maps, occupied)
        rows = np.empty((*shape, 2 * _FIELD + 2), np.uint8)
        rows[:, :, :_FIELD] = _float_fields(export.values.ravel()).reshape(*shape, _FIELD)
        rows[:, :, _FIELD] = ord(",")
        rows[:, :, _FIELD + 1:-1] = _index_fields(export.counts)
        rows[:, :, -1] = ord("\n")
        return pieces, rows


@dataclass(frozen=True)
class _GridExport:
    """A grid's averages and counts as every map's files write them."""

    occupied: np.ndarray  # cell indices, x fastest
    counts: np.ndarray  # the occupied cells' counts
    values: np.ndarray  # (maps, occupied) averages
    averages: np.ndarray  # (maps, cells) <f4, x fastest; empty cells 0
    count_bytes: bytes  # every cell's count, <u4, x fastest


@dataclass
class ObjectExplanation:
    """One explained detection prepared for mode aggregation; its canonical
    points and saliency are None when no grid is exported."""

    label: str
    is_tp: bool
    canonical_points: np.ndarray | None
    saliency: np.ndarray | None
    in_box_points: int


def mode_report(records: list[ObjectExplanation]) -> dict[str, dict]:
    """Per mode, ``"tp"`` then ``"fp"``: the explained detections' count,
    class mixture and mean number of points inside their boxes."""
    report = {}
    for mode, is_tp in (("tp", True), ("fp", False)):
        group = [rec for rec in records if rec.is_tp == is_tp]
        labels = [rec.label for rec in group]
        points = [rec.in_box_points for rec in group]
        report[mode] = {
            "count": len(group),
            "class_ratios": {k: labels.count(k) / len(group) for k in sorted(set(labels))},
            "mean_points_in_box": float(np.mean(points)) if group else 0.0,
        }
    return report


def write_grid(path, grid: CanonicalGrid, m: int = 0) -> None:
    """Dense grid file of map ``m``: u32 resolution, r^3 f32 averages, r^3
    u32 counts, little-endian, x-fastest ordering."""
    export = grid._export
    with writing(path, "wb") as fh:
        fh.write(struct.pack("<I", grid.resolution))
        fh.write(export.averages[m])
        fh.write(export.count_bytes)


def read_grid(path):
    """Parse a grid file back into (averages, counts) arrays."""
    data = read_bytes(path)
    if len(data) < 4:
        raise MalformedFile("grid file shorter than its header")
    (resolution,) = struct.unpack("<I", data[:4])
    cells = resolution**3
    expected = 4 + cells * 4 + cells * 4
    if len(data) != expected:
        raise MalformedFile(
            f"grid file length {len(data)} != expected {expected} "
            f"for resolution {resolution}"
        )
    averages = (
        np.frombuffer(data, dtype="<f4", count=cells, offset=4)
        .reshape((resolution,) * 3, order="F")
        .astype(float)
    )
    counts = (
        np.frombuffer(data, dtype="<u4", count=cells, offset=4 + cells * 4)
        .reshape((resolution,) * 3, order="F")
        .astype(np.int64)
    )
    return averages, counts


_EMPTY_CELL = "0,0\n"  # how an empty cell's row ends: average 0.0, count 0


@functools.cache  # ~1.3 MB per resolution, built once per process
def _csv_template(res: int):
    """The CSV of an empty grid at ``res`` as one ``bytes``, and the end
    offset of each cell's row in it, x fastest."""
    cell = 1.0 / res
    # a cell center's coordinate on each axis depends only on that axis' index
    axis = [f"{-0.5 + (i + 0.5) * cell:.6g}" for i in range(res)]
    xy = [f"{cx},{cy}," for cy in axis for cx in axis]
    header = b"cx,cy,cz,value,count\n"
    # one z slice at a time keeps the row strings few
    slices = [f"{cz},{_EMPTY_CELL}".join([*xy, ""]).encode() for cz in axis]
    xy_len = np.array([len(s) for s in xy])
    lengths = np.concatenate([xy_len + len(cz) + 1 + len(_EMPTY_CELL) for cz in axis])
    ends = len(header) + np.cumsum(lengths)
    ends.flags.writeable = False  # shared by every call at this resolution
    return b"".join([header, *slices]), ends


def grid_to_csv(path, grid: CanonicalGrid, m: int = 0) -> None:
    """Point-list export of map ``m``: one row per cell (center coords,
    value, count), x fastest."""
    pieces, rows = grid._csv_parts
    # every row up to an occupied cell's fields is the empty grid's
    parts = [None] * (2 * len(pieces) - 1)
    parts[0::2] = pieces
    parts[1::2] = rows[m].tobytes().translate(None, b"\0").split(b"\n")[:-1]
    with writing(path, "wb") as fh:
        fh.write(b"".join(parts))
