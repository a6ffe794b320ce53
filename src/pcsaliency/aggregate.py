"""Average saliency maps in the canonical object frame and TP/FP modes.

Canonicalized points (object-centered, yaw-aligned, size-normalized into
[-0.5, 0.5]^3) are binned on a fixed cubic grid; cells accumulate
(saliency sum, point count) and finalize to per-cell averages.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import MalformedFile
from .fileio import read_bytes, writing


class CanonicalGrid:
    """(sum, count) accumulator over [-0.5, 0.5]^3 at a fixed resolution."""

    def __init__(self, resolution: int = 32):
        if resolution < 2:
            raise ValueError("resolution must be >= 2")
        self.resolution = resolution
        self.sums = np.zeros((resolution,) * 3)
        self.counts = np.zeros((resolution,) * 3, dtype=np.int64)
        self.discarded = 0

    def accumulate(self, points: np.ndarray, saliency: np.ndarray) -> None:
        """Bin canonical points; points outside the closed unit cube are tallied
        into ``discarded`` instead of binned."""
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        saliency = np.asarray(saliency, dtype=float).ravel()
        if len(points) != len(saliency):
            raise ValueError("points and saliency must align")
        # per column: a row reduction over 3 columns runs one loop per row
        inside = np.abs(points[:, 0]) <= 0.5
        inside &= np.abs(points[:, 1]) <= 0.5
        inside &= np.abs(points[:, 2]) <= 0.5
        self.discarded += int(np.count_nonzero(~inside))
        if not inside.any():
            return
        pts = points[inside]
        idx = np.floor((pts + 0.5) * self.resolution).astype(np.int64)
        np.clip(idx, 0, self.resolution - 1, out=idx)  # upper face into last cell
        np.add.at(self.sums, (idx[:, 0], idx[:, 1], idx[:, 2]), saliency[inside])
        np.add.at(self.counts, (idx[:, 0], idx[:, 1], idx[:, 2]), 1)

    def averages(self) -> np.ndarray:
        """Per-cell mean saliency; empty cells are 0."""
        out = np.zeros_like(self.sums)
        occupied = self.counts > 0
        out[occupied] = self.sums[occupied] / self.counts[occupied]
        return out


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


def write_grid(path, grid: CanonicalGrid) -> None:
    """Dense grid file: u32 resolution, r^3 f32 averages, r^3 u32 counts,
    little-endian, x-fastest ordering."""
    averages = grid.averages().astype("<f4")
    counts = grid.counts.astype("<u4")
    with writing(path, "wb") as fh:
        fh.write(struct.pack("<I", grid.resolution))
        fh.write(averages.ravel(order="F").tobytes())
        fh.write(counts.ravel(order="F").tobytes())


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


def grid_to_csv(path, grid: CanonicalGrid) -> None:
    """Point-list export: one row per cell (center coords, value, count),
    x fastest."""
    res = grid.resolution
    cell = 1.0 / res
    # a cell center's coordinate on each axis depends only on that axis' index
    axis = [f"{-0.5 + (i + 0.5) * cell:.6g}" for i in range(res)]
    xy = [f"{cx},{cy}," for cy in axis for cx in axis]
    with writing(path) as fh:
        fh.write("cx,cy,cz,value,count\n")
        # one z slice at a time keeps the row strings few, and with them
        # the memory the writer holds. An empty cell's row is its prefix and
        # "cz,0,0" (average 0.0, count 0), so each run of empty cells is one
        # join and only the occupied cells are formatted.
        for iz, cz in enumerate(axis):
            empty = f"{cz},0,0\n"
            counts = grid.counts[:, :, iz].ravel(order="F")
            occupied = np.flatnonzero(counts)
            n_occupied = counts[occupied]
            # the occupied cells' averages, as ``CanonicalGrid.averages`` divides them
            values = grid.sums[:, :, iz].ravel(order="F")[occupied] / n_occupied
            rows, start = [], 0
            for i, v, n in zip(occupied.tolist(), values.tolist(), n_occupied.tolist()):
                rows.append(empty.join([*xy[start:i], ""]))
                rows.append(f"{xy[i]}{cz},{v:.6g},{n}\n")
                start = i + 1
            rows.append(empty.join([*xy[start:], ""]))
            fh.write("".join(rows))
