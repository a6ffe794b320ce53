"""Average saliency maps in the canonical object frame and TP/FP modes.

Canonicalized points (object-centered, yaw-aligned, size-normalized into
[-0.5, 0.5]^3) are binned on a fixed cubic grid; cells accumulate
(saliency sum, point count) and finalize to per-cell averages.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .boxes import OrientedBox
from .errors import MalformedFile
from .fileio import read_bytes, writing
from .metrics import EvalThresholds, well_detected
from .pipeline import Detection


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
        inside = np.all(np.abs(points) <= 0.5, axis=1)
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


def tp_fp_split(
    predictions: list[Detection],
    gts: list[tuple[OrientedBox, str]],
    thresholds: EvalThresholds,
):
    """Greedy-matched true positives and the remaining false positives.

    Returns ``(tp, fp)`` where tp is a list of (pred_idx, gt_idx) pairs and
    fp the sorted indices of unmatched predictions.
    """
    matches = well_detected(predictions, gts, thresholds)
    tp = sorted((pi, gi) for pi, gi, _ in matches)
    matched = {pi for pi, _ in tp}
    fp = [i for i in range(len(predictions)) if i not in matched]
    return tp, fp


@dataclass
class ObjectExplanation:
    """One explained detection prepared for mode aggregation."""

    label: str
    is_tp: bool
    canonical_points: np.ndarray
    saliency: np.ndarray
    in_box_points: int


@dataclass
class ModeReport:
    """Class mixture, point density and average maps per TP/FP mode."""

    tp_count: int
    fp_count: int
    tp_class_ratios: dict[str, float]
    fp_class_ratios: dict[str, float]
    tp_mean_points: float
    fp_mean_points: float
    tp_maps: dict[str, CanonicalGrid] = field(default_factory=dict)
    fp_maps: dict[str, CanonicalGrid] = field(default_factory=dict)


def mode_report(records: list[ObjectExplanation], resolution: int = 32) -> ModeReport:
    """Aggregate explained detections into per-mode class stats and maps."""
    sides = {True: [], False: []}
    for rec in records:
        sides[rec.is_tp].append(rec)

    def ratios(group):
        if not group:
            return {}
        counts: dict[str, int] = {}
        for rec in group:
            counts[rec.label] = counts.get(rec.label, 0) + 1
        return {label: counts[label] / len(group) for label in sorted(counts)}

    def mean_points(group):
        if not group:
            return 0.0
        return float(np.mean([rec.in_box_points for rec in group]))

    def maps(group):
        out: dict[str, CanonicalGrid] = {}
        for rec in group:
            grid = out.setdefault(rec.label, CanonicalGrid(resolution))
            grid.accumulate(rec.canonical_points, rec.saliency)
        return out

    return ModeReport(
        tp_count=len(sides[True]),
        fp_count=len(sides[False]),
        tp_class_ratios=ratios(sides[True]),
        fp_class_ratios=ratios(sides[False]),
        tp_mean_points=mean_points(sides[True]),
        fp_mean_points=mean_points(sides[False]),
        tp_maps=maps(sides[True]),
        fp_maps=maps(sides[False]),
    )


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
    averages = grid.averages()
    res = grid.resolution
    cell = 1.0 / res
    # a cell center's coordinate on each axis depends only on that axis' index
    axis = [f"{-0.5 + (i + 0.5) * cell:.6g}" for i in range(res)]
    xy = [f"{cx},{cy}," for cy in axis for cx in axis]
    with writing(path) as fh:
        fh.write("cx,cy,cz,value,count\n")
        # one z slice at a time keeps the row strings few, and with them
        # the memory the writer holds
        for iz, cz in enumerate(axis):
            values = averages[:, :, iz].ravel(order="F").tolist()
            counts = grid.counts[:, :, iz].ravel(order="F").tolist()
            fh.write("".join([
                f"{p}{cz},{v:.6g},{n}\n" for p, v, n in zip(xy, values, counts)
            ]))
