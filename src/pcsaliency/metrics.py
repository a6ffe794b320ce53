"""Faithfulness and localization metrics for saliency maps.

Deletion/Insertion perturb the scene in saliency order inside a ball of
twice the box diagonal around the explained detection and track how well
a rerun of the detector still finds the object. VEA, the pointing game
and the energy pointing game score a map against a ground-truth box.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .boxes import OrientedBox, box_diagonal, iou_3d, points_in_box
from .errors import (
    EmptyGroundTruth,
    LengthMismatch,
    NonFiniteInput,
    NoRegionPoints,
    ValidationError,
    ZeroEnergy,
)
from .pipeline import CLASS_NAMES, Detection

_VEA_THRESHOLDS = tuple(np.round(np.arange(1, 20) * 0.05, 2))


@dataclass(frozen=True)
class EvalThresholds:
    """Per-class IoU thresholds for matching predictions to ground truth: one
    field per ``CLASS_NAMES`` label, and ``fallback`` for any other label."""

    car: float = 0.7
    pedestrian: float = 0.5
    cyclist: float = 0.5
    fallback: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{f.name} threshold must be in (0, 1], got {value}")

    def for_label(self, label: str) -> float:
        return getattr(self, label if label in CLASS_NAMES else "fallback")


@dataclass(frozen=True)
class Curve:
    """Fraction-perturbed steps in [0, 1] and the IoU recorded at each."""

    steps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        steps = np.asarray(self.steps, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if steps.shape != values.shape or steps.ndim != 1 or len(steps) < 2:
            raise ValueError("steps and values must be matching 1-D arrays")
        if steps[0] != 0.0 or steps[-1] != 1.0 or np.any(np.diff(steps) <= 0):
            raise ValueError("steps must increase strictly from 0 to 1")
        if np.any((values < 0) | (values > 1)):
            raise ValueError("curve values must lie in [0, 1]")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "values", values)


def _paired(saliency, cloud):
    """``(saliency, cloud)`` as float arrays, one finite saliency per cloud
    point: a map with NaN or an infinity has no ranking, peak or mass."""
    saliency = np.asarray(saliency, dtype=float)
    cloud = np.asarray(cloud, dtype=float)
    if len(saliency) != len(cloud):
        raise LengthMismatch(
            f"saliency length {len(saliency)} != cloud length {len(cloud)}"
        )
    if not np.isfinite(saliency).all():
        bad = int(np.isfinite(saliency).argmin())
        raise NonFiniteInput(f"saliency of point {bad} is {saliency[bad]}, not finite")
    return saliency, cloud


def _center_distances(cloud: np.ndarray, center) -> np.ndarray:
    """Euclidean distance of each cloud row's xyz to ``center``: bit for bit
    ``np.linalg.norm(cloud[:, :3] - center, axis=1)``, which adds the squares
    in this order, (x + y) + z, but runs one inner loop per 3-wide row."""
    dx, dy, dz = (cloud[:, k] - c for k, c in enumerate(np.array(center, dtype=float)))
    return np.sqrt((dx * dx + dy * dy) + dz * dz)


def _region_order(cloud, d: Detection, saliency):
    """In-region point indices, sorted by descending saliency then index."""
    saliency, cloud = _paired(saliency, cloud)
    radius = 2.0 * box_diagonal(d.box())
    region = np.flatnonzero(_center_distances(cloud, d.center) <= radius)
    if len(region) == 0:
        raise NoRegionPoints("no points within twice the box diagonal")
    order = region[np.lexsort((region, -saliency[region]))]
    return cloud, order


def _detection_iou(
    detector, cloud: np.ndarray, keep: np.ndarray, d: Detection, box: OrientedBox
) -> float:
    """Best same-class IoU against ``box``, d's box, after rerunning the
    detector on the points of ``cloud`` under ``keep``; 0 when none are kept."""
    if not keep.any():
        return 0.0
    best = 0.0
    for found in detector.detect_subset(cloud, keep):
        if found.label == d.label:
            best = max(best, iou_3d(box, found.box()))
    return best


def deletion_curve(detector, cloud, d: Detection, saliency, steps: int = 20) -> Curve:
    """IoU as the most salient in-region points are removed in batches."""
    return _perturbation_curve(detector, cloud, d, saliency, steps, inserting=False)


def insertion_curve(detector, cloud, d: Detection, saliency, steps: int = 20) -> Curve:
    """IoU as the most salient region points are added back to an emptied region."""
    return _perturbation_curve(detector, cloud, d, saliency, steps, inserting=True)


def _perturbation_curve(detector, cloud, d, saliency, steps, inserting: bool) -> Curve:
    """IoU after each step flips the keep flag of the next most salient
    region points to ``inserting``; every region point starts flipped the
    other way. One scene scope on the cloud serves every step's rerun, so
    each rerun is a delta of the step before."""
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    cloud, order = _region_order(cloud, d, saliency)
    box = d.box()
    keep = np.ones(len(cloud), dtype=bool)
    keep[order] = not inserting
    values = []
    done = 0
    with detector.scene(cloud):
        for i in range(steps + 1):
            # one running mask: each step flips only its own points
            upto = round(i * len(order) / steps)
            keep[order[done:upto]] = inserting
            done = upto
            values.append(_detection_iou(detector, cloud, keep, d, box))
    return Curve(np.arange(steps + 1) / steps, np.array(values))


def auc(curve: Curve) -> float:
    """Trapezoidal area under the curve, normalized by the step span."""
    steps, values = curve.steps, curve.values
    widths = steps[1:] - steps[:-1]
    area = float(np.sum(widths * (values[1:] + values[:-1]) * 0.5))
    return area / float(steps[-1] - steps[0])


def vea(saliency, cloud, gt_box: OrientedBox) -> float:
    """Best point-set IoU between thresholded saliency and box membership.

    The map is normalized by its maximum; at each threshold t in 0.05, 0.10,
    ..., 0.95 the predicted set is {saliency >= t} and the score is its IoU
    with the set of points inside the box. Returns the maximum over
    thresholds; an all-zero map scores 0.
    """
    saliency, cloud = _paired(saliency, cloud)
    gt_mask = points_in_box(cloud, gt_box)
    if not gt_mask.any():
        raise EmptyGroundTruth("no cloud points inside the ground-truth box")
    peak = saliency.max()
    if peak <= 0:
        return 0.0
    normalized = saliency / peak
    # the counts of the masks {normalized >= t} and {normalized >= t} & gt,
    # read off the sorted values
    thresholds = np.array(_VEA_THRESHOLDS)
    counts = []
    for values in (normalized, normalized[gt_mask]):
        counts.append(len(values) - np.searchsorted(np.sort(values), thresholds))
    gt = int(np.count_nonzero(gt_mask))
    best = 0.0
    for pred, inter in zip(*(c.tolist() for c in counts)):
        best = max(best, inter / (pred + gt - inter))  # union >= gt > 0
    return best


def pointing_game(saliency, cloud, gt_box: OrientedBox) -> bool:
    """Hit iff the highest-saliency point (ties: lowest index) lies in the box."""
    if np.size(saliency) == 0:
        raise ValueError("saliency map is empty")
    saliency, cloud = _paired(saliency, cloud)
    top = int(np.argmax(saliency))
    return bool(points_in_box(cloud[top : top + 1], gt_box)[0])


def energy_pg(saliency, cloud, gt_box: OrientedBox) -> float:
    """Fraction of total saliency mass inside the ground-truth box."""
    saliency, cloud = _paired(saliency, cloud)
    total = float(saliency.sum())
    if total <= 0:
        raise ZeroEnergy("saliency map has no mass")
    inside = float(saliency[points_in_box(cloud, gt_box)].sum())
    return inside / total


def well_detected(
    predictions: list[Detection],
    gts: list[tuple[OrientedBox, str]],
    thresholds: EvalThresholds,
) -> list[tuple[int, int, float]]:
    """Greedy same-class matching of predictions to ground truths.

    Pairs are considered in descending IoU order and kept when the IoU
    strictly exceeds the class threshold; every prediction and every
    ground truth is used at most once. Returns (pred_idx, gt_idx, iou).
    """
    candidates = []
    for pi, pred in enumerate(predictions):
        for gi, (box, label) in enumerate(gts):
            if pred.label != label:
                continue
            overlap = iou_3d(pred.box(), box)
            if overlap > thresholds.for_label(label):
                candidates.append((overlap, pi, gi))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    used_pred: set[int] = set()
    used_gt: set[int] = set()
    matches = []
    for overlap, pi, gi in candidates:
        if pi in used_pred or gi in used_gt:
            continue
        used_pred.add(pi)
        used_gt.add(gi)
        matches.append((pi, gi, overlap))
    return matches
