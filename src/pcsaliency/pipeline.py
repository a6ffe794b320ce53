"""Object-specific saliency pipeline.

Per scene: factorize the voxel feature map into concepts and aggregate
concept weights into a global activation. Per detection and attribute
mask: weight it by the channel-summed magnitude of the feature gradient.
Then upsample every combined voxel map to per-point scores at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from . import nmf
from .boxes import OrientedBox
from .errors import DetectionNotFound, DetectorFailure, EmptyMask, LengthMismatch
from .voxelgrid import SparseVoxelMap, UpsampleConfig, upsample_to_points

ATTRIBUTE_NAMES = ("x", "y", "z", "l", "w", "h", "yaw", "s")
CLASS_NAMES = ("car", "pedestrian", "cyclist")  # class ids index this table

ABLATIONS = ("full", "no_ff", "no_vu", "gradient_only")
CONCEPT_FREE = ("no_ff", "gradient_only")  # no concept map
OWN_VOXEL = ("no_vu", "gradient_only")  # each point reads its own voxel

_KNOWN_ATTRIBUTES = frozenset(ATTRIBUTE_NAMES)
# Built once: `object_loss` reads attributes in the inner loop of `grad_check`.
_ATTRIBUTE_READERS = {
    "x": lambda d: d.center[0],
    "y": lambda d: d.center[1],
    "z": lambda d: d.center[2],
    "l": lambda d: d.size[0],
    "w": lambda d: d.size[1],
    "h": lambda d: d.size[2],
    "yaw": lambda d: d.yaw,
    "s": lambda d: d.score,
}


def make_mask(*names: str) -> frozenset[str]:
    """Attribute mask from names; validates against the known attributes."""
    if not names:
        raise EmptyMask("attribute mask selects nothing")
    unknown = set(names) - _KNOWN_ATTRIBUTES
    if unknown:
        raise ValueError(f"unknown attributes: {sorted(unknown)}")
    return frozenset(names)


def full_mask() -> frozenset[str]:
    return _KNOWN_ATTRIBUTES


def mask_to_bits(mask: frozenset[str]) -> int:
    """Pack a mask into the dump-file bitfield (bit i = ATTRIBUTE_NAMES[i])."""
    return sum(1 << i for i, name in enumerate(ATTRIBUTE_NAMES) if name in mask)


def bits_to_mask(bits: int) -> frozenset[str]:
    return frozenset(
        name for i, name in enumerate(ATTRIBUTE_NAMES) if bits & (1 << i)
    )


@dataclass(frozen=True)
class Detection:
    """One detector output: box, confidence and class label."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    yaw: float
    score: float
    label: str

    def __post_init__(self):
        if any(s <= 0 for s in self.size):
            raise ValueError(f"detection size must be positive, got {self.size}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")

    def attribute(self, name: str) -> float:
        return _ATTRIBUTE_READERS[name](self)

    def box(self) -> OrientedBox:
        return OrientedBox(self.center, self.size, self.yaw)


def match_detection(detections: list[Detection], d: Detection, atol: float) -> int:
    """Index of the first of ``detections`` with ``d``'s label whose box and
    score agree with ``d``'s to within ``atol``."""
    wanted = (*d.center, *d.size, d.yaw, d.score)
    for i, found in enumerate(detections):
        fields = (*found.center, *found.size, found.yaw, found.score)
        if found.label == d.label and all(abs(a - b) <= atol for a, b in zip(fields, wanted)):
            return i
    raise DetectionNotFound("detection does not match any detector output")


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end knobs: factorization, upsampling, feature block, ablation."""

    nmf: nmf.NmfConfig = field(default_factory=nmf.NmfConfig)
    upsample: UpsampleConfig = field(default_factory=UpsampleConfig)
    block_index: int = 3
    ablation: str = "full"

    def __post_init__(self):
        if self.block_index not in (1, 2, 3, 4):
            raise ValueError(f"block_index must be in 1..4, got {self.block_index}")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")


def object_loss(d: Detection, mask: frozenset[str]) -> float:
    """L1 distance of the masked continuous attributes to an all-zero baseline."""
    if not mask:
        raise EmptyMask("attribute mask selects nothing")
    unknown = mask - _KNOWN_ATTRIBUTES
    if unknown:
        raise ValueError(f"unknown attributes: {sorted(unknown)}")
    return float(sum(abs(d.attribute(name)) for name in mask))


def channel_aggregate(gradients: SparseVoxelMap | np.ndarray) -> np.ndarray:
    """Per-voxel L1 norm across gradient channels."""
    values = gradients.values if isinstance(gradients, SparseVoxelMap) else gradients
    values = np.asarray(values, dtype=float)
    return np.abs(values).sum(axis=1)


def normalize(v: np.ndarray) -> np.ndarray:
    """Min-max scale into [0, 1]; constant vectors map to all zeros."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        return v.copy()
    lo, hi = v.min(), v.max()
    if hi == lo:
        return np.zeros_like(v)
    return (v - lo) / (hi - lo)


def combine(
    omega: np.ndarray, concept: np.ndarray | None, like: SparseVoxelMap
) -> SparseVoxelMap:
    """Element-wise product of the normalized gradient and concept activations.

    ``concept=None`` (the concept-free ablations) keeps the normalized
    gradient alone.
    """
    omega = np.asarray(omega, dtype=float)
    if len(omega) != len(like):
        raise LengthMismatch(
            f"activation length {len(omega)} != voxel count {len(like)}"
        )
    combined = normalize(omega)
    if concept is not None:
        concept = np.asarray(concept, dtype=float)
        if omega.shape != concept.shape:
            raise LengthMismatch(
                f"activation lengths differ: {omega.shape} vs {concept.shape}"
            )
        combined = combined * normalize(concept)
    return like.with_values(combined)


def explain_detection(
    detector,
    cloud: np.ndarray,
    detections: list[Detection],
    masks: list[frozenset[str]],
    cfg: PipelineConfig,
) -> list[list[np.ndarray]]:
    """Per-point saliency scores of each detection under each mask: one
    list per detection, one array per mask.

    Runs features -> factorization -> concept aggregation -> gradient
    weighting -> voxel upsampling. The concept map and the upsampling
    depend only on the scene, so one scene scope serves every (detection,
    mask) pair: the features and the concept map are computed once, each
    pair takes one gradient, and one ``upsample_to_points`` call carries
    all the combined maps to the points as the columns of one payload.
    The ``no_ff`` ablation drops the concept map; ``no_vu`` and
    ``gradient_only`` replace upsampling with the point's own voxel value
    (range 0, k 1), and ``gradient_only`` also drops the concept map.
    No masks give one empty list per detection, and compute nothing.
    """
    if not detections or not masks:
        return [[] for _ in detections]
    with detector.scene(cloud):
        features = detector.features(cloud, cfg.block_index)
        m = len(features)
        if m == 0:
            raise DetectorFailure("feature map has no occupied voxels")
        concept = None
        if cfg.ablation not in CONCEPT_FREE:
            values = np.asarray(features.values, dtype=float)
            # Desk-scale feature maps can have fewer voxels than the requested
            # concept count; the factorization rank cannot exceed min(M, d).
            r_eff = min(cfg.nmf.r, m, values.shape[1])
            concept = nmf.global_concept_map(nmf.factorize(values, replace(cfg.nmf, r=r_eff)))
        combined = np.empty((m, len(detections) * len(masks)))
        for j, (d, mask) in enumerate(itertools.product(detections, masks)):
            omega = channel_aggregate(detector.gradient(cloud, d, mask, cfg.block_index))
            combined[:, j] = combine(omega, concept, features).values

    upsample = UpsampleConfig(range_threshold=0, k=1) if cfg.ablation in OWN_VOXEL else cfg.upsample
    columns = iter(upsample_to_points(features.with_values(combined), cloud, upsample).T)
    return [[next(columns) for _ in masks] for _ in detections]
