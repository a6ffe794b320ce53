"""Saliency explanations for point-cloud object detections."""

from .boxes import OrientedBox, box_diagonal, canonicalize, iou_3d
from .detector import ReferenceDetector, ReferenceDetectorConfig, grad_check
from .nmf import Factorization, NmfConfig, factorize, global_concept_map
from .pipeline import (
    ATTRIBUTE_NAMES,
    Detection,
    PipelineConfig,
    explain_detection,
    full_mask,
    make_mask,
    object_loss,
)
from .voxelgrid import GridSpec, SparseVoxelMap, UpsampleConfig, upsample_to_points

__all__ = [
    "ATTRIBUTE_NAMES",
    "Detection",
    "Factorization",
    "GridSpec",
    "NmfConfig",
    "OrientedBox",
    "PipelineConfig",
    "ReferenceDetector",
    "ReferenceDetectorConfig",
    "SparseVoxelMap",
    "UpsampleConfig",
    "box_diagonal",
    "canonicalize",
    "explain_detection",
    "factorize",
    "full_mask",
    "global_concept_map",
    "grad_check",
    "iou_3d",
    "make_mask",
    "object_loss",
    "upsample_to_points",
]
