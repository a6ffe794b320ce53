"""Seeded synthetic scenes for desk-scale runs.

Scenes mimic the statistics that make perturbation metrics meaningful on
real LiDAR data: each object is a dense core wrapped in a moderate-density
body, sitting in clutter that dominates the perturbation region around a
detection. Densities are expressed in points per base voxel of the
default detector grid, so objects stay well above the detector's excess
threshold while isolated clutter stays silent.
"""

from __future__ import annotations

import numpy as np

from .boxes import OrientedBox
from .detector import ReferenceDetectorConfig
from .pipeline import CLASS_NAMES

_GRID = ReferenceDetectorConfig().grid
_BASE_CELL_VOLUME = _GRID.voxel_size**3
# points per base voxel in an object's body and in its dense core, and the
# share of the box volume the core fills
_BODY_DENSITY = 3.0
_CORE_DENSITY = 12.0
_CORE_VOLUME_FRACTION = 0.4
_MIN_SEPARATION = 10.0  # between object centers in a multi-object scene, in x-y


def _cluster_points(rng, box: OrientedBox) -> np.ndarray:
    """Dense core inside a moderate-density body, densities per base voxel.

    The body alone sits near the detector's density gate while the core is
    far above it, so the detection genuinely depends on the dense evidence
    and saliency-ordered point removal has a real target.
    """
    center = np.array(box.center)
    size = np.array(box.size)
    volume = float(size.prod())
    n_core = int(_CORE_DENSITY * volume * _CORE_VOLUME_FRACTION / _BASE_CELL_VOLUME)
    n_body = int(_BODY_DENSITY * volume / _BASE_CELL_VOLUME)
    core_scale = _CORE_VOLUME_FRACTION ** (1.0 / 3.0)
    core = center + (rng.uniform(size=(n_core, 3)) - 0.5) * size * core_scale
    body = center + (rng.uniform(size=(n_body, 3)) - 0.5) * size
    pts = np.vstack([core, body])
    return np.hstack([pts, rng.uniform(size=(len(pts), 1))])


def _noise_points(rng, n: int) -> np.ndarray:
    xyz = rng.uniform(_GRID.lower, _GRID.upper, size=(n, 3))
    return np.hstack([xyz, rng.uniform(size=(n, 1))])


def _random_box(rng) -> OrientedBox:
    """A box whose center lies at least 4 m inside the extent in x and y."""
    size = (
        float(rng.uniform(2.0, 2.6)),
        float(rng.uniform(2.0, 2.6)),
        float(rng.uniform(1.2, 1.8)),
    )
    center = []
    for (lo, hi), s in zip((_GRID.x_range, _GRID.y_range), size[:2]):
        pad = max(4.0, s / 2 + 0.1)
        center.append(float(rng.uniform(lo + pad, hi - pad)))
    z_lo, z_hi = _GRID.z_range
    center.append(float(rng.uniform(z_lo + size[2] / 2 + 0.2, z_hi - size[2] / 2 - 0.2)))
    return OrientedBox(tuple(center), size, yaw=0.0)


def single_object_scene(seed: int, n_noise_points: int = 14000):
    """One core-and-body cluster inside heavy uniform clutter.

    Returns ``(cloud, gt_box, label)``; the box is the exact region the
    cluster points were drawn from.
    """
    rng = np.random.default_rng(seed)
    box = _random_box(rng)
    label = CLASS_NAMES[int(rng.integers(len(CLASS_NAMES)))]
    cloud = np.vstack([_cluster_points(rng, box), _noise_points(rng, n_noise_points)])
    return cloud, box, label


def multi_object_scene(seed: int, n_noise_points: int = 14000):
    """Two well-separated clusters plus clutter; returns (cloud, [(box, label)])."""
    rng = np.random.default_rng(seed)
    boxes: list[OrientedBox] = []
    attempts = 0
    while len(boxes) < 2:
        attempts += 1
        if attempts > 1000:
            raise ValueError("could not place two objects apart")
        candidate = _random_box(rng)
        center = np.array(candidate.center[:2])
        if all(
            np.linalg.norm(center - np.array(b.center[:2])) >= _MIN_SEPARATION
            for b in boxes
        ):
            boxes.append(candidate)
    parts = [_cluster_points(rng, b) for b in boxes]
    parts.append(_noise_points(rng, n_noise_points))
    labels = [CLASS_NAMES[int(rng.integers(len(CLASS_NAMES)))] for _ in boxes]
    return np.vstack(parts), list(zip(boxes, labels))


def noise_scene(seed: int, n_points: int = 14000) -> np.ndarray:
    """Uniform clutter only; the reference detector should stay silent."""
    rng = np.random.default_rng(seed)
    return _noise_points(rng, n_points)


def low_rank_matrix(seed: int, max_size: int = 64, max_rank: int = 16):
    """Non-negative matrix of known low rank for factorization tests.

    Ground-truth factors are parts-like: each component owns one block of
    rows and one block of columns, plus a faint dense floor on the first
    component that keeps every entry strictly positive. Returns
    ``(matrix, rank)`` with rank <= min(shape).
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(8, max_size + 1))
    n = int(rng.integers(8, max_size + 1))
    r = int(rng.integers(1, min(max_rank, min(m, n)) + 1))
    h = np.zeros((m, r))
    w = np.zeros((r, n))
    for j, (rows, cols) in enumerate(
        zip(np.array_split(np.arange(m), r), np.array_split(np.arange(n), r))
    ):
        h[rows, j] = rng.uniform(0.3, 1.0, size=len(rows))
        w[j, cols] = rng.uniform(0.3, 1.0, size=len(cols))
    h[:, 0] = np.maximum(h[:, 0], rng.uniform(0.05, 0.15, size=m))
    w[0, :] = np.maximum(w[0, :], rng.uniform(0.05, 0.15, size=n))
    return h @ w, r
