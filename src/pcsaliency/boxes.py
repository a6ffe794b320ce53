"""Oriented 3D box geometry.

Boxes are yaw-rotated (about z) cuboids. Membership tests use the closed
box; IoU intersects the rotated footprints with Sutherland-Hodgman
clipping and multiplies by the z-extent overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBox


@dataclass(frozen=True)
class OrientedBox:
    """Cuboid with center (x, y, z), size (l, w, h) and yaw about z."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    yaw: float = 0.0

    def __post_init__(self):
        if any(s <= 0 for s in self.size):
            raise DegenerateBox(f"box size must be positive, got {self.size}")

    @property
    def volume(self) -> float:
        l, w, h = self.size
        return l * w * h

    def footprint(self) -> np.ndarray:
        """Counter-clockwise corners of the rotated BEV rectangle, shape (4, 2)."""
        l, w, _ = self.size
        local = np.array(
            [[l / 2, w / 2], [-l / 2, w / 2], [-l / 2, -w / 2], [l / 2, -w / 2]]
        )
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.array(self.center[:2])


def _box_frame(points: np.ndarray, box: OrientedBox):
    """``(xb, yb, z)``: an (N, 3+) float array's coordinates moved by -center
    and rotated by -yaw into the box frame, one array per axis."""
    # per column: a row op over 3 columns runs one loop per row
    x, y, z = (points[:, k] - center for k, center in enumerate(box.center))
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    return c * x + s * y, -s * x + c * y, z


def points_in_box(points: np.ndarray, box: OrientedBox) -> np.ndarray:
    """Closed-box membership mask for an (N, 3+) point array."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[None, :]
    xb, yb, zb = _box_frame(points, box)
    l, w, h = box.size
    return (np.abs(xb) <= l / 2) & (np.abs(yb) <= w / 2) & (np.abs(zb) <= h / 2)


def box_diagonal(box: OrientedBox) -> float:
    """Space diagonal sqrt(l^2 + w^2 + h^2)."""
    l, w, h = box.size
    return math.sqrt(l * l + w * w + h * h)


def _clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman: clip a convex subject against a CCW convex polygon.

    Runs on Python float pairs, which do per vertex the same IEEE operations
    as numpy rows at a fraction of the per-element cost.
    """
    output = subject.tolist()
    clip = clip.tolist()
    m = len(clip)
    for i in range(m):
        if not output:
            break
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % m]
        ex, ey = bx - ax, by - ay
        px, py = output[-1]
        prev_side = ex * (py - ay) - ey * (px - ax)
        input_pts, output = output, []
        for cx, cy in input_pts:
            cur_side = ex * (cy - ay) - ey * (cx - ax)
            if (cur_side >= 0) != (prev_side >= 0):  # the edge crosses the clip line
                t = prev_side / (prev_side - cur_side)
                output.append((px + t * (cx - px), py + t * (cy - py)))
            if cur_side >= 0:
                output.append((cx, cy))
            px, py, prev_side = cx, cy, cur_side
    return np.array(output) if output else np.zeros((0, 2))


def _polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    # the next vertex's coordinates as contiguous copies: np.dot's last bits
    # depend on its operands' strides
    nxt = list(range(1, len(poly))) + [0]
    area = 0.5 * abs(np.dot(x, y[nxt]) - np.dot(y, x[nxt]))
    # degenerate slivers from clipping noise count as empty
    return area if area > 1e-12 else 0.0


def iou_3d(a: OrientedBox, b: OrientedBox) -> float:
    """Volumetric IoU of two yaw-rotated boxes.

    Arguments are canonically ordered before clipping so the result is
    exactly symmetric.
    """
    key_a = (*a.center, *a.size, a.yaw)
    key_b = (*b.center, *b.size, b.yaw)
    if key_b < key_a:
        a, b = b, a

    z_lo = max(a.center[2] - a.size[2] / 2, b.center[2] - b.size[2] / 2)
    z_hi = min(a.center[2] + a.size[2] / 2, b.center[2] + b.size[2] / 2)
    z_overlap = max(0.0, z_hi - z_lo)
    if z_overlap == 0.0:
        return 0.0

    bev_area = _polygon_area(_clip_polygon(a.footprint(), b.footprint()))
    intersection = bev_area * z_overlap
    union = a.volume + b.volume - intersection
    if union <= 0:
        return 0.0
    return min(1.0, max(0.0, intersection / union))


def canonicalize(points: np.ndarray, box: OrientedBox) -> np.ndarray:
    """Map points into the box's unit frame.

    Translates by -center, rotates by -yaw, divides per axis by (l, w, h);
    points inside the box land in [-0.5, 0.5]^3. Saliency values stay
    aligned with the returned rows.
    """
    frame = _box_frame(np.asarray(points, dtype=float), box)
    # one contiguous row per axis; the (N, 3) result is their transpose
    out = np.empty((3, len(frame[0])))
    for row, coord, size in zip(out, frame, box.size):
        np.divide(coord, size, out=row)
    return out.T
