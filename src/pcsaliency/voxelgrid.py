"""Sparse voxel grid math.

Points are assigned to cubic cells of side ``voxel_size`` by flooring
``(coord - lower_bound) / voxel_size`` per axis. Occupied cells live in a
``SparseVoxelMap`` keyed by integer coordinates; neighbor queries walk the
Manhattan ball around a cell, and activation maps are transferred back to
points with a Gaussian kernel over neighbor distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned voxelization of a rectangular extent.

    Ranges are half-open: a point belongs to the grid when
    ``lower <= coord < upper`` on every axis.
    """

    voxel_size: float
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    z_range: tuple[float, float]

    def __post_init__(self):
        if self.voxel_size <= 0:
            raise ValueError(f"voxel_size must be > 0, got {self.voxel_size}")
        for name, (lo, hi) in (
            ("x_range", self.x_range),
            ("y_range", self.y_range),
            ("z_range", self.z_range),
        ):
            if not lo < hi:
                raise ValueError(f"{name} must satisfy lower < upper, got ({lo}, {hi})")

    @property
    def lower(self) -> np.ndarray:
        return np.array([self.x_range[0], self.y_range[0], self.z_range[0]])

    @property
    def upper(self) -> np.ndarray:
        return np.array([self.x_range[1], self.y_range[1], self.z_range[1]])

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean in-range mask for an (N, 3+) array of points."""
        xyz = np.asarray(points)[:, :3]
        return np.all((xyz >= self.lower) & (xyz < self.upper), axis=1)

    def coords_for(self, points: np.ndarray) -> np.ndarray:
        """Voxel coordinates for an (N, 3+) array; no range checking."""
        xyz = np.asarray(points, dtype=float)[:, :3]
        return np.floor((xyz - self.lower) / self.voxel_size).astype(np.int64)

    def centers(self, coords: np.ndarray) -> np.ndarray:
        """Metric centers of the given integer voxel coordinates."""
        return self.lower + (np.asarray(coords, dtype=float) + 0.5) * self.voxel_size

    def scaled(self, factor: int) -> "GridSpec":
        """Same extent with voxels ``factor`` times larger (block strides)."""
        return GridSpec(self.voxel_size * factor, self.x_range, self.y_range, self.z_range)


@dataclass(frozen=True)
class UpsampleConfig:
    """Neighbor query bounds for voxel-to-point upsampling."""

    range_threshold: int = 2
    k: int = 16

    def __post_init__(self):
        if self.range_threshold < 0:
            raise ValueError("range_threshold must be >= 0")
        if self.k < 1:
            raise ValueError("k must be >= 1")


class SparseVoxelMap:
    """Occupied voxel coordinates with a per-voxel payload.

    ``values`` is indexed by row: an (M,) array for scalar payloads, an
    (M, d) array for vector payloads, or a list (e.g. of point-index
    arrays). Coordinates must be unique; the coordinate -> row index is
    built lazily on first lookup.
    """

    def __init__(self, coords: np.ndarray, values, grid: GridSpec):
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
        if len(values) != len(coords):
            raise ValueError(
                f"payload length {len(values)} != coordinate count {len(coords)}"
            )
        self.coords = coords
        self.values = values
        self.grid = grid
        self._index: dict[tuple[int, int, int], int] | None = None

    def __len__(self) -> int:
        return len(self.coords)

    @property
    def index(self) -> dict[tuple[int, int, int], int]:
        if self._index is None:
            index = {tuple(c): i for i, c in enumerate(self.coords.tolist())}
            if len(index) != len(self.coords):
                raise ValueError("voxel coordinates are not unique")
            self._index = index
        return self._index

    def with_values(self, values) -> "SparseVoxelMap":
        """New map on the same coordinates carrying a different payload."""
        out = SparseVoxelMap(self.coords, values, self.grid)
        out._index = self._index
        return out


def _offsets_within(threshold: int) -> list[tuple[int, int, int]]:
    out = []
    for dx in range(-threshold, threshold + 1):
        rem_x = threshold - abs(dx)
        for dy in range(-rem_x, rem_x + 1):
            rem_y = rem_x - abs(dy)
            for dz in range(-rem_y, rem_y + 1):
                out.append((dx, dy, dz))
    return out


def neighbor_query(center, vmap: SparseVoxelMap, cfg: UpsampleConfig):
    """Occupied voxels within the Manhattan ball around ``center``.

    Returns up to ``cfg.k`` tuples ``(coord, value, distance)`` sorted by
    ascending distance, ties broken by lexicographic coordinate.
    """
    cx, cy, cz = int(center[0]), int(center[1]), int(center[2])
    index = vmap.index
    found = []
    for dx, dy, dz in _offsets_within(cfg.range_threshold):
        coord = (cx + dx, cy + dy, cz + dz)
        row = index.get(coord)
        if row is not None:
            found.append((abs(dx) + abs(dy) + abs(dz), coord, row))
    found.sort(key=lambda item: (item[0], item[1]))
    return [(coord, vmap.values[row], dist) for dist, coord, row in found[: cfg.k]]


def upsample_to_points(
    activation: SparseVoxelMap, cloud: np.ndarray, cfg: UpsampleConfig
) -> np.ndarray:
    """Transfer per-voxel activations to per-point saliency scores.

    Each point queries its own voxel's Manhattan neighborhood on the
    activation map and takes the kernel-weighted average of neighbor
    values, with weights ``exp(-distance^2 / 2)``. Points outside the grid
    or with no occupied neighbors score 0.
    """
    cloud = np.asarray(cloud, dtype=float)
    n = len(cloud)
    scores = np.zeros(n)
    if n == 0 or len(activation) == 0:
        return scores

    grid = activation.grid
    inside = grid.contains(cloud)
    coords = grid.coords_for(cloud)

    # Cells farther than the threshold from every non-zero voxel can only
    # average zeros; dilating the non-zero support once avoids querying
    # each of them. The k-cap is unaffected: skipped cells would have
    # scored 0 from whatever neighbor set they see.
    values = np.asarray(activation.values, dtype=float)
    offsets = _offsets_within(cfg.range_threshold)
    reachable: set[tuple[int, int, int]] = set()
    for cx, cy, cz in activation.coords[values != 0].tolist():
        for dx, dy, dz in offsets:
            reachable.add((cx + dx, cy + dy, cz + dz))

    # Points sharing a voxel share a neighbor set; resolve per unique cell.
    cell_score: dict[tuple[int, int, int], float] = {}
    for i in np.flatnonzero(inside):
        key = (int(coords[i, 0]), int(coords[i, 1]), int(coords[i, 2]))
        score = cell_score.get(key)
        if score is None:
            if key not in reachable:
                cell_score[key] = 0.0
                continue
            neighbors = neighbor_query(key, activation, cfg)
            if not neighbors:
                score = 0.0
            else:
                dists = np.array([d for _, _, d in neighbors], dtype=float)
                vals = np.array([v for _, v, _ in neighbors], dtype=float)
                weights = np.exp(-0.5 * dists**2)
                # anchored at the first value so single-neighbor and
                # constant-activation cases come out bit-exact
                anchor = vals[0]
                score = float(
                    anchor + np.dot(weights, vals - anchor) / weights.sum()
                )
            cell_score[key] = score
        scores[i] = score
    return scores


def nearest_voxel_values(activation: SparseVoxelMap, cloud: np.ndarray) -> np.ndarray:
    """Raw activation of each point's own voxel; 0 when unoccupied or out of range."""
    cloud = np.asarray(cloud, dtype=float)
    n = len(cloud)
    scores = np.zeros(n)
    if n == 0 or len(activation) == 0:
        return scores
    values = np.asarray(activation.values, dtype=float)
    grid = activation.grid
    inside = grid.contains(cloud)
    coords = grid.coords_for(cloud)
    index = activation.index
    for i in np.flatnonzero(inside):
        row = index.get((int(coords[i, 0]), int(coords[i, 1]), int(coords[i, 2])))
        if row is not None:
            scores[i] = values[row]
    return scores
