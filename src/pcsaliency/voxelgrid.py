"""Sparse voxel grid math.

Points are assigned to cubic cells of side ``voxel_size`` by flooring
``(coord - lower_bound) / voxel_size`` per axis. Occupied cells live in a
``SparseVoxelMap`` keyed by integer coordinates, and one int64 linear key
per cell (``_linear_key``, range-checked by ``_check_key_range``) groups
points into cells. Activation maps are transferred back to points with a
Gaussian kernel over the Manhattan ball around each point's cell: every
(cell, offset) neighbor is gathered at once from the map's sorted keys,
and the columns of one (M, n) payload share that one search. Where the
key span is small next to the rows, grouping and the neighbor search index
a dense table of every key instead of sorting or searching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Most keys per row (per query, in upsampling) for which keys are indexed
# through a dense table of the whole key span, not sorted or searched. The
# two cost about the same at ~8.6 keys per row (17k points on the default
# base grid); at up to ~2.3 keys per row (63k points on that grid, every
# coarser block's grouping) the table is 2-4x faster. Wider spans, up to
# the int64 key range, sort.
_DENSE_KEYS_PER_ROW = 8


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
        points = np.asarray(points)
        # per column (a row reduction over 3 columns runs one loop per row),
        # against float64 numpy scalars: a Python float bound would compare a
        # float32 column in float32
        inside = np.ones(len(points), dtype=bool)
        for k, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            column = points[:, k]
            inside &= column >= lo
            inside &= column < hi
        return inside

    def coords_for(self, points: np.ndarray) -> np.ndarray:
        """Voxel coordinates for an (N, 3+) array; no range checking."""
        points = np.asarray(points, dtype=float)
        # per column, as ``contains``: each element is
        # floor((coord - lower) / voxel_size) with the float64 lower bound
        coords = np.empty((len(points), 3), dtype=np.int64)
        for k, lo in enumerate(self.lower):
            coords[:, k] = np.floor((points[:, k] - lo) / self.voxel_size)
        return coords

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
            raise ValueError(f"range_threshold must be >= 0, got {self.range_threshold}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


class SparseVoxelMap:
    """Occupied voxel coordinates with a per-voxel payload.

    ``values`` is indexed by row: an (M,) array for scalar payloads or an
    (M, d) array for vector payloads. Coordinates must be unique;
    ``upsample_to_points`` rejects a map that repeats one.
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

    def __len__(self) -> int:
        return len(self.coords)

    def with_values(self, values) -> "SparseVoxelMap":
        """New map on the same coordinates carrying a different payload."""
        return SparseVoxelMap(self.coords, values, self.grid)


def _offsets_within(threshold: int) -> list[tuple[int, int, int]]:
    out = []
    for dx in range(-threshold, threshold + 1):
        rem_x = threshold - abs(dx)
        for dy in range(-rem_x, rem_x + 1):
            rem_y = rem_x - abs(dy)
            for dz in range(-rem_y, rem_y + 1):
                out.append((dx, dy, dz))
    return out


def _check_key_range(grid: GridSpec, pad: int = 0) -> np.ndarray:
    """Cells per axis of ``grid`` widened by ``pad`` on each side, after
    rejecting grids whose linear voxel key (see ``_linear_key``) could wrap.

    An in-range point's coordinate on an axis is at most
    ``floor((upper - lower) / voxel_size)``, computed with the same float
    operations as ``GridSpec.coords_for``, so the key of every voxel in the
    widened box fits in int64 when the product of its extents does.
    """
    cells = []
    for lo, hi in (grid.x_range, grid.y_range, grid.z_range):
        extent = (hi - lo) / grid.voxel_size
        if not math.isfinite(extent):
            raise ValueError(f"grid extent ({lo}, {hi}) / {grid.voxel_size} is not finite")
        cells.append(math.floor(extent) + 1 + 2 * pad)
    total = math.prod(cells)
    if total > np.iinfo(np.int64).max:
        raise ValueError(
            f"grid of {total} voxels (voxel_size {grid.voxel_size}) exceeds the "
            "int64 voxel key range"
        )
    return np.array(cells, dtype=np.int64)


def _linear_key(coords: np.ndarray, span: np.ndarray) -> np.ndarray:
    """One int64 per row of non-negative (N, 3) coordinates below ``span``;
    lexicographic (x slowest, z fastest), so key order is row order."""
    return (coords[:, 0] * span[1] + coords[:, 1]) * span[2] + coords[:, 2]


def _group_rows(coords: np.ndarray):
    """Unique rows of a non-negative (N, 3) integer array, lex-sorted.

    Returns ``(unique, inverse)`` exactly as ``np.unique(coords, axis=0,
    return_inverse=True)`` does, from one ``_linear_key`` per row: indexed
    through a dense table of every key when there are at most
    ``_DENSE_KEYS_PER_ROW`` keys per row, sorted otherwise.
    """
    if len(coords) == 0:
        return coords.reshape(0, 3), np.zeros(0, dtype=np.int64)
    span = np.array([coords[:, k].max() for k in range(3)]) + 1  # per column: coords.max(axis=0)
    row_keys = _linear_key(coords, span)
    total = math.prod(span.tolist())  # Python ints: a wide span's product passes int64
    if total <= _DENSE_KEYS_PER_ROW * len(coords):
        present = np.zeros(total, dtype=bool)
        present[row_keys] = True
        keys = np.flatnonzero(present)  # the sorted unique keys
        rank = np.empty(total, dtype=np.int64)  # read only at present keys
        rank[keys] = np.arange(len(keys))
        inverse = rank[row_keys]
    else:
        keys, inverse = np.unique(row_keys, return_inverse=True)
    unique = np.empty((len(keys), 3), dtype=np.int64)
    keys, unique[:, 2] = np.divmod(keys, span[2])
    unique[:, 0], unique[:, 1] = np.divmod(keys, span[1])
    return unique, inverse


def upsample_to_points(
    activation: SparseVoxelMap, cloud: np.ndarray, cfg: UpsampleConfig
) -> np.ndarray:
    """Transfer per-voxel activations to per-point saliency scores.

    Each point takes the kernel-weighted average, with weights
    ``exp(-distance^2 / 2)``, of the occupied voxels within Manhattan
    distance ``cfg.range_threshold`` of its own voxel: the ``cfg.k``
    nearest, ties broken by lexicographic coordinate. Points sharing a
    voxel share a score, so the in-grid points are grouped into cells and
    every (cell, offset) neighbor is looked up at once in the map's sorted
    linear keys. Offsets ordered by (distance, offset) give that order
    around any center, and the k-cap is a running count of the neighbors
    found. Points outside the grid or with no occupied neighbors score 0.
    At range 0 and k 1 each point reads its own voxel's value, with a
    ``-0.0`` voxel read as ``0.0``.

    An (M,) payload gives (N,) scores. An (M, n) payload gives (N, n)
    scores: one neighbor search serves every column, and each column is
    bit for bit the scores of its own (M,) call.

    Raises ValueError for a payload of more than two dimensions, for a
    non-empty map with repeated coordinates, or for a grid whose voxel key
    could wrap int64.
    """
    values = np.asarray(activation.values, dtype=float)
    if values.ndim > 2:
        raise ValueError(f"payload of shape {values.shape}, want (M,) or (M, n)")
    cloud = np.asarray(cloud, dtype=float)
    if len(activation) == 0:  # every point scores 0
        return np.zeros((len(cloud), *values.shape[1:]), order="F")
    grid, r = activation.grid, cfg.range_threshold
    span = _check_key_range(grid, pad=r)

    order = np.lexsort(activation.coords.T[::-1])
    coords = activation.coords[order]
    if np.any(np.all(coords[1:] == coords[:-1], axis=1)):
        raise ValueError("voxel coordinates are not unique")
    # Only voxels within r of the grid can neighbor an in-grid cell. Their
    # keys ascend with the lexicographic order; the int64 max sentinel keeps
    # every looked-up position a valid index and matches no query.
    near = np.all((coords >= -r) & (coords < span - r), axis=1)
    keys = np.append(_linear_key(coords[near] + r, span), np.iinfo(np.int64).max)

    # the in-grid points' cells, which cells have a neighbor, and each such
    # cell's anchor row and (cell, offset) neighbor rows of the map's values
    inside = grid.contains(cloud)
    cells, inverse = _group_rows(grid.coords_for(np.compress(inside, cloud[:, :3], axis=0)))
    offsets = np.array(_offsets_within(r), dtype=np.int64)  # lexicographic
    dist = np.abs(offsets).sum(axis=1)
    by_distance = np.argsort(dist, kind="stable")
    offsets, dist = offsets[by_distance], dist[by_distance]

    # _linear_key is linear, so the key of cell + offset is the sum of keys
    query = _linear_key(cells + r, span)[:, None] + _linear_key(offsets, span)
    total = math.prod(span.tolist())
    if total <= _DENSE_KEYS_PER_ROW * query.size:
        # each key's position in a table of the whole span, where a
        # missing key reads the sentinel's
        table = np.full(total, len(keys) - 1)
        table[keys[:-1]] = np.arange(len(keys) - 1)
        pos = table[query]
        del table
    else:
        pos = np.searchsorted(keys, query)
    found = keys[pos] == query
    found &= np.cumsum(found, axis=1) <= cfg.k
    hit = found.any(axis=1)
    found, pos = found[hit], pos[hit]

    # anchored at the first neighbor's value so single-neighbor and
    # constant-activation cells come out bit-exact; slots without a
    # neighbor read the anchor, so they deviate by 0 with weight 0
    first = pos[np.arange(len(pos)), found.argmax(axis=1)]
    rows = order[near]
    anchor_rows, neighbors = rows[first], rows[np.where(found, pos, first[:, None])]
    weights = np.where(found, np.exp(-0.5 * dist**2), 0.0)
    weight_sums = weights.sum(axis=1)
    del coords, keys, cells, query, pos, found  # the search's temporaries, before the scores

    columns = values if values.ndim == 2 else values[:, None]
    scores = np.zeros((len(cloud), columns.shape[1]), order="F")  # contiguous columns
    for j, column in enumerate(columns.T):
        anchor = column[anchor_rows]
        cell_scores = np.zeros(len(hit))
        # the deviations stay a temporary: a name would hold them into the
        # next column, beside that column's
        cell_scores[hit] = anchor + (
            weights * (column[neighbors] - anchor[:, None])
        ).sum(axis=1) / weight_sums
        scores[:, j][inside] = cell_scores[inverse]
    return scores if values.ndim == 2 else scores[:, 0]
