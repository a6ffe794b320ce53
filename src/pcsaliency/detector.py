"""Detector abstraction and the deterministic reference detector.

The reference detector is a desk-scale stand-in for a voxel 3D detection
network: a hand-rolled sparse feature pyramid (per-voxel descriptors, four
blocks of stride-2 sum pooling followed by a rectified seeded linear map)
and a thresholded clustering head whose box attributes are differentiable
functions of the voxel activations. Its gradients are analytic, which lets
tests pin them against central finite differences.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from typing import ContextManager, Protocol

import numpy as np

from .errors import DetectorFailure, EmptyCloud, EmptyMask, LengthMismatch
from .pipeline import ATTRIBUTE_NAMES, CLASS_NAMES, Detection, match_detection, object_loss
from .voxelgrid import GridSpec, SparseVoxelMap, _check_key_range, _group_rows

_NEIGHBOR_OFFSETS_26 = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]


class DetectorInterface(Protocol):
    """Behavioral contract the explanation pipeline consumes."""

    def scene(self, cloud: np.ndarray) -> ContextManager[None]: ...

    def detect(self, cloud: np.ndarray) -> list[Detection]: ...

    def detect_subset(self, cloud: np.ndarray, keep: np.ndarray) -> list[Detection]:
        """``detect(cloud[keep])`` for a boolean mask ``keep`` over ``cloud``."""
        ...

    def features(self, cloud: np.ndarray, block_index: int) -> SparseVoxelMap: ...

    def gradient(
        self,
        cloud: np.ndarray,
        d: Detection,
        mask: frozenset[str],
        block_index: int,
    ) -> SparseVoxelMap: ...


@dataclass(frozen=True)
class ReferenceDetectorConfig:
    """Geometry, feature width and head thresholds of the reference detector.

    ``feature_dim`` must be at least 5: the per-voxel base descriptor is
    (excess point count, mean offset x/y/z, mean intensity), zero-padded up
    to the feature width.
    """

    seed: int = 0
    voxel_size: float = 0.25
    x_range: tuple[float, float] = (0.0, 24.0)
    y_range: tuple[float, float] = (0.0, 24.0)
    z_range: tuple[float, float] = (0.0, 4.0)
    feature_dim: int = 32
    num_blocks: int = 4
    activation_threshold: float = 100.0
    excess_offset: float = 2.0
    kappa: float = 4.0
    size_floor: float = 1.0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        _check_key_range(self.grid)
        if self.feature_dim < 5:
            raise ValueError(
                f"feature_dim must be >= 5 to hold the base descriptor, got {self.feature_dim}"
            )
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if self.size_floor <= 0:
            raise ValueError(f"size_floor must be > 0, got {self.size_floor}")

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.voxel_size, self.x_range, self.y_range, self.z_range)


# Fewest rows a block product runs on once a block has that many live rows.
# A product row's bits then do not depend on the row count (OpenBLAS switches
# kernels below ~38 rows at feature width 32), so the rows a curve step
# recomputes equal those of a product over the whole block.
_MIN_PRODUCT_ROWS = 128

# Rows a slab of a block recomputed whole reaches before it ends at the next
# change of voxel x. At feature width 32 a slab's temporaries take ~0.3 MB
# per 1,024 rows; a 63k-point cloud's block 1 has 49,580 rows.
_SLAB_ROWS = 1024


@dataclass
class _SceneHold:
    """The cloud a ``scene`` scope serves, its layout and carried values
    pass once built, and the detections of every point kept, which stay
    while curve steps move the carry."""

    cloud: np.ndarray
    layout: "_Layout | None" = None
    carry: "_Carry | None" = None
    detections: "list[Detection] | None" = None


@dataclass
class _Layout:
    """Everything of one cloud's forward that sorts or locates.

    The voxels of any subset of the cloud, their parents at every block and
    the row order of both are sub-selections of these, in the same order,
    so a subset's forward needs only counting, no sorting. Curve steps
    also read each row's entries beneath it, sorted once on first use.
    """

    inside: np.ndarray  # cloud point -> in the grid
    base_rows: np.ndarray  # in-grid point -> block-1 row
    per_point: np.ndarray  # in-grid point: offset from its voxel corner, intensity
    block_coords: list[np.ndarray]  # per block 1..B, lex-sorted voxel coords
    parent_rows: list[np.ndarray]  # block b>=2: child row -> parent row

    @functools.cached_property
    def beneath(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per block, the entries beneath each row (in-grid points at block
        1, child rows above) in ascending order, as ``(entries, starts)``:
        row r's are ``entries[starts[r]:starts[r + 1]]``. Sorted on first
        use, by the first curve step that updates a block as a delta."""
        csr = []
        for b, coords in enumerate(self.block_coords):
            held = self.base_rows if b == 0 else self.parent_rows[b]
            starts = np.zeros(len(coords) + 1, dtype=np.int64)
            np.cumsum(np.bincount(held, minlength=len(coords)), out=starts[1:])
            csr.append((_stable_argsort(held), starts))
        return csr


@dataclass
class _Carry:
    """The values pass of the last keep mask over the in-grid points,
    ``kept``, over a layout's held rows.

    Per block, ``counts`` counts what lies beneath each held row (its kept
    points at block 1, its live children above) and ``values`` holds each
    live row's block output; a row with count 0 is dead and its values are
    stale. ``live`` is the number of live rows per block. ``activations``,
    ``clusters`` and ``detections`` are the head's answer on the last
    pass, over the live last-block rows: over every row when every point
    is kept.
    """

    kept: np.ndarray  # in-grid point -> kept by the last pass
    counts: list[np.ndarray]
    live: list[int]
    values: list[np.ndarray]
    activations: np.ndarray
    clusters: list[np.ndarray]
    detections: list[Detection]

    @classmethod
    def empty(cls, layout: _Layout, dim: int) -> "_Carry":
        """The state of no kept in-grid point: every row dead with zero
        values, and no cluster or detection."""
        return cls(
            np.zeros(len(layout.base_rows), dtype=bool),
            [np.zeros(len(coords), dtype=np.int64) for coords in layout.block_coords],
            [0] * len(layout.block_coords),
            [np.zeros((len(coords), dim)) for coords in layout.block_coords],
            np.zeros(0), [], [],
        )


class ReferenceDetector:
    """Deterministic detector with analytic feature gradients."""

    def __init__(self, cfg: ReferenceDetectorConfig | None = None):
        self.cfg = cfg or ReferenceDetectorConfig()
        self.grid = self.cfg.grid
        d = self.cfg.feature_dim
        rng = np.random.default_rng(self.cfg.seed)
        # Strictly positive weights keep every occupied voxel's pre-activation
        # bounded away from zero, so the ReLU never sits on its kink and
        # finite-difference checks stay clean at step 1e-4.
        self._block_weights = [
            rng.uniform(0.05, 1.05, size=(d, d)) * (2.0 / d)
            for _ in range(self.cfg.num_blocks)
        ]
        self._score_vec = rng.uniform(0.5, 1.5, size=d)
        # Zero-mean class vectors: the argmax then keys on the channel mix of
        # a cluster rather than its overall magnitude.
        self._class_vecs = rng.normal(size=(len(CLASS_NAMES), d))
        self._top_grid = self.grid.scaled(2 ** (self.cfg.num_blocks - 1))
        self._hold: _SceneHold | None = None

    # ------------------------------------------------------------------
    # public interface

    @contextlib.contextmanager
    def scene(self, cloud: np.ndarray):
        """Hold one state for every call on ``cloud`` inside the block.

        Every call runs in a scope; outside a caller's, in one of its own
        that ends with the call. The calls on this very array object share
        one layout of its voxels and one carried values pass. Each call
        moves the carried pass to its keep mask, every point for
        ``detect``/``features``/``gradient``, recomputing only the rows
        beneath the in-grid points whose keep flag flipped; a mask equal
        to the carried one in the grid costs a comparison, and a call at
        every point on a carry already there costs nothing. A
        ``detect_subset`` mask that keeps every point once
        ``detect``/``features``/``gradient`` has run gets the detections
        the scope holds for it and leaves the carry where it is. Any other
        array, such as a perturbed copy, gets a scope of its own. The match
        is by identity, not content, so the cloud must not be mutated inside
        the block. A block nested in one on the same array reuses the outer
        block's hold. Leaving the outermost block, also by an exception,
        releases what is held.
        """
        outer = self._hold
        if outer is None or outer.cloud is not cloud:
            self._hold = _SceneHold(cloud)
        try:
            yield
        finally:
            self._hold = outer

    def detect(self, cloud: np.ndarray) -> list[Detection]:
        return list(self._forward(cloud).detections)

    def detect_subset(self, cloud: np.ndarray, keep: np.ndarray) -> list[Detection]:
        """``detect(cloud[keep])``, bit for bit, as the delta from the last
        call's state in the scene scope on ``cloud``."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (len(cloud),):
            raise LengthMismatch(f"keep mask of shape {keep.shape} != cloud length {len(cloud)}")
        if not keep.any():
            raise EmptyCloud("detector requires a non-empty point cloud")
        with self.scene(cloud):
            hold = self._hold
            if hold.detections is not None and keep.all():
                return list(hold.detections)
            return list(self._pass(hold, keep).detections)

    def features(self, cloud: np.ndarray, block_index: int) -> SparseVoxelMap:
        self._check_block(block_index)
        hold = self._forward(cloud)
        # a copy: curve steps overwrite the carried values in place
        return SparseVoxelMap(
            hold.layout.block_coords[block_index - 1],
            hold.carry.values[block_index - 1].copy(),
            self.grid.scaled(2 ** (block_index - 1)),
        )

    def gradient(
        self,
        cloud: np.ndarray,
        d: Detection,
        mask: frozenset[str],
        block_index: int,
    ) -> SparseVoxelMap:
        self._check_block(block_index)
        if not mask:
            raise EmptyMask("attribute mask selects nothing")
        hold = self._forward(cloud)
        carry = hold.carry
        # float64 boxes of this forward: a caller's copy differs by round-off at most
        cluster = carry.clusters[match_detection(carry.detections, d, atol=1e-9)]
        grad = self._head_gradient(hold, cluster, mask)
        for b in range(self.cfg.num_blocks, block_index, -1):
            grad = self._backprop_block(hold, b, grad)
        return SparseVoxelMap(
            hold.layout.block_coords[block_index - 1],
            grad,
            self.grid.scaled(2 ** (block_index - 1)),
        )

    # ------------------------------------------------------------------
    # forward pass

    def _check_block(self, block_index: int):
        if not 1 <= block_index <= self.cfg.num_blocks:
            raise DetectorFailure(
                f"block_index must be in 1..{self.cfg.num_blocks}, got {block_index}"
            )

    def _forward(self, cloud: np.ndarray) -> _SceneHold:
        """The scope's hold on ``cloud`` with its carry at every point kept,
        whose detections it holds; a carry already there is not compared."""
        with self.scene(cloud):
            hold = self._hold
            if hold.detections is None or not hold.carry.kept.all():
                hold.detections = self._pass(hold, np.ones(len(cloud), dtype=bool)).detections
            return hold

    def _pass(self, hold: _SceneHold, keep: np.ndarray) -> _Carry:
        """The held carry moved to the cloud mask ``keep``, with the head's
        answer; the layout and the empty carry are built on first use.

        The forward reads only in-grid points, so a mask equal to the
        carried one there returns the carry as it is.
        """
        if hold.layout is None:
            hold.layout = self._layout(hold.cloud)
            hold.carry = _Carry.empty(hold.layout, self.cfg.feature_dim)
        layout, carry = hold.layout, hold.carry
        # a cloud wholly in the grid is compared as it is, with no per-step copy
        in_grid = keep if len(keep) == len(carry.kept) else keep[layout.inside]
        points = np.flatnonzero(in_grid != carry.kept)
        if len(points) == 0:
            return carry
        self._advance(layout, carry, points)
        coords, values = layout.block_coords[-1], carry.values[-1]
        if carry.live[-1] < len(coords):
            live = carry.counts[-1] > 0
            coords, values = np.compress(live, coords, axis=0), np.compress(live, values, axis=0)
        carry.activations, carry.clusters, carry.detections = self._head(coords, values)
        return carry

    def _layout(self, cloud: np.ndarray) -> _Layout:
        """Lex-sorted occupied voxels of every block, each in-grid point's
        base voxel row and each child voxel's parent row."""
        cloud = np.asarray(cloud, dtype=float)
        if len(cloud) == 0:
            raise EmptyCloud("detector requires a non-empty point cloud")
        inside = self.grid.contains(cloud)
        per_point = np.compress(inside, cloud[:, :4], axis=0)
        coords, base_rows = _group_rows(self.grid.coords_for(per_point))
        # per column (a row op over 3 columns runs one loop per row), with
        # the float64 numpy scalar bounds of ``lower + coords * voxel_size``
        for k, lo in enumerate(self.grid.lower):
            corners = lo + coords[:, k] * self.grid.voxel_size
            per_point[:, k] -= corners[base_rows]
        block_coords = [coords]
        parent_rows: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        for _ in range(1, self.cfg.num_blocks):
            coords, inverse = _group_rows(coords // 2)
            block_coords.append(coords)
            parent_rows.append(inverse)
        return _Layout(inside, base_rows, per_point, block_coords, parent_rows)

    def _advance(self, layout: _Layout, carry: _Carry, points: np.ndarray):
        """Move ``carry`` to the forward whose keep flags differ from the
        carried ones at the in-grid points ``points``.

        Only the rows beneath a flipped keep flag are dirty: a base voxel
        under a flipped point, then each parent of a dirty child. A
        dirty row is recounted, and recomputed if live, from its kept points
        or live children in ascending order, which ``_scatter_sum`` adds as
        a whole pass does; the block product runs on those rows padded with
        zero rows to ``_MIN_PRODUCT_ROWS``.

        A block with fewer live rows than that, now or at the last pass, is
        recomputed whole (see ``_whole_block``); so are the blocks above it,
        which have no more live rows. From the empty state every block is
        whole.
        """
        kept = carry.kept
        kept[points] = ~kept[points]
        whole = False
        for b in range(self.cfg.num_blocks):
            m = len(layout.block_coords[b])
            counts = carry.counts[b]
            below = layout.per_point if b == 0 else carry.values[b - 1]
            # a block last computed whole from fewer rows holds rows of a
            # product that rounds differently from a larger one
            whole = whole or carry.live[b] < _MIN_PRODUCT_ROWS
            if not whole:
                if b == 0:
                    touched = layout.base_rows[points]
                mark = np.zeros(m, dtype=bool)
                mark[touched] = True
                dirty = np.flatnonzero(mark)  # np.unique(touched), without the sort
                entries, group = _segments(*layout.beneath[b], dirty)
                if b == 0:
                    live_entries = kept[entries]
                else:
                    live_entries = carry.counts[b - 1][entries] > 0
                entries, group = entries[live_entries], group[live_entries]
                n = np.bincount(group, minlength=len(dirty))
                carry.live[b] += int(np.count_nonzero(n)) - int(np.count_nonzero(counts[dirty]))
                counts[dirty] = n
                whole = carry.live[b] < _MIN_PRODUCT_ROWS
            if whole:
                live_below = kept if b == 0 else carry.counts[b - 1] > 0
                held = layout.base_rows if b == 0 else layout.parent_rows[b]
                if not live_below.all():
                    held = np.compress(live_below, held)
                    below = np.compress(live_below, below, axis=0)
                carry.counts[b], rows, n = _compact(held, m)
                carry.live[b] = len(n)
                self._whole_block(b, layout.block_coords[b], carry, rows, n, below)
                continue
            redo = n > 0
            rows = (np.cumsum(redo) - 1).take(group)
            redo, n, below = dirty[redo], n[redo], below[entries]
            if b == 0:
                pooled = self._base_descriptors(
                    n, _scatter_sum(rows, below, len(n)), np.zeros((len(n), self.cfg.feature_dim))
                )
            else:
                pooled = _scatter_sum(rows, below, len(n))
            carry.values[b][redo] = self._rows_output(b, pooled)
            if b + 1 < self.cfg.num_blocks:
                touched = layout.parent_rows[b + 1][dirty]

    def _whole_block(self, b, coords, carry, rows, n, below):
        """Write block ``b``'s output over its live rows into the carried
        values: the carried counts mark the live rows among ``coords``,
        ``rows`` maps each ``below`` row (a kept in-grid point at block 1, a
        live child above) to its rank among them and ``n`` counts them.

        The rows are pooled and multiplied in slabs (``_slab_edges``), so no
        temporary of the feature width grows with the block.
        Each slab holds at least ``_MIN_PRODUCT_ROWS`` rows, or is the whole
        block, so its product rows have the bits of one product over the
        whole block. A slab ends where the voxel x changes, and a child's x
        halves to its parent's, so above block 1 lex order puts the
        children of a slab's rows in one contiguous run of ``below``; each
        row's sum starts at 0.0 and adds its children in ascending order,
        as a scatter over the whole block does.
        """
        values = carry.values[b]
        every = len(n) == len(coords)
        live_rows = None if every else np.flatnonzero(carry.counts[b])
        edges = _slab_edges(coords[:, 0] if every else coords[live_rows, 0])
        if b == 0:
            # offsets and intensity share one scatter; columns sum independently
            sums = _scatter_sum(rows, below, len(n))
            # the padding columns are zeroed once; each slab writes the others
            slab = np.zeros((int(np.diff(edges).max(initial=0)), self.cfg.feature_dim))
        else:
            first = np.zeros(len(n) + 1, dtype=np.int64)  # row r's children start at first[r]
            np.cumsum(n, out=first[1:])
        for lo, hi in zip(edges[:-1], edges[1:]):
            if b == 0:
                pooled = self._base_descriptors(n[lo:hi], sums[lo:hi], slab[: hi - lo])
            else:
                # sum pooling: a parent's feature is the accumulated evidence
                # of everything beneath it, so removing points anywhere under
                # a cell always lowers its activation
                c0, c1 = first[lo], first[hi]
                pooled = _scatter_sum(rows[c0:c1] - lo, below[c0:c1], hi - lo)
            if every:
                self._block_output(b, pooled, out=values[lo:hi])
            else:
                values[live_rows[lo:hi]] = self._block_output(b, pooled)

    def _rows_output(self, b: int, pooled: np.ndarray) -> np.ndarray:
        """Block ``b``'s output of some ``pooled`` rows of a block, padded
        with zero rows to ``_MIN_PRODUCT_ROWS``."""
        if len(pooled) >= _MIN_PRODUCT_ROWS:
            return self._block_output(b, pooled)
        padded = np.zeros((_MIN_PRODUCT_ROWS, pooled.shape[1]))
        padded[: len(pooled)] = pooled
        return self._block_output(b, padded)[: len(pooled)]

    def _block_output(self, b: int, pooled: np.ndarray, out=None) -> np.ndarray:
        """Rectified seeded linear map of block ``b`` (0-based), into ``out``
        when given."""
        out = np.matmul(pooled, self._block_weights[b].T, out=out)
        # in place: a second (M, d) temporary costs more than the product
        return np.maximum(out, 0.0, out=out)

    def _base_descriptors(self, counts, sums, out) -> np.ndarray:
        """``out`` holding the descriptor rows of the base voxels that
        ``counts`` counts, whose points' offsets and intensities sum to
        ``sums``; ``out``'s columns past those are the zero padding.

        Descriptor: excess point count (count - excess_offset, clipped at
        0), mean point offset from the voxel's lower corner (per axis, in
        [0, s)), mean intensity, zero padding. All entries are
        non-negative. The excess count makes the evidence
        density-sensitive: voxels holding only a couple of stray points
        contribute no occupancy signal, so isolated noise and uniformly
        thinned clouds score near zero.
        """
        out[:, 0] = np.maximum(counts - self.cfg.excess_offset, 0.0)
        out[:, 1 : sums.shape[1] + 1] = sums / counts[:, None]
        return out

    def _head(self, coords: np.ndarray, values: np.ndarray):
        activations = values @ self._score_vec
        active = np.flatnonzero(activations > self.cfg.activation_threshold)
        clusters = _connected_components(coords, active)
        detections = [
            self._cluster_detection(coords, values, activations, cl) for cl in clusters
        ]
        return activations, clusters, detections

    def _cluster_stats(self, coords, cluster, w):
        """Last-block voxel centers of a cluster and their ``w``-weighted
        total, mean and variance: the statistics every box attribute reads."""
        centers = self._top_grid.centers(coords[cluster])
        total = w.sum()
        mu = (w[:, None] * centers).sum(axis=0) / total
        var = (w[:, None] * (centers - mu) ** 2).sum(axis=0) / total
        return centers, total, mu, var

    def _cluster_box(self, coords, cluster, w, label: str) -> Detection:
        """The box a cluster's ``w``-weighted statistics describe: center at
        the mean, size ``max(kappa * std, size_floor)``, score the logistic
        of the total weight."""
        _, total, mu, var = self._cluster_stats(coords, cluster, w)
        size = np.maximum(self.cfg.kappa * np.sqrt(var), self.cfg.size_floor)
        return Detection(
            center=tuple(float(v) for v in mu),
            size=tuple(float(v) for v in size),
            yaw=0.0,
            score=float(_logistic(total)),
            label=label,
        )

    def _cluster_detection(self, coords, values, activations, cluster):
        logits = self._class_vecs @ values[cluster].sum(axis=0)
        label = CLASS_NAMES[int(np.argmax(logits))]
        return self._cluster_box(coords, cluster, activations[cluster], label)

    # ------------------------------------------------------------------
    # gradients

    def _head_gradient(self, hold: _SceneHold, cluster: np.ndarray, mask) -> np.ndarray:
        """d(loss)/d(last-block features), supported on the cluster's rows."""
        centers, total, mu, var = self._cluster_stats(
            hold.layout.block_coords[-1], cluster, hold.carry.activations[cluster]
        )
        std = np.sqrt(var)

        # d(attr)/d(w_v) for each masked attribute, summed with the sign of
        # |attr| applied; yaw is constant 0 and the class label is discrete.
        g_w = np.zeros(len(cluster))
        for axis, name in enumerate(("x", "y", "z")):
            if name in mask:
                g_w += np.sign(mu[axis]) * (centers[:, axis] - mu[axis]) / total
        for axis, name in enumerate(("l", "w", "h")):
            if name in mask and self.cfg.kappa * std[axis] > self.cfg.size_floor:
                g_w += (
                    self.cfg.kappa
                    * ((centers[:, axis] - mu[axis]) ** 2 - var[axis])
                    / (2.0 * std[axis] * total)
                )
        if "s" in mask:
            sig = _logistic(total)
            g_w += sig * (1.0 - sig)

        grad = np.zeros_like(hold.carry.values[-1])
        grad[cluster] = np.outer(g_w, self._score_vec)
        return grad

    def _backprop_block(self, hold: _SceneHold, b: int, grad: np.ndarray) -> np.ndarray:
        """Gradient at block b's output -> gradient at block b-1's output."""
        out = hold.carry.values[b - 1]
        pre = (out > 0) * grad
        pooled_grad = pre @ self._block_weights[b - 1]
        return pooled_grad[hold.layout.parent_rows[b - 1]]

    def _loss_from_block(self, hold, block_index, values, cluster, mask) -> float:
        """``object_loss`` of a cluster's box recomputed from substituted
        block features.

        Voxel structure, cluster membership and class label stay frozen at
        the unperturbed forward pass; only the continuous attribute math is
        re-evaluated. This is the function central finite differences probe.
        """
        layout = hold.layout
        for b in range(block_index, self.cfg.num_blocks):
            pooled = _scatter_sum(layout.parent_rows[b], values, len(layout.block_coords[b]))
            values = self._block_output(b, pooled)
        w = values[cluster] @ self._score_vec
        # the loss reads continuous attributes only, so any label serves
        box = self._cluster_box(layout.block_coords[-1], cluster, w, CLASS_NAMES[0])
        return object_loss(box, mask)


def grad_check(cfg: ReferenceDetectorConfig | None = None, scene_seed: int = 0) -> float:
    """Max relative analytic-vs-finite-difference gradient error on a scene.

    Builds a seeded synthetic scene, explains every detection with the full
    attribute mask, and central-differences (step 1e-4) every feature entry
    of block 3. Differences of at most 1e-8 are ignored; the rest are
    measured relative to the larger of the two gradients. Returns 0 for
    scenes without detections.
    """
    from .synthetic import single_object_scene

    cfg = cfg or ReferenceDetectorConfig()
    detector = ReferenceDetector(cfg)
    # light clutter keeps the finite-difference sweep tractable
    cloud, _, _ = single_object_scene(scene_seed, n_noise_points=120)
    block, step = 3, 1e-4
    mask = frozenset(ATTRIBUTE_NAMES)
    worst = 0.0
    # one scope: the analytic gradients read the forward the differences probe
    with detector.scene(cloud):
        hold = detector._forward(cloud)
        base_values = hold.carry.values[block - 1]
        for detection, cluster in zip(hold.carry.detections, hold.carry.clusters):
            analytic = np.asarray(detector.gradient(cloud, detection, mask, block).values)
            fd = np.zeros_like(analytic)
            values = base_values.copy()
            for flat in range(values.size):
                orig = values.flat[flat]
                values.flat[flat] = orig + step
                hi = detector._loss_from_block(hold, block, values, cluster, mask)
                values.flat[flat] = orig - step
                lo = detector._loss_from_block(hold, block, values, cluster, mask)
                values.flat[flat] = orig
                fd.flat[flat] = (hi - lo) / (2.0 * step)
            diff = np.abs(analytic - fd)
            ref = np.maximum(np.abs(analytic), np.abs(fd))
            significant = diff > 1e-8
            if np.any(significant):
                worst = max(worst, float((diff[significant] / ref[significant]).max()))
    return worst


def _scatter_sum(inverse: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Row sums ``out[g] = sum(values[inverse == g])`` over ``n`` groups.

    Bit-identical to ``np.add.at(np.zeros((n, c)), inverse, values)``:
    ``np.bincount`` starts every bin at 0.0 and adds its weights in input
    order, and the flat bin ``inverse[i] * c + j`` keeps row-major order,
    so each group's rows are added in ascending row order, column by column.
    """
    cols = values.shape[1]
    if len(inverse) == 0:  # np.bincount returns integer zeros for empty input
        return np.zeros((n, cols))
    flat = (inverse[:, None] * cols + np.arange(cols)).ravel()
    sums = np.bincount(flat, weights=values.ravel(), minlength=n * cols)
    return sums.reshape(n, cols)


def _slab_edges(x: np.ndarray) -> list[int]:
    """Bounds of the slabs over rows whose voxel x is ``x``, non-decreasing.

    Each slab ends at the first change of x at least ``_SLAB_ROWS`` rows on,
    and the last at the end; a last slab shorter than ``_MIN_PRODUCT_ROWS``
    joins the one before. So every slab but a lone one holds at least
    ``_MIN_PRODUCT_ROWS`` rows, and no voxel x spans two slabs.
    """
    changes = np.flatnonzero(x[1:] != x[:-1]) + 1
    edges = [0]
    while True:
        i = int(np.searchsorted(changes, edges[-1] + _SLAB_ROWS))
        if i == len(changes):
            break
        edges.append(int(changes[i]))
    if len(edges) > 1 and len(x) - edges[-1] < _MIN_PRODUCT_ROWS:
        edges.pop()
    return edges + [len(x)] if len(x) else edges


def _stable_argsort(held: np.ndarray) -> np.ndarray:
    """``np.argsort(held, kind="stable")`` for non-negative ``held`` below
    its length: the plain sort of the unique keys ``held * n + index`` is
    several times faster than the stable sort, and each key's remainder is
    its index. The keys fit in int64 below 3e9 entries."""
    n = len(held)
    keys = held * n + np.arange(n)
    keys.sort()
    return keys % n


def _segments(entries: np.ndarray, starts: np.ndarray, rows: np.ndarray):
    """The CSR segments of ``rows`` concatenated in order, and for each of
    their entries the position in ``rows`` of the row it belongs to."""
    lo = starts[rows]
    lengths = starts[rows + 1] - lo
    group = np.repeat(np.arange(len(rows)), lengths)
    first = np.repeat(lo - (np.cumsum(lengths) - lengths), lengths)
    return entries[np.arange(len(group)) + first], group


def _compact(held: np.ndarray, n: int):
    """``(counts, rows, used)`` of ``n`` held rows: ``counts`` counts each
    row's uses in ``held``, ``rows`` is ``held`` renumbered to rank among
    the used rows and ``used`` their counts, as ``np.unique`` would return
    them for the subset."""
    counts = np.bincount(held, minlength=n)
    live = counts > 0
    if live.all():  # no row to renumber: ``held`` and ``counts`` themselves, shared
        return counts, held, counts
    return counts, (np.cumsum(live) - 1).take(held), np.compress(live, counts)


def _connected_components(coords: np.ndarray, active: np.ndarray) -> list[np.ndarray]:
    """26-connected components among the active rows, deterministic order."""
    rows = active.tolist()
    # Python ints: numpy scalars cost several times more per neighbour probe
    at = dict(zip(rows, coords[active].tolist()))
    coord_rows = {tuple(xyz): r for r, xyz in at.items()}
    seen: set[int] = set()
    components = []
    for row in rows:
        if row in seen:
            continue
        stack = [row]
        seen.add(row)
        comp = []
        while stack:
            r = stack.pop()
            comp.append(r)
            cx, cy, cz = at[r]
            for dx, dy, dz in _NEIGHBOR_OFFSETS_26:
                nr = coord_rows.get((cx + dx, cy + dy, cz + dz))
                if nr is not None and nr not in seen:
                    seen.add(nr)
                    stack.append(nr)
        components.append(np.array(sorted(comp)))
    return components


def _logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)
