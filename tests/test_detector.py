import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from pcsaliency.detector import (
    _MIN_PRODUCT_ROWS,
    _NEIGHBOR_OFFSETS_26,
    _SLAB_ROWS,
    ReferenceDetector,
    ReferenceDetectorConfig,
    _connected_components,
    _scatter_sum,
    _slab_edges,
    _stable_argsort,
    grad_check,
)
from pcsaliency.errors import DetectionNotFound, DetectorFailure, EmptyCloud, LengthMismatch
from pcsaliency.metrics import deletion_curve, insertion_curve
from pcsaliency.pipeline import (
    Detection, PipelineConfig, explain_detection, full_mask, make_mask,
)
from pcsaliency.synthetic import multi_object_scene, noise_scene, single_object_scene

from conftest import blas_fingerprint


def dense_cluster(center, size, n, seed, intensity=0.5):
    rng = np.random.default_rng(seed)
    xyz = np.array(center) + (rng.uniform(size=(n, 3)) - 0.5) * np.array(size)
    return np.hstack([xyz, np.full((n, 1), intensity)])


class TestDetect:
    def test_single_cluster_centered(self, detector):
        # 2x1x1 m cluster centered on a last-block cell corner: the
        # activation-weighted center balances and lands near the centroid
        cloud = dense_cluster((20.0, 20.0, 1.0), (2.0, 1.0, 1.0), 600, seed=1)
        detections = detector.detect(cloud)
        assert len(detections) == 1
        center = np.array(detections[0].center)
        centroid = cloud[:, :3].mean(axis=0)
        assert np.linalg.norm(center - centroid) <= 0.5

    def test_sparse_noise_below_threshold(self, detector):
        assert detector.detect(noise_scene(0, 200)) == []

    def test_two_separated_clusters(self, detector):
        cloud = np.vstack(
            [
                dense_cluster((6.0, 6.0, 1.0), (2.0, 1.5, 1.0), 400, seed=2),
                dense_cluster((18.0, 18.0, 1.0), (2.0, 1.5, 1.0), 400, seed=3),
            ]
        )
        detections = detector.detect(cloud)
        assert len(detections) == 2

    def test_empty_cloud_rejected(self, detector):
        with pytest.raises(EmptyCloud):
            detector.detect(np.zeros((0, 4)))

    def test_deterministic(self, detector):
        cloud, _, _ = single_object_scene(4)
        first = detector.detect(cloud)
        second = detector.detect(cloud)
        assert first == second

    def test_scores_and_sizes_valid(self, detector):
        for seed in range(4):
            cloud, _, _ = single_object_scene(seed)
            for d in detector.detect(cloud):
                assert 0.0 <= d.score <= 1.0
                assert all(s > 0 for s in d.size)
                assert d.yaw == 0.0


class TestFeatures:
    def test_out_of_range_cloud_gives_empty_map(self, detector):
        cloud = np.array([[100.0, 100.0, 100.0, 0.5]])
        fmap = detector.features(cloud, 1)
        assert len(fmap) == 0

    def test_pooling_never_increases_occupancy(self, detector):
        cloud, _, _ = single_object_scene(1)
        counts = [len(detector.features(cloud, b)) for b in (1, 2, 3, 4)]
        assert counts == sorted(counts, reverse=True)

    def test_single_point_block1_feature_is_seeded_linear_map(self, detector):
        cloud = np.array([[10.12, 10.37, 1.83, 0.0]])
        fmap = detector.features(cloud, 1)
        assert len(fmap) == 1
        s = detector.grid.voxel_size
        coord = fmap.coords[0]
        corner = detector.grid.lower + coord * s
        descriptor = np.zeros(detector.cfg.feature_dim)
        descriptor[0] = max(1.0 - detector.cfg.excess_offset, 0.0)
        descriptor[1:4] = cloud[0, :3] - corner
        descriptor[4] = 0.0
        expected = np.maximum(detector._block_weights[0] @ descriptor, 0.0)
        assert np.array_equal(np.asarray(fmap.values)[0], expected)

    def test_non_negative_at_all_blocks(self, detector):
        cloud, _, _ = single_object_scene(2)
        for b in (1, 2, 3, 4):
            assert np.min(np.asarray(detector.features(cloud, b).values)) >= 0.0

    def test_block_index_validated(self, detector):
        cloud, _, _ = single_object_scene(0)
        with pytest.raises(DetectorFailure):
            detector.features(cloud, 5)


def weak_detector():
    """Low activation threshold so a tiny cluster detects while its total
    activation stays small enough to leave the logistic score unsaturated."""
    return ReferenceDetector(ReferenceDetectorConfig(activation_threshold=10.0))


def weak_cluster_scene():
    return dense_cluster((12.0, 12.0, 1.0), (0.35, 0.35, 0.35), 24, seed=7)


class TestGradient:
    def test_score_mask_supported_on_cluster_only(self):
        detector = weak_detector()
        cloud = weak_cluster_scene()
        detections = detector.detect(cloud)
        assert len(detections) == 1
        d = detections[0]
        assert d.score < 1.0 - 1e-12  # not saturated; s-gradient is live
        grad = detector.gradient(cloud, d, make_mask("s"), 4)
        feats = detector.features(cloud, 4)
        activations = np.asarray(feats.values) @ detector._score_vec
        active = activations > detector.cfg.activation_threshold
        row_mass = np.abs(np.asarray(grad.values)).sum(axis=1)
        assert np.all(row_mass[~active] == 0.0)
        assert np.any(row_mass[active] > 0.0)

    def test_rows_outside_cluster_are_zero(self, detector):
        cloud, _, _ = single_object_scene(0)
        d = detector.detect(cloud)[0]
        grad = np.asarray(detector.gradient(cloud, d, full_mask(), 3).values)
        feats = detector.features(cloud, 3)
        centers = feats.grid.centers(feats.coords)
        far = np.linalg.norm(centers - np.array(d.center), axis=1) > 8.0
        assert np.all(np.abs(grad[far]).sum(axis=1) == 0.0)

    def test_coordinates_match_features(self, detector):
        cloud, _, _ = single_object_scene(3)
        d = detector.detect(cloud)[0]
        for b in (1, 2, 3, 4):
            feats = detector.features(cloud, b)
            grad = detector.gradient(cloud, d, full_mask(), b)
            assert np.array_equal(feats.coords, grad.coords)
            assert np.asarray(grad.values).shape == np.asarray(feats.values).shape

    def test_unknown_detection_rejected(self, detector):
        cloud, _, _ = single_object_scene(0)
        fake = Detection((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), 0.0, 0.5, "car")
        with pytest.raises(DetectionNotFound):
            detector.gradient(cloud, fake, full_mask(), 3)

    def test_finite_difference_agreement(self):
        detector = weak_detector()
        cloud = weak_cluster_scene()
        hold = detector._forward(cloud)
        d, cluster = hold.carry.detections[0], hold.carry.clusters[0]
        values = hold.carry.values[2]
        analytic = np.asarray(detector.gradient(cloud, d, full_mask(), 3).values)
        rng = np.random.default_rng(0)
        rows = np.flatnonzero(np.abs(analytic).sum(axis=1) > 0)
        h = 1e-4
        for row in rows[:4]:
            for col in rng.integers(0, values.shape[1], size=3):
                probe = values.copy()
                probe[row, col] += h
                hi = detector._loss_from_block(hold, 3, probe, cluster, full_mask())
                probe[row, col] -= 2 * h
                lo = detector._loss_from_block(hold, 3, probe, cluster, full_mask())
                fd = (hi - lo) / (2 * h)
                assert analytic[row, col] == pytest.approx(fd, rel=1e-5, abs=1e-9)


class TestGradCheck:
    def test_no_detections_gives_zero(self):
        cfg = ReferenceDetectorConfig(activation_threshold=1e9)
        assert grad_check(cfg, scene_seed=0) == 0.0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_two_seeds_within_tolerance(self, seed, count_forwards):
        assert grad_check(scene_seed=seed) <= 1e-4
        # one scope: the analytic gradients read the probed forward
        assert len(count_forwards) == 1


def test_multi_object_scene_detts(detector):
    cloud, objects = multi_object_scene(11)
    assert len(detector.detect(cloud)) == 2


def test_feature_dim_floor():
    with pytest.raises(ValueError):
        ReferenceDetectorConfig(feature_dim=4)


def test_seed_floor():
    with pytest.raises(ValueError, match="seed"):
        ReferenceDetectorConfig(seed=-1)


def test_key_overflowing_grid_rejected():
    with pytest.raises(ValueError, match="int64"):
        ReferenceDetector(ReferenceDetectorConfig(
            voxel_size=1e-6, x_range=(0.0, 1e6), y_range=(0.0, 1e6), z_range=(0.0, 1e6),
        ))
    # (2**21 - 1)**3 cells fit in int64, 2**63 do not
    edge = float(2**21 - 1)
    with pytest.raises(ValueError, match="int64"):
        ReferenceDetector(ReferenceDetectorConfig(
            voxel_size=1.0, x_range=(0.0, edge), y_range=(0.0, edge), z_range=(0.0, edge),
        ))
    ReferenceDetector(ReferenceDetectorConfig(
        voxel_size=1.0, x_range=(0.0, edge - 1), y_range=(0.0, edge - 1),
        z_range=(0.0, edge - 1),
    ))


# ----------------------------------------------------------------------
# bit-exact oracle: the forward pass as first written, with whole-row
# np.unique sorts and np.add.at scatters


def reference_forward(detector, cloud):
    cfg, grid = detector.cfg, detector.grid
    cloud = np.asarray(cloud, dtype=float)
    d = cfg.feature_dim
    pts = cloud[grid.contains(cloud)]
    if len(pts) == 0:
        coords, values = np.zeros((0, 3), dtype=np.int64), np.zeros((0, d))
    else:
        coords, inverse, counts = np.unique(
            grid.coords_for(pts), axis=0, return_inverse=True, return_counts=True
        )
        inverse = inverse.ravel()
        values = np.zeros((len(coords), d))
        values[:, 0] = np.maximum(counts - cfg.excess_offset, 0.0)
        corners = grid.lower + coords * grid.voxel_size
        sums = np.zeros((len(coords), 3))
        np.add.at(sums, inverse, pts[:, :3] - corners[inverse])
        values[:, 1:4] = sums / counts[:, None]
        if pts.shape[1] > 3:
            isum = np.zeros(len(coords))
            np.add.at(isum, inverse, pts[:, 3])
            values[:, 4] = isum / counts
    block_coords, block_values, parent_rows = [], [], [np.zeros(0, dtype=np.int64)]
    for b in range(cfg.num_blocks):
        if b > 0:
            parents, inverse = np.unique(coords // 2, axis=0, return_inverse=True)
            inverse = inverse.ravel()
            pooled = np.zeros((len(parents), d))
            np.add.at(pooled, inverse, values)
            coords, values = parents, pooled
            parent_rows.append(inverse)
        values = np.maximum(values @ detector._block_weights[b].T, 0.0)
        block_coords.append(coords)
        block_values.append(values)
    activations, clusters, detections = detector._head(coords, values)
    return block_coords, block_values, parent_rows, activations, clusters, detections


def bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def assert_forward_matches_reference(detector, cloud):
    hold = detector._forward(cloud)
    layout, carry = hold.layout, hold.carry
    coords, values, parents, activations, clusters, detections = reference_forward(
        detector, cloud
    )
    for got, want in (
        (layout.block_coords, coords),
        (carry.values, values),
        (layout.parent_rows, parents),
        (carry.clusters, clusters),
    ):
        assert [bits(a) for a in got] == [bits(a) for a in want]
    assert bits(carry.activations) == bits(activations)
    assert hold.detections == carry.detections == detections
    return hold


def boundary_cloud(grid):
    """Points on every lower bound and just under every upper bound."""
    lo = grid.lower
    hi = np.nextafter(grid.upper, -np.inf)
    corners = np.array([[(lo, hi)[(k >> a) & 1][a] for a in range(3)] for k in range(8)])
    rng = np.random.default_rng(3)
    faces = rng.uniform(lo, hi, size=(60, 3))
    rows, axis = np.arange(60), np.arange(60) % 3
    faces[rows, axis] = np.where(rows % 2 == 0, lo[axis], hi[axis])
    xyz = np.vstack([corners, corners, faces])
    return np.hstack([xyz, rng.uniform(size=(len(xyz), 1))])


_ORACLE_CASES = {
    "default-scene": lambda: single_object_scene(0)[0],
    "60k-noise-scene": lambda: single_object_scene(1, n_noise_points=60_000)[0],
    "no-intensity": lambda: single_object_scene(2)[0][:, :3],
    "all-outside": lambda: np.array([[-1.0, 5.0, 1.0, 0.2], [30.0, 5.0, 1.0, 0.3]]),
    "boundaries": lambda: boundary_cloud(ReferenceDetector().grid),
    "single-point": lambda: np.array([[10.12, 10.37, 1.83, 0.4]]),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_forward_bit_identical_to_reference(detector, case):
    assert_forward_matches_reference(detector, _ORACLE_CASES[case]())


def test_forward_at_key_range_limit():
    # the largest coordinates an int64 key can hold on each axis
    edge = float(2**21 - 2)
    detector = ReferenceDetector(ReferenceDetectorConfig(
        voxel_size=1.0, x_range=(0.0, edge), y_range=(0.0, edge), z_range=(0.0, edge),
        activation_threshold=1.0,
    ))
    cloud = np.vstack([
        boundary_cloud(detector.grid),
        dense_cluster((edge - 2.0, edge - 2.0, edge - 2.0), (3.0, 3.0, 3.0), 200, seed=5),
    ])
    hold = assert_forward_matches_reference(detector, cloud)
    assert hold.layout.block_coords[0].max() == 2**21 - 3
    assert hold.detections


_SMALL_GRID = ReferenceDetectorConfig(
    voxel_size=0.5, x_range=(0.0, 6.0), y_range=(0.0, 6.0), z_range=(0.0, 3.0),
    num_blocks=3, activation_threshold=5.0,
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    with_intensity=st.booleans(),
    clump=st.floats(0.05, 8.0),
)
def test_forward_bit_identical_on_random_clouds(seed, n, with_intensity, clump):
    # ``clump`` sets the spread around one center: small values pile many
    # points into few voxels, large ones scatter them past the grid edges
    detector = ReferenceDetector(_SMALL_GRID)
    rng = np.random.default_rng(seed)
    xyz = rng.normal((3.0, 3.0, 1.5), clump, size=(n, 3))
    cloud = np.hstack([xyz, rng.uniform(size=(n, 1))]) if with_intensity else xyz
    assert_forward_matches_reference(detector, cloud)


# ----------------------------------------------------------------------
# subset forwards: a first curve step in a scope is the whole pass from the
# empty state over the cloud's layout, and must carry the bits of a fresh
# forward on the thinned copy


def assert_subset_matches_fresh(detector, cloud, keep):
    with detector.scene(cloud):
        got = detector.detect_subset(cloud, keep)
        assert got == assert_carry_matches_fresh(detector, cloud, keep).detections


class RecordingDetector:
    """Passes a curve's calls on to ``detector``, recording every keep mask."""

    def __init__(self, detector):
        self.detector, self.masks = detector, []

    def scene(self, cloud):
        return self.detector.scene(cloud)

    def detect_subset(self, cloud, keep):
        self.masks.append(keep.copy())
        return self.detector.detect_subset(cloud, keep)


@pytest.mark.parametrize("seed", range(8))
def test_subset_forward_bit_identical_on_curve_steps(detector, seed):
    cloud, _, _ = single_object_scene(seed)
    d = detector.detect(cloud)[0]
    [[saliency]] = explain_detection(detector, cloud, [d], [full_mask()], PipelineConfig())
    recorder = RecordingDetector(detector)
    deletion_curve(recorder, cloud, d, saliency, 20)
    insertion_curve(recorder, cloud, d, saliency, 20)
    assert len(recorder.masks) == 2 * 21
    for keep in recorder.masks:
        assert_subset_matches_fresh(detector, cloud, keep)


def _with_outside_points(cloud):
    outside = np.array([[-1.0, 5.0, 1.0, 0.2], [30.0, 5.0, 1.0, 0.3], [5.0, 5.0, 9.0, 0.1]])
    return np.vstack([cloud, outside])


def _random_half(cloud):
    return np.random.default_rng(len(cloud)).uniform(size=len(cloud)) < 0.5


_SUBSET_CASES = {
    "all-kept": (lambda: single_object_scene(0)[0], lambda c: np.ones(len(c), dtype=bool)),
    "only-outside": (
        lambda: _with_outside_points(single_object_scene(0)[0]),
        lambda c: ~ReferenceDetector().grid.contains(c),
    ),
    "single-point": (
        lambda: single_object_scene(0)[0], lambda c: np.arange(len(c)) == len(c) // 2,
    ),
    "boundaries": (lambda: boundary_cloud(ReferenceDetector().grid), _random_half),
    "no-intensity": (lambda: single_object_scene(2)[0][:, :3], _random_half),
    "60k-noise-scene": (
        lambda: single_object_scene(1, n_noise_points=60_000)[0], _random_half,
    ),
}


@pytest.mark.parametrize("case", sorted(_SUBSET_CASES))
def test_subset_forward_bit_identical_on_masks(detector, case):
    make_cloud, make_keep = _SUBSET_CASES[case]
    cloud = make_cloud()
    keep = make_keep(cloud)
    assert keep.any()
    assert_subset_matches_fresh(detector, cloud, keep)
    assert detector.detect_subset(cloud, keep) == detector.detect(cloud[keep])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    with_intensity=st.booleans(),
    clump=st.floats(0.05, 8.0),
    kept=st.floats(0.0, 1.0),
)
def test_subset_forward_bit_identical_on_random_clouds(seed, n, with_intensity, clump, kept):
    detector = ReferenceDetector(_SMALL_GRID)
    rng = np.random.default_rng(seed)
    xyz = rng.normal((3.0, 3.0, 1.5), clump, size=(n, 3))
    cloud = np.hstack([xyz, rng.uniform(size=(n, 1))]) if with_intensity else xyz
    keep = rng.uniform(size=n) < kept
    keep[rng.integers(n)] = True
    assert_subset_matches_fresh(detector, cloud, keep)


# ----------------------------------------------------------------------
# carried curve-step state: inside a scene scope each detect_subset call is
# a delta of the one before, and must leave what a fresh forward computes


def assert_carry_matches_fresh(detector, cloud, keep):
    """The scope's carried state, row for row, against a fresh forward on
    the cloud with every point outside the grid kept and the in-grid points
    under the carry's own recorded mask, which a held answer (``keep``
    keeping every point, or equal to that mask in the grid) leaves in
    place; returns the fresh forward on ``cloud[keep]``."""
    hold = detector._hold
    carry, inside = hold.carry, hold.layout.inside
    # only a mask keeping every point can be answered without moving the carry
    assert keep.all() or bits(carry.kept) == bits(keep[inside])
    carried = ~inside
    carried[inside] = carry.kept
    fresh = detector._forward(cloud[carried])
    assert carry.detections == fresh.detections
    for b, (coords, counts, values) in enumerate(
        zip(hold.layout.block_coords, carry.counts, carry.values)
    ):
        live = counts > 0
        assert carry.live[b] == np.count_nonzero(live)
        assert bits(np.compress(live, coords, axis=0)) == bits(fresh.layout.block_coords[b])
        assert bits(np.compress(live, values, axis=0)) == bits(fresh.carry.values[b])
    if np.array_equal(carried, keep):
        return fresh
    return detector._forward(cloud[keep])


class CountingDeltas:
    """Records, per ``_advance`` call on ``cloud``'s carried state, how many
    blocks it updated as a delta."""

    def __init__(self, detector, cloud, monkeypatch):
        self.deltas = []
        advance, rows_output = detector._advance, detector._rows_output

        def on_cloud():
            return detector._hold is not None and detector._hold.cloud is cloud

        def counted_advance(*args):
            if on_cloud():
                self.deltas.append(0)
            advance(*args)

        def counted_rows_output(b, pooled):
            if on_cloud():
                self.deltas[-1] += 1
            return rows_output(b, pooled)

        monkeypatch.setattr(detector, "_advance", counted_advance)
        monkeypatch.setattr(detector, "_rows_output", counted_rows_output)


def run_keep_sequence(detector, cloud, masks, from_forward=False):
    """Each mask's ``detect_subset`` in one scope, checked against a fresh
    forward; ``from_forward`` starts the state from the scene forward."""
    with detector.scene(cloud):
        if from_forward:
            detector.detect(cloud)
        for keep in masks:
            got = detector.detect_subset(cloud, keep)
            fresh = assert_carry_matches_fresh(detector, cloud, keep)
            assert got == fresh.detections == detector.detect(cloud[keep])


def _apply(op, fraction, seed, mask, history):
    """The next keep mask of a sequence: ``op`` grows, shrinks or thins the
    last one, or returns to an earlier one."""
    rng = np.random.default_rng(seed)
    flip = rng.uniform(size=len(mask)) < fraction
    if op == "grow":
        mask = mask | flip
    elif op == "shrink":
        mask = mask & ~flip
    elif op == "few":  # a handful of points: every block falls below the minimum rows
        mask = np.zeros(len(mask), dtype=bool)
        mask[rng.choice(len(mask), size=min(len(mask), 1 + int(fraction * 40)), replace=False)] = True
    else:  # "revert"
        mask = history[int(fraction * (len(history) - 1))]
    if not mask.any():
        mask = mask.copy()
        mask[rng.integers(len(mask))] = True
    return mask


_KEEP_OPS = st.lists(
    st.tuples(
        st.sampled_from(("grow", "shrink", "few", "revert")),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    ),
    min_size=1, max_size=8,
)


def _keep_sequence(start, ops):
    masks = [start]
    for op, fraction, seed in ops:
        masks.append(_apply(op, fraction, seed, masks[-1], masks))
    return masks


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    clump=st.floats(0.2, 4.0),
    start=st.floats(0.0, 1.0),
    ops=_KEEP_OPS,
)
def test_carried_steps_bit_identical_on_random_clouds(seed, clump, start, ops):
    # past a few hundred spread points block 1 has more live rows than the
    # minimum product rows and updates as a delta; the seed draws the point
    # count uniformly, so that most clouds get there
    detector = ReferenceDetector(_SMALL_GRID)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 1500))
    cloud = np.hstack([rng.normal((3.0, 3.0, 1.5), clump, size=(n, 3)), rng.uniform(size=(n, 1))])
    first = rng.uniform(size=n) < start
    first[rng.integers(n)] = True
    run_keep_sequence(detector, cloud, _keep_sequence(first, ops))


@settings(derandomize=True, deadline=None, max_examples=8)
@given(ops=_KEEP_OPS)
def test_carried_steps_bit_identical_on_a_default_scene(ops):
    detector = ReferenceDetector()
    cloud, _, _ = single_object_scene(3)
    start = np.ones(len(cloud), dtype=bool)
    # small flips, as a curve step makes, besides the drawn ones
    ops = [("shrink", 0.03, 1), *ops, ("grow", 0.02, 2)]
    masks = _keep_sequence(start, ops)
    run_keep_sequence(detector, cloud, masks, from_forward=True)


def test_steps_take_over_the_scene_forward_but_not_handed_out_maps():
    detector = ReferenceDetector()
    cloud, _, _ = single_object_scene(0)
    keep = np.arange(len(cloud)) % 7 != 0
    with detector.scene(cloud):
        maps = [detector.features(cloud, b) for b in range(1, 5)]
        before = [bits(m.values) for m in maps]
        detector.detect_subset(cloud, keep)
        assert bits(detector._hold.carry.kept) == bits(keep[detector._hold.layout.inside])
        assert detector._hold.detections == ReferenceDetector().detect(cloud)
        assert [bits(m.values) for m in maps] == before
        assert bits(detector.features(cloud, 3).values) == before[2]
        assert detector.detect_subset(cloud, keep) == detector.detect(cloud[keep])


def carry_bits(carry):
    return (
        bits(carry.kept), [bits(c) for c in carry.counts], list(carry.live),
        [bits(v) for v in carry.values], carry.detections,
    )


def test_held_answers_leave_the_carry(monkeypatch):
    """Once the scene forward has run, a keep-all mask and a mask equal to
    the carried one return ``detect(cloud[keep])`` without a values pass or
    a head and leave every bit of the carry; the next delta still matches a
    fresh forward."""
    cloud, _, _ = single_object_scene(0)
    every = np.ones(len(cloud), dtype=bool)
    thinned = np.arange(len(cloud)) % 9 != 0
    further = thinned & (np.arange(len(cloud)) % 5 != 0)
    fresh = ReferenceDetector()
    expected = [fresh.detect(cloud[keep]) for keep in (every, thinned)]
    detector = ReferenceDetector()
    with detector.scene(cloud):
        detector.detect(cloud)
        detector.detect_subset(cloud, thinned)
        before = carry_bits(detector._hold.carry)
        calls = []
        for name in ("_advance", "_head"):
            method = getattr(detector, name)
            monkeypatch.setattr(
                detector, name, lambda *args, m=method, n=name: calls.append(n) or m(*args)
            )
        assert detector.detect_subset(cloud, every) == expected[0]
        assert detector.detect_subset(cloud, thinned.copy()) == expected[1]
        assert detector.detect_subset(cloud, every) == expected[0]
        assert calls == []
        assert carry_bits(detector._hold.carry) == before
        got = detector.detect_subset(cloud, further)
        assert calls == ["_advance", "_head"]
        assert got == assert_carry_matches_fresh(detector, cloud, further).detections


def test_held_calls_at_every_point_compare_no_masks(monkeypatch):
    """On a carry already at every point, ``detect``, ``features`` and
    ``gradient`` run no values pass and build no cloud-length mask; after a
    step, the next such call moves the carry back."""
    cloud, _, _ = single_object_scene(0)
    detector = ReferenceDetector()
    with detector.scene(cloud):
        detections = detector.detect(cloud)
        passes = []
        method = detector._pass
        monkeypatch.setattr(detector, "_pass", lambda *args: passes.append(1) or method(*args))
        tracemalloc.start()
        try:
            assert detector.detect(cloud) == detections
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(cloud) // 4  # a cloud-length bool mask takes len(cloud) bytes
        detector.features(cloud, 3)
        detector.gradient(cloud, detections[0], full_mask(), 3)
        assert passes == []
        detector.detect_subset(cloud, np.arange(len(cloud)) % 9 != 0)
        assert detector.detect(cloud) == detections
        assert len(passes) == 2
        assert detector._hold.carry.kept.all()


def test_carried_scope_passes_over_flips_outside_the_grid(monkeypatch):
    """The forward reads only in-grid points: a mask that drops only points
    outside the grid, and the scene forward after it, are answered from the
    carry with no values pass, and so is a fresh scope's mask that keeps
    only those points."""
    scene, _, _ = single_object_scene(0)
    outside = np.array([[-1.0, 5.0, 1.0, 0.5], [5.0, 30.0, 1.0, 0.5], [5.0, 5.0, 9.0, 0.5]])
    cloud = np.vstack([scene, outside])
    keep = np.arange(len(cloud)) < len(scene)
    detector = ReferenceDetector()
    assert not detector.grid.contains(outside).any()
    expected = ReferenceDetector().detect(cloud[keep])
    assert ReferenceDetector().detect(cloud[~keep]) == []
    advances = []
    advance = ReferenceDetector._advance
    monkeypatch.setattr(
        ReferenceDetector, "_advance", lambda self, *args: advances.append(1) or advance(self, *args)
    )
    with detector.scene(cloud):
        detections = detector.detect(cloud)
        assert advances == [1]
        assert detector.detect_subset(cloud, keep) == expected
        assert detector.detect(cloud) == detections == expected
        assert advances == [1]
    with detector.scene(cloud):
        assert detector.detect_subset(cloud, ~keep) == []
        assert advances == [1]


def test_a_mask_changed_in_place_is_a_new_step():
    """The carry holds a mask of its own: a caller that flips points of the
    same array, as the curves do, gets the delta of those flips."""
    detector = ReferenceDetector()
    cloud, _, _ = single_object_scene(1)
    keep = np.arange(len(cloud)) % 4 != 0
    with detector.scene(cloud):
        detector.detect_subset(cloud, keep)
        for points in (slice(0, 500), slice(600, 1200), slice(0, 1200)):
            keep[points] = ~keep[points]
            got = detector.detect_subset(cloud, keep)
            assert got == assert_carry_matches_fresh(detector, cloud, keep).detections


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    n=st.integers(1, 3000),
    rows=st.integers(1, 3000),
    arrangement=st.sampled_from(("random", "ascending", "descending")),
    seed=st.integers(0, 2**32 - 1),
)
def test_stable_argsort_equals_numpy_on_ties(n, rows, arrangement, seed):
    # ``held`` references no more rows than it has entries; few rows, many ties
    held = np.random.default_rng(seed).integers(0, min(rows, n), size=n)
    if arrangement != "random":
        held = np.sort(held)[:: 1 if arrangement == "ascending" else -1].copy()
    assert bits(_stable_argsort(held)) == bits(np.argsort(held, kind="stable"))


@pytest.mark.parametrize("make_cloud", [
    lambda: single_object_scene(0)[0],
    lambda: single_object_scene(1, n_noise_points=60_000)[0],
], ids=["default-scene", "60k-noise-scene"])
def test_beneath_is_the_stable_argsort_on_every_block(make_cloud):
    layout = ReferenceDetector()._layout(make_cloud())
    for b, (entries, starts) in enumerate(layout.beneath):
        held = layout.base_rows if b == 0 else layout.parent_rows[b]
        assert bits(entries) == bits(np.argsort(held, kind="stable"))
        assert bits(starts) == bits(np.searchsorted(held[entries], np.arange(len(starts))))


def test_carried_steps_take_every_path(monkeypatch):
    """Deltas that grow, shrink, return to an earlier mask, and drop every
    block below the minimum product rows and back: each step matches a
    fresh forward, and the sequence updates blocks both as deltas and whole."""
    detector = ReferenceDetector()
    cloud, _, _ = single_object_scene(0)
    counting = CountingDeltas(detector, cloud, monkeypatch)
    ops = [("shrink", 0.02, 1), ("shrink", 0.05, 2), ("grow", 0.01, 3), ("revert", 0.0, 0),
           ("few", 0.5, 4), ("grow", 0.9, 5), ("revert", 0.4, 0), ("grow", 1.0, 6)]
    masks = _keep_sequence(np.ones(len(cloud), dtype=bool), ops)
    run_keep_sequence(detector, cloud, masks)
    advances = counting.deltas
    assert len(advances) == len(masks)
    assert advances[0] == 0  # from the empty state every block is whole
    assert advances[1] == detector.cfg.num_blocks  # a 2% thinning: all deltas
    assert 0 in advances[5:]  # the few points and the way back are whole
    assert max(advances[6:]) > 0  # deltas again once back above the minimum


def test_carried_steps_recompute_blocks_grown_from_few_rows(monkeypatch):
    """Block 1 stays above the minimum product rows while the upper blocks
    go from a few rows to many and back. The grown points lie apart from
    the object's top-block cells, so the object's rows stay clean: they
    must not keep the bits of the few-row product they came from."""
    detector = ReferenceDetector()
    cloud, _, _ = single_object_scene(0)
    on_object = np.arange(len(cloud)) < len(single_object_scene(0, n_noise_points=0)[0])
    layout = detector._layout(cloud)
    top = layout.base_rows
    for parent in layout.parent_rows[1:]:
        top = parent[top]
    apart = ~np.isin(top, top[on_object[layout.inside]])
    grown = on_object.copy()
    grown[np.flatnonzero(layout.inside)[apart]] = True
    counting = CountingDeltas(detector, cloud, monkeypatch)
    lives = []
    with detector.scene(cloud):
        for keep in (on_object, grown, on_object, grown):
            got = detector.detect_subset(cloud, keep)
            assert got == assert_carry_matches_fresh(detector, cloud, keep).detections
            lives.append(list(detector._hold.carry.live))
    assert min(lives[0]) < 38 and lives[0][0] >= _MIN_PRODUCT_ROWS
    assert min(lives[1]) >= _MIN_PRODUCT_ROWS
    assert counting.deltas == [0, 1, 1, 1]  # past the empty state block 1 is a delta


@pytest.mark.parametrize("seed", (0, 5))
def test_carried_curve_steps_match_fresh_forwards(seed):
    """Both curves of a detection in one scope, each step checked against a
    fresh forward while the state carries through."""
    detector = ReferenceDetector()
    cloud, _, _ = single_object_scene(seed)
    d = detector.detect(cloud)[0]
    [[saliency]] = explain_detection(detector, cloud, [d], [full_mask()], PipelineConfig())
    checked = []

    class Checking(RecordingDetector):
        def detect_subset(self, cloud, keep):
            got = self.detector.detect_subset(cloud, keep)
            assert got == assert_carry_matches_fresh(self.detector, cloud, keep).detections
            checked.append(keep.copy())
            return got

    with detector.scene(cloud):
        checker = Checking(detector)
        deletion = deletion_curve(checker, cloud, d, saliency, 20)
        insertion = insertion_curve(checker, cloud, d, saliency, 20)
    assert len(checked) == 2 * 21
    assert bits(deletion.values) == bits(deletion_curve(detector, cloud, d, saliency, 20).values)
    assert bits(insertion.values) == bits(insertion_curve(detector, cloud, d, saliency, 20).values)


@pytest.mark.parametrize("op", ("shrink", "few"))
def test_scene_forward_after_steps_equals_a_fresh_scopes(monkeypatch, op):
    """After curve steps in a scope, the forward moves the carried state
    back to every point kept, as deltas after a thinning and whole after a
    handful of points: ``detect``, ``features`` and ``gradient`` carry the
    bits of a fresh scope's."""
    detector = ReferenceDetector()
    cloud, _, _ = single_object_scene(0)

    def outputs():
        detections = detector.detect(cloud)
        return (
            detections,
            [bits(detector.features(cloud, b).values) for b in range(1, 5)],
            [bits(detector.gradient(cloud, detections[0], full_mask(), b).values) for b in range(1, 5)],
        )

    with detector.scene(cloud):
        fresh = outputs()
    counting = CountingDeltas(detector, cloud, monkeypatch)
    masks = _keep_sequence(np.ones(len(cloud), dtype=bool), [(op, 0.03, 1), (op, 0.05, 2)])
    with detector.scene(cloud):
        for keep in masks[1:]:
            detector.detect_subset(cloud, keep)
        assert outputs() == fresh
    assert counting.deltas[-1] == (detector.cfg.num_blocks if op == "shrink" else 0)


def test_product_rows_do_not_depend_on_the_row_count(detector):
    """The carried state rests on this: from ``_MIN_PRODUCT_ROWS`` rows up, a
    block product row has the same bits whatever the other rows, and a
    smaller batch padded with zero rows to that count gives the rows of the
    whole product. A BLAS kernel that breaks it would show only as
    drifting AUCs, so it fails here by name."""
    rng = np.random.default_rng(0)
    d = detector.cfg.feature_dim
    x = np.abs(rng.normal(size=(6000, d))) * 10.0 ** rng.integers(-3, 3, size=(6000, 1))
    kernel = blas_fingerprint()
    for b in range(detector.cfg.num_blocks):
        whole = detector._block_output(b, x)
        for size in (1, 5, 37, 38, 100, _MIN_PRODUCT_ROWS, _MIN_PRODUCT_ROWS + 1, 300, 1025, 4999):
            rows = np.sort(rng.choice(len(x), size=size, replace=False))
            got = detector._rows_output(b, x[rows])
            assert bits(got) == bits(whole[rows]), (
                f"block {b + 1}: a product of {max(size, _MIN_PRODUCT_ROWS)} rows rounds "
                f"differently from one of {len(x)} under BLAS {kernel}; curve steps "
                f"would no longer equal fresh forwards"
            )


def x_run_cloud(runs, seed=0):
    """Points filling, for block-1 voxel x = 0, 1, ... in turn, the given
    number of voxels (4 high, then along y), 3-6 points in each."""
    rng = np.random.default_rng(seed)
    corners = np.array([(x, j // 4, j % 4) for x, n in enumerate(runs) for j in range(n)])
    corners = np.repeat(corners, rng.integers(3, 7, size=len(corners)), axis=0) * 0.25
    xyz = corners + rng.uniform(0.0, 0.25, size=corners.shape)
    return np.hstack([xyz, rng.uniform(size=(len(xyz), 1))])


def whole_array_pass(detector, layout):
    """Each block's values as one scatter over the whole block and one
    product, from every point of the layout."""
    m = len(layout.block_coords[0])
    counts = np.bincount(layout.base_rows, minlength=m)
    sums = _scatter_sum(layout.base_rows, layout.per_point, m)
    padded = np.zeros((m, detector.cfg.feature_dim))
    values = [detector._block_output(0, detector._base_descriptors(counts, sums, padded))]
    for b in range(1, detector.cfg.num_blocks):
        pooled = _scatter_sum(layout.parent_rows[b], values[-1], len(layout.block_coords[b]))
        values.append(detector._block_output(b, pooled))
    return values


_SLAB_CASES = {
    "63k-points": lambda: single_object_scene(0, n_noise_points=60_000)[0],
    # 8 x-runs of 256 voxels fill two slabs, and a 10-voxel run joins the second
    "short-last-x-run": lambda: x_run_cloud([256] * 8 + [10]),
    "every-block-one-slab": lambda: single_object_scene(0, n_noise_points=300)[0],
}


@pytest.mark.parametrize("case", sorted(_SLAB_CASES))
def test_whole_blocks_in_slabs_equal_a_whole_array_pass(detector, case):
    """The scene forward pools and multiplies each block in slabs; every
    carried block has the bits of one scatter and one product over the
    whole block."""
    cloud = _SLAB_CASES[case]()
    with detector.scene(cloud):
        detector.detect(cloud)
        layout, carry = detector._hold.layout, detector._hold.carry
        sizes = [len(coords) for coords in layout.block_coords]
        x = layout.block_coords[0][:, 0]
        if case == "63k-points":
            assert sizes[0] > 40 * _SLAB_ROWS and sizes[1] > 10 * _SLAB_ROWS
        elif case == "short-last-x-run":
            assert sizes[0] > 2 * _SLAB_ROWS and np.count_nonzero(x == x[-1]) < 38
        else:
            assert _MIN_PRODUCT_ROWS < max(sizes) < _SLAB_ROWS
        want = whole_array_pass(detector, layout)
        assert [bits(v) for v in carry.values] == [bits(v) for v in want]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(runs=st.lists(st.integers(1, 1500), min_size=1, max_size=40))
def test_slab_edges_end_at_x_changes(runs):
    x = np.repeat(np.arange(len(runs)) * 3, runs)
    edges = _slab_edges(x)
    assert edges[0] == 0 and edges[-1] == len(x) and edges == sorted(set(edges))
    widths = np.diff(edges)
    assert len(widths) == 1 or widths.min() >= _MIN_PRODUCT_ROWS
    assert all(x[e - 1] != x[e] for e in edges[1:-1])
    # a slab ends at the first x change past _SLAB_ROWS rows, unless the
    # last slab would then be short and joins it
    changes = set(np.flatnonzero(np.diff(x)) + 1)
    for lo, hi in zip(edges[:-2], edges[1:-1]):
        assert hi - lo >= _SLAB_ROWS and not changes & set(range(lo + _SLAB_ROWS, hi))


def test_whole_pass_holds_no_block_sized_temporary():
    """One ``detect`` at 63k points peaks at most a few slabs and block 1's
    4-column point sums above what its scope then holds. A whole 49,580 ×
    32 block-1 descriptor alone would take 12.7 MB."""
    detector = ReferenceDetector()
    cloud, _, _ = single_object_scene(0, n_noise_points=60_000)
    with detector.scene(cloud):
        tracemalloc.start()
        try:
            detector.detect(cloud)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        layout, carry = detector._hold.layout, detector._hold.carry
        held = sum(a.nbytes for a in (
            *carry.values, *carry.counts, carry.kept,
            layout.inside, layout.base_rows, layout.per_point,
            *layout.block_coords, *layout.parent_rows,
        ))
    # the point sums take ~3.6 MB here (a 4-entry int64 index per in-grid
    # point and 4 doubles per voxel), a slab's temporaries ~0.3 MB per 1,024 rows
    assert peak - held < 6 * 2**20, f"{(peak - held) / 2**20:.1f} MiB above the held arrays"


def test_detect_subset_rejects_bad_masks(detector):
    cloud, _, _ = single_object_scene(0)
    with pytest.raises(EmptyCloud):
        detector.detect_subset(cloud, np.zeros(len(cloud), dtype=bool))
    with pytest.raises(LengthMismatch):
        detector.detect_subset(cloud, np.ones(len(cloud) - 1, dtype=bool))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(0, 300),
    groups=st.integers(1, 40),
    cols=st.integers(1, 6),
)
def test_scatter_sum_bit_identical_to_add_at(seed, rows, groups, cols):
    rng = np.random.default_rng(seed)
    inverse = rng.integers(0, groups, size=rows)
    # signed values over many magnitudes make the summation order visible
    values = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-8, 8, size=(rows, 1))
    expected = np.zeros((groups, cols))
    np.add.at(expected, inverse, values)
    assert bits(_scatter_sum(inverse, values, groups)) == bits(expected)


def connected_components_reference(coords, active):
    """The numpy-scalar form ``_connected_components`` replaced."""
    coord_rows = {tuple(coords[r]): r for r in active.tolist()}
    seen = set()
    components = []
    for row in active.tolist():
        if row in seen:
            continue
        stack = [row]
        seen.add(row)
        comp = []
        while stack:
            r = stack.pop()
            comp.append(r)
            cx, cy, cz = coords[r]
            for dx, dy, dz in _NEIGHBOR_OFFSETS_26:
                nr = coord_rows.get((cx + dx, cy + dy, cz + dz))
                if nr is not None and nr not in seen:
                    seen.add(nr)
                    stack.append(nr)
        components.append(np.array(sorted(comp)))
    return components


_ANY_STEP = st.sampled_from(_NEIGHBOR_OFFSETS_26)
_CORNER_STEP = st.sampled_from([o for o in _NEIGHBOR_OFFSETS_26 if 0 not in o])
_CELL = st.tuples(*[st.integers(0, 30)] * 3)


@st.composite
def active_sets(draw):
    """Occupied rows in any order and the active ones among them: chains of
    26-neighbour steps, chains touching only at corners, isolated rows."""
    cells = set()
    for step in draw(st.lists(st.sampled_from([_ANY_STEP, _CORNER_STEP]), max_size=4)):
        cell = draw(_CELL)
        cells.add(cell)
        for dx, dy, dz in draw(st.lists(step, max_size=15)):
            cell = (cell[0] + dx, cell[1] + dy, cell[2] + dz)
            cells.add(cell)
    cells.update((3 * x, 3 * y, 3 * z) for x, y, z in draw(st.lists(_CELL, max_size=10)))
    rows = draw(st.permutations(sorted(cells)))
    coords = np.array(rows, dtype=np.int64).reshape(-1, 3)
    mask = draw(st.lists(st.booleans() | st.just(True), min_size=len(rows), max_size=len(rows)))
    return coords, np.flatnonzero(np.array(mask, dtype=bool))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=active_sets())
def test_connected_components_equal_the_numpy_scalar_form(case):
    coords, active = case
    got = _connected_components(coords, active)
    expected = connected_components_reference(coords, active)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and np.array_equal(g, e)


@pytest.fixture
def count_forwards(monkeypatch):
    """The clouds of the detector forwards actually computed: the values
    passes that leave the carry at every point kept."""
    calls = []
    advance = ReferenceDetector._advance

    def counted(self, layout, carry, points):
        advance(self, layout, carry, points)
        if carry.kept.all():
            calls.append(self._hold.cloud)

    monkeypatch.setattr(ReferenceDetector, "_advance", counted)
    return calls


def scene_outputs(detector, cloud, d):
    """Detections, block-1/3 features and a block-3 gradient, as bytes."""
    return (
        detector.detect(cloud),
        bits(detector.features(cloud, 1).values),
        bits(detector.features(cloud, 3).values),
        bits(detector.gradient(cloud, d, make_mask("x", "s"), 3).values),
    )


class TestSceneScope:
    def test_calls_share_one_forward_with_unscoped_results(self, count_forwards):
        detector = ReferenceDetector()
        cloud, _ = multi_object_scene(11)
        d = detector.detect(cloud)[1]
        unscoped = scene_outputs(detector, cloud, d)
        count_forwards.clear()
        with detector.scene(cloud):
            scoped = scene_outputs(detector, cloud, d)
            assert len(count_forwards) == 1
        assert scoped == unscoped

    def test_forward_is_computed_lazily(self, count_forwards):
        detector = ReferenceDetector()
        cloud, _, _ = single_object_scene(0)
        with detector.scene(cloud):
            assert count_forwards == []
            detector.detect(cloud)
        assert len(count_forwards) == 1

    def test_other_array_is_not_served(self, count_forwards):
        detector = ReferenceDetector()
        cloud, _, _ = single_object_scene(0)
        thinned = cloud[::2]
        expected = bits(detector.features(thinned, 3).values)
        count_forwards.clear()
        with detector.scene(cloud):
            detector.detect(cloud)
            assert bits(detector.features(thinned, 3).values) == expected
            detector.detect(cloud.copy())
            detector.detect(cloud)
        assert [c is cloud for c in count_forwards] == [True, False, False]
        assert count_forwards[1] is thinned

    def test_released_after_block(self, count_forwards):
        detector = ReferenceDetector()
        cloud, _, _ = single_object_scene(0)
        with detector.scene(cloud):
            detector.detect(cloud)
        assert detector._hold is None
        detector.detect(cloud)
        assert len(count_forwards) == 2

    def test_released_after_exception(self, count_forwards):
        detector = ReferenceDetector()
        cloud, _, _ = single_object_scene(0)
        with pytest.raises(DetectorFailure):
            with detector.scene(cloud):
                detector.detect(cloud)
                detector.features(cloud, 9)
        assert detector._hold is None
        detector.detect(cloud)
        assert len(count_forwards) == 2

    def test_nested_scope_on_the_same_cloud_reuses_the_hold(self, count_forwards):
        detector = ReferenceDetector()
        cloud, _, _ = single_object_scene(0)
        other = cloud[::2]
        with detector.scene(cloud):
            detector.detect(cloud)
            hold = detector._hold
            with detector.scene(cloud):
                assert detector._hold is hold
                detector.detect(cloud)
                with detector.scene(other):
                    assert detector._hold.cloud is other
                    detector.detect(other)
                assert detector._hold is hold
            assert detector._hold is hold
            detector.detect(cloud)
        assert detector._hold is None
        assert [c is cloud for c in count_forwards] == [True, False]

    def test_subset_layout_held_and_released(self, monkeypatch):
        detector = ReferenceDetector()
        cloud, _, _ = single_object_scene(0)
        layouts = []
        build = ReferenceDetector._layout

        def counted(self, c):
            layouts.append(c)
            return build(self, c)

        monkeypatch.setattr(ReferenceDetector, "_layout", counted)
        keep = np.arange(len(cloud)) % 3 != 0
        with pytest.raises(DetectorFailure):
            with detector.scene(cloud):
                first = detector.detect_subset(cloud, keep)
                with detector.scene(cloud):
                    assert detector.detect_subset(cloud, keep) == first
                detector.detect_subset(cloud, ~keep)
                assert len(layouts) == 1
                detector.features(cloud, 9)
        assert detector._hold is None
        assert detector.detect_subset(cloud, keep) == first
        assert len(layouts) == 2

    def test_unscoped_subset_equals_detect_of_the_copy(self):
        detector = ReferenceDetector()
        cloud, _ = multi_object_scene(11)
        for keep in (np.arange(len(cloud)) % 2 == 0, cloud[:, 0] < 12.0):
            assert detector.detect_subset(cloud, keep) == detector.detect(cloud[keep])
        assert detector._hold is None

    def test_detect_list_is_the_callers(self):
        detector = ReferenceDetector()
        cloud, _, _ = single_object_scene(0)
        with detector.scene(cloud):
            detector.detect(cloud).clear()
            assert len(detector.detect(cloud)) == 1


class SceneScopeMachine(RuleBasedStateMachine):
    """One detector's calls interleaved freely over scopes on one cloud, on
    copies of it and nested in each other: every answer equals a fresh
    detector's, no map handed out changes afterwards, and the detector's
    hold is the innermost open scope's."""

    # two small-grid clouds to each default scene, whose fresh answers cost more
    @initialize(
        scene=st.sampled_from(("small", "small", "default")),
        seed=st.integers(0, 2**32 - 1),
    )
    def setup(self, scene, seed):
        if scene == "default":
            cfg, (cloud, _, _) = ReferenceDetectorConfig(), single_object_scene(0)
        else:
            cfg, rng = _SMALL_GRID, np.random.default_rng(seed)
            n = int(rng.integers(1, 1500))
            cloud = np.hstack([rng.normal((3.0, 3.0, 1.5), 1.5, size=(n, 3)), rng.uniform(size=(n, 1))])
        self.detector, self.fresh, self.cloud = ReferenceDetector(cfg), ReferenceDetector(cfg), cloud
        self.top = cfg.num_blocks
        self.detections = self.fresh.detect(cloud)
        self.maps = {b: bits(self.fresh.features(cloud, b).values) for b in range(1, self.top + 1)}
        self.gradients = {}
        self.history = [np.ones(len(cloud), dtype=bool)]
        self.in_place = self.history[0].copy()  # the one mask array changed in place
        self.handed = []
        # open scopes as (exit stack, array, hold); the outermost stays open until teardown
        self.scopes = []
        self.enter(cloud)

    def teardown(self):
        while getattr(self, "scopes", None):
            self.scopes.pop()[0].close()
            assert self.detector._hold is (self.scopes[-1][2] if self.scopes else None)

    def enter(self, array):
        stack = contextlib.ExitStack()
        stack.enter_context(self.detector.scene(array))
        self.scopes.append((stack, array, self.detector._hold))

    def target(self, on_inner):
        return self.scopes[-1][1] if on_inner else self.cloud

    def check_subset(self, array, keep):
        got = self.detector.detect_subset(array, keep)
        assert got == self.fresh.detect(self.cloud[keep])
        self.history.append(keep.copy())

    @rule(on_inner=st.booleans())
    def detect(self, on_inner):
        assert self.detector.detect(self.target(on_inner)) == self.detections

    @rule(on_inner=st.booleans(), b=st.integers(1, 4))
    def features(self, on_inner, b):
        b = min(b, self.top)
        fmap = self.detector.features(self.target(on_inner), b)
        assert bits(fmap.values) == self.maps[b]
        self.handed.append((fmap, bits(fmap.coords), bits(fmap.values)))

    @rule(on_inner=st.booleans(), which=st.integers(0, 3), b=st.integers(1, 4),
          mask=st.sampled_from(("all", "x", "lwh", "s")))
    def gradient(self, on_inner, which, b, mask):
        if not self.detections:
            return
        which, b = which % len(self.detections), min(b, self.top)
        d, attrs = self.detections[which], full_mask() if mask == "all" else make_mask(*mask)
        key = (which, b, mask)
        if key not in self.gradients:
            self.gradients[key] = bits(self.fresh.gradient(self.cloud, d, attrs, b).values)
        gmap = self.detector.gradient(self.target(on_inner), d, attrs, b)
        assert bits(gmap.values) == self.gradients[key]
        self.handed.append((gmap, bits(gmap.coords), bits(gmap.values)))

    @rule(on_inner=st.booleans(), op=st.sampled_from(("grow", "shrink", "few", "revert")),
          fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def detect_subset(self, on_inner, op, fraction, seed):
        keep = _apply(op, fraction, seed, self.history[-1], self.history)
        self.check_subset(self.target(on_inner), keep)

    @rule(on_inner=st.booleans(), op=st.sampled_from(("grow", "shrink", "few", "revert")),
          fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def detect_subset_changed_in_place(self, on_inner, op, fraction, seed):
        # a step on the caller's array, then one on the same array changed in place
        array = self.target(on_inner)
        self.check_subset(array, self.in_place)
        self.in_place[:] = _apply(op, fraction, seed, self.in_place, self.history)
        self.check_subset(array, self.in_place)

    @precondition(lambda self: len(self.scopes) < 4)
    @rule(on_copy=st.booleans())
    def enter_scope(self, on_copy):
        array = self.cloud.copy() if on_copy else self.cloud
        outer = self.detector._hold
        self.enter(array)
        if outer.cloud is array:
            assert self.detector._hold is outer

    @precondition(lambda self: len(self.scopes) > 1)
    @rule()
    def leave_scope(self):
        self.scopes.pop()[0].close()

    @rule(on_copy=st.booleans(), op=st.sampled_from(("grow", "shrink", "few", "revert")),
          fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def exception_in_scope(self, on_copy, op, fraction, seed):
        array = self.cloud.copy() if on_copy else self.cloud
        keep = _apply(op, fraction, seed, self.history[-1], self.history)
        with pytest.raises(DetectorFailure):
            with self.detector.scene(array):
                self.check_subset(array, keep)
                self.detector.features(array, 9)

    @invariant()
    def hold_is_the_innermost_scopes(self):
        assert self.detector._hold is self.scopes[-1][2]

    @invariant()
    def handed_out_maps_never_change(self):
        for fmap, coords, values in self.handed:
            assert (bits(fmap.coords), bits(fmap.values)) == (coords, values)


TestSceneScopeMachine = SceneScopeMachine.TestCase
TestSceneScopeMachine.settings = settings(
    derandomize=True, deadline=None, max_examples=60, stateful_step_count=20,
)


@pytest.mark.parametrize("block_index", [1, 3, 4])
def test_object_loss_equals_frozen_loss(detector, block_index):
    from pcsaliency.pipeline import object_loss

    cloud, _ = multi_object_scene(11)
    hold = detector._forward(cloud)
    values = hold.carry.values[block_index - 1]
    masks = [full_mask(), make_mask("x"), make_mask("l", "w", "h"), make_mask("s", "z")]
    assert len(hold.detections) == 2
    for d, cluster in zip(hold.detections, hold.carry.clusters):
        for mask in masks:
            frozen = detector._loss_from_block(hold, block_index, values, cluster, mask)
            assert frozen == pytest.approx(object_loss(d, mask), rel=1e-12, abs=0)
