import dataclasses

import numpy as np
import pytest

from pcsaliency.boxes import OrientedBox, box_diagonal, iou_3d, points_in_box
from pcsaliency.errors import (
    EmptyGroundTruth, LengthMismatch, NonFiniteInput, NoRegionPoints, ValidationError, ZeroEnergy,
)
from pcsaliency.metrics import (
    _VEA_THRESHOLDS,
    Curve,
    EvalThresholds,
    _center_distances,
    auc,
    deletion_curve,
    energy_pg,
    insertion_curve,
    pointing_game,
    vea,
    well_detected,
)
from pcsaliency.pipeline import CLASS_NAMES, Detection, explain_detection, full_mask
from pcsaliency.synthetic import single_object_scene


@pytest.fixture(scope="module")
def explained_scene(detector):
    from pcsaliency.nmf import NmfConfig
    from pcsaliency.pipeline import PipelineConfig

    cloud, gt_box, _ = single_object_scene(0)
    d = detector.detect(cloud)[0]
    cfg = PipelineConfig(nmf=NmfConfig(r=16, max_iterations=80, seed=0))
    [[saliency]] = explain_detection(detector, cloud, [d], [full_mask()], cfg)
    return cloud, gt_box, d, saliency


class TestCurveType:
    def test_validation(self):
        Curve(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.5, 0.0]))
        with pytest.raises(ValueError):
            Curve(np.array([0.0, 0.5]), np.array([1.0, 0.5, 0.0]))
        with pytest.raises(ValueError):
            Curve(np.array([0.1, 0.5, 1.0]), np.array([1.0, 0.5, 0.0]))
        with pytest.raises(ValueError):
            Curve(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.5, 1.5]))


class TestAuc:
    def test_constant(self):
        steps = np.linspace(0, 1, 21)
        assert auc(Curve(steps, np.full(21, 0.37))) == pytest.approx(0.37, abs=1e-15)

    def test_two_point_ramp(self):
        assert auc(Curve(np.array([0.0, 1.0]), np.array([0.0, 1.0]))) == pytest.approx(0.5)

    def test_matches_manual_trapezoid(self):
        steps = np.array([0.0, 0.2, 0.5, 1.0])
        values = np.array([1.0, 0.8, 0.3, 0.0])
        manual = 0.0
        for i in range(3):
            manual += (steps[i + 1] - steps[i]) * (values[i] + values[i + 1]) / 2
        assert auc(Curve(steps, values)) == pytest.approx(manual, abs=1e-15)

    def test_monotone_in_pointwise_dominance(self):
        rng = np.random.default_rng(0)
        steps = np.linspace(0, 1, 11)
        lo = rng.uniform(0, 0.5, size=11)
        hi = lo + rng.uniform(0, 0.5, size=11)
        assert auc(Curve(steps, hi)) >= auc(Curve(steps, lo))


class TestDeletionInsertion:
    def test_zero_saliency_curve_defined(self, detector):
        cloud, _, _ = single_object_scene(1)
        d = detector.detect(cloud)[0]
        curve = deletion_curve(detector, cloud, d, np.zeros(len(cloud)), steps=5)
        assert curve.values[0] == pytest.approx(1.0, abs=1e-9)
        assert len(curve.values) == 6

    def test_deletion_endpoint_is_region_emptied_scene(self, detector, explained_scene):
        cloud, _, d, saliency = explained_scene
        curve = deletion_curve(detector, cloud, d, saliency, steps=4)
        radius = 2.0 * box_diagonal(d.box())
        dist = np.linalg.norm(cloud[:, :3] - np.array(d.center), axis=1)
        emptied = cloud[dist > radius]
        expected = 0.0
        if len(emptied):
            best = 0.0
            for found in detector.detect(emptied):
                if found.label == d.label:
                    best = max(best, iou_3d(d.box(), found.box()))
            expected = best
        assert curve.values[-1] == pytest.approx(expected, abs=1e-12)

    def test_insertion_endpoints(self, detector, explained_scene):
        cloud, _, d, saliency = explained_scene
        curve = insertion_curve(detector, cloud, d, saliency, steps=4)
        # emptied region leaves only clutter: nothing to detect at step 0
        assert curve.values[0] == 0.0
        assert curve.values[-1] == pytest.approx(1.0, abs=1e-9)
        assert curve.values[-1] >= curve.values[0]

    def test_salient_first_hurts_at_least_as_much(self, detector):
        # one compact cluster inside a single head cell: least-salient
        # removal (noise and skirt first) cannot beat salient-first removal
        from pcsaliency.nmf import NmfConfig
        from pcsaliency.pipeline import PipelineConfig

        rng = np.random.default_rng(3)
        center = np.array([21.0, 21.0, 1.0])
        core = center + (rng.uniform(size=(700, 3)) - 0.5) * 0.5
        skirt = center + (rng.uniform(size=(100, 3)) - 0.5) * 1.4
        noise = np.hstack(
            [rng.uniform([0, 0, 0], [40, 40, 4], size=(60, 3)), rng.uniform(size=(60, 1))]
        )
        cloud = np.vstack(
            [np.hstack([np.vstack([core, skirt]), rng.uniform(size=(800, 1))]), noise]
        )
        d = detector.detect(cloud)[0]
        cfg = PipelineConfig(nmf=NmfConfig(r=16, max_iterations=80, seed=0))
        [[saliency]] = explain_detection(detector, cloud, [d], [full_mask()], cfg)
        forward = deletion_curve(detector, cloud, d, saliency, steps=4)
        inverted = deletion_curve(detector, cloud, d, saliency.max() - saliency, steps=4)
        assert forward.values[1] <= inverted.values[1] + 1e-12

    def test_out_of_region_points_never_removed(self, detector, explained_scene):
        cloud, _, d, saliency = explained_scene
        # make an out-of-region point maximally salient; it must not matter
        radius = 2.0 * box_diagonal(d.box())
        dist = np.linalg.norm(cloud[:, :3] - np.array(d.center), axis=1)
        outside = np.flatnonzero(dist > radius)
        assert len(outside) > 0
        spiked = saliency.copy()
        spiked[outside[0]] = 1e9
        base = deletion_curve(detector, cloud, d, saliency, steps=3)
        with_spike = deletion_curve(detector, cloud, d, spiked, steps=3)
        assert np.allclose(base.values, with_spike.values, atol=1e-12)

    @pytest.mark.parametrize("curve", [deletion_curve, insertion_curve])
    @pytest.mark.parametrize("steps", [0, -1])
    def test_steps_below_one_rejected(self, explained_scene, curve, steps):
        cloud, _, d, saliency = explained_scene
        with pytest.raises(ValidationError, match="steps"):
            curve(None, cloud, d, saliency, steps=steps)

    def test_no_region_points(self, detector):
        cloud, _, _ = single_object_scene(2)
        d = detector.detect(cloud)[0]
        far = Detection((1000.0, 1000.0, 1000.0), (0.1, 0.1, 0.1), 0.0, 0.5, d.label)
        with pytest.raises(NoRegionPoints):
            deletion_curve(detector, cloud, far, np.zeros(len(cloud)))

    def test_partition_between_deletion_and_insertion(self, detector, explained_scene):
        cloud, _, d, saliency = explained_scene
        radius = 2.0 * box_diagonal(d.box())
        dist = np.linalg.norm(cloud[:, :3] - np.array(d.center), axis=1)
        region = np.flatnonzero(dist <= radius)
        n_region = len(region)
        order = region[np.lexsort((region, -saliency[region]))]
        steps = 7
        for i in range(steps + 1):
            k = round(i * n_region / steps)
            deleted_keeps = set(range(len(cloud))) - set(order[:k].tolist())
            inserted_keeps = set(order[:k].tolist()) | (
                set(range(len(cloud))) - set(region.tolist())
            )
            region_set = set(region.tolist())
            kept_region_del = deleted_keeps & region_set
            kept_region_ins = inserted_keeps & region_set
            assert kept_region_del | kept_region_ins == region_set
            assert not (kept_region_del & kept_region_ins)


    def test_region_distances_are_the_row_norm_bit_for_bit(self):
        # a numpy that adds a 3-wide row in another order than (x + y) + z
        # fails here by name, not as a golden hash
        rng = np.random.default_rng(7)
        cloud = np.vstack([
            rng.normal(scale=25.0, size=(60_000, 4)),
            rng.uniform(-80.0, 80.0, size=(60_000, 4)).astype(np.float32).astype(float),
            rng.normal(scale=1e-3, size=(1_000, 4)) + 12.5,  # cancellation near the center
        ])
        centers = [(0.0, 0.0, 0.0), (12.5, 12.5, 12.5), tuple(rng.normal(scale=30.0, size=3)),
                   tuple(np.float32(rng.normal(scale=30.0, size=3)))]
        for center in centers:
            expected = np.linalg.norm(cloud[:, :3] - np.array(center), axis=1)
            got = _center_distances(cloud, center)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64)), center

def vea_mask_loop(saliency, cloud, gt_box):
    """``vea`` as first written: one pair of masks per threshold."""
    saliency, cloud = np.asarray(saliency, dtype=float), np.asarray(cloud, dtype=float)
    gt_mask = points_in_box(cloud, gt_box)
    peak = saliency.max()
    if peak <= 0:
        return 0.0
    normalized = saliency / peak
    best = 0.0
    for t in _VEA_THRESHOLDS:
        pred = normalized >= t
        union = int(np.count_nonzero(pred | gt_mask))
        if union == 0:
            continue
        inter = int(np.count_nonzero(pred & gt_mask))
        best = max(best, inter / union)
    return best


def _on_thresholds(n, rng):
    """Maps of peak 1 whose values sit on the thresholds, a step to either
    side of them, and on their unrounded ``k * 0.05``."""
    t = np.array(_VEA_THRESHOLDS)
    values = np.concatenate([
        t, np.nextafter(t, 0.0), np.nextafter(t, 2.0), np.arange(1, 20) * 0.05, [0.0, 1.0],
    ])
    return rng.choice(values, n)


class TestVea:
    @pytest.mark.parametrize("case", [
        "uniform", "on-thresholds", "negative", "ties", "all-zero", "inf", "nan", "one-point-box",
    ])
    def test_equals_the_mask_loop(self, case):
        rng = np.random.default_rng(7)
        cloud = rng.uniform(-3, 3, size=(5000, 3))
        box = OrientedBox((0.5, -0.5, 0.0), (2.0, 1.5, 2.0), 0.4)
        saliency = {
            "uniform": lambda: rng.uniform(size=len(cloud)),
            "on-thresholds": lambda: _on_thresholds(len(cloud), rng),
            "negative": lambda: rng.uniform(-1, 1, size=len(cloud)),
            "ties": lambda: rng.integers(0, 4, size=len(cloud)).astype(float),
            "all-zero": lambda: np.zeros(len(cloud)),
            # a map that is not finite has no peak to normalize by
            "inf": lambda: np.where(np.arange(len(cloud)) % 50 == 0, np.inf, 1.0),
            "nan": lambda: np.where(np.arange(len(cloud)) == 5, np.nan, 1.0),
            "one-point-box": lambda: _on_thresholds(len(cloud), rng),
        }[case]()
        if case == "one-point-box":
            box = OrientedBox(tuple(cloud[17]), (1e-6, 1e-6, 1e-6), 0.0)
            assert np.count_nonzero(points_in_box(cloud, box)) == 1
        if case in ("inf", "nan"):
            with pytest.raises(NonFiniteInput, match=f"is {case}, not finite"):
                vea(saliency, cloud, box)
            return
        got, expected = vea(saliency, cloud, box), vea_mask_loop(saliency, cloud, box)
        assert type(got) is float and got.hex() == expected.hex()

    def test_indicator_saliency_is_perfect(self):
        box = OrientedBox((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0)
        rng = np.random.default_rng(0)
        cloud = rng.uniform(-3, 3, size=(300, 3))
        inside = points_in_box(cloud, box)
        assert inside.any() and not inside.all()
        assert vea(inside.astype(float), cloud, box) == pytest.approx(1.0)

    def test_uniform_saliency(self):
        box = OrientedBox((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0)
        rng = np.random.default_rng(1)
        cloud = rng.uniform(-3, 3, size=(200, 3))
        inside = points_in_box(cloud, box)
        expected = inside.sum() / len(cloud)
        assert vea(np.ones(len(cloud)), cloud, box) == pytest.approx(expected)

    def test_matches_threshold_oracle(self):
        box = OrientedBox((0.5, -0.5, 0.0), (2.0, 1.5, 2.0), 0.4)
        rng = np.random.default_rng(2)
        cloud = rng.uniform(-3, 3, size=(400, 3))
        saliency = rng.uniform(size=400)
        inside = points_in_box(cloud, box)
        normalized = saliency / saliency.max()
        best = 0.0
        for t in np.arange(1, 20) * 0.05:
            pred = normalized >= t
            union = np.count_nonzero(pred | inside)
            if union:
                best = max(best, np.count_nonzero(pred & inside) / union)
        assert vea(saliency, cloud, box) == pytest.approx(best, abs=1e-15)

    def test_zero_map_scores_zero(self):
        box = OrientedBox((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0)
        cloud = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]])
        assert vea(np.zeros(2), cloud, box) == 0.0

    def test_empty_ground_truth(self):
        box = OrientedBox((50.0, 50.0, 50.0), (1.0, 1.0, 1.0), 0.0)
        cloud = np.zeros((3, 3))
        with pytest.raises(EmptyGroundTruth):
            vea(np.ones(3), cloud, box)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_negative_values_past_the_peak_do_not_overflow(self):
        box = OrientedBox((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0)
        cloud = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [9.0, 0.0, 0.0]])
        # -1e308 / 1e-300 is past the largest double; the predicted set is
        # {0, 2} at every threshold, against the box's {0, 1}
        assert vea([1e-300, -1e308, 1e-300], cloud, box) == 1 / 3

    def test_scale_invariance(self):
        box = OrientedBox((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0)
        rng = np.random.default_rng(3)
        cloud = rng.uniform(-2, 2, size=(100, 3))
        saliency = rng.uniform(size=100)
        assert vea(saliency, cloud, box) == vea(saliency * 123.0, cloud, box)


class TestPointingGame:
    def test_hit_at_center(self):
        box = OrientedBox((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0)
        cloud = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]])
        assert pointing_game(np.array([1.0, 0.5]), cloud, box)

    def test_miss_far_away(self):
        box = OrientedBox((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0)
        cloud = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
        assert not pointing_game(np.array([0.0, 1.0]), cloud, box)

    def test_tie_breaks_to_lowest_index(self):
        box = OrientedBox((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0)
        cloud = np.array([[100.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert not pointing_game(np.ones(2), cloud, box)  # index 0 is outside


class TestEnergyPg:
    BOX = OrientedBox((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0)
    CLOUD = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [9.0, 0.0, 0.0]])

    def test_all_inside(self):
        assert energy_pg(np.array([0.3, 0.7, 0.0]), self.CLOUD, self.BOX) == 1.0

    def test_none_inside(self):
        assert energy_pg(np.array([0.0, 0.0, 1.0]), self.CLOUD, self.BOX) == 0.0

    def test_half_inside(self):
        assert energy_pg(np.array([0.5, 0.0, 0.5]), self.CLOUD, self.BOX) == pytest.approx(0.5)

    def test_zero_energy(self):
        with pytest.raises(ZeroEnergy):
            energy_pg(np.zeros(3), self.CLOUD, self.BOX)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("saliency, expected", [
        ([1e308, 1e308, 1.0], 1.0),  # the in-box sum is past the largest double
        ([1e308, 1.0, 1e308], 0.5),
    ])
    def test_large_values_do_not_overflow(self, saliency, expected):
        assert energy_pg(saliency, self.CLOUD, self.BOX) == expected

    def test_ordinary_maps_keep_their_bits(self):
        # scaling by a power of two changes no sum's rounding
        rng = np.random.default_rng(6)
        cloud = rng.uniform(-3, 3, size=(500, 3))
        inside = points_in_box(cloud, self.BOX)
        for scale in (1e-200, 1e-3, 1.0, 3.0, 1e200):
            saliency = rng.uniform(-0.2, 1.0, size=500) * scale
            expected = float(saliency[inside].sum()) / float(saliency.sum())
            assert energy_pg(saliency, cloud, self.BOX).hex() == expected.hex()

    def test_restricted_support_is_one(self):
        rng = np.random.default_rng(4)
        cloud = rng.uniform(-3, 3, size=(100, 3))
        inside = points_in_box(cloud, self.BOX)
        saliency = rng.uniform(size=100) * inside
        if saliency.sum() > 0:
            assert energy_pg(saliency, cloud, self.BOX) == 1.0

    def test_scale_invariance_of_localization_metrics(self):
        rng = np.random.default_rng(5)
        cloud = rng.uniform(-3, 3, size=(100, 3))
        saliency = rng.uniform(size=100)
        assert pointing_game(saliency, cloud, self.BOX) == pointing_game(
            saliency * 42.0, cloud, self.BOX
        )
        assert energy_pg(saliency, cloud, self.BOX) == pytest.approx(
            energy_pg(saliency * 42.0, cloud, self.BOX), rel=1e-12
        )



def _deletion_without_reruns(saliency, cloud, box):
    d = Detection(box.center, box.size, box.yaw, 1.0, "car")
    return deletion_curve(None, cloud, d, saliency)


@pytest.mark.parametrize("metric", [_deletion_without_reruns, vea, pointing_game, energy_pg])
def test_saliency_must_pair_with_cloud(metric):
    box = OrientedBox((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0)
    cloud = [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]
    with pytest.raises(LengthMismatch, match="saliency length 3 != cloud length 2"):
        metric([1.0, 0.5, 0.2], cloud, box)


def _insertion_without_reruns(saliency, cloud, box):
    d = Detection(box.center, box.size, box.yaw, 1.0, "car")
    return insertion_curve(None, cloud, d, saliency)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "metric", [_deletion_without_reruns, _insertion_without_reruns, vea, pointing_game, energy_pg]
)
def test_non_finite_map_is_refused(metric, value):
    # argmax picks a NaN, so a NaN inside the box would win the pointing game
    box = OrientedBox((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0)
    cloud = [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [9.0, 0.0, 0.0]]
    with pytest.raises(NonFiniteInput, match=f"saliency of point 1 is {value}, not finite"):
        metric([0.0, value, 1.0], cloud, box)


def test_pointing_game_rejects_empty_map_first():
    box = OrientedBox((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0)
    with pytest.raises(ValueError, match="empty"):
        pointing_game([], [[0.0, 0.0, 0.0]], box)


class TestWellDetected:
    THRESHOLDS = EvalThresholds()

    def test_identical_boxes_match(self):
        pred = Detection((1.0, 1.0, 1.0), (4.0, 2.0, 1.5), 0.2, 0.9, "car")
        gts = [(OrientedBox((1.0, 1.0, 1.0), (4.0, 2.0, 1.5), 0.2), "car")]
        assert well_detected([pred], gts, self.THRESHOLDS) == [(0, 0, pytest.approx(1.0))]

    def test_below_threshold_unmatched(self):
        pred = Detection((0.9, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0, 0.9, "car")
        gts = [(OrientedBox((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0), "car")]
        overlap = iou_3d(pred.box(), gts[0][0])
        assert 0.3 < overlap < 0.7
        assert well_detected([pred], gts, self.THRESHOLDS) == []

    def test_wrong_class_unmatched(self):
        pred = Detection((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0, 0.9, "pedestrian")
        gts = [(OrientedBox((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0), "car")]
        assert well_detected([pred], gts, self.THRESHOLDS) == []

    def test_greedy_uses_best_only_once(self):
        close = Detection((0.05, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0, 0.9, "cyclist")
        closer = Detection((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0, 0.8, "cyclist")
        gts = [(OrientedBox((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0), "cyclist")]
        matches = well_detected([close, closer], gts, self.THRESHOLDS)
        assert len(matches) == 1
        assert matches[0][0] == 1  # the higher-IoU prediction wins


def test_thresholds_validation():
    with pytest.raises(ValueError):
        EvalThresholds(car=0.0)
    assert EvalThresholds().for_label("unknown") == 0.5


def test_thresholds_follow_the_class_table():
    names = [f.name for f in dataclasses.fields(EvalThresholds)]
    assert names == [*CLASS_NAMES, "fallback"]
    values = {name: 0.1 * (i + 1) for i, name in enumerate(names)}
    thresholds = EvalThresholds(**values)
    for label in CLASS_NAMES:
        assert thresholds.for_label(label) == values[label]
    for label in ("unknown", "Car", "fallback", "__class__", ""):
        assert thresholds.for_label(label) == values["fallback"]
