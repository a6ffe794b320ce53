import numpy as np
import pytest

from pcsaliency import nmf, pipeline
from pcsaliency.boxes import points_in_box
from pcsaliency.errors import EmptyMask, LengthMismatch
from pcsaliency.pipeline import (
    ATTRIBUTE_NAMES,
    Detection,
    PipelineConfig,
    bits_to_mask,
    channel_aggregate,
    combine,
    explain_detection,
    full_mask,
    make_mask,
    mask_to_bits,
    normalize,
    object_loss,
)
from pcsaliency.synthetic import multi_object_scene, single_object_scene
from pcsaliency.voxelgrid import GridSpec, SparseVoxelMap, UpsampleConfig, upsample_to_points

OWN_VOXEL = UpsampleConfig(range_threshold=0, k=1)


def pconfig(**kwargs):
    base = dict(
        nmf=nmf.NmfConfig(r=16, max_iterations=120, seed=0),
        upsample=UpsampleConfig(),
        block_index=3,
        ablation="full",
    )
    base.update(kwargs)
    return PipelineConfig(**base)


def explain_one(detector, cloud, d, mask, cfg):
    """``explain_detection`` for one detection under one mask."""
    [[saliency]] = explain_detection(detector, cloud, [d], [mask], cfg)
    return saliency


class TestMasks:
    def test_full_mask_has_all_attributes(self):
        assert full_mask() == frozenset(ATTRIBUTE_NAMES)

    def test_unknown_attribute_rejected(self):
        with pytest.raises(ValueError):
            make_mask("x", "bogus")

    def test_no_names_rejected(self):
        with pytest.raises(EmptyMask):
            make_mask()

    def test_bits_round_trip(self):
        for mask in (full_mask(), make_mask("x"), make_mask("l", "s", "yaw")):
            assert bits_to_mask(mask_to_bits(mask)) == mask


class TestObjectLoss:
    def test_all_attribute_sum(self):
        d = Detection((1.0, 2.0, 3.0), (4.0, 2.0, 1.5), 0.0, 0.9, "car")
        assert object_loss(d, full_mask()) == pytest.approx(14.4, abs=1e-12)

    def test_single_attribute(self):
        d = Detection((1.0, 2.0, 3.0), (4.0, 2.0, 1.5), 0.0, 0.9, "car")
        assert object_loss(d, make_mask("h")) == pytest.approx(1.5)

    def test_zero_valued_attributes_give_zero(self):
        d = Detection((0.0, 5.0, 0.0), (1.0, 1.0, 1.0), 0.0, 0.5, "car")
        assert object_loss(d, make_mask("x", "z", "yaw")) == 0.0

    def test_absolute_values_used(self):
        d = Detection((-3.0, 0.0, 0.0), (1.0, 1.0, 1.0), -0.5, 0.5, "car")
        assert object_loss(d, make_mask("x", "yaw")) == pytest.approx(3.5)

    def test_empty_mask_rejected(self):
        d = Detection((1.0, 2.0, 3.0), (4.0, 2.0, 1.5), 0.0, 0.9, "car")
        with pytest.raises(EmptyMask):
            object_loss(d, frozenset())

    def test_disjoint_mask_additivity(self):
        d = Detection((1.5, -2.0, 0.7), (4.0, 2.0, 1.5), 0.3, 0.8, "car")
        a = make_mask("x", "l", "s")
        b = make_mask("y", "z", "h")
        assert object_loss(d, a | b) == pytest.approx(
            object_loss(d, a) + object_loss(d, b), abs=1e-12
        )


class TestChannelAggregate:
    def test_l1_norm(self):
        g = np.array([[-1.0, 2.0, -3.0]])
        assert np.array_equal(channel_aggregate(g), [6.0])

    def test_zeros(self):
        assert np.array_equal(channel_aggregate(np.zeros((4, 5))), np.zeros(4))

    def test_matches_fold(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(10, 8))
        expected = [sum(abs(x) for x in row) for row in g.tolist()]
        assert np.allclose(channel_aggregate(g), expected, atol=1e-12)


class TestNormalize:
    def test_two_values(self):
        assert np.array_equal(normalize(np.array([3.0, 7.0])), [0.0, 1.0])

    def test_constant_collapses_to_zero(self):
        assert np.array_equal(normalize(np.array([5.0, 5.0, 5.0])), [0.0, 0.0, 0.0])

    def test_linear_scaling(self):
        out = normalize(np.array([0.0, 1.0, 3.0]))
        assert np.allclose(out, [0.0, 1.0 / 3.0, 1.0], atol=1e-15)


GRID = GridSpec(1.0, (0.0, 8.0), (0.0, 8.0), (0.0, 8.0))


def vmap_of(n):
    coords = np.array([(i, 0, 0) for i in range(n)])
    return SparseVoxelMap(coords, np.zeros(n), GRID)


class TestCombine:
    def test_disjoint_support_annihilates(self):
        out = combine(np.array([0.0, 1.0]), np.array([1.0, 0.0]), vmap_of(2))
        assert np.array_equal(np.asarray(out.values), [0.0, 0.0])

    def test_elementwise_product(self):
        out = combine(
            np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.5, 1.0]), vmap_of(3)
        )
        assert np.allclose(np.asarray(out.values), [0.0, 0.25, 1.0], atol=1e-15)

    def test_no_concept_is_identity(self):
        omega = np.array([0.2, 0.9, 0.4])
        out = combine(omega, None, vmap_of(3))
        assert np.array_equal(np.asarray(out.values), normalize(omega))

    def test_all_ones_concept_is_normalized(self):
        # a constant concept map min-max normalizes to zeros like any other
        out = combine(np.array([0.2, 0.9, 0.4]), np.ones(3), vmap_of(3))
        assert np.array_equal(np.asarray(out.values), np.zeros(3))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            combine(np.zeros(2), np.zeros(3), vmap_of(2))
        with pytest.raises(LengthMismatch):
            combine(np.zeros(3), np.zeros(3), vmap_of(2))
        with pytest.raises(LengthMismatch):
            combine(np.zeros(3), None, vmap_of(2))

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        omega = rng.uniform(size=6)
        concept = rng.uniform(size=6)
        base = np.asarray(combine(omega, concept, vmap_of(6)).values)
        scaled = np.asarray(combine(7.3 * omega, concept, vmap_of(6)).values)
        assert np.allclose(base, scaled, atol=1e-12)

    def test_zero_gradient_and_concept_gives_zero(self):
        omega = np.array([0.0, 1.0, 0.5])
        concept = np.array([0.0, 0.3, 0.9])
        out = np.asarray(combine(omega, concept, vmap_of(3)).values)
        assert out[0] == 0.0


class TestExplain:
    def test_argmax_in_detected_box(self, detector):
        cloud, gt_box, _ = single_object_scene(0)
        d = detector.detect(cloud)[0]
        saliency = explain_one(detector, cloud, d, full_mask(), pconfig())
        assert len(saliency) == len(cloud)
        assert np.all(saliency >= 0)
        top = int(np.argmax(saliency))
        assert points_in_box(cloud[top : top + 1], gt_box)[0]

    def test_no_vu_equals_nearest_voxel_lookup(self, detector):
        cloud, _, _ = single_object_scene(1)
        d = detector.detect(cloud)[0]
        cfg = pconfig(ablation="no_vu")
        got = explain_one(detector, cloud, d, full_mask(), cfg)

        feats = detector.features(cloud, cfg.block_index)
        values = np.asarray(feats.values)
        r_eff = min(cfg.nmf.r, len(feats), values.shape[1])
        fact = nmf.factorize(
            values,
            nmf.NmfConfig(
                r=r_eff,
                max_iterations=cfg.nmf.max_iterations,
                relative_tolerance=cfg.nmf.relative_tolerance,
                seed=cfg.nmf.seed,
            ),
        )
        concept = nmf.global_concept_map(fact)
        omega = channel_aggregate(detector.gradient(cloud, d, full_mask(), cfg.block_index))
        combined = combine(omega, concept, feats)
        expected = upsample_to_points(combined, cloud, OWN_VOXEL)
        assert np.array_equal(got, expected)

    def test_gradient_only_equals_ones_concept_nearest_voxel(self, detector):
        cloud, _, _ = single_object_scene(2)
        d = detector.detect(cloud)[0]
        cfg = pconfig(ablation="gradient_only")
        got = explain_one(detector, cloud, d, full_mask(), cfg)

        feats = detector.features(cloud, cfg.block_index)
        omega = channel_aggregate(detector.gradient(cloud, d, full_mask(), cfg.block_index))
        combined = combine(omega, None, feats)
        expected = upsample_to_points(combined, cloud, OWN_VOXEL)
        assert np.array_equal(got, expected)

    def test_no_ff_keeps_upsampling(self, detector):
        cloud, _, _ = single_object_scene(3)
        d = detector.detect(cloud)[0]
        cfg = pconfig(ablation="no_ff")
        got = explain_one(detector, cloud, d, full_mask(), cfg)

        feats = detector.features(cloud, cfg.block_index)
        omega = channel_aggregate(detector.gradient(cloud, d, full_mask(), cfg.block_index))
        combined = combine(omega, None, feats)
        expected = upsample_to_points(combined, cloud, cfg.upsample)
        assert np.array_equal(got, expected)

    def test_deterministic(self, detector):
        cloud, _, _ = single_object_scene(4)
        d = detector.detect(cloud)[0]
        a = explain_one(detector, cloud, d, full_mask(), pconfig())
        b = explain_one(detector, cloud, d, full_mask(), pconfig())
        assert np.array_equal(a, b)

    def test_rank_clamped_to_map_size(self, detector):
        cloud, _, _ = single_object_scene(5)
        d = detector.detect(cloud)[0]
        cfg = pconfig(nmf=nmf.NmfConfig(r=64, max_iterations=60, seed=0))
        saliency = explain_one(detector, cloud, d, full_mask(), cfg)
        assert np.all(np.isfinite(saliency))


def _average_ranks(v):
    """0-based ranks of ``v``; tied values share the mean of their ranks."""
    v = np.asarray(v)
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(v)]
    ranks = np.empty(len(v))
    ranks[order] = np.repeat((starts + ends - 1) / 2.0, ends - starts)
    return ranks


def _spearman(a, b):
    return float(np.corrcoef(_average_ranks(a), _average_ranks(b))[0, 1])


class TestSeedStability:
    def test_average_ranks_share_ties(self):
        assert _average_ranks([3.0, 1.0, 3.0, 2.0, 3.0]).tolist() == [3.0, 0.0, 3.0, 1.0, 3.0]

    @pytest.mark.parametrize("scene", range(4))
    def test_saliency_ranking_independent_of_nmf_seed(self, detector, scene):
        # The explanation ranks points the same way whichever optimum the
        # seed picks.
        cloud, _, _ = single_object_scene(scene)
        d = detector.detect(cloud)[0]
        maps = [
            explain_one(
                detector, cloud, d, full_mask(), PipelineConfig(nmf=nmf.NmfConfig(seed=seed))
            )
            for seed in (0, 1, 2)
        ]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert _spearman(maps[i], maps[j]) >= 0.99

    @pytest.mark.parametrize("scene", range(10))
    def test_concept_map_ranking_independent_of_nmf_seed(self, detector, scene, monkeypatch):
        # An over-parameterized factorization has many optima, and H's row
        # sums move with the scaling of each; the map weighted by W's row
        # norms does not.
        cloud, _, _ = single_object_scene(scene)
        d = detector.detect(cloud)[0]
        maps = []
        concept_map = nmf.global_concept_map

        def recorded(f):
            maps.append(concept_map(f))
            return maps[-1]

        monkeypatch.setattr(nmf, "global_concept_map", recorded)
        for seed in (0, 1, 2):
            cfg = PipelineConfig(nmf=nmf.NmfConfig(seed=seed), block_index=3)
            explain_one(detector, cloud, d, full_mask(), cfg)
        assert len(maps) == 3
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert _spearman(maps[i], maps[j]) >= 0.99


@pytest.mark.parametrize("scene", [("single", s) for s in (0, 1, 2)] + [("multi", 0), ("multi", 1)])
def test_readme_statement_about_concepts_holds(detector, scene):
    """README's "Reference detector" section says that the block-3 feature
    map of each golden scene is one concept: its top singular direction
    holds all but ~1e-6 of its energy, so the concept map is the feature
    magnitude at any r."""
    kind, seed = scene
    cloud = (single_object_scene(seed) if kind == "single" else multi_object_scene(seed))[0]
    singular = np.linalg.svd(np.asarray(detector.features(cloud, 3).values), compute_uv=False)
    share = singular[0] ** 2 / np.sum(singular**2)
    assert share > 0.9999, f"README's statement about concepts is stale: top share {share:.7f}"


@pytest.fixture
def work(monkeypatch):
    """Counts of feature maps read, detector forwards computed,
    factorizations run and ``upsample_to_points`` calls made."""
    from pcsaliency.detector import ReferenceDetector

    counts = dict.fromkeys(("features", "forward", "factorize", "upsample"), 0)

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ReferenceDetector, "features", counted("features", ReferenceDetector.features))
    advance = ReferenceDetector._advance

    def counted_forward(self, layout, carry, keep, flipped):
        # a forward is the values pass that moves the carry to every point kept
        if keep.all():
            counts["forward"] += 1
        return advance(self, layout, carry, keep, flipped)

    monkeypatch.setattr(ReferenceDetector, "_advance", counted_forward)
    monkeypatch.setattr(nmf, "factorize", counted("factorize", nmf.factorize))
    monkeypatch.setattr(pipeline, "upsample_to_points", counted("upsample", pipeline.upsample_to_points))
    return counts


def two_detections(detector):
    cloud, _ = multi_object_scene(0)
    detections = detector.detect(cloud)
    assert len(detections) == 2
    return cloud, detections


def assert_each_pair_explained_alone(detector, cloud, detections, masks, cfg, got):
    """Every (detection, mask) saliency of one call is byte-identical to a
    call that explains that pair alone."""
    assert [len(per_mask) for per_mask in got] == [len(masks)] * len(detections)
    for d, per_mask in zip(detections, got):
        for mask, saliency in zip(masks, per_mask):
            assert saliency.tobytes() == explain_one(detector, cloud, d, mask, cfg).tobytes()


class TestConceptMemo:
    """One ``explain_detection`` call computes the scene's concept map once
    and shares it across every detection and mask."""

    MASKS = [full_mask(), make_mask("x"), make_mask("l", "s")]

    def test_one_factorization_per_block_and_config(self, detector, work):
        cloud, detections = two_detections(detector)
        cfgs = [pconfig(), pconfig(block_index=4), pconfig(nmf=nmf.NmfConfig(r=8, max_iterations=60))]
        for cfg in cfgs:
            work.update(dict.fromkeys(work, 0))
            got = explain_detection(detector, cloud, detections, self.MASKS, cfg)
            # one forward: the call's own scene scope serves features and every
            # gradient, and is released when the call returns
            assert (work["forward"], work["factorize"]) == (1, 1)
            assert detector._hold is None
            assert_each_pair_explained_alone(detector, cloud, detections, self.MASKS, cfg, got)

    @pytest.mark.parametrize("ablation", ["no_ff", "gradient_only"])
    def test_ablations_without_concepts_leave_memo_empty(self, detector, work, ablation):
        cloud, detections = two_detections(detector)
        work.update(dict.fromkeys(work, 0))
        explain_detection(detector, cloud, detections, self.MASKS, pconfig(ablation=ablation))
        assert (work["forward"], work["factorize"]) == (1, 0)

    def test_no_detections_calls_neither_features_nor_factorize(self, detector, work):
        cloud, _, _ = single_object_scene(4)
        assert explain_detection(detector, cloud, [], self.MASKS, pconfig()) == []
        assert (work["features"], work["forward"], work["factorize"]) == (0, 0, 0)

    def test_no_masks_give_one_empty_list_per_detection_and_compute_nothing(self, detector, work):
        cloud, detections = two_detections(detector)
        work.update(dict.fromkeys(work, 0))
        assert explain_detection(detector, cloud, detections, [], pconfig()) == [[], []]
        assert work == dict.fromkeys(work, 0)


class TestPlanMemo:
    """One ``explain_detection`` call makes one ``upsample_to_points`` call,
    whose one neighbor search serves every combined map as a column of one
    payload."""

    MASKS = [make_mask(name) for name in ATTRIBUTE_NAMES] + [full_mask()]

    @pytest.mark.parametrize("ablation", ["full", "no_ff", "no_vu", "gradient_only"])
    def test_memoized_bytes_equal_unmemoized_for_every_mask(self, detector, work, ablation):
        cloud, detections = two_detections(detector)
        cfg = pconfig(ablation=ablation)
        work.update(dict.fromkeys(work, 0))
        got = explain_detection(detector, cloud, detections, self.MASKS, cfg)
        # the own-voxel ablations still map through one (range 0, k 1) call
        assert work["upsample"] == 1
        assert_each_pair_explained_alone(detector, cloud, detections, self.MASKS, cfg, got)

    def test_one_plan_per_block_and_upsampling_config(self, detector, work):
        cloud, detections = two_detections(detector)
        cfgs = [pconfig(), pconfig(block_index=2), pconfig(upsample=UpsampleConfig(1, 4))]
        masks = [full_mask(), make_mask("x")]
        for cfg in cfgs:
            work.update(dict.fromkeys(work, 0))
            got = explain_detection(detector, cloud, detections, masks, cfg)
            assert work["upsample"] == 1
            assert_each_pair_explained_alone(detector, cloud, detections, masks, cfg, got)
