import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from pcsaliency.dumps import (
    DumpDetector,
    FeatureDump,
    dump_from_detector,
    load_dump,
    read_dump,
    save_dump,
)
from pcsaliency.errors import (
    DetectionNotFound,
    DetectorFailure,
    MalformedDump,
    MissingGradient,
    ShapeMismatch,
)
from pcsaliency.pipeline import explain_detection, full_mask, make_mask, mask_to_bits
from pcsaliency.synthetic import single_object_scene
from pcsaliency.voxelgrid import GridSpec


@pytest.fixture(scope="module")
def scene_dump(detector, tmp_path_factory):
    cloud, _, _ = single_object_scene(0)
    dump = dump_from_detector(
        detector, cloud, block_index=3, masks=(full_mask(), make_mask("s"))
    )
    path = tmp_path_factory.mktemp("dumps") / "scene.ffdp"
    save_dump(path, dump)
    return cloud, dump, path


class TestRoundTrip:
    def test_arrays_bit_identical(self, scene_dump):
        _, dump, path = scene_dump
        loaded = read_dump(path)
        assert np.array_equal(loaded.coords, dump.coords)
        assert np.array_equal(loaded.features, dump.features)
        assert loaded.block_index == dump.block_index
        assert loaded.grid == dump.grid
        assert len(loaded.detections) == len(dump.detections)
        assert loaded.gradients.keys() == dump.gradients.keys()
        for key, grad in dump.gradients.items():
            assert np.array_equal(loaded.gradients[key], grad)

    def test_detections_round_trip_at_f32(self, scene_dump):
        _, dump, path = scene_dump
        loaded = read_dump(path)
        for a, b in zip(loaded.detections, dump.detections):
            assert a.label == b.label
            for got, want in zip(
                (*a.center, *a.size, a.yaw, a.score),
                (*b.center, *b.size, b.yaw, b.score),
            ):
                assert got == np.float32(want)


class TestMalformed:
    def test_truncated(self, scene_dump, tmp_path):
        _, _, path = scene_dump
        data = path.read_bytes()
        stub = tmp_path / "short.ffdp"
        stub.write_bytes(data[: len(data) // 2])
        with pytest.raises(MalformedDump):
            read_dump(stub)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ffdp"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(MalformedDump):
            read_dump(path)

    def test_trailing_bytes(self, scene_dump, tmp_path):
        _, _, path = scene_dump
        padded = tmp_path / "padded.ffdp"
        padded.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(MalformedDump):
            read_dump(padded)

    def test_huge_row_count_in_header(self, tmp_path):
        # M * 3 * 4 bytes wraps int64; the length check must still see it
        path = tmp_path / "huge.ffdp"
        path.write_bytes(
            b"FFDP"
            + struct.pack("<I", 1)
            + struct.pack("<7d", 0.25, 0.0, 24.0, 0.0, 24.0, 0.0, 4.0)
            + struct.pack("<I", 3)
            + struct.pack("<QQ", 2**62, 32)
            + b"\x00" * 64
        )
        with pytest.raises(MalformedDump, match="truncated"):
            read_dump(path)

    def test_zero_rows_with_huge_channel_count(self, tmp_path):
        # zero rows pass the length check, but no numpy array has 2**63 columns
        path = tmp_path / "wide.ffdp"
        path.write_bytes(
            b"FFDP"
            + struct.pack("<I", 1)
            + struct.pack("<7d", 0.25, 0.0, 24.0, 0.0, 24.0, 0.0, 4.0)
            + struct.pack("<I", 3)
            + struct.pack("<QQ", 0, 2**63)
            + struct.pack("<QQ", 0, 0)
        )
        with pytest.raises(MalformedDump, match="shape"):
            read_dump(path)

    def test_key_wrapping_grid(self, scene_dump, tmp_path):
        # 1e-6 m voxels over 24 x 24 x 4 m is a valid GridSpec whose voxel
        # key would wrap int64; the file is rejected before any use
        _, dump, _ = scene_dump
        path = tmp_path / "wrapping.ffdp"
        save_dump(path, replace(dump, grid=GridSpec(1e-6, (0.0, 24.0), (0.0, 24.0), (0.0, 4.0))))
        with pytest.raises(MalformedDump, match="int64"):
            read_dump(path)

    def test_repeated_voxel_coordinate(self, scene_dump, tmp_path):
        _, dump, _ = scene_dump
        coords = dump.coords.copy()
        coords[2] = coords[0]
        path = tmp_path / "repeated.ffdp"
        save_dump(path, replace(dump, coords=coords))
        message = f"voxel coordinate {coords[0].tolist()} repeats"
        with pytest.raises(MalformedDump, match=re.escape(message)):
            read_dump(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_features(self, scene_dump, tmp_path, value):
        _, dump, _ = scene_dump
        features = dump.features.copy()
        features[3, 1] = value
        path = tmp_path / "features.ffdp"
        save_dump(path, replace(dump, features=features))
        with pytest.raises(MalformedDump, match="features: row 3 is not finite"):
            read_dump(path)

    @pytest.mark.parametrize("value", [float("nan"), -float("inf")])
    def test_non_finite_gradient(self, scene_dump, tmp_path, value):
        _, dump, _ = scene_dump
        gradients = {key: grad.copy() for key, grad in dump.gradients.items()}
        last = sorted(gradients)[-1]
        gradients[last][4, 0] = value
        path = tmp_path / "gradient.ffdp"
        save_dump(path, replace(dump, gradients=gradients))
        record = len(gradients) - 1
        with pytest.raises(MalformedDump, match=f"gradient record {record}: row 4 is not finite"):
            read_dump(path)

    @pytest.mark.parametrize("change", [{"center": (np.nan, 1.0, 1.0)}, {"yaw": np.inf}])
    def test_non_finite_detection(self, scene_dump, tmp_path, change):
        _, dump, _ = scene_dump
        bad = replace(dump.detections[0], **change)
        path = tmp_path / "detection.ffdp"
        save_dump(path, replace(dump, detections=[dump.detections[0], bad]))
        with pytest.raises(MalformedDump, match="detection record 1 is not finite"):
            read_dump(path)

    @pytest.mark.parametrize("change", [{"size": (0.0, 1.0, 1.0)}, {"score": 2.0}])
    def test_invalid_detection(self, scene_dump, tmp_path, change):
        # a record finite in every field that no Detection may hold
        _, dump, _ = scene_dump
        bad = replace(dump.detections[0])
        for name, value in change.items():
            object.__setattr__(bad, name, value)
        path = tmp_path / "detection.ffdp"
        save_dump(path, replace(dump, detections=[dump.detections[0], bad]))
        with pytest.raises(MalformedDump, match="^invalid detection record: "):
            read_dump(path)

    @pytest.mark.parametrize("past", [0, 1])
    def test_gradient_of_a_detection_past_the_count(self, scene_dump, tmp_path, past):
        _, dump, _ = scene_dump
        n = len(dump.detections)
        bad = replace(dump)
        bad.gradients = {**dump.gradients, (n + past, 1): dump.features}
        path = tmp_path / "gradient.ffdp"
        save_dump(path, bad)
        with pytest.raises(MalformedDump, match=f"^gradient references detection {n + past} of {n}$"):
            read_dump(path)

    def test_shape_mismatch_on_construction(self):
        grid = GridSpec(1.0, (0, 4), (0, 4), (0, 4))
        with pytest.raises(ShapeMismatch):
            FeatureDump(
                grid=grid,
                block_index=1,
                coords=np.zeros((3, 3), dtype=np.int32),
                features=np.zeros((4, 8), dtype=np.float32),
                detections=[],
            )

    def test_gradient_shape_mismatch(self):
        grid = GridSpec(1.0, (0, 4), (0, 4), (0, 4))
        with pytest.raises(ShapeMismatch):
            FeatureDump(
                grid=grid,
                block_index=1,
                coords=np.zeros((3, 3), dtype=np.int32),
                features=np.zeros((3, 8), dtype=np.float32),
                detections=[],
                gradients={(0, 1): np.zeros((2, 8), dtype=np.float32)},
            )


class TestDumpDetector:
    def test_replays_stored_state(self, scene_dump):
        cloud, dump, path = scene_dump
        replay = load_dump(path)
        detections = replay.detect(cloud)
        assert len(detections) == len(dump.detections)
        feats = replay.features(cloud, 3)
        assert np.array_equal(np.asarray(feats.values), dump.features)
        grad = replay.gradient(cloud, detections[0], full_mask(), 3)
        assert np.array_equal(
            np.asarray(grad.values), dump.gradients[(0, mask_to_bits(full_mask()))]
        )

    def test_subset_refuses(self, scene_dump):
        # the stored detections belong to the whole cloud, not to any subset
        cloud, _, path = scene_dump
        replay = load_dump(path)
        for keep in (np.arange(len(cloud)) % 2 == 0, np.ones(len(cloud), dtype=bool)):
            with pytest.raises(DetectorFailure, match="subset of the cloud"):
                replay.detect_subset(cloud, keep)

    def test_missing_gradient(self, scene_dump):
        cloud, _, path = scene_dump
        replay = load_dump(path)
        d = replay.detect(cloud)[0]
        with pytest.raises(MissingGradient):
            replay.gradient(cloud, d, make_mask("x"), 3)

    def test_wrong_block(self, scene_dump):
        cloud, _, path = scene_dump
        replay = load_dump(path)
        with pytest.raises(DetectorFailure):
            replay.features(cloud, 2)

    def test_unknown_detection(self, scene_dump):
        cloud, _, path = scene_dump
        replay = load_dump(path)
        from pcsaliency.pipeline import Detection

        with pytest.raises(DetectionNotFound):
            replay.gradient(
                cloud, Detection((1, 1, 1), (1, 1, 1), 0.0, 0.5, "car"), full_mask(), 3
            )

    def test_no_occupied_voxels_is_a_detector_failure(self, scene_dump):
        from pcsaliency.pipeline import PipelineConfig

        cloud, dump, _ = scene_dump
        empty = FeatureDump(
            grid=dump.grid, block_index=3, coords=np.zeros((0, 3), dtype=np.int32),
            features=np.zeros((0, dump.features.shape[1]), dtype=np.float32),
            detections=dump.detections[:1],
        )
        replay = DumpDetector(empty)
        with pytest.raises(DetectorFailure, match="feature map has no occupied voxels"):
            explain_detection(replay, cloud, empty.detections, [full_mask()], PipelineConfig())

    def test_pipeline_runs_on_dump(self, scene_dump):
        from pcsaliency.nmf import NmfConfig
        from pcsaliency.pipeline import PipelineConfig

        cloud, _, path = scene_dump
        replay = load_dump(path)
        d = replay.detect(cloud)[0]
        cfg = PipelineConfig(nmf=NmfConfig(r=16, max_iterations=80, seed=0))
        [[saliency]] = explain_detection(replay, cloud, [d], [full_mask()], cfg)
        assert len(saliency) == len(cloud)
        assert np.all(saliency >= 0)
        assert saliency.max() > 0
