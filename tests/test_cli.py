import concurrent.futures
import ctypes
import json
import platform
import re
import types
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from pcsaliency.cli import main
from pcsaliency.fileio import read_saliency_csv, write_kitti_bin, write_labels_json
from pcsaliency.runconfig import RunConfig, parse_config_file
from pcsaliency.synthetic import multi_object_scene, noise_scene, single_object_scene

from conftest import write_scene_dir

FAST = [
    "--set", "nmf.r=16", "--set", "nmf.max_iterations=60",
    "--set", "eval.steps=5",
]


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory, detector):
    return write_scene_dir(tmp_path_factory.mktemp("scenes"), detector, seeds=range(2))


@pytest.fixture
def explained(monkeypatch):
    """Every ``explain_detection`` call the CLI makes, recorded as
    ``(cloud, detections, masks, pipeline config, saliencies)``."""
    from pcsaliency import cli
    from pcsaliency.pipeline import explain_detection

    calls = []

    def recorded(detector, cloud, detections, masks, cfg):
        saliencies = explain_detection(detector, cloud, detections, masks, cfg)
        calls.append((cloud, detections, masks, cfg, saliencies))
        return saliencies

    monkeypatch.setattr(cli, "explain_detection", recorded)
    return calls


class TestRunConfig:
    def test_defaults_round_trip(self):
        cfg = RunConfig.from_sources()
        assert cfg.get("nmf.r") == 64
        assert cfg.get("pipeline.block_index") == 3
        assert cfg.get("upsample.range_threshold") == 2
        assert cfg.get("upsample.k") == 16

    def test_file_and_overrides(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("nmf.r = 8\npipeline.block_index = 2  # comment\n")
        cfg = RunConfig.from_sources(config, ["nmf.r=32"])
        assert cfg.get("nmf.r") == 32  # flag wins over file
        assert cfg.get("pipeline.block_index") == 2

    def test_unknown_key_rejected(self):
        from pcsaliency.errors import InvalidConfig

        with pytest.raises(InvalidConfig) as err:
            RunConfig.from_sources(None, ["bogus.key=1"])
        assert err.value.key == "bogus.key"
        with pytest.raises(InvalidConfig) as err:
            RunConfig.from_sources().with_values({"bogus.key": 1})
        assert err.value.key == "bogus.key"

    @pytest.mark.parametrize("override", [
        "eval.steps=0",
        "eval.steps=-1",
        "parallelism=-3",
        "parallelism=0",
        "nmf.relative_tolerance=nan",
        "nmf.relative_tolerance=0",
        "detector.kappa=inf",
        "nmf.r=-1",
        "nmf.seed=-1",
        "upsample.k=0",
        "pipeline.block_index=5",
        "pipeline.ablation=none",
        "thresholds.car=1.5",
        "detector.voxel_size=0",
        "detector.voxel_size=1e-7",
        "detector.x_max=-1",
        "detector.seed=-1",
        "detector.kind=nope",
    ])
    def test_out_of_range_value_names_its_key(self, override):
        from pcsaliency.errors import InvalidConfig

        key = override.split("=")[0]
        with pytest.raises(InvalidConfig) as err:
            RunConfig.from_sources(None, [override])
        assert err.value.key == key
        assert str(err.value).startswith(f"{key}: ")

    def test_mistyped_value_names_its_key(self):
        from pcsaliency.errors import InvalidConfig

        with pytest.raises(InvalidConfig) as err:
            RunConfig.from_sources(None, ["nmf.r=many"])
        assert err.value.key == "nmf.r"

    @pytest.mark.parametrize("override, expected", [
        ("nmf.clamp_negatives=maybe", "expected a boolean, got 'maybe'"),
        ("nmf.relative_tolerance=abc", "expected a number, got 'abc'"),
    ], ids=["boolean", "number"])
    def test_mistyped_boolean_or_number_names_its_key(self, override, expected):
        from pcsaliency.errors import InvalidConfig

        key = override.split("=")[0]
        with pytest.raises(InvalidConfig) as err:
            RunConfig.from_sources(None, [override])
        assert str(err.value) == f"{key}: {expected}"

    @pytest.mark.parametrize("text, value", [
        ("true", True), ("1", True), ("yes", True), ("YES", True),
        ("false", False), ("0", False), ("no", False), ("False", False),
    ])
    def test_boolean_spellings(self, text, value):
        cfg = RunConfig.from_sources(None, [f"nmf.clamp_negatives={text}"])
        assert cfg.get("nmf.clamp_negatives") is value
        assert cfg.pipeline_config().nmf.clamp_negatives is value

    def test_override_without_equals_sign_rejected(self):
        from pcsaliency.errors import ValidationError

        with pytest.raises(ValidationError, match="'nmf.r' must look like key=value"):
            RunConfig.from_sources(None, ["nmf.r"])

    def test_dump_kind_without_a_path_names_the_path_key(self):
        from pcsaliency.errors import InvalidConfig

        with pytest.raises(InvalidConfig) as err:
            RunConfig.from_sources(None, ["detector.kind=dump"])
        assert err.value.key == "detector.dump_path"
        # a path makes it valid; the file is read only when a detector is built
        RunConfig.from_sources(None, ["detector.kind=dump", "detector.dump_path=x.ffdp"])

    def test_typed_configs_built_once_and_outside_equality(self):
        from pcsaliency.detector import ReferenceDetectorConfig
        from pcsaliency.metrics import EvalThresholds
        from pcsaliency.nmf import NmfConfig
        from pcsaliency.pipeline import PipelineConfig
        from pcsaliency.voxelgrid import UpsampleConfig

        cfg = RunConfig.from_sources(None, FAST[1::2])
        assert cfg.pipeline_config() is cfg.pipeline_config()
        assert cfg.detector_config() is cfg.detector_config()
        assert cfg.thresholds() is cfg.thresholds()
        assert cfg.pipeline_config() == PipelineConfig(
            nmf=NmfConfig(r=16, max_iterations=60), upsample=UpsampleConfig()
        )
        assert cfg.detector_config() == ReferenceDetectorConfig()
        assert cfg.thresholds() == EvalThresholds()
        again = RunConfig.from_sources(None, FAST[1::2])
        assert again == cfg and hash(again) == hash(cfg) and again.values == cfg.values
        assert "_configs" not in repr(cfg)

    def test_keys_types_and_hashes_pinned(self):
        # artifacts embed the hash: the key set, the value types and the
        # defaults must not move
        cfg = RunConfig.from_sources()
        types = {
            "bool": ["nmf.clamp_negatives"],
            "int": [
                "detector.feature_dim", "detector.seed", "eval.steps", "nmf.max_iterations",
                "nmf.r", "nmf.seed", "parallelism", "pipeline.block_index", "upsample.k",
                "upsample.range_threshold",
            ],
            "float": [
                "detector.activation_threshold", "detector.kappa", "detector.size_floor",
                "detector.voxel_size", "detector.x_max", "detector.x_min", "detector.y_max",
                "detector.y_min", "detector.z_max", "detector.z_min",
                "nmf.relative_tolerance", "thresholds.car", "thresholds.cyclist",
                "thresholds.pedestrian",
            ],
            "str": ["detector.dump_path", "detector.kind", "output.dir", "pipeline.ablation"],
        }
        assert [key for key, _ in cfg.values] == sorted(sum(types.values(), []))
        for name, keys in types.items():
            assert all(type(cfg.get(key)).__name__ == name for key in keys), name
        assert cfg.config_hash() == "b59241dece1e"
        assert RunConfig.from_sources(None, FAST[1::2]).config_hash() == "0215be90bb86"

    def test_hash_stable_and_sensitive(self):
        a = RunConfig.from_sources()
        b = RunConfig.from_sources()
        c = RunConfig.from_sources(None, ["nmf.r=8"])
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("# header\nkey.a = 1\n\nkey.b=two\n")
        assert parse_config_file(path) == {"key.a": "1", "key.b": "two"}


class TestExplain:
    def test_writes_csv(self, scene_dir, tmp_path):
        out = tmp_path / "sal.csv"
        code = main([
            "explain", "--scene", str(scene_dir / "scene000.bin"),
            "--detection", "0", "--out", str(out), *FAST,
        ])
        assert code == 0
        points, scores = read_saliency_csv(out)
        assert len(points) == len(scores) > 0
        assert scores.max() > 0

    def test_writes_ply(self, scene_dir, tmp_path):
        out = tmp_path / "sal.ply"
        code = main([
            "explain", "--scene", str(scene_dir / "scene000.bin"),
            "--detection", "0", "--format", "ply", "--out", str(out), *FAST,
        ])
        assert code == 0
        assert "end_header" in out.read_text()

    def test_missing_detection_exits_one(self, scene_dir, tmp_path, capsys):
        code = main([
            "explain", "--scene", str(scene_dir / "scene000.bin"),
            "--detection", "99", "--out", str(tmp_path / "x.csv"), *FAST,
        ])
        assert code == 1
        assert "DetectionNotFound" in capsys.readouterr().err

    def test_unknown_mask_exits_one_before_making_the_output_directory(
        self, scene_dir, tmp_path, capsys
    ):
        out = tmp_path / "made" / "x.csv"
        code = main([
            "explain", "--scene", str(scene_dir / "scene000.bin"),
            "--detection", "0", "--mask", "bogus", "--out", str(out), *FAST,
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown attributes: ['bogus']\n"
        assert not out.parent.exists()

    def test_single_attribute_mask(self, scene_dir, tmp_path):
        out = tmp_path / "sal_h.csv"
        code = main([
            "explain", "--scene", str(scene_dir / "scene000.bin"),
            "--detection", "0", "--mask", "h", "--out", str(out), *FAST,
        ])
        assert code == 0


class TestEval:
    def test_jsonl_shape_and_determinism(self, scene_dir, tmp_path):
        out1 = tmp_path / "m1.jsonl"
        out2 = tmp_path / "m2.jsonl"
        for out in (out1, out2):
            code = main(["eval", "--scenes", str(scene_dir), "--out", str(out), *FAST])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

        rows = [json.loads(line) for line in out1.read_text().splitlines()]
        assert rows
        metrics_seen = {row["metric"] for row in rows}
        assert metrics_seen == {"deletion", "insertion", "vea", "pg", "enpg"}
        for row in rows:
            assert set(row) == {"scene_id", "detection_id", "metric", "value", "config_hash"}
        keys = [(r["scene_id"], r["detection_id"], r["metric"]) for r in rows]
        assert keys == sorted(keys)

    def test_missing_labels_fails_validation(self, tmp_path, detector):
        cloud, _, _ = single_object_scene(0)
        write_kitti_bin(tmp_path / "lonely.bin", cloud)
        code = main(["eval", "--scenes", str(tmp_path), *FAST,
                     "--set", f"output.dir={tmp_path / 'out'}"])
        assert code == 1

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_steps_below_one_exit_one_naming_the_key(self, scene_dir, tmp_path, capsys, steps):
        out = tmp_path / "m.jsonl"
        code = main(["eval", "--scenes", str(scene_dir), "--out", str(out),
                     *FAST, "--set", f"eval.steps={steps}"])
        assert code == 1
        assert "eval.steps" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_directory_is_io_failure(self, tmp_path):
        out = tmp_path / "out" / "metrics.jsonl"
        code = main(["eval", "--scenes", str(tmp_path / "nope"), "--out", str(out), *FAST])
        assert code == 2

    def test_directory_without_scenes_fails_validation(self, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        (scenes / "orphan.labels.json").write_text("[]\n")
        code = main(["eval", "--scenes", str(scenes), "--out", str(tmp_path / "m.jsonl"), *FAST])
        assert code == 1
        assert capsys.readouterr().err == f"error: no .bin scenes found in {scenes}\n"


class TestSweep:
    def test_row_count_matches_grids(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--scenes", str(scene_dir), "--out", str(out),
            "--set", "nmf.max_iterations=40", "--set", "eval.steps=3",
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "axis,setting,deletion,insertion,vea,pg,enpg"
        rows = lines[2:]
        # r = 64 and 128 clamp to the feature width 32: one row for the three
        assert len(rows) == 3 + 4 + 4
        assert [r.split(",")[1] for r in rows if r.startswith("r,")] == ["8", "16", "32"]
        assert sum(1 for r in rows if r.startswith("range_k,")) == 4
        assert sum(1 for r in rows if r.startswith("block,")) == 4
        err = capsys.readouterr().err
        assert "nmf.r=64" in err and "nmf.r=128" in err and "feature_dim=32" in err

    def test_no_objects_scores_nan_not_zero(self, empty_scene_dir, tmp_path):
        # a deletion AUC of 0 is the best score there is: a scene with nothing
        # to explain must not read as a perfect explanation
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--scenes", str(empty_scene_dir), "--out", str(out), *FAST]) == 0
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == 3 + 4 + 4
        assert all(row.rsplit(",", 5)[1:] == ["nan"] * 5 for row in rows)

    def test_one_rank_row_per_effective_rank(self, capsys):
        from pcsaliency.cli import _sweep_variants

        cfg = RunConfig.from_sources(None, ["detector.feature_dim=10"])
        ranks = [(setting, variant.get("nmf.r")) for axis, setting, variant in _sweep_variants(cfg)
                 if axis == "r"]
        assert ranks == [("8", 8), ("10", 10)]
        err = capsys.readouterr().err
        assert all(f"nmf.r={r}" in err for r in (16, 32, 64, 128))
        assert "nmf.r=8" not in err

    @pytest.mark.parametrize("ablation, skipped", [
        ("full", set()), ("no_ff", {"r"}), ("no_vu", {"range_k"}),
        ("gradient_only", {"r", "range_k"}),
    ])
    def test_no_rows_for_an_axis_the_ablation_ignores(self, capsys, ablation, skipped):
        # no_ff runs no factorization and no_vu forces range 0, k 1: every row
        # of such an axis would be the same row
        from pcsaliency.cli import _sweep_variants

        cfg = RunConfig.from_sources(None, [f"pipeline.ablation={ablation}"])
        axes = {axis for axis, _, _ in _sweep_variants(cfg)}
        assert axes == {"r", "range_k", "block"} - skipped
        err = capsys.readouterr().err
        for axis in ("r", "range_k"):
            assert (f"no {axis} rows" in err) == (axis in skipped)
        # the clamp is named only where there are r rows
        assert ("nmf.r=64" in err) == ("r" not in skipped)

    @pytest.mark.parametrize("override, distinct", [
        ([], 9), (["pipeline.ablation=no_vu"], 6), (["detector.feature_dim=10"], 8),
    ])
    def test_one_config_per_distinct_computation(self, override, distinct):
        # the base nmf.r=64 clamps to the feature width, as the r row of that
        # width does: the two rows run one config
        from pcsaliency.cli import _sweep_variants

        cfg = RunConfig.from_sources(None, override)
        configs = {variant for _, _, variant in _sweep_variants(cfg)}
        assert len(configs) == distinct
        assert all(variant.get("nmf.r") <= cfg.get("detector.feature_dim") for variant in configs)


class TestAggregateCli:
    def test_grid_outputs(self, scene_dir, tmp_path):
        out_dir = tmp_path / "agg"
        code = main([
            "aggregate", "--scenes", str(scene_dir), "--out-dir", str(out_dir),
            "--masks", "s,all", *FAST,
        ])
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["grids"]
        for entry in manifest["grids"]:
            assert (out_dir / entry["file"]).exists()
            assert entry["mask"] in ("s", "all")

    def test_one_accumulate_per_object(self, scene_dir, tmp_path, monkeypatch, capsys):
        """Every mask's map of an object lands in its class grid in one call."""
        from pcsaliency import cli
        from pcsaliency.aggregate import CanonicalGrid

        accumulate, canonicalize = CanonicalGrid.accumulate, cli.canonicalize
        calls, objects = [], []

        def counted(grid, points, saliency):
            calls.append(len(saliency))
            accumulate(grid, points, saliency)

        def canonical(cloud, box):
            objects.append(box)
            return canonicalize(cloud, box)

        monkeypatch.setattr(CanonicalGrid, "accumulate", counted)
        monkeypatch.setattr(cli, "canonicalize", canonical)
        out_dir = tmp_path / "agg"
        assert main(["aggregate", "--scenes", str(scene_dir), "--out-dir", str(out_dir), *FAST]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len({g["class"] for g in manifest["grids"]}) == 1
        assert len(objects) > 1 and calls == [9] * len(objects)
        assert capsys.readouterr().out == f"wrote 9 grids to {out_dir}\n"

    @pytest.mark.parametrize("masks", ["all,all", "x, x", "s,all,s", "", " , "])
    def test_repeated_or_empty_mask_list_exits_one_before_reading(
        self, scene_dir, tmp_path, monkeypatch, capsys, masks
    ):
        from pcsaliency import cli

        def never(*args, **kwargs):
            raise AssertionError("read a scene before checking --masks")

        monkeypatch.setattr(cli, "read_kitti_bin", never)
        out_dir = tmp_path / "agg"
        code = main([
            "aggregate", "--scenes", str(scene_dir), "--out-dir", str(out_dir),
            "--masks", masks, *FAST,
        ])
        assert code == 1
        assert "--masks" in capsys.readouterr().err
        assert not out_dir.exists()


class TestModesCli:
    def test_report(self, scene_dir, tmp_path):
        out = tmp_path / "modes.json"
        grids = tmp_path / "grids"
        code = main([
            "modes", "--scenes", str(scene_dir), "--out", str(out),
            "--grids-dir", str(grids), *FAST,
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report) == {"config_hash", "tp", "fp"}
        assert report["tp"]["count"] + report["fp"]["count"] > 0
        if report["tp"]["count"]:
            assert sum(report["tp"]["class_ratios"].values()) == pytest.approx(1.0)

    def test_grids_match_own_accumulation(self, tmp_path, detector, explained):
        """Each ``--grids-dir`` grid accumulates exactly the explained
        detections of its mode and class, in their canonical frames."""
        from pcsaliency.aggregate import CanonicalGrid, write_grid
        from pcsaliency.boxes import canonicalize

        cloud, _ = multi_object_scene(0)
        detections = detector.detect(cloud)
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        write_kitti_bin(scenes / "s.bin", cloud)
        # only the first detection has a ground truth; the second is a false positive
        write_labels_json(scenes / "s.labels.json", [(detections[0].box(), detections[0].label)])
        grids = tmp_path / "grids"
        assert main([
            "modes", "--scenes", str(scenes), "--out", str(tmp_path / "modes.json"),
            "--grids-dir", str(grids), *FAST,
        ]) == 0
        [(read_cloud, seen, _, _, saliencies)] = explained
        assert len(seen) == 2
        expected = tmp_path / "expected"
        expected.mkdir()
        for mode, d, [saliency] in zip(("tp", "fp"), seen, saliencies):
            grid = CanonicalGrid()
            grid.accumulate(canonicalize(read_cloud, d.box()), saliency)
            write_grid(expected / f"{mode}_{d.label}.grid", grid)
        assert _outputs(grids) == _outputs(expected)

    def test_no_grids_dir_accumulates_no_grid(self, scene_dir, tmp_path, monkeypatch):
        from pcsaliency.aggregate import CanonicalGrid

        def never(self, points, saliency):
            raise AssertionError("accumulated a grid that no file receives")

        monkeypatch.setattr(CanonicalGrid, "accumulate", never)
        out = tmp_path / "modes.json"
        assert main(["modes", "--scenes", str(scene_dir), "--out", str(out), *FAST]) == 0
        assert json.loads(out.read_text())["tp"]["count"] == 2

    def test_no_grids_dir_canonicalizes_nothing(self, scene_dir, tmp_path, monkeypatch):
        from pcsaliency import cli

        def never(cloud, box):
            raise AssertionError("canonicalized a cloud that no grid receives")

        monkeypatch.setattr(cli, "canonicalize", never)
        out = tmp_path / "modes.json"
        assert main(["modes", "--scenes", str(scene_dir), "--out", str(out), *FAST]) == 0
        assert json.loads(out.read_text())["tp"]["count"] == 2


def test_explain_from_dump(tmp_path, detector):
    from pcsaliency.dumps import dump_from_detector, save_dump
    from pcsaliency.pipeline import full_mask

    cloud, _, _ = single_object_scene(0)
    bin_path = tmp_path / "scene.bin"
    write_kitti_bin(bin_path, cloud)
    dump_path = tmp_path / "scene.ffdp"
    save_dump(dump_path, dump_from_detector(detector, cloud, 3, masks=(full_mask(),)))
    out = tmp_path / "sal.csv"
    code = main([
        "explain", "--scene", str(bin_path), "--detection", "0", "--out", str(out),
        "--set", "detector.kind=dump", "--set", f"detector.dump_path={dump_path}",
        "--set", "nmf.max_iterations=60",
    ])
    assert code == 0
    _, scores = read_saliency_csv(out)
    assert scores.max() > 0


def test_selftest_passes():
    assert main(["selftest"]) == 0


def test_selftest_rejects_an_unknown_detector_kind(capsys):
    assert main(["selftest", "--set", "detector.kind=nope"]) == 1
    assert capsys.readouterr().err.startswith("error: detector.kind: ")


def test_config_that_is_not_utf8_exits_one(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"nmf.r = \xff\n")
    assert main(["selftest", "--config", str(config)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {config}: not UTF-8")


def test_usage_error_exits_one():
    assert main(["explain"]) == 1  # missing required flags
    assert main(["no-such-command"]) == 1


@pytest.fixture(scope="module")
def empty_scene_dir(tmp_path_factory):
    """A scene without detections: the scene commands reach their writes at once."""
    root = tmp_path_factory.mktemp("empty_scenes")
    write_kitti_bin(root / "noise.bin", noise_scene(0, 200))
    write_labels_json(root / "noise.labels.json", [])
    return root


# Each case builds its argv from (object scene dir, empty scene dir, a
# regular file that blocks any path beneath it, a fresh directory).
_FS_FAILURES = {
    "explain-out": lambda sd, ed, blk, tmp: [
        "explain", "--scene", str(sd / "scene000.bin"), "--detection", "0",
        "--out", str(blk / "x.csv"), *FAST,
    ],
    "explain-output-dir": lambda sd, ed, blk, tmp: [
        "explain", "--scene", str(sd / "scene000.bin"), "--detection", "0",
        "--set", f"output.dir={blk / 'out'}", *FAST,
    ],
    "eval-out": lambda sd, ed, blk, tmp: [
        "eval", "--scenes", str(ed), "--out", str(blk / "m.jsonl"),
    ],
    "eval-out-is-a-directory": lambda sd, ed, blk, tmp: [
        "eval", "--scenes", str(ed), "--out", str(tmp),
    ],
    "sweep-out": lambda sd, ed, blk, tmp: [
        "sweep", "--scenes", str(ed), "--out", str(blk / "s.csv"),
    ],
    "aggregate-out-dir": lambda sd, ed, blk, tmp: [
        "aggregate", "--scenes", str(ed), "--out-dir", str(blk / "agg"),
    ],
    "aggregate-manifest": lambda sd, ed, blk, tmp: [
        "aggregate", "--scenes", str(ed), "--out-dir", str(tmp),
    ],
    "modes-out": lambda sd, ed, blk, tmp: [
        "modes", "--scenes", str(ed), "--out", str(blk / "modes.json"),
    ],
    "modes-grids-dir": lambda sd, ed, blk, tmp: [
        "modes", "--scenes", str(ed), "--out", str(tmp / "modes.json"),
        "--grids-dir", str(blk / "grids"),
    ],
}


@pytest.mark.parametrize("case", sorted(_FS_FAILURES))
def test_filesystem_failure_exits_two(case, scene_dir, empty_scene_dir, tmp_path, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("not a directory\n")
    out_dir = tmp_path / "outdir"
    (out_dir / "manifest.json").mkdir(parents=True)  # unwritable as a file
    argv = _FS_FAILURES[case](scene_dir, empty_scene_dir, blocker, out_dir)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot")


# Each case builds its argv from (object scene dir, a missing path, a
# directory, a scene directory whose labels file is a directory).
_READ_FAILURES = {
    "explain-scene-missing": lambda sd, missing, dr, bad: [
        "explain", "--scene", str(missing), "--detection", "0",
    ],
    "explain-scene-directory": lambda sd, missing, dr, bad: [
        "explain", "--scene", str(dr), "--detection", "0",
    ],
    "config-directory": lambda sd, missing, dr, bad: [
        "explain", "--scene", str(sd / "scene000.bin"), "--detection", "0", "--config", str(dr),
    ],
    "dump-missing": lambda sd, missing, dr, bad: [
        "explain", "--scene", str(sd / "scene000.bin"), "--detection", "0",
        "--set", "detector.kind=dump", "--set", f"detector.dump_path={missing}",
    ],
    "eval-labels-directory": lambda sd, missing, dr, bad: ["eval", "--scenes", str(bad)],
}


@pytest.mark.parametrize("case", sorted(_READ_FAILURES))
def test_read_failure_exits_two(case, scene_dir, tmp_path, capsys):
    directory = tmp_path / "adir"
    directory.mkdir()
    bad_scenes = tmp_path / "bad_scenes"
    bad_scenes.mkdir()
    (bad_scenes / "s.bin").write_bytes((scene_dir / "scene000.bin").read_bytes())
    (bad_scenes / "s.labels.json").mkdir()
    argv = _READ_FAILURES[case](scene_dir, tmp_path / "missing", directory, bad_scenes)
    assert main([*argv, "--set", f"output.dir={tmp_path / 'out'}", *FAST]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read")


def test_key_overflowing_grid_exits_one(scene_dir, tmp_path, capsys):
    code = main([
        "explain", "--scene", str(scene_dir / "scene000.bin"), "--detection", "0",
        "--out", str(tmp_path / "sal.csv"),
        "--set", "detector.voxel_size=1e-6", "--set", "detector.x_max=1e6",
        "--set", "detector.y_max=1e6", "--set", "detector.z_max=1e6",
    ])
    assert code == 1
    assert "int64" in capsys.readouterr().err


def test_key_wrapping_voxel_size_exits_one_naming_its_key(scene_dir, tmp_path, capsys):
    code = main([
        "explain", "--scene", str(scene_dir / "scene000.bin"), "--detection", "0",
        "--out", str(tmp_path / "sal.csv"), "--set", "detector.voxel_size=1e-7",
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: detector.voxel_size: ")


def test_non_finite_point_exits_one(tmp_path, capsys):
    cloud, _, _ = single_object_scene(0)
    cloud = np.vstack([cloud, [10.0, 10.0, 1.0, np.inf]])
    bin_path = tmp_path / "scene.bin"
    write_kitti_bin(bin_path, cloud)
    code = main([
        "explain", "--scene", str(bin_path), "--detection", "0",
        "--out", str(tmp_path / "sal.csv"), *FAST,
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {bin_path}: point {len(cloud) - 1} is not finite\n"


def test_dump_with_repeated_voxel_exits_one_at_load(tmp_path, detector, capsys, monkeypatch):
    from dataclasses import replace

    from pcsaliency import nmf
    from pcsaliency.dumps import dump_from_detector, save_dump
    from pcsaliency.pipeline import full_mask

    cloud, _, _ = single_object_scene(0)
    bin_path = tmp_path / "scene.bin"
    write_kitti_bin(bin_path, cloud)
    dump = dump_from_detector(detector, cloud, 3, masks=(full_mask(),))
    coords = dump.coords.copy()
    coords[1] = coords[0]
    dump_path = tmp_path / "scene.ffdp"
    save_dump(dump_path, replace(dump, coords=coords))
    monkeypatch.setattr(nmf, "factorize", None)
    code = main([
        "explain", "--scene", str(bin_path), "--detection", "0",
        "--out", str(tmp_path / "sal.csv"),
        "--set", "detector.kind=dump", "--set", f"detector.dump_path={dump_path}", *FAST,
    ])
    assert code == 1
    assert f"voxel coordinate {coords[0].tolist()} repeats" in capsys.readouterr().err


def test_key_wrapping_dump_grid_exits_one(tmp_path, detector, capsys, monkeypatch):
    # 1e-6 m voxels over the default extent would wrap the upsampler's
    # voxel key; the dump is rejected at load, before any factorization
    from dataclasses import replace

    from pcsaliency import nmf
    from pcsaliency.dumps import dump_from_detector, save_dump
    from pcsaliency.pipeline import full_mask
    from pcsaliency.voxelgrid import GridSpec

    cloud, _, _ = single_object_scene(0)
    bin_path = tmp_path / "scene.bin"
    write_kitti_bin(bin_path, cloud)
    dump = dump_from_detector(detector, cloud, 3, masks=(full_mask(),))
    dump_path = tmp_path / "scene.ffdp"
    save_dump(dump_path, replace(dump, grid=GridSpec(1e-6, (0.0, 24.0), (0.0, 24.0), (0.0, 4.0))))
    monkeypatch.setattr(nmf, "factorize", None)
    code = main([
        "explain", "--scene", str(bin_path), "--detection", "0",
        "--out", str(tmp_path / "sal.csv"),
        "--set", "detector.kind=dump", "--set", f"detector.dump_path={dump_path}", *FAST,
    ])
    assert code == 1
    assert "int64" in capsys.readouterr().err


# ----------------------------------------------------------------------
# one forward and one concept factorization per scene


@pytest.fixture(scope="module")
def multi_scene_dir(tmp_path_factory, detector):
    """Two self-labeled scenes with two detections each."""
    root = tmp_path_factory.mktemp("multi_scenes")
    for seed in (0, 1):
        cloud, _ = multi_object_scene(seed)
        detections = detector.detect(cloud)
        assert len(detections) == 2
        write_kitti_bin(root / f"multi{seed}.bin", cloud)
        write_labels_json(root / f"multi{seed}.labels.json", [(d.box(), d.label) for d in detections])
    return root


# Each case builds its argv from (scene dir, output dir).
_SCENE_COMMANDS = {
    "eval": lambda sd, out: ["eval", "--scenes", str(sd), "--out", str(out / "metrics.jsonl")],
    "aggregate": lambda sd, out: ["aggregate", "--scenes", str(sd), "--out-dir", str(out)],
    "modes": lambda sd, out: [
        "modes", "--scenes", str(sd), "--out", str(out / "modes.json"),
        "--grids-dir", str(out / "grids"),
    ],
    "sweep": lambda sd, out: ["sweep", "--scenes", str(sd), "--out", str(out / "sweep.csv")],
}


def _outputs(root):
    """Every file under ``root`` by relative path, its config hash blanked."""
    return {
        str(path.relative_to(root)): re.sub(
            rb'("config_hash": "|# config_hash=)[0-9a-f]+', rb"\1", path.read_bytes()
        )
        for path in sorted(root.rglob("*")) if path.is_file()
    }


@pytest.mark.parametrize("command", sorted(_SCENE_COMMANDS))
def test_parallel_matches_serial(command, multi_scene_dir, tmp_path, monkeypatch):
    from pcsaliency import cli

    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main([*_SCENE_COMMANDS[command](multi_scene_dir, serial), *FAST]) == 0
    assert pools == []
    argv = _SCENE_COMMANDS[command](multi_scene_dir, parallel)
    assert main([*argv, *FAST, "--set", "parallelism=2"]) == 0
    assert len(pools) == 1 and pools[0]._max_workers == 2
    # a spawn or forkserver worker sets the allocator policy and the BLAS pin itself
    assert pools[0]._initializer is cli._set_up_process
    # parallelism changes the config hash but no other output byte
    expected = _outputs(serial)
    assert expected and _outputs(parallel) == expected


def test_pool_holds_at_most_one_process_per_scene(tmp_path, monkeypatch):
    # a fork pool starts all of its max_workers at the first task
    from pcsaliency import cli

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    for name in ("a", "b"):
        (tmp_path / f"{name}.bin").touch()
        (tmp_path / f"{name}.labels.json").touch()
    cfg = RunConfig.from_sources(None, ["parallelism=8"])
    scene_ids = list(cli._map_scenes(cfg, tmp_path, lambda cfg, scene: scene[0]))
    assert scene_ids == ["a", "b"] and sizes == [2]


def test_dying_pool_worker_exits_one(multi_scene_dir, tmp_path, monkeypatch, capsys):
    class DyingPool:
        """A pool whose worker died, as a killed worker's pool reports it."""

        def __init__(self, *args, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            raise BrokenProcessPool(
                "A process in the process pool was terminated abruptly"
            )

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DyingPool)
    out = tmp_path / "m.jsonl"
    argv = ["eval", "--scenes", str(multi_scene_dir), "--out", str(out), "--set", "parallelism=2"]
    assert main([*argv, *FAST]) == 1
    err = capsys.readouterr().err
    assert "worker process died" in err and "parallelism=2" in err
    assert not out.exists()


@pytest.fixture
def work(monkeypatch):
    """Counts of detector values passes (a whole forward, or a curve step's
    delta from the step before), of the voxel layouts they sort and of
    concept factorizations, plus every detector the CLI builds."""
    from pcsaliency import nmf
    from pcsaliency.detector import ReferenceDetector

    counts = {"forward": 0, "layout": 0, "factorize": 0, "detectors": []}
    compute, layout, factorize, build = (
        ReferenceDetector._advance, ReferenceDetector._layout, nmf.factorize,
        RunConfig.build_detector,
    )

    def counted_forward(self, *args):
        counts["forward"] += 1
        return compute(self, *args)

    def counted_layout(self, cloud):
        counts["layout"] += 1
        return layout(self, cloud)

    def counted_factorize(a, cfg):
        counts["factorize"] += 1
        return factorize(a, cfg)

    def recorded_build(self):
        detector = build(self)
        counts["detectors"].append(detector)
        return detector

    monkeypatch.setattr(ReferenceDetector, "_advance", counted_forward)
    monkeypatch.setattr(ReferenceDetector, "_layout", counted_layout)
    monkeypatch.setattr(nmf, "factorize", counted_factorize)
    monkeypatch.setattr(RunConfig, "build_detector", recorded_build)
    return counts


def test_explain_runs_one_forward(scene_dir, tmp_path, work):
    for seed in (0, 1):
        assert main([
            "explain", "--scene", str(scene_dir / f"scene00{seed}.bin"), "--detection", "0",
            "--out", str(tmp_path / f"{seed}.csv"), *FAST,
        ]) == 0
    assert (work["forward"], work["factorize"]) == (2, 2)
    assert all(d._hold is None for d in work["detectors"])


def test_aggregate_runs_one_forward_and_one_factorization_per_scene(scene_dir, tmp_path, work):
    assert main(["aggregate", "--scenes", str(scene_dir), "--out-dir", str(tmp_path), *FAST]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len({g["mask"] for g in manifest["grids"]}) == 9
    assert (work["forward"], work["factorize"]) == (2, 2)


def test_eval_factorizes_once_per_scene(multi_scene_dir, tmp_path, work):
    out = tmp_path / "m.jsonl"
    assert main(["eval", "--scenes", str(multi_scene_dir), "--out", str(out), *FAST]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len({(r["scene_id"], r["detection_id"]) for r in rows}) == 4
    assert work["factorize"] == 2
    # one scene forward, then two curves of eval.steps + 1 reruns per
    # detection, of which three the scope already answered: deletion's first
    # step and insertion's last keep every point, and insertion's first
    # equals deletion's last
    assert work["forward"] == 2 * (1 + 2 * (2 * 6 - 3))
    # the reruns sort nothing: the scene forward's layout serves every curve step
    assert work["layout"] == 2


def test_sweep_reads_each_scene_once_and_factorizes_each_distinct_config_once(
    scene_dir, tmp_path, work
):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenes", str(scene_dir), "--out", str(out), *FAST]) == 0
    assert len(out.read_text().splitlines()[2:]) == 3 + 4 + 4
    # one detector and one layout per scene. FAST's nmf.r=16, range_k (2,16)
    # and block 3 are all the base config, so 9 of the 11 rows are distinct
    # configs, each factorized once per scene
    assert (len(work["detectors"]), work["layout"], work["factorize"]) == (2, 2, 2 * 9)


def test_modes_factorizes_once_per_scene(multi_scene_dir, tmp_path, work):
    # the report reads no saliency: only --grids-dir explains, with one
    # factorization per scene, and the report is the same either way
    out = tmp_path / "modes.json"
    assert main(["modes", "--scenes", str(multi_scene_dir), "--out", str(out), *FAST]) == 0
    report = json.loads(out.read_text())
    assert report["tp"]["count"] + report["fp"]["count"] == 4
    assert (work["forward"], work["factorize"]) == (2, 0)
    with_grids = tmp_path / "with_grids.json"
    assert main([
        "modes", "--scenes", str(multi_scene_dir), "--out", str(with_grids),
        "--grids-dir", str(tmp_path / "grids"), *FAST,
    ]) == 0
    assert (work["forward"], work["factorize"]) == (2 + 2, 0 + 2)
    assert with_grids.read_bytes() == out.read_bytes()


def test_scene_released_after_failed_explain(scene_dir, tmp_path, work, capsys):
    code = main([
        "explain", "--scene", str(scene_dir / "scene000.bin"), "--detection", "5",
        "--out", str(tmp_path / "x.csv"), *FAST,
    ])
    assert code == 1
    assert "DetectionNotFound" in capsys.readouterr().err
    [detector] = work["detectors"]
    assert detector._hold is None


def test_aggregate_saliency_equals_unscoped_explanation(scene_dir, tmp_path, explained):
    from pcsaliency.detector import ReferenceDetector
    from pcsaliency.pipeline import explain_detection

    assert main(["aggregate", "--scenes", str(scene_dir), "--out-dir", str(tmp_path), *FAST]) == 0
    # one call per scene, each explaining its one detection under 9 masks
    assert [(len(detections), len(masks)) for _, detections, masks, _, _ in explained] == [(1, 9)] * 2
    cfg = RunConfig.from_sources(None, FAST[1::2])
    for cloud, detections, masks, pcfg, saliencies in explained:
        for d, per_mask in zip(detections, saliencies):
            for mask, saliency in zip(masks, per_mask):
                detector = ReferenceDetector(cfg.detector_config())
                [[fresh]] = explain_detection(detector, cloud, [d], [mask], pcfg)
                assert fresh.tobytes() == saliency.tobytes()


def test_aggregate_of_two_scenes_equals_each_scene_alone(scene_dir, tmp_path):
    """Two scenes in one run give the grids of each scene explained on its
    own and accumulated in order: no concept map or neighbor search of one
    scene reaches the next."""
    from pcsaliency import cli
    from pcsaliency.aggregate import CanonicalGrid, grid_to_csv, write_grid
    from pcsaliency.pipeline import ATTRIBUTE_NAMES, full_mask, make_mask
    from pcsaliency.runconfig import find_scene_files

    both = tmp_path / "both"
    assert main(["aggregate", "--scenes", str(scene_dir), "--out-dir", str(both), *FAST]) == 0
    cfg = RunConfig.from_sources(None, FAST[1::2])
    names = [*ATTRIBUTE_NAMES, "all"]
    masks = [full_mask() if name == "all" else make_mask(name) for name in names]
    scenes = find_scene_files(scene_dir)
    # the later scene first, so that it would be the one to see stale state
    alone = {scene[0]: cli._aggregate_worker(cfg, masks, scene) for scene in reversed(scenes)}
    grids: dict = {}
    for scene_id, _, _ in scenes:
        for label, canonical, saliencies in alone[scene_id]:
            for name, saliency in zip(names, saliencies):
                grids.setdefault((label, name), CanonicalGrid()).accumulate(canonical, saliency)
    expected = tmp_path / "expected"
    expected.mkdir()
    for (label, name), grid in grids.items():
        write_grid(expected / f"avg_{label}_{name}.grid", grid)
        grid_to_csv(expected / f"avg_{label}_{name}.csv", grid)
    got = _outputs(both)
    assert len(got) == 2 * len(grids) + 1
    del got["manifest.json"]
    assert got == _outputs(expected)


def test_parser_is_built_once(tmp_path):
    from pcsaliency import cli

    assert cli._build_parser() is cli._build_parser()
    # an override list does not carry over into the next parse
    parser = cli._build_parser()
    assert parser.parse_args(["selftest", "--set", "nmf.r=8"]).overrides == ["nmf.r=8"]
    assert parser.parse_args(["selftest"]).overrides == []


@pytest.fixture
def libc(monkeypatch):
    """Stands in for the C library ``cli`` loads: ``ctypes.CDLL`` returns
    ``stub["load"]()``, by default an object whose ``mallopt`` records its
    calls in ``calls``. The allocator helper's cache is cleared before and
    after the test."""
    from pcsaliency import cli

    calls = []
    stub = {"load": lambda: types.SimpleNamespace(mallopt=lambda *a: calls.append(a))}
    cli._openblas()  # numpy's OpenBLAS is looked up, and cached, through the real ctypes
    monkeypatch.setattr(
        cli, "ctypes", types.SimpleNamespace(CDLL=lambda name: stub["load"](), c_int=ctypes.c_int)
    )
    cli._keep_freed_memory.cache_clear()
    yield stub, calls
    cli._keep_freed_memory.cache_clear()


def test_allocator_policy_set_once_per_process(scene_dir, tmp_path, libc):
    _, calls = libc
    for k in range(2):
        assert main([
            "explain", "--scene", str(scene_dir / "scene000.bin"),
            "--detection", "0", "--out", str(tmp_path / f"{k}.csv"), *FAST,
        ]) == 0
    assert main([]) == 1
    # M_MMAP_THRESHOLD 32 MiB, M_TRIM_THRESHOLD 128 MiB
    assert calls == [(-3, 32 << 20), (-1, 128 << 20)]


def _unloadable():
    raise OSError("no C library")


@pytest.mark.parametrize("load", [_unloadable, object], ids=["load-fails", "no-mallopt"])
def test_main_unchanged_without_mallopt(load, scene_dir, tmp_path, capsys, libc):
    from pcsaliency import cli

    out = tmp_path / "sal.ply"
    cases = [
        ["explain", "--scene", str(scene_dir / "scene000.bin"), "--detection", "0",
         "--format", "ply", "--out", str(out), *FAST],
        ["explain", "--scene", str(scene_dir / "scene000.bin"), "--detection", "99",
         "--out", str(out), *FAST],
        ["eval", "--scenes", str(tmp_path / "missing")],
    ]

    def run():
        results = []
        for argv in cases:
            code = main(argv)
            results.append((code, capsys.readouterr(), out.read_bytes()))
        return results

    stub, _ = libc
    stub["load"] = lambda: ctypes.CDLL(None)  # the real C library
    expected = run()
    assert [code for code, _, _ in expected] == [0, 1, 2]
    stub["load"] = load
    cli._keep_freed_memory.cache_clear()
    assert run() == expected


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
def test_curve_steps_fault_in_no_fresh_pages(detector):
    import resource

    from pcsaliency import cli
    from pcsaliency.metrics import deletion_curve, insertion_curve
    from pcsaliency.pipeline import PipelineConfig, explain_detection, full_mask

    cli._keep_freed_memory()
    cloud, _, _ = single_object_scene(0)
    d = detector.detect(cloud)[0]
    [[saliency]] = explain_detection(detector, cloud, [d], [full_mask()], PipelineConfig())

    def curve_pair():
        deletion_curve(detector, cloud, d, saliency, 20)
        insertion_curve(detector, cloud, d, saliency, 20)

    curve_pair()  # the heap grows once to the pair's high-water mark
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    curve_pair()
    # without the policy every step re-faults ~11 MB: ~76k-99k for the pair
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 2000


def test_modes_from_dump(tmp_path, detector):
    from pcsaliency.dumps import dump_from_detector, save_dump
    from pcsaliency.pipeline import full_mask

    cloud, _ = multi_object_scene(0)
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    write_kitti_bin(scenes / "s.bin", cloud)
    write_labels_json(scenes / "s.labels.json", [(d.box(), d.label) for d in detector.detect(cloud)])
    dump_path = tmp_path / "s.ffdp"
    save_dump(dump_path, dump_from_detector(detector, cloud, 3, masks=(full_mask(),)))
    out = tmp_path / "modes.json"
    code = main([
        "modes", "--scenes", str(scenes), "--out", str(out),
        "--set", "detector.kind=dump", "--set", f"detector.dump_path={dump_path}", *FAST,
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["tp"]["count"] == 2


@pytest.fixture(scope="module")
def dumped_scene(tmp_path_factory, detector):
    """A one-scene directory and the reference detector's dump of it."""
    from pcsaliency.dumps import dump_from_detector, save_dump
    from pcsaliency.pipeline import full_mask

    root = write_scene_dir(tmp_path_factory.mktemp("dumped") / "scenes", detector, seeds=[0])
    cloud, _, _ = single_object_scene(0)
    dump_path = root.parent / "scene.ffdp"
    save_dump(dump_path, dump_from_detector(detector, cloud, 3, masks=(full_mask(),)))
    return root, ["--set", "detector.kind=dump", "--set", f"detector.dump_path={dump_path}"]


def test_eval_from_dump_exits_one(dumped_scene, tmp_path, capsys):
    # a replay cannot rerun the detector on the curves' perturbed clouds
    scenes, dump_args = dumped_scene
    out = tmp_path / "m.jsonl"
    assert main(["eval", "--scenes", str(scenes), "--out", str(out), *dump_args, *FAST]) == 1
    assert "subset of the cloud" in capsys.readouterr().err
    assert not out.exists()


def _out_args(command, tmp_path):
    """The output flags of one multi-scene command, all under ``tmp_path``."""
    return {"eval": ["--out", str(tmp_path / "m.jsonl")],
            "sweep": ["--out", str(tmp_path / "sweep.csv")],
            "aggregate": ["--out-dir", str(tmp_path / "agg")],
            "modes": ["--out", str(tmp_path / "modes.json")]}[command]


@pytest.mark.parametrize("command", ["eval", "sweep", "aggregate", "modes"])
def test_dump_over_several_scenes_exits_one_before_any_explanation(
    command, dumped_scene, tmp_path, explained, capsys
):
    import shutil

    scenes, dump_args = dumped_scene
    two = shutil.copytree(scenes, tmp_path / "two")
    for suffix in (".bin", ".labels.json"):
        shutil.copy(two / f"scene000{suffix}", two / f"scene001{suffix}")
    out = _out_args(command, tmp_path)
    assert main([command, "--scenes", str(two), *out, *dump_args, *FAST]) == 1
    assert "holds one scene" in capsys.readouterr().err
    assert explained == []


@pytest.mark.parametrize("command", ["eval", "sweep", "aggregate", "modes"])
def test_later_scene_without_labels_exits_one_before_any_scene_is_read(
    command, scene_dir, tmp_path, explained, monkeypatch, capsys
):
    import shutil

    from pcsaliency import cli

    def never(*args, **kwargs):
        raise AssertionError("read a scene before every scene was checked")

    monkeypatch.setattr(cli, "read_kitti_bin", never)
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    for name in ("scene000.bin", "scene000.labels.json", "scene001.bin"):
        shutil.copy(scene_dir / name, scenes)
    out = _out_args(command, tmp_path)
    assert main([command, "--scenes", str(scenes), *out, *FAST]) == 1
    assert capsys.readouterr().err.endswith(
        f"error: scene {scenes / 'scene001.bin'} has no companion .labels.json\n"
    )
    assert explained == []


@pytest.mark.parametrize("command", ["eval", "sweep", "aggregate", "modes"])
def test_later_scene_with_unreadable_labels_exits_two_before_any_explanation(
    command, scene_dir, tmp_path, explained, capsys
):
    import shutil

    scenes = tmp_path / "scenes"
    scenes.mkdir()
    shutil.copy(scene_dir / "scene000.bin", scenes / "s0.bin")
    shutil.copy(scene_dir / "scene000.labels.json", scenes / "s0.labels.json")
    shutil.copy(scene_dir / "scene000.bin", scenes / "s1.bin")
    (scenes / "s1.labels.json").mkdir()
    out = _out_args(command, tmp_path)
    assert main([command, "--scenes", str(scenes), *out, *FAST]) == 2
    assert capsys.readouterr().err.endswith(
        f"error: cannot read {scenes / 's1.labels.json'}: not a regular file\n"
    )
    assert explained == []


def test_modes_from_dump_without_gradients(tmp_path, detector, capsys):
    # the report needs no gradient; only the --grids-dir explanation does
    from pcsaliency.dumps import dump_from_detector, save_dump

    cloud, _ = multi_object_scene(0)
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    write_kitti_bin(scenes / "s.bin", cloud)
    write_labels_json(scenes / "s.labels.json", [(d.box(), d.label) for d in detector.detect(cloud)])
    dump_path = tmp_path / "s.ffdp"
    save_dump(dump_path, dump_from_detector(detector, cloud, 3, masks=()))
    argv = [
        "modes", "--scenes", str(scenes), "--out", str(tmp_path / "modes.json"),
        "--set", "detector.kind=dump", "--set", f"detector.dump_path={dump_path}", *FAST,
    ]
    assert main(argv) == 0
    assert json.loads((tmp_path / "modes.json").read_text())["tp"]["count"] == 2
    assert main([*argv, "--grids-dir", str(tmp_path / "grids")]) == 1
    assert "dump has no gradient" in capsys.readouterr().err


# Each case builds its argv from (object scene dir, a path beneath a regular file).
_BAD_OUTPUT = {
    "explain-out": lambda sd, bad: [
        "explain", "--scene", str(sd / "scene000.bin"), "--detection", "0", "--out", str(bad),
    ],
    "eval-out": lambda sd, bad: ["eval", "--scenes", str(sd), "--out", str(bad)],
    "sweep-out": lambda sd, bad: ["sweep", "--scenes", str(sd), "--out", str(bad)],
    "aggregate-out-dir": lambda sd, bad: ["aggregate", "--scenes", str(sd), "--out-dir", str(bad)],
    "modes-out": lambda sd, bad: ["modes", "--scenes", str(sd), "--out", str(bad)],
    "modes-grids-dir": lambda sd, bad: [
        "modes", "--scenes", str(sd), "--out", str(bad.parent.parent / "modes.json"),
        "--grids-dir", str(bad),
    ],
}


@pytest.mark.parametrize("case", sorted(_BAD_OUTPUT))
def test_bad_output_path_fails_before_any_explanation(case, scene_dir, tmp_path, explained, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("not a directory\n")
    assert main([*_BAD_OUTPUT[case](scene_dir, blocker / "x"), *FAST]) == 2
    assert capsys.readouterr().err.startswith("error: cannot")
    assert explained == []
