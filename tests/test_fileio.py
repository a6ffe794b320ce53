import json
import os
import re
import stat
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsaliency.boxes import OrientedBox
from pcsaliency.errors import IoFailure, MalformedFile, SchemaViolation
from pcsaliency.fileio import (
    _ROWS,
    _index_fields,
    read_detections_json,
    read_kitti_bin,
    read_labels_json,
    read_saliency_csv,
    write_detections_json,
    write_json,
    write_kitti_bin,
    write_labels_json,
    write_saliency,
    writing,
)
from pcsaliency.pipeline import Detection
from pcsaliency.runconfig import parse_config_file


class TestWriting:
    """``writing`` overwrites in place and cuts a regular file to the new
    length, so an output path behaves as under ``open(path, "w")``."""

    @pytest.mark.parametrize("mode", ["w", "wb"])
    @pytest.mark.parametrize("new", ["short\n", ""], ids=["short", "empty"])
    def test_shorter_rewrite_leaves_no_stale_tail(self, tmp_path, mode, new):
        path = tmp_path / "out"
        path.write_bytes(b"x" * 10_000)
        with writing(path, mode) as fh:
            fh.write(new if mode == "w" else new.encode())
        assert path.read_bytes() == new.encode()

    def test_symlink_is_kept_and_its_target_updated(self, tmp_path):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_text("old contents, longer than the new\n")
        link.symlink_to(target)
        write_json(link, [1])
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == "[\n  1\n]\n"

    def test_hard_link_sees_the_new_bytes(self, tmp_path):
        path, other = tmp_path / "out", tmp_path / "other"
        path.write_text("old contents, longer than the new\n")
        os.link(path, other)
        write_json(path, {"a": 1})
        assert other.read_bytes() == path.read_bytes() == b'{\n  "a": 1\n}\n'
        assert os.stat(other).st_ino == os.stat(path).st_ino

    def test_mode_bits_are_kept(self, tmp_path):
        path = tmp_path / "out"
        path.write_text("old contents, longer than the new\n")
        path.chmod(0o640)
        write_json(path, [])
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert path.read_text() == "[]\n"

    @pytest.mark.parametrize("mode", ["w", "wb"])
    def test_exception_leaves_the_bytes_written_so_far(self, tmp_path, mode):
        path = tmp_path / "out"
        path.write_bytes(b"y" * 10_000)
        with pytest.raises(RuntimeError, match="midway"):
            with writing(path, mode) as fh:
                fh.write("head" if mode == "w" else b"head")
                raise RuntimeError("midway")
        assert path.read_bytes() == b"head"

    def test_dev_null(self):
        write_json(os.devnull, {"a": [1, 2]})
        with writing(os.devnull, "wb") as fh:
            fh.write(b"bytes")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd paths here")
    def test_pipe_path(self):
        read_end, write_end = os.pipe()
        with os.fdopen(read_end, "rb") as reader:
            try:
                write_json(f"/dev/fd/{write_end}", [1, 2])
            finally:
                os.close(write_end)
            assert reader.read() == b"[\n  1,\n  2\n]\n"

    def test_directory_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure, match=re.escape(f"cannot write {tmp_path}")):
            write_json(tmp_path, [])


class TestKittiBin:
    def test_single_point(self, tmp_path):
        path = tmp_path / "one.bin"
        path.write_bytes(struct.pack("<4f", 1.0, 2.0, 3.0, 0.5))
        cloud = read_kitti_bin(path)
        assert cloud.shape == (1, 4)
        assert np.array_equal(cloud[0], [1.0, 2.0, 3.0, 0.5])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert read_kitti_bin(path).shape == (0, 4)

    def test_bad_length(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(MalformedFile):
            read_kitti_bin(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("column", [0, 3])
    def test_non_finite_point_is_malformed(self, tmp_path, value, column):
        cloud = np.ones((3, 4))
        cloud[1, column] = value
        path = tmp_path / "cloud.bin"
        write_kitti_bin(path, cloud)
        with pytest.raises(MalformedFile, match="point 1 is not finite"):
            read_kitti_bin(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        cloud = rng.uniform(-10, 10, size=(100, 4)).astype(np.float32).astype(float)
        path = tmp_path / "cloud.bin"
        write_kitti_bin(path, cloud)
        assert np.array_equal(read_kitti_bin(path), cloud)
        # byte-level: read -> write -> identical bytes
        data = path.read_bytes()
        write_kitti_bin(path, read_kitti_bin(path))
        assert path.read_bytes() == data


class TestDetectionsJson:
    def test_minimal_record(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(
            json.dumps(
                [{"center": [1, 2, 3], "size": [2, 1, 1], "yaw": 0.1,
                  "score": 0.8, "class": "car"}]
            )
        )
        dets = read_detections_json(path)
        assert dets == [Detection((1.0, 2.0, 3.0), (2.0, 1.0, 1.0), 0.1, 0.8, "car")]

    def test_negative_size_reports_field_path(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(
            json.dumps(
                [
                    {"center": [0, 0, 0], "size": [1, 1, 1], "yaw": 0,
                     "score": 0.5, "class": "car"},
                    {"center": [0, 0, 0], "size": [-1, 1, 1], "yaw": 0,
                     "score": 0.5, "class": "car"},
                ]
            )
        )
        with pytest.raises(SchemaViolation) as err:
            read_detections_json(path)
        assert err.value.path == "[1].size[0]"

    def test_missing_class(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps([{"center": [0, 0, 0], "size": [1, 1, 1],
                                     "yaw": 0, "score": 0.5}]))
        with pytest.raises(SchemaViolation) as err:
            read_detections_json(path)
        assert "class" in err.value.path

    def test_missing_score_required_for_detections(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps([{"center": [0, 0, 0], "size": [1, 1, 1],
                                     "yaw": 0, "class": "car"}]))
        with pytest.raises(SchemaViolation):
            read_detections_json(path)
        # ...but fine for ground-truth labels
        labels = read_labels_json(path)
        assert labels[0][1] == "car"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("{nope")
        with pytest.raises(SchemaViolation):
            read_detections_json(path)

    @pytest.mark.parametrize("text", [
        "[" * 100_000,  # nested deeper than the parser recurses
        "[" + "1" * 5000 + "]",  # more digits than int() converts
    ], ids=["deep", "long-int"])
    def test_unparseable_json(self, tmp_path, text):
        path = tmp_path / "d.json"
        path.write_text(text)
        with pytest.raises(SchemaViolation, match=r"^\$: invalid JSON"):
            read_detections_json(path)

    def test_integer_beyond_float_range(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('[{"center": [1' + "0" * 400 + ', 0, 0], "size": [1, 1, 1], '
                        '"yaw": 0, "score": 0.5, "class": "car"}]')
        with pytest.raises(SchemaViolation, match=r"^\[0\]\.center\[0\]: number out of range"):
            read_detections_json(path)

    @pytest.mark.parametrize("field, text, where", [
        ("size", "[NaN, 1, 1]", "size[0]"),
        ("center", "[0, 1e999, 0]", "center[1]"),
        ("center", "[0, 0, -Infinity]", "center[2]"),
        ("yaw", "Infinity", "yaw"),
    ])
    @pytest.mark.parametrize("reader", [read_detections_json, read_labels_json])
    def test_non_finite_number_reports_field_path(self, tmp_path, reader, field, text, where):
        # json accepts NaN, Infinity and overflowing literals such as 1e999
        record = {"center": "[0, 0, 0]", "size": "[1, 1, 1]", "yaw": "0"}
        record[field] = text
        path = tmp_path / "d.json"
        path.write_text(
            '[{"center": %(center)s, "size": %(size)s, "yaw": %(yaw)s, '
            '"score": 0.5, "class": "car"}]' % record
        )
        with pytest.raises(SchemaViolation, match="finite") as err:
            reader(path)
        assert err.value.path == f"[0].{where}"

    @pytest.mark.parametrize("text, where, message", [
        ('{"center": [0, 0, 0]}', "$", "expected a top-level array"),
        ('[{"center": [0, 0, 0], "size": [1, 1, 1], "yaw": 0, "score": 0.5, "class": "car"}, 7]',
         "[1]", "expected an object"),
        ('[{"center": [0, 0], "size": [1, 1, 1], "yaw": 0, "score": 0.5, "class": "car"}]',
         "[0].center", "expected a list of 3 numbers"),
        ('[{"center": "0,0,0", "size": [1, 1, 1], "yaw": 0, "score": 0.5, "class": "car"}]',
         "[0].center", "expected a list of 3 numbers"),
        ('[{"center": [0, 0, 0], "size": [1, 1, 1], "yaw": "0", "score": 0.5, "class": "car"}]',
         "[0].yaw", "expected a number, got '0'"),
        ('[{"center": [0, true, 0], "size": [1, 1, 1], "yaw": 0, "score": 0.5, "class": "car"}]',
         "[0].center[1]", "expected a number, got True"),
        ('[{"center": [0, 0, 0], "size": [1, 1, 1], "yaw": 0, "score": 0.5, "class": ""}]',
         "[0].class", "expected a non-empty string"),
        ('[{"center": [0, 0, 0], "size": [1, 1, 1], "yaw": 0, "score": 0.5, "class": 1}]',
         "[0].class", "expected a non-empty string"),
        ('[{"center": [0, 0, 0], "size": [1, 1, 1], "yaw": 0, "score": 1.5, "class": "car"}]',
         "[0].score", "score must be in [0, 1]"),
        ('[{"center": [0, 0, 0], "size": [1, 1, 1], "yaw": 0, "score": -0.1, "class": "car"}]',
         "[0].score", "score must be in [0, 1]"),
    ], ids=["top-level-object", "record-not-object", "center-of-two", "center-string",
            "yaw-string", "center-bool", "class-empty", "class-number", "score-above-one",
            "score-below-zero"])
    @pytest.mark.parametrize("reader", [read_detections_json, read_labels_json])
    def test_schema_violation_names_the_field(self, tmp_path, reader, text, where, message):
        path = tmp_path / "d.json"
        path.write_text(text)
        with pytest.raises(SchemaViolation) as err:
            reader(path)
        assert err.value.path == where
        assert str(err.value) == f"{where}: {message}"

    def test_round_trip(self, tmp_path):
        dets = [
            Detection((1.25, -2.5, 0.75), (3.5, 1.5, 1.25), 0.5, 0.625, "cyclist"),
            Detection((0.0, 0.0, 1.0), (1.0, 1.0, 2.0), 0.0, 1.0, "pedestrian"),
        ]
        path = tmp_path / "d.json"
        write_detections_json(path, dets)
        assert read_detections_json(path) == dets

    def test_labels_round_trip(self, tmp_path):
        gts = [
            (OrientedBox((1.0, 2.0, 0.5), (4.0, 2.0, 1.5), 0.25), "car"),
            (OrientedBox((-3.0, 8.0, 1.0), (0.8, 0.8, 1.8), 0.0), "pedestrian"),
        ]
        path = tmp_path / "l.json"
        write_labels_json(path, gts)
        assert read_labels_json(path) == gts


def _write_saliency_rowwise(cloud, saliency, fmt, path):
    """Byte oracle: the original per-row writer over numpy scalars."""
    with open(path, "w") as fh:
        if fmt == "csv":
            fh.write("index,x,y,z,score\n")
            for i, (p, s) in enumerate(zip(cloud, saliency)):
                fh.write(f"{i},{p[0]:.6g},{p[1]:.6g},{p[2]:.6g},{s:.6g}\n")
        else:
            fh.write("ply\n")
            fh.write("format ascii 1.0\n")
            fh.write(f"element vertex {len(cloud)}\n")
            fh.write("property float x\n")
            fh.write("property float y\n")
            fh.write("property float z\n")
            fh.write("property float scalar_saliency\n")
            fh.write("end_header\n")
            for p, s in zip(cloud, saliency):
                fh.write(f"{p[0]:.6g} {p[1]:.6g} {p[2]:.6g} {s:.6g}\n")


# Zeros, signed zero, negatives, tiny and large magnitudes, values on both
# sides of the .6g rounding and fixed/exponent boundaries, and values that
# round up to the next power of ten.
_EDGE_VALUES = [
    0.0, -0.0, -1.0, 1e-7, -1e-7, 1e6, -1e6, 1e-4, 9.99999e-5, 0.00001,
    999999.0, 999999.5, 9999995.0, 123456.5, 1.0000005, 1.0000015, 2.5e-7,
    0.1 + 0.2, -3.14159265, 1e300, 5e-324, 7.0, 999999.7, -999999.7,
    9.9999996e-5, 9.9999996e-17, 9.9999996e-18, 99.99996, 0.99999999,
]


class TestSaliencyFiles:
    @pytest.mark.parametrize("fmt", ["csv", "ply"])
    def test_bytes_match_rowwise_writer(self, tmp_path, fmt):
        rng = np.random.default_rng(3)
        edges = np.array(_EDGE_VALUES)
        n = 9000  # spans several of the writer's row batches
        cloud = np.column_stack([
            np.r_[edges, rng.uniform(-80, 80, n)],
            np.r_[np.roll(edges, 1), rng.normal(size=n) * 1e3],
            np.r_[np.roll(edges, 2), rng.uniform(-3, 3, n).astype(np.float32)],
            np.zeros(len(edges) + n),
        ])
        scores = np.r_[np.roll(edges, 3), rng.uniform(size=n) ** 8]
        got, want = tmp_path / f"got.{fmt}", tmp_path / f"want.{fmt}"
        write_saliency(cloud, scores, fmt, got)
        _write_saliency_rowwise(cloud, scores, fmt, want)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "ply"])
    def test_non_finite_and_extreme_values_match_rowwise_writer(self, tmp_path, fmt):
        special = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                   np.finfo(float).max, np.finfo(float).tiny]
        n = _ROWS + 3  # a full batch and a short one
        values = np.resize(np.array(special), 4 * n).reshape(4, n)
        cloud = np.column_stack([values[0], np.roll(values[1], 1), np.roll(values[2], 2),
                                 np.zeros(n)])
        scores = np.roll(values[3], 3)
        got, want = tmp_path / f"got.{fmt}", tmp_path / f"want.{fmt}"
        write_saliency(cloud, scores, fmt, got)
        _write_saliency_rowwise(cloud, scores, fmt, want)
        assert got.read_bytes() == want.read_bytes()
        assert b"nan" in got.read_bytes() and b"-inf" in got.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "ply"])
    @pytest.mark.parametrize("n", [0, 1, _ROWS - 1, _ROWS, _ROWS + 1])
    def test_batch_edges_match_rowwise_writer(self, tmp_path, fmt, n):
        rng = np.random.default_rng(n)
        cloud = rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-8, 8, size=(n, 4))
        scores = rng.uniform(size=n)
        got, want = tmp_path / f"got.{fmt}", tmp_path / f"want.{fmt}"
        write_saliency(cloud, scores, fmt, got)
        _write_saliency_rowwise(cloud, scores, fmt, want)
        assert got.read_bytes() == want.read_bytes()

    def test_csv_single_point_two_lines(self, tmp_path):
        path = tmp_path / "s.csv"
        write_saliency(np.array([[1.0, 2.0, 3.0, 0.0]]), np.array([0.5]), "csv", path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "index,x,y,z,score"
        assert lines[1] == "0,1,2,3,0.5"

    def test_ply_vertex_count(self, tmp_path):
        rng = np.random.default_rng(0)
        cloud = rng.uniform(size=(7, 4))
        path = tmp_path / "s.ply"
        write_saliency(cloud, rng.uniform(size=7), "ply", path)
        text = path.read_text().splitlines()
        assert "element vertex 7" in text
        header_end = text.index("end_header")
        assert len(text) - header_end - 1 == 7

    def test_csv_round_trip_six_significant_digits(self, tmp_path):
        rng = np.random.default_rng(5)
        cloud = rng.uniform(-50, 50, size=(40, 4))
        scores = rng.uniform(size=40) * 1e-3
        path = tmp_path / "s.csv"
        write_saliency(cloud, scores, "csv", path)
        points, parsed = read_saliency_csv(path)
        assert np.allclose(points, cloud[:, :3], rtol=1e-5)
        assert np.allclose(parsed, scores, rtol=1e-5)


def _written_fields(values, path):
    """The fields ``write_saliency`` writes for ``values``, in order, with
    the values filling x, y, z and score of a PLY row by row."""
    values = np.asarray(values, dtype=float)
    rows = np.resize(values, (-(-len(values) // 4), 4))
    write_saliency(np.column_stack([rows[:, :3], np.zeros(len(rows))]), rows[:, 3], "ply", path)
    return path.read_bytes().split(b"end_header\n")[1].split()[:len(values)]


@pytest.fixture(scope="module")
def fields_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fields") / "fields.ply"


@settings(derandomize=True, deadline=None, max_examples=300)
@given(values=st.lists(st.floats() | st.floats(width=32), min_size=1, max_size=40))
def test_every_float_is_written_as_percent_6g(values, fields_path):
    # NaN, infinities, subnormals and both zeros included
    assert _written_fields(values, fields_path) == [b"%.6g" % v for v in values]


def test_near_ties_are_written_as_percent_6g(tmp_path):
    rng = np.random.default_rng(11)
    k = [100000, 100001, 123456, 314159, 999998, 999999, *rng.integers(100000, 1000000, 40).tolist()]
    ties = np.array([(m + 0.5) / 10**j for m in k for j in range(-3, 24)])
    values = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])
    values = np.concatenate([values, -values])
    expected = [b"%.6g" % v for v in values.tolist()]
    assert _written_fields(values, tmp_path / "ties.ply") == expected


@pytest.mark.parametrize("power", range(13))
def test_index_fields_where_the_digit_count_changes(power):
    # any order, repeats and 0 included; 10**12 is past the last value the field takes
    rng = np.random.default_rng(power)
    around = np.arange(max(10**power - 3, 0), min(10**power + 3, 10**12))
    values = rng.permutation(np.concatenate([around, around[::2], [0], rng.integers(0, 10**12, 8)]))
    fields = _index_fields(values)
    assert [bytes(f).rstrip(b"\0") for f in fields] == [b"%d" % i for i in values.tolist()]
    assert _index_fields(values[:0]).shape == (0, fields.shape[1])


# reader -> a valid file of its kind with one byte that is not UTF-8
_NOT_UTF8 = {
    read_labels_json: b'[{"center": [0, 0, 0], "size": [1, 1, 1], "yaw": 0, "class": "c\xffr"}]',
    read_detections_json: b'[{"center": [0, 0, 0], "size": [1, 1, 1], "yaw": 0, '
                          b'"score": 0.5, "class": "c\xffr"}]',
    read_saliency_csv: b"index,x,y,z,score\n0,1,2,3,0.5\xff\n",
    parse_config_file: b"nmf.r = \xff\n",
}


@pytest.mark.parametrize("reader", list(_NOT_UTF8), ids=lambda r: r.__name__)
def test_text_that_is_not_utf8_is_malformed_file(reader, tmp_path):
    path = tmp_path / "input"
    path.write_bytes(_NOT_UTF8[reader])
    with pytest.raises(MalformedFile, match=re.escape(f"{path}: not UTF-8")):
        reader(path)


@pytest.mark.parametrize("row", ["0,a,1,2,3", "0,1,2,3", "0,1,2,3,4,5"])
def test_saliency_csv_bad_row(tmp_path, row):
    path = tmp_path / "s.csv"
    path.write_text(f"index,x,y,z,score\n0,1,2,3,0.5\n{row}\n")
    with pytest.raises(MalformedFile, match=f"bad row '{row}'"):
        read_saliency_csv(path)
