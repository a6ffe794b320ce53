"""Hostile-input fuzzing: every reader, fed byte flips, truncations and
insertions of a valid file, raises nothing but the package's own errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsaliency.aggregate import CanonicalGrid, read_grid, write_grid
from pcsaliency.boxes import OrientedBox
from pcsaliency.dumps import FeatureDump, read_dump, save_dump
from pcsaliency.errors import SaliencyError
from pcsaliency.fileio import (
    read_detections_json,
    read_kitti_bin,
    read_labels_json,
    read_saliency_csv,
    write_detections_json,
    write_kitti_bin,
    write_labels_json,
    write_saliency,
)
from pcsaliency.pipeline import Detection
from pcsaliency.runconfig import parse_config_file
from pcsaliency.voxelgrid import GridSpec

# canonicalizing into this box changes no coordinate, so points bin as given
_UNIT_BOX = OrientedBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)

_DETECTIONS = [
    Detection((4.5, 6.25, 1.0), (3.75, 1.5, 1.25), 0.5, 0.875, "car"),
    Detection((12.0, 3.5, 0.75), (0.75, 0.5, 1.75), -1.25, 0.5, "pedestrian"),
]


def _dump(path):
    rng = np.random.default_rng(0)
    coords = np.array([[1, 2, 0], [3, 2, 1], [5, 7, 2], [9, 1, 3]])
    features = rng.uniform(size=(4, 3))
    save_dump(path, FeatureDump(
        GridSpec(0.25, (0.0, 24.0), (0.0, 24.0), (0.0, 4.0)), 3, coords, features,
        _DETECTIONS, {(1, 0b101): rng.normal(size=(4, 3))},
    ))


def _grid(path):
    grid = CanonicalGrid(3)
    rng = np.random.default_rng(1)
    grid.accumulate(rng.uniform(-0.5, 0.5, size=(20, 3)), _UNIT_BOX, [rng.uniform(size=20)])
    write_grid(path, grid)


def _cloud(seed):
    return np.random.default_rng(seed).uniform(-5, 5, size=(6, 4))


def _config(path):
    path.write_text("# run\nnmf.r = 16\npipeline.block_index = 2  # coarser\n\nupsample.k=4\n")


# reader -> writer of a valid file of the reader's kind
_VALID = {
    read_dump: _dump,
    read_grid: _grid,
    read_kitti_bin: lambda path: write_kitti_bin(path, _cloud(2)),
    read_labels_json: lambda path: write_labels_json(
        path, [(OrientedBox(d.center, d.size, d.yaw), d.label) for d in _DETECTIONS]
    ),
    read_detections_json: lambda path: write_detections_json(path, _DETECTIONS),
    read_saliency_csv: lambda path: write_saliency(_cloud(3), np.linspace(0, 1, 6), "csv", path),
    parse_config_file: _config,
}
_READERS = pytest.mark.parametrize("reader", list(_VALID), ids=lambda r: r.__name__)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """reader -> (a valid file, the path its mutants are written to)"""
    root = tmp_path_factory.mktemp("fuzz")
    out = {}
    for reader, write in _VALID.items():
        out[reader] = (root / f"valid_{reader.__name__}", root / f"mutant_{reader.__name__}")
        write(out[reader][0])
    return out


# (kind, position as a fraction of the current length, flip mask, inserted bytes)
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(("flip", "truncate", "insert")),
        st.floats(0.0, 1.0),
        st.integers(1, 255),
        st.binary(min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=4,
)


def _mutate(data: bytes, edits) -> bytes:
    data = bytearray(data)
    for kind, where, mask, payload in edits:
        at = int(where * len(data))
        if kind == "truncate":
            del data[at:]
        elif kind == "flip" and at < len(data):
            data[at] ^= mask
        else:
            data[at:at] = payload
    return bytes(data)


@_READERS
def test_valid_file_reads(reader, files):
    reader(files[reader][0])


@_READERS
@settings(derandomize=True, deadline=None, max_examples=300)
@given(edits=_EDITS)
def test_mutated_file_raises_only_package_errors(reader, files, edits):
    valid, mutant = files[reader]
    mutant.write_bytes(_mutate(valid.read_bytes(), edits))
    try:
        reader(mutant)
    except SaliencyError:
        pass
