import contextlib
import ctypes
import functools
import glob
from pathlib import Path

import numpy as np
import pytest

from pcsaliency.detector import ReferenceDetector, ReferenceDetectorConfig
from pcsaliency.voxelgrid import _offsets_within


@functools.cache
def _openblas():
    """``name -> ctypes function`` over numpy's bundled OpenBLAS (config,
    corename, get/set_num_threads), or None where it is not found."""
    numpy_dir = Path(np.__file__).parent
    libs = sorted(glob.glob(str(numpy_dir.parent / "numpy.libs" / "*openblas*")))
    libs += sorted(glob.glob(str(numpy_dir / ".dylibs" / "*openblas*")))
    names = ("get_config", "get_corename", "get_num_threads", "set_num_threads")
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            funcs = {n: getattr(lib, f"{prefix}_{n}{suffix}", None) for n in names}
            if all(funcs.values()):
                funcs["get_config"].restype = funcs["get_corename"].restype = ctypes.c_char_p
                funcs["set_num_threads"].argtypes = (ctypes.c_int,)
                return funcs
    return None


def blas_fingerprint() -> dict:
    """numpy's version and the OpenBLAS build and kernel it runs: the inputs
    that decide how a product rounds. Values read ``unknown`` where the
    library exposes no query."""
    blas = _openblas()
    if blas is None:
        return {"numpy": np.__version__, "openblas": "unknown", "core": "unknown"}
    return {"numpy": np.__version__, "openblas": blas["get_config"]().decode(),
            "core": blas["get_corename"]().decode()}


@contextlib.contextmanager
def one_blas_thread():
    """OpenBLAS on one thread inside the block: how some products round
    depends on the thread count. Changes nothing where the library is not
    found, and then the fingerprint reads ``unknown`` too."""
    blas = _openblas()
    if blas is None:
        yield
        return
    threads = blas["get_num_threads"]()
    blas["set_num_threads"](1)
    try:
        yield
    finally:
        blas["set_num_threads"](threads)


@pytest.fixture(scope="session")
def detector():
    return ReferenceDetector(ReferenceDetectorConfig())


@pytest.fixture(scope="session")
def single_scene():
    """One deterministic object scene plus its detector output."""
    from pcsaliency.synthetic import single_object_scene

    cloud, box, label = single_object_scene(0)
    det = ReferenceDetector(ReferenceDetectorConfig())
    detections = det.detect(cloud)
    assert len(detections) == 1
    return cloud, box, detections[0]


def write_scene_dir(tmp_path, detector, seeds, self_label=True):
    """Materialize seeded scenes (and labels) in a directory for CLI runs.

    With ``self_label`` the ground truths are the detector's own boxes, so
    every prediction is well-detected regardless of how coarsely the
    reference head estimates sizes.
    """
    from pcsaliency.fileio import write_kitti_bin, write_labels_json
    from pcsaliency.synthetic import single_object_scene

    tmp_path.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        cloud, box, label = single_object_scene(seed)
        write_kitti_bin(tmp_path / f"scene{seed:03d}.bin", cloud)
        if self_label:
            gts = [(d.box(), d.label) for d in detector.detect(cloud)]
        else:
            gts = [(box, label)]
        write_labels_json(tmp_path / f"scene{seed:03d}.labels.json", gts)
    return tmp_path


@functools.lru_cache(maxsize=16)
def voxel_index(vmap):
    """Coordinate tuple -> row of a ``SparseVoxelMap``; one dict per map,
    held while the map is among the last few looked up."""
    index = {tuple(c): i for i, c in enumerate(vmap.coords.tolist())}
    assert len(index) == len(vmap.coords), "voxel coordinates are not unique"
    return index


def neighbor_query(center, vmap, cfg):
    """Occupied voxels within the Manhattan ball around ``center``, found
    by one dict lookup per offset: the reference ``upsample_to_points`` is
    tested against.

    Returns up to ``cfg.k`` tuples ``(coord, value, distance)`` sorted by
    ascending distance, ties broken by lexicographic coordinate.
    """
    cx, cy, cz = int(center[0]), int(center[1]), int(center[2])
    index = voxel_index(vmap)
    found = []
    for dx, dy, dz in _offsets_within(cfg.range_threshold):
        coord = (cx + dx, cy + dy, cz + dz)
        row = index.get(coord)
        if row is not None:
            found.append((abs(dx) + abs(dy) + abs(dz), coord, row))
    found.sort(key=lambda item: (item[0], item[1]))
    return [(coord, vmap.values[row], dist) for dist, coord, row in found[: cfg.k]]
