import functools
import math
import struct

import numpy as np
import pytest

from pcsaliency.aggregate import (
    CanonicalGrid,
    ObjectExplanation,
    _csv_template,
    grid_to_csv,
    mode_report,
    read_grid,
    write_grid,
)
from pcsaliency.boxes import OrientedBox
from pcsaliency.errors import MalformedFile
from pcsaliency.metrics import EvalThresholds, well_detected
from pcsaliency.pipeline import Detection

from conftest import grid_averages

# canonicalizing into this box changes no coordinate, so points bin as given
_UNIT_BOX = OrientedBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)


def cell_of(grid, point):
    idx = np.floor((np.asarray(point) + 0.5) * grid.resolution).astype(int)
    return tuple(np.clip(idx, 0, grid.resolution - 1))


class TestCanonicalGrid:
    def test_single_point_average(self):
        grid = CanonicalGrid(8)
        grid.accumulate(np.array([[0.0, 0.0, 0.0]]), _UNIT_BOX, [np.array([0.8])])
        cell = cell_of(grid, (0.0, 0.0, 0.0))
        assert grid_averages(grid)[cell] == pytest.approx(0.8)
        assert grid.counts[cell] == 1

    def test_two_points_same_cell_average(self):
        grid = CanonicalGrid(4)
        pts = np.array([[0.01, 0.01, 0.01], [0.02, 0.02, 0.02]])
        grid.accumulate(pts, _UNIT_BOX, [np.array([0.2, 0.6])])
        cell = cell_of(grid, (0.015, 0.015, 0.015))
        assert grid_averages(grid)[cell] == pytest.approx(0.4)

    def test_batch_equals_incremental(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.6, 0.6, size=(200, 3))
        sal = rng.uniform(size=200)
        batch = CanonicalGrid(16)
        batch.accumulate(pts, _UNIT_BOX, [sal])
        incremental = CanonicalGrid(16)
        for p, s in zip(pts, sal):
            incremental.accumulate(p[None, :], _UNIT_BOX, [np.array([s])])
        assert np.array_equal(batch.sums, incremental.sums)
        assert np.array_equal(batch.counts, incremental.counts)
        assert (batch.binned, batch.discarded) == (incremental.binned, incremental.discarded)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.5, 0.5, size=(300, 3))
        sal = rng.uniform(size=300)
        a = CanonicalGrid(8)
        a.accumulate(pts, _UNIT_BOX, [sal])
        perm = rng.permutation(300)
        b = CanonicalGrid(8)
        b.accumulate(pts[perm], _UNIT_BOX, [sal[perm]])
        assert np.allclose(a.sums, b.sums, atol=1e-12)
        assert np.array_equal(a.counts, b.counts)

    def test_mass_conservation(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1.0, 1.0, size=(500, 3))
        grid = CanonicalGrid(8)
        grid.accumulate(pts, _UNIT_BOX, [np.ones(500)])
        assert grid.binned == int(grid.counts.sum())
        assert grid.binned + grid.discarded == 500

    def test_boundary_point_binned_into_last_cell(self):
        grid = CanonicalGrid(4)
        grid.accumulate(np.array([[0.5, 0.5, 0.5]]), _UNIT_BOX, [np.array([1.0])])
        assert grid.counts[3, 3, 3] == 1
        assert (grid.binned, grid.discarded) == (1, 0)


def det(center, label="car", size=(4.0, 2.0, 1.5), yaw=0.0, score=0.9):
    return Detection(tuple(map(float, center)), size, yaw, score, label)


def gt(center, label="car", size=(4.0, 2.0, 1.5), yaw=0.0):
    return (OrientedBox(tuple(map(float, center)), size, yaw), label)


def tp_fp(predictions, gts):
    """The modes report's split: sorted (pred, gt) matches and unmatched predictions."""
    tp = sorted((pi, gi) for pi, gi, _ in well_detected(predictions, gts, EvalThresholds()))
    return tp, [i for i in range(len(predictions)) if i not in {pi for pi, _ in tp}]


class TestTpFpSplit:
    def test_exact_match_is_tp(self):
        tp, fp = tp_fp([det((0, 0, 0))], [gt((0, 0, 0))])
        assert tp == [(0, 0)] and fp == []

    def test_wrong_class_is_fp(self):
        tp, fp = tp_fp([det((0, 0, 0), label="pedestrian")], [gt((0, 0, 0))])
        assert tp == [] and fp == [0]

    def test_duplicate_prediction_is_fp(self):
        preds = [det((0, 0, 0)), det((0.01, 0, 0))]
        tp, fp = tp_fp(preds, [gt((0, 0, 0))])
        assert tp == [(0, 0)] and fp == [1]

    def test_partition(self):
        preds = [det((0, 0, 0)), det((50, 0, 0)), det((0, 50, 0), label="cyclist")]
        gts = [gt((0, 0, 0)), gt((0, 50, 0), label="cyclist")]
        tp, fp = tp_fp(preds, gts)
        matched = {pi for pi, _ in tp}
        assert matched | set(fp) == {0, 1, 2}
        assert not (matched & set(fp))


class TestModeReport:
    def records(self):
        def rec(label, is_tp, n_points):
            return ObjectExplanation(label=label, is_tp=is_tp, in_box_points=n_points)

        return rec

    def test_all_tp(self):
        rec = self.records()
        report = mode_report([rec("car", True, 30), rec("pedestrian", True, 10)])
        assert list(report) == ["tp", "fp"]
        assert report["fp"] == {"count": 0, "class_ratios": {}, "mean_points_in_box": 0.0}
        assert sum(report["tp"]["class_ratios"].values()) == pytest.approx(1.0)

    def test_density_ratio_matches_counts(self):
        rec = self.records()
        records = [rec("car", True, 30), rec("car", True, 60), rec("car", False, 15)]
        report = mode_report(records)
        assert report["tp"]["mean_points_in_box"] == pytest.approx(45.0)
        assert report["fp"]["mean_points_in_box"] == pytest.approx(15.0)
        assert report["tp"]["count"] == 2 and report["fp"]["count"] == 1

    def test_class_ratios(self):
        rec = self.records()
        records = [rec("car", True, 5)] * 3 + [rec("cyclist", True, 5)]
        report = mode_report(records)
        assert report["tp"]["class_ratios"] == {"car": pytest.approx(0.75),
                                                "cyclist": pytest.approx(0.25)}


class TestGridFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        grid = CanonicalGrid(8)
        grid.accumulate(rng.uniform(-0.5, 0.5, size=(400, 3)), _UNIT_BOX, [rng.uniform(size=400)])
        path = tmp_path / "map.grid"
        write_grid(path, grid)
        averages, counts = read_grid(path)
        assert np.allclose(averages, grid_averages(grid).astype(np.float32), atol=0)
        assert np.array_equal(counts, grid.counts)

    def test_bad_length_rejected(self, tmp_path):
        path = tmp_path / "map.grid"
        grid = CanonicalGrid(4)
        write_grid(path, grid)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(MalformedFile):
            read_grid(path)

    def test_csv_row_count(self, tmp_path):
        grid = CanonicalGrid(4)
        grid.accumulate(np.array([[0.0, 0.0, 0.0]]), _UNIT_BOX, [np.array([1.0])])
        path = tmp_path / "map.csv"
        grid_to_csv(path, grid)
        lines = path.read_text().splitlines()
        assert len(lines) == 4**3 + 1
        assert lines[0] == "cx,cy,cz,value,count"

    def test_x_fastest_ordering(self, tmp_path):
        grid = CanonicalGrid(2)
        grid.accumulate(np.array([[0.4, -0.4, -0.4]]), _UNIT_BOX, [np.array([1.0])])  # cell (1,0,0)
        path = tmp_path / "map.grid"
        write_grid(path, grid)
        raw = path.read_bytes()
        counts = np.frombuffer(raw, dtype="<u4", offset=4 + 8 * 4)
        assert counts[1] == 1  # x-fastest: flat index 1 is (ix=1, iy=0, iz=0)
        assert counts.sum() == 1


def oracle_averages(grid, m=0):
    """Map ``m``'s per-cell means, divided cell by cell from the grid's sums."""
    averages = np.zeros(grid.counts.shape)
    for cell in zip(*np.nonzero(grid.counts)):
        averages[cell] = grid.sums[cell][m] / grid.counts[cell]
    return averages


def grid_oracle(path, grid, m=0):
    """The grid file that ``write_grid`` must match byte for byte."""
    with np.errstate(over="ignore"):  # float32 holds a larger average as +-inf
        averages = oracle_averages(grid, m).astype("<f4")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", grid.resolution))
        fh.write(averages.ravel(order="F").tobytes())
        fh.write(grid.counts.astype("<u4").ravel(order="F").tobytes())


def csv_oracle(path, grid, m=0):
    """The cell-by-cell CSV writer that ``grid_to_csv`` must match byte for byte."""
    averages = oracle_averages(grid, m)
    res = grid.resolution
    cell = 1.0 / res
    with open(path, "w") as fh:
        fh.write("cx,cy,cz,value,count\n")
        for iz in range(res):
            for iy in range(res):
                for ix in range(res):
                    cx = -0.5 + (ix + 0.5) * cell
                    cy = -0.5 + (iy + 0.5) * cell
                    cz = -0.5 + (iz + 0.5) * cell
                    fh.write(
                        f"{cx:.6g},{cy:.6g},{cz:.6g},"
                        f"{averages[ix, iy, iz]:.6g},{grid.counts[ix, iy, iz]}\n"
                    )


def random_grid(seed, resolution, n_points):
    rng = np.random.default_rng(seed)
    grid = CanonicalGrid(resolution)
    points = rng.uniform(-0.6, 0.6, size=(n_points, 3))
    values = rng.normal(size=n_points) * 10.0 ** rng.uniform(-8, 8, n_points)
    grid.accumulate(points, _UNIT_BOX, [values])
    return grid


def full_points(resolution):
    """Every cell occupied: one point at each cell center."""
    axis = -0.5 + (np.arange(resolution) + 0.5) / resolution
    centers = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    return centers, np.linspace(-1.0, 1.0, len(centers))


def center_points(resolution, cells, values):
    """One point at the center of each of ``cells`` (index triples)."""
    return -0.5 + (np.array(cells) + 0.5) / resolution, np.array(values)


def grid_of(resolution, points, values):
    grid = CanonicalGrid(resolution)
    grid.accumulate(points, _UNIT_BOX, [values])
    return grid


def case_grid(kind, resolution):
    grid = grid_of(resolution, *_CSV_POINTS[kind](resolution))
    assert kind != "full" or np.all(grid.counts == 1)
    return grid


# kind -> resolution -> (points, values)
_CSV_POINTS = {
    "empty": lambda r: (np.empty((0, 3)), np.empty(0)),
    "full": full_points,
    "first-cell": lambda r: center_points(r, [(0, 0, 0)], [0.25]),
    "last-cell": lambda r: center_points(r, [(r - 1,) * 3], [-0.75]),
    "e-notation": lambda r: center_points(
        r, [(0, 0, 0), (r - 1, 0, 0), (0, r - 1, r - 1), (r - 1,) * 3],
        [1.5e-9, -2.5e7, 1e300, -5e-324],
    ),
}
_CSV_CASES = {
    **{
        f"{kind}-{r}": functools.partial(case_grid, kind, r)
        for kind in _CSV_POINTS
        for r in (2, 3, 7, 32)
    },
    "full-9": functools.partial(case_grid, "full", 9),
    **{
        f"random-{r}": functools.partial(random_grid, s, r, n)
        for s, (r, n) in enumerate([(2, 5), (3, 40), (7, 2000), (32, 20000)])
    },
    "sparse-32": functools.partial(random_grid, 4, 32, 300),
}


def test_csv_template_serves_each_resolution(tmp_path):
    """The template cached for one resolution is not reused for another."""
    _csv_template.cache_clear()
    for i, resolution in enumerate((3, 32, 3)):
        grid = random_grid(i, resolution, 40 * resolution)
        grid_to_csv(tmp_path / f"fast{i}.csv", grid)
        csv_oracle(tmp_path / f"oracle{i}.csv", grid)
        assert (tmp_path / f"fast{i}.csv").read_bytes() == (tmp_path / f"oracle{i}.csv").read_bytes()
    info = _csv_template.cache_info()
    assert (info.misses, info.hits) == (2, 1)


@pytest.mark.parametrize("make", _CSV_CASES.values(), ids=_CSV_CASES.keys())
def test_csv_bytes_match_cellwise_writer(make, tmp_path):
    grid = make()
    grid_to_csv(tmp_path / "fast.csv", grid)
    csv_oracle(tmp_path / "oracle.csv", grid)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_k_map_grid_equals_k_one_map_grids():
    """Binning once for every map adds each cell's points in point order,
    map by map, as k one-map grids and a point-by-point loop do."""
    rng = np.random.default_rng(8)
    k, res = 9, 4
    shared = CanonicalGrid(res, maps=k)
    alone = [CanonicalGrid(res) for _ in range(k)]
    expected = np.zeros((res,) * 3 + (k,))
    for n in (300, 0, 1, 500, 0):
        points = rng.uniform(-0.6, 0.6, size=(n, 3))  # some outside the cube
        maps = rng.normal(size=(k, n)) * 10.0 ** rng.uniform(-5, 5, size=(k, n))
        shared.accumulate(points, _UNIT_BOX, list(maps))
        for grid, values in zip(alone, maps):
            grid.accumulate(points, _UNIT_BOX, [values])
        for point, values in zip(points, maps.T):
            if np.all(np.abs(point) <= 0.5):
                expected[cell_of(shared, point)] += values
    assert 0 < shared.discarded < shared.binned
    assert shared.sums.tobytes() == expected.tobytes()
    for m, grid in enumerate(alone):
        assert shared.sums[..., m].tobytes() == grid.sums[..., 0].tobytes()
        assert np.array_equal(shared.counts, grid.counts)
        assert (shared.binned, shared.discarded) == (grid.binned, grid.discarded)


def test_accumulate_bins_each_point_in_its_box_frame():
    """In a translated, yawed, non-unit box every point, on the faces and
    outside included, lands where its own box-frame coordinates say: moved
    by -center, rotated by -yaw, divided by the size, floored, and the upper
    face clipped into the last cell."""
    box = OrientedBox((3.5, -2.0, 1.25), (4.0, 1.6, 1.5), 0.7)
    res = 8
    rng = np.random.default_rng(10)
    # box-frame coordinates in units of the size: some outside the box, and
    # some on each face (the z faces canonicalize to +-0.5 exactly)
    local = rng.uniform(-0.7, 0.7, size=(300, 3))
    faces = rng.uniform(-0.5, 0.5, size=(60, 3))
    for j in range(6):
        faces[j::6, j % 3] = 0.5 if j < 3 else -0.5
    local = np.vstack([local, faces, [[0.5, 0.5, 0.5], [-0.5, -0.5, -0.5]]])
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    lx, ly, lz = (local * box.size).T
    cloud = np.stack([
        box.center[0] + c * lx - s * ly,
        box.center[1] + s * lx + c * ly,
        box.center[2] + lz,
        rng.uniform(size=len(local)),  # a reflectance column, ignored
    ], axis=1)
    maps = rng.normal(size=(2, len(cloud)))
    grid = CanonicalGrid(res, maps=2)
    grid.accumulate(cloud, box, list(maps))

    sums, counts = np.zeros((res,) * 3 + (2,)), np.zeros((res,) * 3, np.int64)
    binned, upper_face = 0, 0
    for (x, y, z, _), values in zip(cloud.tolist(), maps.T):
        dx, dy, dz = x - box.center[0], y - box.center[1], z - box.center[2]
        u = ((c * dx + s * dy) / box.size[0], (-s * dx + c * dy) / box.size[1], dz / box.size[2])
        if max(abs(v) for v in u) > 0.5:
            continue
        cell = tuple(min(math.floor((v + 0.5) * res), res - 1) for v in u)
        sums[cell] += values
        counts[cell] += 1
        binned += 1
        upper_face += u[2] == 0.5
    assert upper_face and 0 < binned < len(cloud)
    assert (grid.binned, grid.discarded) == (binned, len(cloud) - binned)
    assert np.array_equal(grid.counts, counts)
    assert grid.sums.tobytes() == sums.tobytes()


def test_maps_must_align_with_points():
    grid = CanonicalGrid(4, maps=2)
    points = np.zeros((3, 3))
    for saliency in (np.zeros(3), [np.zeros(3)] * 3, [np.zeros(3), np.zeros(2)]):
        with pytest.raises(ValueError):
            grid.accumulate(points, _UNIT_BOX, saliency)
    assert grid.binned == grid.discarded == 0


def _files_of(tmp_path, name, grid, m=0):
    write_grid(tmp_path / f"{name}.grid", grid, m)
    grid_to_csv(tmp_path / f"{name}.csv", grid, m)
    return [(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("grid", "csv")]


@pytest.mark.parametrize("maps", [1, 2, 9])
@pytest.mark.parametrize("kind", list(_CSV_POINTS))
def test_each_map_writes_the_files_of_its_own_grid(kind, maps, tmp_path):
    points, values = _CSV_POINTS[kind](7)
    columns = [np.roll(values, j) * (j + 1) for j in range(maps)]
    shared = CanonicalGrid(7, maps=maps)
    shared.accumulate(points, _UNIT_BOX, columns)
    for m, column in enumerate(columns):
        grid_oracle(tmp_path / "oracle.grid", shared, m)
        csv_oracle(tmp_path / "oracle.csv", shared, m)
        oracle = [(tmp_path / f"oracle.{ext}").read_bytes() for ext in ("grid", "csv")]
        assert _files_of(tmp_path, "shared", shared, m) == oracle
        assert _files_of(tmp_path, "alone", grid_of(7, points, column)) == oracle


def test_accumulate_after_a_write_reaches_the_next_write(tmp_path):
    """A write caches what every map's files share; the next ``accumulate``
    drops it."""
    rng = np.random.default_rng(9)
    grid = CanonicalGrid(4, maps=2)
    for n in (40, 40, 0, 1):
        points = rng.uniform(-0.5, 0.5, size=(n, 3))
        grid.accumulate(points, _UNIT_BOX, list(rng.uniform(size=(2, n))))
        for m in range(2):
            grid_oracle(tmp_path / "oracle.grid", grid, m)
            csv_oracle(tmp_path / "oracle.csv", grid, m)
            oracle = [(tmp_path / f"oracle.{ext}").read_bytes() for ext in ("grid", "csv")]
            assert _files_of(tmp_path, "fast", grid, m) == oracle
            assert np.array_equal(grid_averages(grid, m), oracle_averages(grid, m))
