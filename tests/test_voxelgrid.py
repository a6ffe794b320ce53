import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcsaliency.voxelgrid import (
    GridSpec,
    SparseVoxelMap,
    UpsampleConfig,
    _check_key_range,
    _DENSE_KEYS_PER_ROW,
    _group_rows,
    _linear_key,
    _offsets_within,
    upsample_to_points,
)

from conftest import neighbor_query, voxel_index

GRID = GridSpec(1.0, (0.0, 10.0), (0.0, 10.0), (0.0, 10.0))
OWN_VOXEL = UpsampleConfig(range_threshold=0, k=1)  # each point reads its own voxel


def scalar_map(coords, values, grid=GRID):
    return SparseVoxelMap(np.array(coords), np.array(values, dtype=float), grid)


def voxelize(cloud, grid=GRID):
    """The detector's voxelization: the in-range mask, then the cells of the
    in-range points grouped into lex-sorted occupied voxels."""
    inside = grid.contains(cloud)
    coords, inverse = _group_rows(grid.coords_for(cloud[inside]))
    return inside, coords, inverse, np.bincount(inverse, minlength=len(coords))


def oracle_cell(p, grid=GRID):
    """One point's cell by per-axis ``math.floor``; None outside the
    half-open extent."""
    ranges = (grid.x_range, grid.y_range, grid.z_range)
    if not all(lo <= float(p[a]) < hi for a, (lo, hi) in enumerate(ranges)):
        return None
    return tuple(math.floor((float(p[a]) - lo) / grid.voxel_size) for a, (lo, _) in enumerate(ranges))


class TestVoxelizePoint:
    def test_direct_floor(self):
        assert GRID.coords_for(np.array([[2.5, 1.0, 0.5]])).tolist() == [[2, 1, 0]]

    def test_lower_bound_is_cell_zero(self):
        origin = np.zeros((1, 3))
        assert GRID.contains(origin).tolist() == [True]
        assert GRID.coords_for(origin).tolist() == [[0, 0, 0]]

    def test_floor_near_boundary(self):
        grid = GridSpec(2.0, (0.0, 10.0), (0.0, 10.0), (0.0, 10.0))
        assert grid.coords_for(np.array([[3.999, 0.0, 0.0]]))[0, 0] == 1

    def test_out_of_range(self):
        # half-open extent: lower bounds inclusive, upper bounds exclusive
        points = np.array([
            [10.0, 0.0, 0.0], [-0.1, 0.0, 0.0], [0.0, 0.0, 10.0],
            [9.999, 9.999, 9.999], [0.0, 5.0, 0.0],
        ])
        assert GRID.contains(points).tolist() == [False, False, False, True, True]

    def test_contains_equals_the_row_reduction(self):
        # per axis: on, just below and just above each face, inside, non-finite
        grid = GridSpec(0.2, (0.100000002, 4.0), (-2.0, 2.5), (-1.0, 1.0))
        axes = [
            [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf),
             np.nextafter(hi, np.inf), (lo + hi) / 2, np.nan, np.inf, -np.inf]
            for lo, hi in (grid.x_range, grid.y_range, grid.z_range)
        ]
        points = np.array(list(itertools.product(*axes)))
        for xyz in (points, points.astype(np.float32), np.column_stack([points, points[:, 0]])):
            expected = np.all((xyz[:, :3] >= grid.lower) & (xyz[:, :3] < grid.upper), axis=1)
            assert np.array_equal(grid.contains(xyz), expected)
        # float32 rounds 0.100000002 down, so the point lies below the float64
        # bound; compared with a Python float bound it would compare in float32
        below = np.array([[0.100000002, 0.0, 0.0]], dtype=np.float32)
        assert grid.contains(below).tolist() == [False]
        assert grid.contains(below.astype(float)).tolist() == [False]
        assert grid.contains(np.array([[0.100000002, 0.0, 0.0]])).tolist() == [True]

    def test_coords_for_equals_the_row_form(self):
        # per axis: on voxel faces, a step to either side of them, the
        # bounds themselves and random values, over and beyond the extent
        grid = GridSpec(0.2, (0.100000002, 4.0), (-2.0, 2.5), (-1.0, 1.0))
        rng = np.random.default_rng(0)
        axes = []
        for lo, hi in (grid.x_range, grid.y_range, grid.z_range):
            faces = lo + np.arange(-2, int((hi - lo) / grid.voxel_size) + 3) * grid.voxel_size
            axes.append(np.concatenate([
                faces, np.nextafter(faces, -np.inf), np.nextafter(faces, np.inf),
                [lo, hi], rng.uniform(lo - 1, hi + 1, 20),
            ]))
        points = np.column_stack([rng.choice(axis, 20_000) for axis in axes])
        for xyz in (points, points.astype(np.float32), np.column_stack([points, points[:, 0]])):
            expected = np.floor(
                (np.asarray(xyz, dtype=float)[:, :3] - grid.lower) / grid.voxel_size
            ).astype(np.int64)
            got = grid.coords_for(xyz)
            assert got.dtype == np.int64 and np.array_equal(got, expected)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(coords=st.lists(st.tuples(*[st.integers(0, 6)] * 3), min_size=1, max_size=300)
       | st.lists(st.tuples(*[st.integers(0, 2**20)] * 3), min_size=1, max_size=50))
# a 2 x 2 x 4 key span over 2 rows: exactly the dense table's limit; one more
# z cell, and the keys sort
@example(coords=[(1, 1, 3), (0, 0, 0)])
@example(coords=[(1, 1, 4), (0, 0, 0)])
def test_group_rows_equals_np_unique(coords):
    coords = np.array(coords, dtype=np.int64)
    expected = np.unique(coords, axis=0, return_inverse=True)
    got = _group_rows(coords)
    for g, e in zip(got, (expected[0], expected[1].reshape(-1)), strict=True):
        assert g.dtype == e.dtype and np.array_equal(g, e)


def test_group_rows_on_a_wide_span_builds_no_table():
    """~50 rows spread over 2**20 cells per axis: their keys sort, with no
    table of the 2**60-key span."""
    coords = np.random.default_rng(0).integers(0, 2**20, size=(50, 3))
    assert math.prod((coords.max(axis=0) + 1).tolist()) > _DENSE_KEYS_PER_ROW * len(coords)
    tracemalloc.start()
    try:
        unique, inverse = _group_rows(coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert np.array_equal(unique[inverse], coords)


class TestVoxelizeCloud:
    def test_two_points_share_a_cell(self):
        cloud = np.array([[0.2, 0.2, 0.2, 0.0], [0.8, 0.7, 0.6, 0.0]])
        inside, coords, inverse, counts = voxelize(cloud)
        assert inside.tolist() == [True, True]
        assert coords.tolist() == [[0, 0, 0]]
        assert inverse.tolist() == [0, 0]
        assert counts.tolist() == [2]

    def test_empty_cloud(self):
        inside, coords, inverse, counts = voxelize(np.zeros((0, 4)))
        assert inside.shape == (0,)
        assert coords.shape == (0, 3)
        assert len(inverse) == len(counts) == 0

    def test_partition_against_per_point_oracle(self):
        rng = np.random.default_rng(0)
        cloud = np.hstack([rng.uniform(-1, 11, size=(1000, 3)), rng.uniform(size=(1000, 1))])
        inside, coords, inverse, counts = voxelize(cloud)
        expected = [oracle_cell(p) for p in cloud]
        assert inside.tolist() == [cell is not None for cell in expected]
        cells = [cell for cell in expected if cell is not None]
        assert 0 < len(cells) < 1000
        # every in-range point lands in its own cell, each occupied cell is
        # listed once in lexicographic order, and its count is its points
        assert [tuple(coords[g]) for g in inverse.tolist()] == cells
        assert [tuple(c) for c in coords.tolist()] == sorted(set(cells))
        assert counts.tolist() == [cells.count(tuple(c)) for c in coords.tolist()]


class TestNeighborQuery:
    def test_single_voxel_threshold_zero(self):
        vmap = scalar_map([(3, 3, 3)], [0.5])
        result = neighbor_query((3, 3, 3), vmap, UpsampleConfig(range_threshold=0, k=4))
        assert result == [((3, 3, 3), 0.5, 0)]

    def test_empty_map(self):
        vmap = scalar_map(np.zeros((0, 3)), [])
        assert neighbor_query((1, 1, 1), vmap, UpsampleConfig()) == []

    def test_dense_block_matches_brute_force(self):
        coords = [(x, y, z) for x in range(2, 7) for y in range(2, 7) for z in range(2, 7)]
        values = [float(i) for i in range(len(coords))]
        vmap = scalar_map(coords, values)
        cfg = UpsampleConfig(range_threshold=2, k=16)
        center = (4, 4, 4)
        got = neighbor_query(center, vmap, cfg)

        distances = [sum(abs(p - q) for p, q in zip(center, c)) for c in coords]
        brute = sorted(
            (d, c, v) for d, c, v in zip(distances, coords, values) if d <= cfg.range_threshold
        )
        assert len([c for d, c, v in brute]) == 25
        expected = [(c, v, d) for d, c, v in brute[: cfg.k]]
        assert got == expected


class TestUpsample:
    def test_single_neighbor_keeps_value(self):
        vmap = scalar_map([(2, 2, 2)], [0.7])
        cloud = np.array([[2.5, 2.5, 2.5, 0.0]])
        out = upsample_to_points(vmap, cloud, UpsampleConfig(range_threshold=0, k=1))
        assert out[0] == pytest.approx(0.7, abs=0)

    def test_equal_values_average_to_value(self):
        vmap = scalar_map([(2, 2, 2), (3, 2, 2)], [0.4, 0.4])
        cloud = np.array([[2.5, 2.5, 2.5, 0.0]])
        out = upsample_to_points(vmap, cloud, UpsampleConfig(range_threshold=2, k=8))
        assert out[0] == pytest.approx(0.4, abs=1e-15)

    def test_kernel_weighting_hand_computed(self):
        # neighbors at distances 0 and 1 with values 1 and 0
        vmap = scalar_map([(2, 2, 2), (3, 2, 2)], [1.0, 0.0])
        cloud = np.array([[2.5, 2.5, 2.5, 0.0]])
        out = upsample_to_points(vmap, cloud, UpsampleConfig(range_threshold=2, k=8))
        expected = 1.0 / (1.0 + math.exp(-0.5))
        assert out[0] == pytest.approx(expected, rel=1e-12)
        assert out[0] == pytest.approx(0.6225, abs=1e-4)

    def test_out_of_range_and_no_neighbors_score_zero(self):
        vmap = scalar_map([(2, 2, 2)], [1.0])
        cloud = np.array([[50.0, 50.0, 50.0, 0.0], [8.5, 8.5, 8.5, 0.0]])
        out = upsample_to_points(vmap, cloud, UpsampleConfig(range_threshold=1, k=4))
        assert np.array_equal(out, [0.0, 0.0])

    def test_convexity_and_constant_exactness(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            m = int(rng.integers(1, 30))
            coords = rng.integers(0, 10, size=(m, 3))
            coords = np.unique(coords, axis=0)
            values = rng.uniform(size=len(coords))
            vmap = scalar_map(coords, values)
            cloud = np.hstack([rng.uniform(0, 10, size=(20, 3)), rng.uniform(size=(20, 1))])
            cfg = UpsampleConfig(range_threshold=2, k=16)
            out = upsample_to_points(vmap, cloud, cfg)
            for i, p in enumerate(cloud):
                neighbors = neighbor_query(GRID.coords_for(p[None, :])[0], vmap, cfg)
                if neighbors:
                    vals = [v for _, v, _ in neighbors]
                    assert min(vals) - 1e-12 <= out[i] <= max(vals) + 1e-12
                else:
                    assert out[i] == 0.0
            # all-equal activations upsample to that exact constant
            const = vmap.with_values(np.full(len(vmap), 0.37))
            out_const = upsample_to_points(const, cloud, cfg)
            inside_with_neighbors = [
                i for i, p in enumerate(cloud)
                if neighbor_query(GRID.coords_for(p[None, :])[0], vmap, cfg)
            ]
            for i in inside_with_neighbors:
                assert out_const[i] == pytest.approx(0.37, abs=1e-12)

    def test_monotone_support(self):
        rng = np.random.default_rng(9)
        coords = np.unique(rng.integers(0, 10, size=(40, 3)), axis=0)
        vmap = scalar_map(coords, np.ones(len(coords)))
        point = (4, 4, 4)
        sizes = []
        for threshold in range(0, 5):
            cfg = UpsampleConfig(range_threshold=threshold, k=10_000)
            sizes.append(len(neighbor_query(point, vmap, cfg)))
        assert sizes == sorted(sizes)


def test_negative_voxel_upsamples_to_its_value():
    vmap = scalar_map([(2, 2, 2)], [-1.0])
    cloud = np.array([[2.5, 2.5, 2.5, 0.0]])
    out = upsample_to_points(vmap, cloud, UpsampleConfig(range_threshold=2, k=16))
    assert np.array_equal(out, [-1.0])
    assert np.array_equal(upsample_to_points(vmap, cloud, OWN_VOXEL), [-1.0])


def test_nearest_voxel_values():
    # range 0, k 1: each point reads its own voxel, as the no_vu ablation does
    vmap = scalar_map([(2, 2, 2)], [0.9])
    cloud = np.array(
        [[2.5, 2.5, 2.5, 0.0], [3.5, 2.5, 2.5, 0.0], [50.0, 0.0, 0.0, 0.0]]
    )
    out = upsample_to_points(vmap, cloud, OWN_VOXEL)
    assert np.array_equal(out, [0.9, 0.0, 0.0])


@pytest.mark.parametrize("repeated", [(1, 1, 1), (-50, 3, 99)])
@pytest.mark.parametrize("values", [[0.0, 0.0, 0.5], [1.0, 2.0, 0.5]])
def test_repeated_coords_rejected_by_every_upsampling_call(repeated, values):
    # all-zero repeats, repeats outside the grid, no point within reach of
    # any voxel, an empty cloud: the map is malformed all the same
    vmap = scalar_map([repeated, repeated, (5, 5, 5)], values)
    for cloud in (np.array([[9.5, 0.5, 9.5, 0.0]]), np.zeros((0, 4))):
        with pytest.raises(ValueError, match="not unique"):
            upsample_to_points(vmap, cloud, UpsampleConfig())
        with pytest.raises(ValueError, match="not unique"):
            upsample_to_points(vmap, cloud, OWN_VOXEL)
        with pytest.raises(ValueError, match="not unique"):
            upsample_to_points(vmap.with_values(np.ones((3, 2))), cloud, UpsampleConfig())


def test_key_wrapping_grid_rejected():
    # 1e-6 m voxels over the default 24 x 24 x 4 m extent: ~2e21 cells, so a
    # linear voxel key would wrap int64 and match the wrong voxels
    grid = GridSpec(1e-6, (0.0, 24.0), (0.0, 24.0), (0.0, 4.0))
    vmap = scalar_map([(1, 1, 1)], [1.0], grid)
    cloud = np.array([[1.5e-6, 1.5e-6, 1.5e-6, 0.0]])
    with pytest.raises(ValueError, match="int64"):
        upsample_to_points(vmap, cloud, UpsampleConfig())
    with pytest.raises(ValueError, match="int64"):
        upsample_to_points(vmap, cloud, OWN_VOXEL)


def test_voxel_out_of_reach_does_not_alias_a_neighbor():
    # at range 1 the keyed box of this 4 x 3 x 3 grid spans z in [-1, 4]
    # (z cell floor(3 / 1) = 3 is kept for rounding); the voxel at z = 5
    # would share its linear key with (1, 1, -1), the neighbor below cell
    # (1, 1, 0), if it were keyed
    grid = GridSpec(1.0, (0.0, 4.0), (0.0, 3.0), (0.0, 3.0))
    vmap = scalar_map([(1, 0, 5)], [1.0], grid)
    cloud = np.array([[1.5, 1.5, 0.5, 0.0]])
    out = upsample_to_points(vmap, cloud, UpsampleConfig(range_threshold=1, k=4))
    assert np.array_equal(out, [0.0])


# ----------------------------------------------------------------------
# one neighbor search, many value columns

_PAYLOAD_CLOUD = np.array([
    [2.5, 2.5, 2.5, 0.0], [2.7, 2.1, 2.9, 0.0], [3.5, 2.5, 2.5, 0.0],
    [5.5, 5.5, 5.5, 0.0], [9.9, 0.1, 4.4, 0.0],
    [-1.0, 2.5, 2.5, 0.0], [50.0, 0.0, 0.0, 0.0], [2.5, 2.5, 10.0, 0.0],  # out of grid
])


_PAYLOAD_COORDS = [
    [],
    [(2, 2, 2)],
    [(2, 2, 2), (3, 2, 2), (2, 3, 3), (9, 0, 4), (9, 1, 4), (-1, 2, 2), (30, 30, 30)],
]
_PAYLOAD_CFGS = [UpsampleConfig(), UpsampleConfig(1, 2), OWN_VOXEL]


@pytest.mark.parametrize("coords", _PAYLOAD_COORDS)
@pytest.mark.parametrize("cfg", _PAYLOAD_CFGS)
def test_one_plan_applies_like_fresh_calls(coords, cfg):
    """One call's neighbor search, shared by every column of the payload,
    gives each value vector what a fresh map of it alone gives."""
    rng = np.random.default_rng(len(coords))
    first = rng.normal(size=len(coords))
    vectors = (first, rng.normal(size=len(coords)), np.full(len(coords), 0.25))
    shared = upsample_to_points(scalar_map(coords, np.column_stack(vectors)), _PAYLOAD_CLOUD, cfg)
    for j, values in enumerate(vectors):
        fresh = upsample_to_points(scalar_map(coords, values), _PAYLOAD_CLOUD, cfg)
        assert np.array_equal(bits(shared[:, j]), bits(fresh))
    assert np.all(shared[5:, 0] == 0.0)  # the out-of-grid points


@pytest.mark.parametrize("coords", _PAYLOAD_COORDS)
@pytest.mark.parametrize("cfg", _PAYLOAD_CFGS)
def test_columns_of_a_2d_payload_equal_1d_calls(coords, cfg):
    rng = np.random.default_rng(len(coords))
    columns = [rng.normal(size=len(coords)), np.full(len(coords), 0.25),
               -rng.uniform(size=len(coords)), np.full(len(coords), -0.0)]
    vmap = scalar_map(coords, np.column_stack(columns))
    got = upsample_to_points(vmap, _PAYLOAD_CLOUD, cfg)
    assert got.shape == (len(_PAYLOAD_CLOUD), len(columns))
    for j, values in enumerate(columns):
        alone = upsample_to_points(vmap.with_values(values), _PAYLOAD_CLOUD, cfg)
        assert np.array_equal(bits(got[:, j]), bits(alone))
        assert got[:, j].flags.c_contiguous
    assert np.all(got[5:] == 0.0)  # the out-of-grid points


def test_upsample_rejects_a_3d_payload():
    vmap = scalar_map([(2, 2, 2)], [1.0])
    with pytest.raises(ValueError, match="shape"):
        upsample_to_points(vmap.with_values(np.ones((1, 2, 2))), _PAYLOAD_CLOUD, UpsampleConfig())


# ----------------------------------------------------------------------
# the gather against the per-point loop it replaced

# 4 x 3 x 3 cells; voxels drawn on and next to it are dense enough for the
# k-cap to bind, and a few lie anywhere, far outside
_PROPERTY_GRID = GridSpec(1.0, (0.0, 4.0), (0.0, 3.0), (0.0, 3.0))
_VALUE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def _sized_lists(element, min_size, max_size):
    """Lists whose length is drawn first, so long lists are as likely as short."""
    return st.integers(min_size, max_size).flatmap(
        lambda n: st.lists(element, min_size=n, max_size=n)
    )


def _voxels(axis, min_size, max_size):
    return _sized_lists(st.tuples(st.tuples(axis, axis, axis), _VALUE), min_size, max_size)


def upsample_oracle(vmap, cloud, cfg):
    """Per point: ``neighbor_query`` around its cell, then the anchored
    ``np.dot`` average. Returns the scores and each point's neighbor count."""
    scores, counts = np.zeros(len(cloud)), np.zeros(len(cloud), dtype=int)
    inside = vmap.grid.contains(cloud)
    for i, cell in enumerate(vmap.grid.coords_for(cloud)):
        neighbors = neighbor_query(cell, vmap, cfg) if inside[i] else []
        counts[i] = len(neighbors)
        if neighbors:
            dists = np.array([d for _, _, d in neighbors], dtype=float)
            vals = np.array([v for _, v, _ in neighbors], dtype=float)
            weights = np.exp(-0.5 * dists**2)
            scores[i] = vals[0] + np.dot(weights, vals - vals[0]) / weights.sum()
    return scores, counts


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def assert_matches_loop(got, vmap, cloud, cfg):
    """``got`` against ``upsample_oracle``: the same terms in another
    summation order, and bit for bit where a point has at most one
    neighbor. Returns each point's neighbor count."""
    expected, counts = upsample_oracle(vmap, cloud, cfg)
    tol = 4 * np.finfo(float).eps * np.abs(vmap.values).max()
    assert np.all(np.abs(got - expected) <= tol)
    assert np.array_equal(bits(got[counts <= 1]), bits(expected[counts <= 1]))
    return counts


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    near=_voxels(st.integers(-1, 3), 1, 36),
    far=_voxels(st.integers(-1000, 1000), 0, 4),
    points=_sized_lists(
        st.tuples(st.floats(-0.5, 4.5), st.floats(-0.5, 3.5), st.floats(-0.5, 3.5)), 1, 20
    ),
    range_threshold=st.integers(0, 3),
    k=st.integers(1, 4) | st.integers(5, 32),  # small k half the time: the cap binds
    constant=_VALUE,
)
def test_upsample_matches_per_point_loop(near, far, points, range_threshold, k, constant):
    voxels = dict(near + far)  # one value per coordinate
    coords, values = zip(*voxels.items())
    vmap = scalar_map(coords, values, _PROPERTY_GRID)
    cloud = np.array(points)
    cfg = UpsampleConfig(range_threshold, k)
    counts = assert_matches_loop(upsample_to_points(vmap, cloud, cfg), vmap, cloud, cfg)

    # a constant map gives the loop's anchor + 0.0 wherever a point has a neighbor
    flat = vmap.with_values(np.full(len(vmap), constant))
    assert np.array_equal(
        bits(upsample_to_points(flat, cloud, cfg)), bits(np.where(counts > 0, constant + 0.0, 0.0))
    )

    index = voxel_index(vmap)
    own = [
        vmap.values[index[tuple(c)]] if inside and tuple(c) in index else 0.0
        for c, inside in zip(_PROPERTY_GRID.coords_for(cloud).tolist(),
                             _PROPERTY_GRID.contains(cloud))
    ]
    # + 0.0: a -0.0 voxel reads as 0.0, every other value bit for bit
    assert np.array_equal(bits(upsample_to_points(vmap, cloud, OWN_VOXEL)), bits(np.array(own) + 0.0))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    cells=_sized_lists(st.tuples(*[st.integers(0, 2**21)] * 3), 0, 30),
    r=st.integers(0, 3),
    # spans whose product passes 2**63: the wrapped keys must agree as well
    span=st.tuples(*[st.integers(1, 2**22)] * 3),
)
def test_plan_query_keys_are_cell_keys_plus_offset_keys(cells, r, span):
    """``upsample_to_points`` keys each (cell, offset) query as the cell's key plus
    the offset's: the same integers as keying every cell + offset row."""
    cells = np.array(cells, dtype=np.int64).reshape(-1, 3)
    span = np.array(span, dtype=np.int64)
    offsets = np.array(_offsets_within(r), dtype=np.int64)
    rows = (cells[:, None, :] + offsets + r).reshape(-1, 3)
    expected = _linear_key(rows, span).reshape(len(cells), len(offsets))
    assert np.array_equal(_linear_key(cells + r, span)[:, None] + _linear_key(offsets, span), expected)


# block 3 of the detector's default grid, and the same cells at the corner
# of an extent ~4000 times wider on x and y
_BLOCK3 = GridSpec(1.0, (0.0, 24.0), (0.0, 24.0), (0.0, 4.0))
_WIDE = GridSpec(1.0, (0.0, 1e5), (0.0, 1e5), (0.0, 4.0))


@pytest.mark.parametrize("cfg", [UpsampleConfig(), UpsampleConfig(1, 2), UpsampleConfig(3, 32)])
@pytest.mark.parametrize("seed", [0, 1])
def test_upsample_on_a_table_and_on_a_search_equal_the_loop(cfg, seed):
    """The same map and points on block 3's grid, whose neighbor lookup
    reads a table of every key, and on a wide grid, whose lookup searches:
    both equal the per-point loop as ``assert_matches_loop`` checks, and
    each other bit for bit."""
    rng = np.random.default_rng(seed)
    cells = np.unique(rng.integers((-1, -1, -1), (25, 25, 5), size=(400, 3)), axis=0)
    values = rng.normal(size=len(cells))
    # in-grid points, and points below the grid on x, outside both extents
    cloud = rng.uniform((-2.0, 0.0, 0.0), (24.0, 24.0, 4.0), size=(300, 3))
    scores = []
    for grid in (_BLOCK3, _WIDE):
        vmap = scalar_map(cells, values, grid)
        queries = len(np.unique(grid.coords_for(cloud[grid.contains(cloud)]), axis=0))
        queries *= len(_offsets_within(cfg.range_threshold))
        total = math.prod(_check_key_range(grid, pad=cfg.range_threshold).tolist())
        assert (total <= _DENSE_KEYS_PER_ROW * queries) == (grid is _BLOCK3)
        got = upsample_to_points(vmap, cloud, cfg)
        counts = assert_matches_loop(got, vmap, cloud, cfg)
        assert np.count_nonzero(counts > 1) > 20  # sums, not single reads
        scores.append(bits(got))
    assert np.array_equal(*scores)
