import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsaliency import boxes
from pcsaliency.boxes import (
    OrientedBox,
    box_diagonal,
    canonicalize,
    iou_3d,
    points_in_box,
)
from pcsaliency.errors import DegenerateBox


def random_box(rng, center_span=4.0):
    return OrientedBox(
        tuple(rng.uniform(-center_span, center_span, 3)),
        tuple(rng.uniform(0.5, 3.0, 3)),
        float(rng.uniform(0.0, 2.0 * math.pi)),
    )


def mc_iou(a, b, n, seed):
    """Rejection-sampling IoU inside the pair's joint AABB."""
    rng = np.random.default_rng(seed)
    corners = []
    for box in (a, b):
        bev = box.footprint()
        z0 = box.center[2] - box.size[2] / 2
        z1 = box.center[2] + box.size[2] / 2
        corners.append([bev[:, 0].min(), bev[:, 1].min(), z0])
        corners.append([bev[:, 0].max(), bev[:, 1].max(), z1])
    corners = np.array(corners)
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    pts = rng.uniform(lo, hi, size=(n, 3))
    in_a = points_in_box(pts, a)
    in_b = points_in_box(pts, b)
    union = int(np.count_nonzero(in_a | in_b))
    return 0.0 if union == 0 else int(np.count_nonzero(in_a & in_b)) / union


def points_in_box_row_form(points, box):
    """``points_in_box`` as first written, on (N, 3) rows."""
    points = np.asarray(points, dtype=float)
    xyz = points[:, :3] - np.array(box.center)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    xb = c * xyz[:, 0] + s * xyz[:, 1]
    yb = -s * xyz[:, 0] + c * xyz[:, 1]
    l, w, h = box.size
    return (np.abs(xb) <= l / 2) & (np.abs(yb) <= w / 2) & (np.abs(xyz[:, 2]) <= h / 2)


class TestPointInBox:
    def test_center_inside(self):
        box = OrientedBox((1.0, 2.0, 3.0), (2.0, 1.0, 1.5), 0.3)
        assert points_in_box((1.0, 2.0, 3.0), box)[0]

    def test_just_outside_face(self):
        box = OrientedBox((0.0, 0.0, 0.0), (2.0, 1.0, 1.0), 0.0)
        assert points_in_box((1.0, 0.0, 0.0), box)[0]  # boundary inclusive
        assert not points_in_box((1.0 + 1e-9, 0.0, 0.0), box)[0]

    def test_yawed_unit_box_at_diagonal_reach(self):
        # rotated frame coords of (0.7, 0, 0) are (~0.495, ~-0.495): inside
        box = OrientedBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), math.pi / 4)
        assert points_in_box((0.7, 0.0, 0.0), box)[0]
        assert not points_in_box((0.72, 0.0, 0.0), box)[0]  # beyond corner reach

    def test_against_halfplane_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            box = random_box(rng)
            pts = rng.uniform(-6, 6, size=(200, 3))
            got = points_in_box(pts, box)
            corners = box.footprint()
            inside = np.ones(len(pts), dtype=bool)
            for i in range(4):
                a, b = corners[i], corners[(i + 1) % 4]
                edge = b - a
                side = edge[0] * (pts[:, 1] - a[1]) - edge[1] * (pts[:, 0] - a[0])
                inside &= side >= -1e-12
            inside &= np.abs(pts[:, 2] - box.center[2]) <= box.size[2] / 2 + 1e-12
            assert np.array_equal(got, inside)

    def test_equals_the_row_form(self):
        """``points_in_box`` per column against the (N, 3) form it replaced,
        bit for bit: free and rotated boxes, points on, beside and across
        every face, as float64, float32-derived and 4-column input."""
        rng = np.random.default_rng(11)
        boxes = [
            OrientedBox((1.25, -0.5, 0.75), (2.5, 1.0, 1.5), 0.0),
            OrientedBox((0.1, 0.2, 0.3), (0.7, 0.3, 0.9), math.pi / 2),
            *(random_box(rng) for _ in range(8)),
        ]
        for box in boxes:
            c, s = math.cos(box.yaw), math.sin(box.yaw)
            half = np.array(box.size) / 2
            # box-frame points on each face, a step to either side, and inside
            local = rng.uniform(-1.2, 1.2, size=(3000, 3)) * half
            axis = rng.integers(0, 3, len(local))
            face = rng.choice([-1.0, 1.0], len(local)) * half[axis]
            local[np.arange(len(local)), axis] = face
            local[1000:2000, :] = np.nextafter(local[1000:2000], np.inf)
            local[2000:2500, :] = np.nextafter(local[2000:2500], -np.inf)
            world = np.column_stack([
                c * local[:, 0] - s * local[:, 1], s * local[:, 0] + c * local[:, 1], local[:, 2],
            ]) + np.array(box.center)
            for pts in (world, world.astype(np.float32), np.column_stack([world, world[:, 0]])):
                got, expected = points_in_box(pts, box), points_in_box_row_form(pts, box)
                assert got.dtype == bool and np.array_equal(got, expected)
            assert 0 < np.count_nonzero(expected) < len(world)

    def test_membership_volume_consistency(self):
        rng = np.random.default_rng(17)
        box = random_box(rng)
        span = 8.0
        pts = rng.uniform(-span, span, size=(400_000, 3))
        frac = points_in_box(pts, box).mean()
        expected = box.volume / (2 * span) ** 3
        assert frac == pytest.approx(expected, rel=0.05)


class TestDiagonal:
    def test_unit_cube(self):
        assert box_diagonal(OrientedBox((0, 0, 0), (1, 1, 1), 0)) == pytest.approx(math.sqrt(3))

    def test_three_four_five(self):
        d = box_diagonal(OrientedBox((0, 0, 0), (3.0, 4.0, 1e-4), 0))
        assert d == pytest.approx(5.0, abs=1e-6)

    def test_zero_size_rejected(self):
        with pytest.raises(DegenerateBox):
            OrientedBox((0, 0, 0), (1.0, 0.0, 1.0), 0)


class TestIou:
    def test_identical(self):
        box = OrientedBox((1.0, 2.0, 0.5), (2.0, 1.0, 1.5), 0.7)
        assert iou_3d(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint(self):
        a = OrientedBox((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.2)
        b = OrientedBox((100.0, 0.0, 0.0), (2.0, 2.0, 2.0), 1.2)
        assert iou_3d(a, b) == 0.0

    def test_axis_aligned_half_overlap(self):
        a = OrientedBox((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0)
        b = OrientedBox((1.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0)
        # intersection 1x2x2=4, union 8+8-4=12
        assert iou_3d(a, b) == pytest.approx(4.0 / 12.0, abs=1e-12)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(23)
        for trial in range(40):
            a = random_box(rng)
            b = OrientedBox(
                tuple(np.array(a.center) + rng.uniform(-1.5, 1.5, 3)),
                tuple(rng.uniform(0.5, 3.0, 3)),
                float(rng.uniform(0.0, 2.0 * math.pi)),
            )
            assert iou_3d(a, b) == pytest.approx(mc_iou(a, b, 100_000, trial), abs=0.015)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(31)
        for trial in range(100):
            a, b = random_box(rng), random_box(rng)
            assert iou_3d(a, b) == iou_3d(b, a)

    def test_yaw_equivariance(self):
        rng = np.random.default_rng(37)
        for trial in range(25):
            a, b = random_box(rng), random_box(rng)
            base = iou_3d(a, b)
            theta = float(rng.uniform(0, 2 * math.pi))
            c, s = math.cos(theta), math.sin(theta)

            def rotate(box):
                x, y, z = box.center
                return OrientedBox(
                    (c * x - s * y, s * x + c * y, z), box.size, box.yaw + theta
                )

            assert iou_3d(rotate(a), rotate(b)) == pytest.approx(base, abs=1e-9)

    def test_square_quarter_turn_self_overlap(self):
        box = OrientedBox((1.0, 1.0, 1.0), (2.0, 2.0, 1.0), 0.4)
        turned = OrientedBox(box.center, box.size, box.yaw + math.pi / 2)
        assert iou_3d(box, turned) == pytest.approx(1.0, abs=1e-9)



# ----------------------------------------------------------------------
# the clipping on Python floats against the numpy-row form it replaced


def clip_polygon_reference(subject, clip):
    """Sutherland-Hodgman on numpy rows, as ``_clip_polygon`` did it."""
    output = list(subject)
    m = len(clip)
    for i in range(m):
        if not output:
            break
        a = clip[i]
        b = clip[(i + 1) % m]
        edge = b - a
        input_pts = output
        output = []
        prev = input_pts[-1]
        prev_side = edge[0] * (prev[1] - a[1]) - edge[1] * (prev[0] - a[0])
        for cur in input_pts:
            cur_side = edge[0] * (cur[1] - a[1]) - edge[1] * (cur[0] - a[0])
            if cur_side >= 0:
                if prev_side < 0:
                    t = prev_side / (prev_side - cur_side)
                    output.append(prev + t * (cur - prev))
                output.append(cur)
            elif prev_side >= 0:
                t = prev_side / (prev_side - cur_side)
                output.append(prev + t * (cur - prev))
            prev, prev_side = cur, cur_side
    return np.array(output) if output else np.zeros((0, 2))


def polygon_area_reference(poly):
    """The shoelace area on ``np.roll`` copies, as ``_polygon_area`` did it."""
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    area = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    return area if area > 1e-12 else 0.0


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def iou_reference(a, b):
    with mock.patch.object(boxes, "_clip_polygon", clip_polygon_reference), \
            mock.patch.object(boxes, "_polygon_area", polygon_area_reference):
        return iou_3d(a, b)


_COORD = st.floats(-4.0, 4.0)
_SIZE = st.floats(0.1, 4.0)
_YAW = st.floats(-2 * math.pi, 2 * math.pi) | st.sampled_from([0.0, math.pi / 2, math.pi / 4])
_BOX = st.builds(OrientedBox, st.tuples(_COORD, _COORD, _COORD), st.tuples(_SIZE, _SIZE, _SIZE), _YAW)


@st.composite
def box_pairs(draw):
    """Rotated pairs drawn freely, and pairs nested, touching or disjoint."""
    a = draw(_BOX)
    kind = draw(st.sampled_from(["free", "nested", "touching", "disjoint"]))
    if kind == "free":
        return a, draw(_BOX)
    (x, y, z), (l, w, h) = a.center, a.size
    if kind == "nested":
        scale = draw(st.tuples(*[st.floats(0.1, 1.0)] * 3))
        size = (l * scale[0], w * scale[1], h * scale[2])
        return a, OrientedBox(a.center, size, a.yaw + draw(st.sampled_from([0.0, math.pi])))
    if kind == "touching":  # face to face along the box's own x axis, or stacked
        other = draw(_BOX)
        if draw(st.booleans()):
            reach = (l + other.size[0]) / 2
            center = (x + reach * math.cos(a.yaw), y + reach * math.sin(a.yaw), z)
            return a, OrientedBox(center, (other.size[0], w, h), a.yaw)
        return a, OrientedBox((x, y, z + (h + other.size[2]) / 2), other.size, other.yaw)
    other = draw(_BOX)
    reach = boxes.box_diagonal(a) + boxes.box_diagonal(other)
    return a, OrientedBox((x + reach, y, z), other.size, other.yaw)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(pair=box_pairs())
def test_iou_equals_the_numpy_row_form(pair):
    a, b = pair
    assert bits(iou_3d(a, b)) == bits(iou_reference(a, b))
    for first, second in (pair, pair[::-1]):
        subject, clip = first.footprint(), second.footprint()
        polygon = boxes._clip_polygon(subject, clip)
        assert np.array_equal(bits(polygon), bits(clip_polygon_reference(subject, clip)))
        assert bits(boxes._polygon_area(polygon)) == bits(polygon_area_reference(polygon))

class TestCanonicalize:
    def test_corner_maps_to_half(self):
        box = OrientedBox((1.0, 2.0, 3.0), (2.0, 4.0, 6.0), 0.9)
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        # box-frame corner (l/2, w/2, h/2) expressed in world coordinates
        corner_local = np.array([1.0, 2.0, 3.0])
        world = np.array(box.center) + np.array(
            [
                c * corner_local[0] - s * corner_local[1],
                s * corner_local[0] + c * corner_local[1],
                corner_local[2],
            ]
        )
        out = canonicalize(world[None, :], box)
        assert np.allclose(out, [[0.5, 0.5, 0.5]], atol=1e-12)

    def test_center_maps_to_origin(self):
        box = OrientedBox((4.0, -2.0, 1.0), (2.0, 3.0, 1.0), 1.1)
        out = canonicalize(np.array([[4.0, -2.0, 1.0]]), box)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(41)
        box = random_box(rng)
        pts = rng.uniform(-5, 5, size=(50, 3))
        canon = canonicalize(pts, box)
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        scaled = canon * np.array(box.size)
        restored = np.empty_like(scaled)
        restored[:, 0] = c * scaled[:, 0] - s * scaled[:, 1]
        restored[:, 1] = s * scaled[:, 0] + c * scaled[:, 1]
        restored[:, 2] = scaled[:, 2]
        restored += np.array(box.center)
        assert np.allclose(restored, pts, atol=1e-12)

    def test_in_box_points_land_in_unit_cube(self):
        rng = np.random.default_rng(43)
        box = random_box(rng)
        pts = rng.uniform(-6, 6, size=(500, 3))
        canon = canonicalize(pts, box)
        inside = points_in_box(pts, box)
        assert np.all(np.abs(canon[inside]) <= 0.5 + 1e-12)
        assert np.all(np.any(np.abs(canon[~inside]) > 0.5, axis=1))
