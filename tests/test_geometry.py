import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import ConvexHull

from textdetkit.errors import GeometryError, ShapeError
from textdetkit.geometry import (
    AxisBox,
    BitMask,
    Polygon,
    crosses_at_touch,
    crosses_itself,
    intersection_area,
    iou_box,
    iou_mask,
    iou_polygon,
    mask_to_polygons,
    polygon_area,
    polygon_to_mask,
)

from conftest import is_convex, oracle_intersection_area, points_in_polygon, random_blob_mask

UNIT_SQUARE = Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))


def random_convex_polygon(rng, scale=10.0, offset=(0.0, 0.0)):
    pts = rng.normal(size=(12, 2)) * scale + np.asarray(offset)
    hull = ConvexHull(pts)
    return Polygon(tuple(map(tuple, pts[hull.vertices])))


class TestPolygonBasics:
    def test_unit_square_area(self):
        assert polygon_area(UNIT_SQUARE) == 1.0

    def test_triangle_area(self):
        tri = Polygon(((0, 0), (2, 0), (0, 2)))
        assert polygon_area(tri) == 2.0

    def test_clockwise_input_reoriented(self):
        cw = Polygon(((0, 0), (0, 1), (1, 1), (1, 0)))
        assert polygon_area(cw) == 1.0

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            Polygon(((0, 0), (1, 1), (2, 2)))

    def test_too_few_vertices_rejected(self):
        with pytest.raises(GeometryError):
            Polygon(((0, 0), (1, 0), (1, 0)))

    def test_area_matches_rasterization_oracle(self, rng):
        # 2000x2000 grid of sample points over the bounding box
        for _ in range(3):
            poly = random_convex_polygon(rng, scale=4.0, offset=(12.0, 9.0))
            xmin, ymin, xmax, ymax = poly.bounds()
            n = 2000
            xs = np.linspace(xmin, xmax, n)
            ys = np.linspace(ymin, ymax, n)
            gx, gy = np.meshgrid(xs, ys)
            frac = points_in_polygon(gx, gy, poly.vertices).mean()
            estimate = frac * (xmax - xmin) * (ymax - ymin)
            assert abs(estimate - polygon_area(poly)) <= 0.01 * polygon_area(poly)


def oracle_proper_crossing(vertices):
    """Pairwise segment test with exact integer orientations."""
    n = len(vertices)

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        for j in range(i + 2, n):
            c, d = vertices[j], vertices[(j + 1) % n]
            if orient(a, b, c) * orient(a, b, d) < 0 and orient(c, d, a) * orient(c, d, b) < 0:
                return True
    return False


class TestCrossesItself:
    def test_contours_never_cross(self, rng):
        masks = [random_blob_mask(rng, 32, 32) for _ in range(10)]
        # noise, whose diagonal neighbours make many pinch points
        masks += [BitMask.from_array(rng.random((12, 12)) < 0.5) for _ in range(40)]
        for mask in masks:
            for poly in mask_to_polygons(mask):
                assert not crosses_itself(poly)
                assert not crosses_at_touch(poly)

    def test_long_polygon_checked_in_blocks(self):
        t = np.linspace(0.0, 2.0 * np.pi, 3000, endpoint=False)
        ring = np.stack([100 + 50 * np.cos(t), 100 + 50 * np.sin(t)], axis=1)
        assert not crosses_itself(Polygon(tuple(map(tuple, ring))))
        ring[[10, 2900]] = ring[[2900, 10]]  # two edges far apart in vertex order cross
        assert crosses_itself(Polygon(tuple(map(tuple, ring))))

    def test_matches_pairwise_oracle(self, rng):
        # small integer grids make shared vertices, touching and collinear edges common
        checked = crossing = 0
        while checked < 400:
            pts = [tuple(map(int, p)) for p in rng.integers(0, 5, size=(rng.integers(3, 9), 2))]
            try:
                poly = Polygon(pts)
            except GeometryError:
                continue
            verts = [(int(x), int(y)) for x, y in poly.vertices]
            want = oracle_proper_crossing(verts)
            assert crosses_itself(poly) == want, verts
            checked += 1
            crossing += want
        assert 50 < crossing < 350


def winding_numbers(vertices, px, py):
    """Winding number of the closed vertex list around each point."""
    w = np.zeros(px.shape, int)
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1]):
        left = (x1 - x0) * (py - y0) - (y1 - y0) * (px - x0)
        w += ((y0 <= py) & (py < y1) & (left > 0)).astype(int)
        w -= ((y1 <= py) & (py < y0) & (left < 0)).astype(int)
    return w


def oracle_overlapping_edges(vertices):
    """Whether two edges share a segment of positive length, exactly."""
    n = len(vertices)

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def along(a, b, c):
        return (c[0] - a[0]) * (b[0] - a[0]) + (c[1] - a[1]) * (b[1] - a[1])

    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        for j in range(i + 1, n):
            c, d = vertices[j], vertices[(j + 1) % n]
            if orient(a, b, c) == 0 and orient(a, b, d) == 0:
                lo, hi = sorted((along(a, b, c), along(a, b, d)))
                if min(hi, along(a, b, b)) > max(lo, 0):
                    return True
    return False


class TestCrossesAtTouch:
    def test_vertex_inside_an_edge(self):
        # in from below the edge (0, 1)-(1, 1) at its point (0.5, 1), out above it
        assert crosses_at_touch(Polygon(((0, 1), (1, 1), (1, 0), (0.5, 1), (1, 8))))
        # in and out above it: a pinch
        assert not crosses_at_touch(Polygon(((0, 0), (8, 0), (8, 8), (4, 0), (0, 8))))

    def test_repeated_vertex(self):
        # a figure eight through (2, 2) whose lobes wind opposite ways, with no
        # proper crossing; then two triangles pinched at (2, 2)
        eight = Polygon(((0, 0), (2, 2), (5, 5), (5, 0), (2, 2), (0, 4)))
        assert crosses_at_touch(eight) and not crosses_itself(eight)
        assert not crosses_at_touch(Polygon(((0, 0), (2, 2), (4, 0), (4, 4), (2, 2), (0, 4))))
        # zero-width spikes to (4, 1) and (3, 0) make three passes through (4, 2)
        # that share directions, which are not judged; the region winds once
        spikes = Polygon(((0, 3), (3, 2), (4, 2), (4, 1), (4, 2), (3, 0), (4, 2)))
        assert not crosses_at_touch(spikes)
        # the contour of two diagonal pixels passes the shared corner twice
        pinch = ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (1, 2), (1, 1), (0, 1))
        assert not crosses_at_touch(Polygon(pinch))

    def test_matches_winding_oracle(self, rng):
        """Without proper crossings and overlapping edges, the boundary
        crosses itself at a touch exactly when some region winds other than
        0 or 1 times, sampled at 256x256 points off the grid lines."""
        g = np.arange(0, 4, 1 / 64) + 0.5 / 64 + 0.00123
        px, py = np.meshgrid(g, g + 0.00071)
        checked = crossing = 0
        while checked < 300:
            pts = [tuple(map(int, p)) for p in rng.integers(0, 5, size=(rng.integers(3, 9), 2))]
            try:
                poly = Polygon(pts)
            except GeometryError:
                continue
            if crosses_itself(poly) or oracle_overlapping_edges(poly.vertices):
                continue
            w = winding_numbers(list(poly.vertices), px, py)
            want = bool(((w != 0) & (w != 1)).any())
            assert crosses_at_touch(poly) == want, poly.vertices
            checked += 1
            crossing += want
        assert crossing > 5


class TestPolygonIntersection:
    def test_disjoint_squares(self):
        other = UNIT_SQUARE.translated(5.0, 0.0)
        assert intersection_area(UNIT_SQUARE, other) == 0.0

    def test_identical_squares(self):
        assert intersection_area(UNIT_SQUARE, UNIT_SQUARE) == 1.0

    def test_half_overlap(self):
        shifted = UNIT_SQUARE.translated(0.5, 0.0)
        assert abs(intersection_area(UNIT_SQUARE, shifted) - 0.5) <= 1e-12

    def test_nonconvex_decomposition(self):
        # L-shape clipped by a square covering its notch corner
        ell = Polygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))
        assert not is_convex(ell)
        square = Polygon(((0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)))
        assert abs(intersection_area(ell, square) - 0.75) <= 1e-9

    def test_intersection_area_bounded(self, rng):
        for _ in range(20):
            a = random_convex_polygon(rng, scale=3.0)
            b = random_convex_polygon(rng, scale=3.0)
            inter = intersection_area(a, b)
            assert inter <= min(polygon_area(a), polygon_area(b)) + 1e-9


SHIFTS = st.sampled_from((0.0, 1.0, -1.0, 0.5, -0.5, 2.5))


@st.composite
def contours(draw):
    """One outer contour of a small random mask; pinch points are common."""
    bits = draw(arrays(bool, (draw(st.integers(1, 7)), draw(st.integers(1, 7)))))
    polys = mask_to_polygons(BitMask.from_array(bits))
    if not polys:
        return UNIT_SQUARE
    return draw(st.sampled_from(polys))


def is_simple(poly):
    """Whether no two edges meet, except adjacent ones at their shared vertex
    (so no pinch, touching vertex, overlap or spike). Rounding errs toward
    rejecting."""
    v = poly.vertices
    n = len(v)

    def orient(a, b, c):
        return np.sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))

    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        if orient(v[i - 1], a, b) == 0 and np.dot(np.subtract(a, v[i - 1]), np.subtract(b, a)) < 0:
            return False  # the boundary turns back on itself at a
        for j in range(i + 2, n - (i == 0)):
            c, d = v[j], v[(j + 1) % n]
            if orient(a, b, c) * orient(a, b, d) <= 0 and orient(c, d, a) * orient(c, d, b) <= 0:
                if orient(a, b, c) != 0 or orient(a, b, d) != 0:
                    return False
                span = sorted((np.dot(np.subtract(c, a), np.subtract(b, a)),
                               np.dot(np.subtract(d, a), np.subtract(b, a))))
                if span[1] >= 0 and span[0] <= np.dot(np.subtract(b, a), np.subtract(b, a)):
                    return False  # collinear and overlapping or touching
    return True


@st.composite
def simple_polygons(draw):
    """Random simple float polygons on [0, 8]^2: points in angular order
    around their mean, so the polygon is star-shaped, and an area of at
    least 0.01, since the clipper's 1e-12 thresholds are absolute. A
    contour stands in for a rejected draw."""
    coord = st.integers(0, 10**6).map(lambda v: v * 8e-6)
    pts = np.array(draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=8)))
    rel = pts - pts.mean(axis=0)
    pts = pts[np.argsort(np.arctan2(rel[:, 1], rel[:, 0]), kind="stable")]
    try:
        poly = Polygon(pts)
    except GeometryError:
        return draw(contours())
    if polygon_area(poly) < 0.01 or crosses_itself(poly) or not is_simple(poly):
        return draw(contours())
    return poly


def assert_matches_oracle(a, b):
    got = intersection_area(a, b)
    try:
        want = oracle_intersection_area(a, b)
    except ZeroDivisionError:
        want = math.inf
    if not abs(got - want) <= 1e-12:  # the float clipper may round near-parallel edges; settle exactly
        want = oracle_intersection_area(a, b, exact=True)
    assert abs(got - want) <= 1e-12


class TestIntersectionArea:
    """The boundary integral against the convex-piece clipper of conftest."""

    @settings(max_examples=300, deadline=None)
    @given(contours(), contours(), SHIFTS, SHIFTS)
    @example(Polygon(((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (1, 2), (1, 1), (0, 1))),
             UNIT_SQUARE, 1.0, 1.0)  # a pinch vertex on the other's corner
    def test_mask_contours(self, a, b, dx, dy):
        assert_matches_oracle(a, b.translated(dx, dy))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(contours(), simple_polygons()))
    def test_identical_polygons(self, p):
        assert_matches_oracle(p, p)
        assert abs(intersection_area(p, p) - polygon_area(p)) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.125, 20), st.floats(0.125, 20),
           st.floats(-20, 20), st.booleans())
    def test_edge_adjacent_squares(self, x, y, size, other, slide, stacked):
        a = Polygon(((x, y), (x + size, y), (x + size, y + size), (x, y + size)))
        # b shares the line x + size (or y + size when stacked), the same float on both sides
        x0, y0 = (x + slide, y + size) if stacked else (x + size, y + slide)
        b = Polygon(((x0, y0), (x0 + other, y0), (x0 + other, y0 + other), (x0, y0 + other)))
        for p, q in ((a, b), (b, a)):
            assert_matches_oracle(p, q)
            assert abs(intersection_area(p, q)) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(simple_polygons(), simple_polygons())
    @example(UNIT_SQUARE,  # b's boundary crosses a's top edge at a vertex of b
             Polygon(((0.25, 0.5), (0.5, 1.0), (0.9, 1.5), (1.5, 1.5), (1.5, 0.5))))
    @example(UNIT_SQUARE,  # nearly collinear top edges cross at (0.5, 1); they share nothing
             Polygon(((-1, -1), (2, -1), (2, 1 + 1.5e-10), (-1, 1 - 1.5e-10))))
    def test_simple_float_polygons(self, a, b):
        assert_matches_oracle(a, b)

    def test_spikes_cancel(self):
        # zero-width spikes add no area, also where they run along the other's edge
        spiked = Polygon(((1, 0), (0, 1), (0, 0), (0, 1), (0, 0)))
        assert intersection_area(spiked, spiked) == 0.5 == polygon_area(spiked)
        assert intersection_area(spiked, UNIT_SQUARE) == 0.5
        ear = Polygon(((0, 0), (2, 0), (3, 0), (2, 0), (2, 2), (0, 2)))
        assert intersection_area(ear, Polygon(((1, -1), (3, -1), (3, 1), (1, 1)))) == 1.0
        beside = Polygon(((2, 0), (3, 0), (3, 1), (2, 1)))
        assert intersection_area(ear, beside) == 0.0
        assert intersection_area(beside, ear) == 0.0

    def test_long_polygons_stay_in_small_memory(self):
        t = np.linspace(0.0, 2.0 * np.pi, 3000, endpoint=False)
        ring = Polygon(tuple(map(tuple, np.stack([100 + 50 * np.cos(t),
                                                  100 + 50 * np.sin(t)], axis=1))))
        tracemalloc.start()
        try:
            intersection_area(ring, ring.translated(10.5, 3.25))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6  # one 3000 x 3000 float64 array alone is 72 MB
        assert abs(intersection_area(ring, ring) - polygon_area(ring)) <= 1e-9 * polygon_area(ring)


class TestIoU:
    def test_polygon_identical(self):
        assert iou_polygon(UNIT_SQUARE, UNIT_SQUARE) == 1.0

    def test_polygon_disjoint(self):
        assert iou_polygon(UNIT_SQUARE, UNIT_SQUARE.translated(3.0, 3.0)) == 0.0

    def test_polygon_shifted_third(self):
        got = iou_polygon(UNIT_SQUARE, UNIT_SQUARE.translated(0.5, 0.0))
        assert abs(got - 1.0 / 3.0) <= 1e-12

    def test_polygon_translation_invariance(self, rng):
        a = random_convex_polygon(rng, scale=3.0)
        b = random_convex_polygon(rng, scale=3.0)
        got = iou_polygon(a, b)
        moved = iou_polygon(a.translated(7.3, -2.1), b.translated(7.3, -2.1))
        assert abs(got - moved) <= 1e-9

    def test_polygon_symmetry_exact(self, rng):
        for _ in range(30):
            a = random_convex_polygon(rng, scale=2.5)
            b = random_convex_polygon(rng, scale=2.5)
            assert iou_polygon(a, b) == iou_polygon(b, a)

    def test_box_cases(self):
        a = AxisBox(0, 0, 2, 2)
        assert iou_box(a, a) == 1.0
        assert iou_box(a, AxisBox(5, 5, 6, 6)) == 0.0
        assert abs(iou_box(a, AxisBox(1, 0, 3, 2)) - 1.0 / 3.0) <= 1e-15

    def test_box_invariants(self):
        with pytest.raises(GeometryError):
            AxisBox(2, 0, 1, 1)

    def test_mask_cases(self, rng):
        m = random_blob_mask(rng, 32, 32)
        assert iou_mask(m, m) == 1.0
        comp = BitMask.from_array(~m.bits)
        assert iou_mask(m, comp) == 0.0
        empty = BitMask.empty(32, 32)
        assert iou_mask(empty, empty) == 0.0  # documented convention

    def test_mask_matches_loop_oracle(self, rng):
        a = random_blob_mask(rng, 16, 16)
        b = random_blob_mask(rng, 16, 16)
        inter = union = 0
        for y in range(16):
            for x in range(16):
                if a.bits[y, x] and b.bits[y, x]:
                    inter += 1
                if a.bits[y, x] or b.bits[y, x]:
                    union += 1
        assert iou_mask(a, b) == inter / union

    def test_mask_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            iou_mask(BitMask.empty(4, 4), BitMask.empty(5, 4))


class TestMaskToPolygons:
    def test_filled_block(self):
        bits = np.zeros((10, 10), bool)
        bits[2:5, 2:5] = True
        m = BitMask.from_array(bits)
        polys = mask_to_polygons(m)
        assert len(polys) == 1
        assert len(polys[0].vertices) == 4
        assert polygon_area(polys[0]) == 9.0

    def test_two_blocks_two_polygons(self):
        bits = np.zeros((12, 12), bool)
        bits[1:3, 1:3] = True
        bits[7:10, 7:10] = True
        m = BitMask.from_array(bits)
        assert len(mask_to_polygons(m)) == 2

    def test_empty_mask(self):
        assert mask_to_polygons(BitMask.empty(5, 5)) == []

    def test_diagonal_pinch_single_component(self):
        bits = np.zeros((4, 4), bool)
        bits[0, 0] = True
        bits[1, 1] = True
        m = BitMask.from_array(bits)
        polys = mask_to_polygons(m)
        assert len(polys) == 1  # 8-connected, one outer contour
        assert polygon_area(polys[0]) == 2.0

    def test_round_trip_random_blobs(self, rng):
        for _ in range(20):
            m = random_blob_mask(rng, 48, 48)
            polys = mask_to_polygons(m)
            rebuilt = np.zeros((48, 48), dtype=bool)
            for p in polys:
                rebuilt |= polygon_to_mask(p, 48, 48).bits
            assert np.array_equal(rebuilt, m.bits)


class TestPolygonToMask:
    def test_unit_square_covers_pixel_centers(self):
        big = Polygon(((0, 0), (10, 0), (10, 10), (0, 10)))
        m = polygon_to_mask(big, 10, 10)
        assert m.count() == 100

    def test_thin_sliver_may_be_empty(self):
        sliver = Polygon(((0.0, 0.1), (5.0, 0.1), (5.0, 0.2), (0.0, 0.2)))
        assert polygon_to_mask(sliver, 5, 5).count() == 0

    def test_canvas_too_small(self):
        with pytest.raises(GeometryError):
            polygon_to_mask(Polygon(((0, 0), (6, 0), (6, 6), (0, 6))), 5, 5)

    def test_area_consistency(self, rng):
        for _ in range(3):
            poly = random_convex_polygon(rng, scale=120.0, offset=(500.0, 500.0))
            m = polygon_to_mask(poly, 1000, 1000)
            assert abs(m.count() - polygon_area(poly)) <= 0.02 * polygon_area(poly)

    def test_foreground_box(self):
        bits = np.zeros((10, 10), bool)
        bits[2:5, 3:7] = True
        m = BitMask.from_array(bits)
        box = m.foreground_box()
        assert box.as_tuple() == (3.0, 2.0, 7.0, 5.0)
        assert BitMask.empty(4, 4).foreground_box() is None
