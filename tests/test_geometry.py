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
    intersection_area,
    iou_box,
    iou_mask,
    iou_polygon,
    mask_to_polygons,
    polygon_area,
    polygon_to_mask,
    winds_once,
)

from conftest import (is_convex, oracle_intersection_area, points_in_polygon, random_blob_mask,
                      row_rasterize, shoelace)

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

    def test_vertices_are_a_read_only_float64_array(self):
        p = Polygon([(0, 0), (0, 2), (3, 2), (3, 2), (0, 0)])  # clockwise, closed, a repeat
        assert p.vertices.dtype == np.float64 and p.vertices.shape == (3, 2)
        assert p.vertices.tolist() == [[3.0, 2.0], [0.0, 2.0], [0.0, 0.0]]
        with pytest.raises(ValueError):
            p.vertices[0, 0] = 1.0

    @pytest.mark.parametrize("vertices", [
        ((0, 0, 9), (4, 0, 9), (4, 4, 9)),  # a triangle with a third coordinate
        ((0, 0, 4), (0, 4, 4)),  # six numbers, not three pairs
        (0, 0, 4, 0, 4, 4),
        (((0, 0), (4, 0), (4, 4)),),
    ])
    def test_vertices_must_be_pairs(self, vertices):
        with pytest.raises(GeometryError, match="pairs"):
            Polygon(vertices)

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


def winding_numbers(vertices, px, py):
    """Winding number of the closed vertex list around each point."""
    w = np.zeros(px.shape, int)
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1]):
        left = (x1 - x0) * (py - y0) - (y1 - y0) * (px - x0)
        w += ((y0 <= py) & (py < y1) & (left > 0)).astype(int)
        w -= ((y1 <= py) & (py < y0) & (left < 0)).astype(int)
    return w


class TestWindsOnce:
    def test_contours_wind_once(self, rng):
        masks = [random_blob_mask(rng, 32, 32) for _ in range(10)]
        # noise, whose diagonal neighbours make many pinch points
        masks += [BitMask.from_array(rng.random((12, 12)) < 0.5) for _ in range(40)]
        for mask in masks:
            for poly in mask_to_polygons(mask):
                assert winds_once(poly)

    def test_long_polygon_checked_in_blocks(self):
        t = np.linspace(0.0, 2.0 * np.pi, 3000, endpoint=False)
        ring = np.stack([100 + 50 * np.cos(t), 100 + 50 * np.sin(t)], axis=1)
        assert winds_once(Polygon(tuple(map(tuple, ring))))
        ring[[10, 2900]] = ring[[2900, 10]]  # two edges far apart in vertex order cross
        assert not winds_once(Polygon(tuple(map(tuple, ring))))

    def test_vertex_inside_an_edge(self):
        # in from below the edge (0, 1)-(1, 1) at its point (0.5, 1), out above it
        assert not winds_once(Polygon(((0, 1), (1, 1), (1, 0), (0.5, 1), (1, 8))))
        # in and out above it: a pinch
        assert winds_once(Polygon(((0, 0), (8, 0), (8, 8), (4, 0), (0, 8))))

    def test_repeated_vertex(self):
        # a figure eight through (2, 2) whose lobes wind opposite ways, with no
        # proper crossing; then two triangles pinched at (2, 2)
        assert not winds_once(Polygon(((0, 0), (2, 2), (5, 5), (5, 0), (2, 2), (0, 4))))
        assert winds_once(Polygon(((0, 0), (2, 2), (4, 0), (4, 4), (2, 2), (0, 4))))
        # the contour of two diagonal pixels passes the shared corner twice
        pinch = ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (1, 2), (1, 1), (0, 1))
        assert winds_once(Polygon(pinch))

    def test_spikes(self):
        # zero-width spikes to (4, 1) and (3, 0) make three passes through (4, 2)
        assert winds_once(Polygon(((0, 3), (3, 2), (4, 2), (4, 1), (4, 2), (3, 0), (4, 2))))
        # a spike from (2, 4) down through the bottom edge to (2, -1) adds no area
        assert winds_once(Polygon(((0, 0), (4, 0), (4, 4), (2, 4), (2, -1), (2, 4), (0, 4))))

    def test_crossing_hidden_in_a_collinear_overlap(self):
        # (2, 0)-(0, 0) and (1, 0)-(4, 0) overlap on [1, 2]: the loop through
        # (2, 1) winds twice, so the shoelace area is 3.5 and the even-odd one 4.5
        poly = Polygon(((2, 0), (0, 0), (2, 1), (1, 0), (4, 0), (2, 4)))
        assert polygon_area(poly) == 3.5
        assert not winds_once(poly)

    def test_matches_winding_oracle(self, rng):
        """Random polygons on a 5 x 5 integer grid, so that proper crossings,
        touches, pinches and overlapping edges are all common: the boundary
        winds once exactly when no point sampled at 256 x 256 places off the
        grid lines has a winding number other than 0 or 1."""
        g = np.arange(0, 4, 1 / 64) + 0.5 / 64 + 0.00123
        px, py = np.meshgrid(g, g + 0.00071)
        checked = once = 0
        while checked < 400:
            pts = [tuple(map(int, p)) for p in rng.integers(0, 5, size=(rng.integers(3, 9), 2))]
            try:
                poly = Polygon(pts)
            except GeometryError:
                continue
            w = winding_numbers(list(poly.vertices), px, py)
            want = not ((w != 0) & (w != 1)).any()
            assert winds_once(poly) == want, poly.vertices
            checked += 1
            once += want
        assert 100 < once < 300


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
        assert not is_convex(ell.vertices.tolist())
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
    if polygon_area(poly) < 0.01 or not winds_once(poly) or not is_simple(poly):
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
        # a spike through the bottom edge, against a covering box and a half
        through = Polygon(((0, 0), (4, 0), (4, 4), (2, 4), (2, -1), (2, 4), (0, 4)))
        for box, want in (((-1, -2, 5, 5), 16.0), ((0, 0, 2, 4), 8.0)):
            x0, y0, x1, y1 = box
            other = Polygon(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))
            assert intersection_area(through, other) == want == intersection_area(other, through)

    # both wind once; nearly parallel edges cross near b's first vertex, away from a's
    SHALLOW_A = Polygon(((0.0, 0.0), (1.4010821519209014, 0.2224889845985878),
                         (2.616764826647925, 0.0), (0.0, 1.0114806959546854)))
    SHALLOW_B = Polygon(((1.4010832939871891, 0.2224889845985878),
                         (2.6167636845816373, 0.0), (0.0, 0.550269885867168)))

    @pytest.mark.xfail(strict=True, reason="each boundary is cut at its own crossing "
                       "parameter; the area is 1.6e-11 off the exact one")
    def test_shallow_crossing(self):
        assert_matches_oracle(self.SHALLOW_A, self.SHALLOW_B)

    def test_shallow_crossing_swapped(self):
        assert_matches_oracle(self.SHALLOW_B, self.SHALLOW_A)

    def test_spike_tip_on_a_piece_midpoint(self):
        # b's spike runs up a's edge x = 4 to (4, 3), the midpoint of the
        # piece from (4, 2) to (4, 4); the spike's end cuts a's edge there
        a = Polygon(((0, 0), (4, 0), (4, 4), (0, 4)))
        b = Polygon(((2, 1), (4, 1), (4, 3), (4, 2), (2, 2)))
        assert intersection_area(a, b) == intersection_area(b, a) == 2.0

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


@st.composite
def raster_cases(draw):
    """(polygon, width, height) on a small canvas. Vertices sit on pixel
    edges, on row or column centres, on the border (also where a 1 px
    overhang was clamped onto it, and 1e-9 beyond, as the bounds check
    allows) or anywhere; repeated y values make horizontal edges."""
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 9))

    def coords(size):
        return st.one_of(st.integers(0, size).map(float),
                         st.integers(0, size - 1).map(lambda k: k + 0.5),
                         st.floats(-1.0, size + 1.0).map(lambda c: min(max(c, 0.0), size)),
                         st.sampled_from((-1e-9, size + 1e-9)),
                         st.floats(0.0, size))

    ys = st.lists(coords(height), min_size=1, max_size=3)
    pts = draw(st.lists(st.tuples(coords(width), st.sampled_from(draw(ys))),
                        min_size=3, max_size=9))
    try:
        return Polygon(pts), width, height
    except GeometryError:
        return Polygon(((0, 0), (width, 0), (width, height))), width, height


@st.composite
def slivers(draw):
    """(polygon, width, height) lying between two neighbouring row centres,
    or two column centres, so that it covers no pixel centre."""
    across, along = draw(st.integers(2, 9)), draw(st.integers(1, 9))
    k = draw(st.integers(0, across - 2))
    inside = st.floats(k + 0.5, k + 1.5, exclude_min=True, exclude_max=True)
    pts = draw(st.lists(st.tuples(st.floats(0.0, along), inside), min_size=3, max_size=6))
    if draw(st.booleans()):
        pts, (across, along) = [(y, x) for x, y in pts], (along, across)
    try:
        return Polygon(pts), along, across
    except GeometryError:
        return Polygon(((0, 0.75), (along, 0.75), (0, 1.25))), along, 2


class TestPolygonToMask:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(raster_cases(), slivers(), contours().map(lambda p: (p, 7, 7))))
    @example((Polygon(((0, 0.5), (3, 0.5), (3, 2.5), (0, 2.5))), 3, 3))  # rows on the centres
    @example((Polygon(((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (1, 2), (1, 1), (0, 1))), 2, 2))
    def test_matches_row_oracle(self, case):
        p, width, height = case
        assert polygon_to_mask(p, width, height) == row_rasterize(p, width, height)

    @settings(max_examples=100, deadline=None)
    @given(slivers())
    def test_slivers_rasterize_empty(self, case):
        assert polygon_to_mask(*case).is_empty()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(raster_cases().map(lambda c: c[0]), contours(), simple_polygons()))
    def test_area_sums_in_vertex_order(self, p):
        assert polygon_area(p) == shoelace(p.vertices.tolist())

    def test_crossing_rounds_below_the_extent(self):
        # on the long edge into (4.5 + 2^-50, 28.5 + 2^-48), row 28 crosses at
        # x = 4.5 exactly, so its run starts at column 4, left of the leftmost
        # vertex's column ceil(xmin - 0.5) = 5
        p = Polygon(((918.5091217923673, 11.00317243074585),
                     (4.500000000000001, 28.500000000000004), (918.5091217923673, 0.0)))
        mask = polygon_to_mask(p, 920, 30)
        assert mask == row_rasterize(p, 920, 30)
        assert mask.x0 == 4

    @staticmethod
    def _peak(p, width, height):
        tracemalloc.start()
        try:
            mask = polygon_to_mask(p, width, height)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return mask, peak

    def test_zigzag_stays_in_small_memory(self):
        # 1000 edges that each cross about 1023 rows: 1M crossings, from 27 KB of JSON
        zigzag = Polygon([(i * 1023 / 1000, 0.0 if i % 2 == 0 else 1024.0) for i in range(1001)])
        mask, peak = self._peak(zigzag, 1024, 1024)
        assert peak < 10e6  # the crossings alone, in float64, take 8 MB
        assert mask.crop.shape == (1023, 1023)

    def test_full_frame_square_stays_in_small_memory(self):
        mask, peak = self._peak(Polygon(((0, 0), (1024, 0), (1024, 1024), (0, 1024))), 1024, 1024)
        assert peak <= 3 * 1024 * 1024  # three bytes per pixel of the frame
        assert mask.count() == 1024 * 1024

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
