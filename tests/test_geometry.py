import numpy as np
import pytest
from scipy.spatial import ConvexHull

from textdetkit.errors import GeometryError, ShapeError
from textdetkit.geometry import (
    AxisBox,
    BitMask,
    Polygon,
    iou_box,
    iou_mask,
    iou_polygon,
    is_convex,
    mask_to_polygons,
    polygon_area,
    polygon_intersection,
    polygon_to_mask,
)

from conftest import points_in_polygon, random_blob_mask

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


class TestPolygonIntersection:
    def test_disjoint_squares(self):
        other = UNIT_SQUARE.translated(5.0, 0.0)
        assert polygon_intersection(UNIT_SQUARE, other) == []

    def test_identical_squares(self):
        pieces = polygon_intersection(UNIT_SQUARE, UNIT_SQUARE)
        assert len(pieces) == 1
        assert polygon_area(pieces[0]) == 1.0

    def test_half_overlap(self):
        shifted = UNIT_SQUARE.translated(0.5, 0.0)
        pieces = polygon_intersection(UNIT_SQUARE, shifted)
        assert abs(sum(polygon_area(p) for p in pieces) - 0.5) <= 1e-12

    def test_nonconvex_decomposition(self):
        # L-shape clipped by a square covering its notch corner
        ell = Polygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))
        assert not is_convex(ell)
        square = Polygon(((0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)))
        pieces = polygon_intersection(ell, square)
        area = sum(polygon_area(p) for p in pieces)
        assert abs(area - 0.75) <= 1e-9

    def test_intersection_area_bounded(self, rng):
        for _ in range(20):
            a = random_convex_polygon(rng, scale=3.0)
            b = random_convex_polygon(rng, scale=3.0)
            inter = sum(polygon_area(p) for p in polygon_intersection(a, b))
            assert inter <= min(polygon_area(a), polygon_area(b)) + 1e-9


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
