"""Crop-stored masks against the full-frame implementations they replaced.

The oracles below are the earlier full-frame versions of ``rle_encode``,
``iou_mask``, ``overlap_mask`` and ``mask_to_polygons``: they work on the
full-frame array, walk every pixel in Python where the old code did, and
label the whole frame.
Hypothesis drives both sides with small frames and requires exact equality,
floats included.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from textdetkit import formats
from textdetkit.errors import ShapeError
from textdetkit.geometry import BitMask, Polygon, iou_mask, mask_to_polygons
from textdetkit.pseudolabel import overlap_mask

# ---------------------------------------------------------------------------
# full-frame oracles


def oracle_rle_counts(bits):
    """Pure-Python run lengths over row-major order, starting from value 0."""
    counts = []
    run_value = False
    run_length = 0
    for v in bits.ravel().tolist():
        if v == run_value:
            run_length += 1
        else:
            counts.append(run_length)
            run_value = v
            run_length = 1
    counts.append(run_length)
    return counts


def oracle_iou(a_bits, b_bits):
    inter = int(np.logical_and(a_bits, b_bits).sum())
    union = int(np.logical_or(a_bits, b_bits).sum())
    if union == 0:
        return 0.0
    return inter / union


def oracle_overlap(bits_list):
    return np.logical_and.reduce(bits_list)


def _oracle_boundary_loops(comp):
    h, w = comp.shape
    padded = np.zeros((h + 2, w + 2), bool)
    padded[1:-1, 1:-1] = comp
    edges = []  # (from_vertex, to_vertex, owner_pixel)
    edges_at = {}

    def add(frm, to, owner):
        edges_at.setdefault(frm, []).append(len(edges))
        edges.append((frm, to, owner))

    ys, xs = np.nonzero(comp)
    for y, x in zip(ys.tolist(), xs.tolist()):
        owner = (x, y)
        if not padded[y, x + 1]:
            add((x, y), (x + 1, y), owner)
        if not padded[y + 1, x + 2]:
            add((x + 1, y), (x + 1, y + 1), owner)
        if not padded[y + 2, x + 1]:
            add((x + 1, y + 1), (x, y + 1), owner)
        if not padded[y + 1, x]:
            add((x, y + 1), (x, y), owner)

    used = [False] * len(edges)
    loops = []
    for start in range(len(edges)):
        if used[start]:
            continue
        used[start] = True
        frm, to, owner = edges[start]
        loop = [frm]
        cur_end, cur_owner = to, owner
        while True:
            cands = edges_at[cur_end]
            if len(cands) == 1:
                nxt = cands[0]
            else:
                nxt = next(i for i in cands if edges[i][2] != cur_owner)
            if nxt == start:
                break
            loop.append(cur_end)
            used[nxt] = True
            _, cur_end, cur_owner = edges[nxt]
        loops.append(loop)
    return loops


def _oracle_merge_collinear(loop):
    out = []
    n = len(loop)
    for i in range(n):
        px, py = loop[i - 1]
        x, y = loop[i]
        nx, ny = loop[(i + 1) % n]
        if (x - px) * (ny - y) - (y - py) * (nx - x) != 0:
            out.append((x, y))
    return out


def _shoelace(verts):
    n = len(verts)
    return sum(verts[i][0] * verts[(i + 1) % n][1] - verts[(i + 1) % n][0] * verts[i][1]
               for i in range(n)) / 2.0


def first_pixels(bits):
    """[x, y] of each 8-connected component's first pixel in raster order,
    in that order (labels are numbered in it)."""
    labels = ndimage.label(bits, structure=np.ones((3, 3), int))[0].ravel()
    on = np.flatnonzero(labels)
    first = on[np.unique(labels[on], return_index=True)[1]]
    y, x = np.divmod(first, bits.shape[1])
    return np.stack([x, y], axis=1).tolist()


def oracle_mask_to_polygons(bits):
    """Outer contours, labeling and walking the whole frame."""
    if not bits.any():
        return []
    labels, n_comp = ndimage.label(bits, structure=np.ones((3, 3), int))
    polygons = []
    for comp_id in range(1, n_comp + 1):
        for loop in _oracle_boundary_loops(labels == comp_id):
            verts = _oracle_merge_collinear(loop)
            if _shoelace(verts) > 0:
                polygons.append(Polygon(tuple((float(x), float(y)) for x, y in verts)))
    return polygons


# ---------------------------------------------------------------------------
# strategies: small frames (1xN and Nx1 included) with the foreground drawn
# inside a random box, so boxes come out disjoint, edge-touching or nested


@st.composite
def frame_sizes(draw, max_side=10):
    return draw(st.integers(1, max_side)), draw(st.integers(1, max_side))


@st.composite
def boxed_bits(draw, width, height):
    x0 = draw(st.integers(0, width))
    x1 = draw(st.integers(x0, width))
    y0 = draw(st.integers(0, height))
    y1 = draw(st.integers(y0, height))
    bits = np.zeros((height, width), bool)
    bits[y0:y1, x0:x1] = draw(arrays(bool, (y1 - y0, x1 - x0)))
    return bits


@st.composite
def single_masks(draw):
    width, height = draw(frame_sizes())
    return draw(boxed_bits(width, height))


@st.composite
def mask_tuples(draw, n=2):
    width, height = draw(frame_sizes())
    return tuple(draw(boxed_bits(width, height)) for _ in range(n))


def _grid(rows):
    return np.array([[c == "#" for c in row] for row in rows], dtype=bool)


EMPTY = np.zeros((4, 5), bool)
CORNER = _grid(["#..", "...", "..."])            # pixel (0, 0): RLE leads with 0
ROW = _grid(["#.##..#"])                         # 1 x N
COLUMN = _grid(["#", ".", "#", "#", ".", "#"])   # N x 1
FULL = np.ones((3, 4), bool)                     # touches every border
RING = _grid(["####", "#..#", "####"])           # border-touching, with a hole
PINCH = _grid(["#..", ".#.", "..#"])             # diagonal pinch points
WRAP = _grid(["..##", "##..", "...#"])           # runs that continue on the next row
DISJOINT = (_grid(["##...", "##...", ".....", "....."]), _grid([".....", ".....", "...##", "...##"]))
EDGE_TOUCH = (_grid(["##..", "##..", "...."]), _grid(["..##", "..##", "...."]))
CORNER_TOUCH = (_grid(["##..", "##..", "....", "...."]), _grid(["....", "....", "..##", "..##"]))
NESTED = (np.ones((5, 5), bool), _grid([".....", ".###.", ".#.#.", ".###.", "....."]))
# where a trace over the whole crop could emit the outer loops out of order:
U_ISLAND = _grid(["#.#.#", "#...#", "#####"])    # an island between the arms of a U
OVERLAPPING_BOXES = _grid(["###....", "#......", "#.#####", "#.....#", "......#"])
PINCH_CHAIN = _grid(["#.#.#..#", ".#.#....", "#......#"])  # zigzag pinches, then a loner


# ---------------------------------------------------------------------------
# storage


class TestCropStorage:
    def test_bits_is_read_only(self):
        bits = np.zeros((6, 6), bool)
        bits[1:3, 2:4] = True
        m = BitMask.from_array(bits)
        with pytest.raises(ValueError):
            m.bits[0, 0] = True
        with pytest.raises(ValueError):
            m.crop[0, 0] = False
        assert np.array_equal(m.bits, bits)

    def test_constructor_copies_its_input(self):
        bits = np.ones((3, 3), bool)
        m = BitMask(3, 3, bits)
        bits[:] = False
        assert m.count() == 9

    def test_from_crop_tightens_and_checks_the_frame(self):
        crop = np.zeros((4, 4), bool)
        crop[1:3, 2] = True
        m = BitMask.from_crop(10, 8, 3, 2, crop)
        assert (m.x0, m.y0, m.crop.shape) == (5, 3, (2, 1))
        assert m == BitMask.from_array(m.bits)
        with pytest.raises(ShapeError):
            BitMask.from_crop(10, 8, 7, 2, crop)

    @settings(max_examples=150, deadline=None)
    @given(single_masks())
    @example(EMPTY)
    @example(FULL)
    def test_crop_is_tight_and_round_trips(self, bits):
        m = BitMask.from_array(bits)
        assert np.array_equal(m.bits, bits)
        assert m.count() == int(bits.sum())
        if m.is_empty():
            assert m.crop.shape == (0, 0) and m.foreground_box() is None
        else:
            c = m.crop  # tight: each edge row and column holds a set pixel
            assert c[0].any() and c[-1].any() and c[:, 0].any() and c[:, -1].any()
            ys, xs = np.nonzero(bits)
            assert m.foreground_box().as_tuple() == (
                xs.min(), ys.min(), xs.max() + 1, ys.max() + 1)


# ---------------------------------------------------------------------------
# differential tests


def check_mask_to_polygons(bits):
    got = mask_to_polygons(BitMask.from_array(bits))
    assert [p.vertices.tolist() for p in got] == [p.vertices.tolist()
                                                 for p in oracle_mask_to_polygons(bits)]
    # evaluate's island test reads the pixel above each polygon's first vertex
    assert [p.vertices[0].tolist() for p in got] == first_pixels(bits)


class TestAgainstFullFrame:
    @settings(max_examples=300, deadline=None)
    @given(single_masks())
    @example(EMPTY)
    @example(np.zeros((1, 1), bool))
    @example(np.ones((1, 1), bool))
    @example(CORNER)
    @example(ROW)
    @example(COLUMN)
    @example(FULL)
    @example(RING)
    @example(WRAP)
    def test_rle(self, bits):
        m = BitMask.from_array(bits)
        enc = formats.rle_encode(m)
        assert enc == {"width": bits.shape[1], "height": bits.shape[0],
                       "counts": oracle_rle_counts(bits)}
        assert formats.rle_decode(enc) == m

    @settings(max_examples=300, deadline=None)
    @given(mask_tuples())
    @example((EMPTY, EMPTY))
    @example((EMPTY, np.ones((4, 5), bool)))
    @example((CORNER, np.ones((3, 3), bool)))
    @example((ROW, ROW[:, ::-1]))
    @example((COLUMN, COLUMN[::-1]))
    @example(DISJOINT)
    @example(EDGE_TOUCH)
    @example(CORNER_TOUCH)
    @example(NESTED)
    def test_iou_and_overlap(self, pair):
        a_bits, b_bits = pair
        a, b = BitMask.from_array(a_bits), BitMask.from_array(b_bits)
        want = oracle_iou(a_bits, b_bits)
        assert iou_mask(a, b) == want
        assert iou_mask(b, a) == want
        assert overlap_mask([a, b]) == BitMask.from_array(oracle_overlap([a_bits, b_bits]))

    @settings(max_examples=150, deadline=None)
    @given(mask_tuples(n=3))
    @example((FULL, FULL, FULL))
    @example((NESTED[0], NESTED[1], np.zeros((5, 5), bool)))
    def test_three_way_overlap(self, masks):
        got = overlap_mask([BitMask.from_array(b) for b in masks])
        assert got == BitMask.from_array(oracle_overlap(list(masks)))

    @settings(max_examples=300, deadline=None)
    @given(single_masks())
    @example(EMPTY)
    @example(CORNER)
    @example(ROW)
    @example(COLUMN)
    @example(FULL)
    @example(RING)
    @example(PINCH)
    @example(_grid(["#.#", ".#.", "#.#"]))
    @example(NESTED[0] ^ NESTED[1])
    @example(U_ISLAND)
    @example(OVERLAPPING_BOXES)
    @example(PINCH_CHAIN)
    def test_mask_to_polygons(self, bits):
        check_mask_to_polygons(bits)

    def test_mask_to_polygons_large_frames(self):
        # frames up to 60 x 60, beyond the 10 x 10 that hypothesis draws:
        # nested rectangles toggled in turn leave rings, holes and islands in
        # holes; noise adds pinches and components with overlapping boxes
        rng = np.random.default_rng(11)
        for _ in range(30):
            height, width = rng.integers(20, 61, size=2)
            bits = rng.random((height, width)) < rng.choice([0.03, 0.3, 0.5])
            for _ in range(rng.integers(0, 9)):
                y0, y1 = np.sort(rng.integers(0, height + 1, size=2))
                x0, x1 = np.sort(rng.integers(0, width + 1, size=2))
                bits[y0:y1, x0:x1] ^= True
            check_mask_to_polygons(bits)
