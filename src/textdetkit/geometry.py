"""Exact 2-D geometry for text regions: polygons, boxes, bit masks, IoU.

Coordinate conventions (shared by every module):

* pixel (x, y) of a mask covers the half-open unit square
  [x, x+1) x [y, y+1); its center sits at (x + 0.5, y + 0.5),
* polygons are stored counter-clockwise by the shoelace sign,
* contours extracted from masks run along the pixel grid lines, so
  rasterizing them back with the even-odd pixel-center rule reproduces
  hole-free regions exactly.

Contours of components whose pixels touch only diagonally pass through the
shared corner twice; such polygons are weakly simple (edges meet at isolated
points but never cross) and every operation here handles them.

Bit masks are stored as their foreground crop (the tight box around the set
pixels); the full-frame array is a derived, read-only view, and every mask
operation here works inside crops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import GeometryError, ShapeError

_AREA_EPS = 1e-12
# a box may overhang its canvas, or fall short of its mask's foreground, by 1 px
OVERHANG_TOL = 1.0 + 1e-9


# ---------------------------------------------------------------------------
# axis-aligned boxes


@dataclass(frozen=True)
class AxisBox:
    """Axis-aligned box in pixel units, xmin < xmax and ymin < ymax."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        vals = (self.xmin, self.ymin, self.xmax, self.ymax)
        if not all(math.isfinite(v) for v in vals):
            raise GeometryError(f"box coordinates must be finite, got {vals}")
        object.__setattr__(self, "xmin", float(self.xmin))
        object.__setattr__(self, "ymin", float(self.ymin))
        object.__setattr__(self, "xmax", float(self.xmax))
        object.__setattr__(self, "ymax", float(self.ymax))
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise GeometryError(f"box must satisfy xmin < xmax and ymin < ymax, got {vals}")

    def area(self) -> float:
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.xmin, self.ymin, self.xmax, self.ymax)


def iou_box(a: AxisBox, b: AxisBox) -> float:
    """Standard interval-overlap IoU of two boxes."""
    iw = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    ih = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.area() + b.area() - inter
    return inter / union


# ---------------------------------------------------------------------------
# polygons


def _signed_area(vertices) -> float:
    acc = 0.0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        acc += x0 * y1 - x1 * y0
    return acc / 2.0


@dataclass(frozen=True)
class Polygon:
    """Closed polygon with >= 3 vertices, stored counter-clockwise.

    Construction drops consecutive duplicate points, rejects (near-)zero
    signed area, and reverses clockwise input. Vertices may repeat at
    non-adjacent positions (pinch points of mask contours).
    """

    vertices: tuple

    def __post_init__(self):
        pts = []
        for p in self.vertices:
            x, y = float(p[0]), float(p[1])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise GeometryError(f"polygon vertex is not finite: {p}")
            if not pts or (x, y) != pts[-1]:
                pts.append((x, y))
        if len(pts) > 1 and pts[0] == pts[-1]:
            pts.pop()
        if len(pts) < 3:
            raise GeometryError(f"polygon needs >= 3 distinct vertices, got {len(pts)}")
        area = _signed_area(pts)
        if abs(area) <= _AREA_EPS:
            raise GeometryError("degenerate polygon: signed area is zero")
        if area < 0.0:
            pts.reverse()
        object.__setattr__(self, "vertices", tuple(pts))

    def bounds(self) -> tuple[float, float, float, float]:
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return (min(xs), min(ys), max(xs), max(ys))

    def translated(self, dx: float, dy: float) -> "Polygon":
        return Polygon(tuple((x + dx, y + dy) for x, y in self.vertices))


def polygon_area(p: Polygon) -> float:
    """Shoelace area; positive because vertices are stored counter-clockwise."""
    return _signed_area(p.vertices)


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]  # of (2, ...) arrays: x and y lead, so each is contiguous


_BLOCK = 2**16  # elements per temporary of the all-edge-pairs tests


def _edge_pairs(a, b):
    """Every (edge of a, edge of b) pair of two (2, n) vertex arrays, over
    blocks of a's edges so that temporaries stay near 2^16 elements. Yields
    the start s and direction d of a block's edges as (2, k, 1) arrays, then
    arrays indexed [a's edge, b's edge]: b's ends relative to s, and the
    cross products that place b's ends against a's line and a's ends
    against b's line."""
    ps, pe, qs, qe = a, np.roll(a, -1, axis=1), b[:, None], np.roll(b, -1, axis=1)[:, None]
    rows = max(1, _BLOCK // b.shape[1])
    for i in range(0, a.shape[1], rows):
        s, e = ps[:, i:i + rows, None], pe[:, i:i + rows, None]
        d, rs, re = e - s, qs - s, qe - s
        yield (s, d, rs, re, _cross(d, rs), _cross(d, re),
               _cross(rs, qe - qs), _cross(qe - qs, e - qs))


def _pieces(a, b):
    """The pieces of a's boundary between the points where b's boundary
    crosses or touches it, both ends of every collinear overlap included,
    for two (2, n) vertex arrays. Yields blocks of pieces: each one's edge
    of a, its span t0 < t1 in the edge's parameter, and two bool arrays
    indexed [piece, edge of b], the b edges the piece lies on and those
    that a ray towards +x crosses from just beside the piece, on its -x side
    (above it, if horizontal). Collinearity is decided exactly on the input
    vertices: that ray crosses each b edge the piece lies on unless it is
    horizontal, whatever the midpoint's rounding."""
    qs, qe = b[:, None], np.roll(b, -1, axis=1)[:, None]
    up = qe[1] > qs[1]
    rows = max(1, _BLOCK // b.shape[1])
    first = 0  # the block's first edge
    for s, d, rs, re, side_s, side_e, at_s, at_e in _edge_pairs(a, b):
        collinear = (side_s == 0) & (side_e == 0)
        # an underflowing product reads as touching, which only adds a harmless cut
        ci, cj = np.nonzero(~collinear & (at_s != at_e)
                            & (side_s * side_e <= 0) & (at_s * at_e <= 0))
        cut = at_s[ci, cj] / (at_s[ci, cj] - at_e[ci, cj])
        # the span of a's edge (in its parameter) that a collinear edge of b covers
        dd = d[0] * d[0] + d[1] * d[1]
        ts, te = (rs[0] * d[0] + rs[1] * d[1]) / dd, (re[0] * d[0] + re[1] * d[1]) / dd
        lo = np.where(collinear, np.minimum(ts, te), np.inf)
        hi = np.where(collinear, np.maximum(ts, te), -np.inf)
        k, oi = s.shape[1], np.nonzero(collinear)[0]
        edge = np.concatenate([np.arange(k)] * 2 + [ci, oi, oi])
        t = np.clip(np.concatenate([np.zeros(k), np.ones(k), cut, lo[collinear], hi[collinear]]),
                    0.0, 1.0)
        order = np.lexsort((t, edge))
        edge, t = edge[order], t[order]
        piece = np.flatnonzero((edge[:-1] == edge[1:]) & (t[:-1] < t[1:]))
        t0, t1, edge = t[piece], t[piece + 1], edge[piece]
        mid = (t0 + t1) / 2
        for i in range(0, len(mid), rows):
            j, m = edge[i:i + rows], mid[i:i + rows, None]
            p = s[:, j] + m * d[:, j]  # (2, k, 1); an axis-parallel piece's midpoint stays on it
            on = (lo[j] < m) & (m < hi[j])
            right = ((_cross(qe - qs, p - qs) > 0) == up) | on  # b's edge passes right of p
            hits = ((qs[1] > p[1]) != (qe[1] > p[1])) & right
            yield first + j, t0[i:i + rows], t1[i:i + rows], on, hits
        first += k


def winds_once(p: Polygon) -> bool:
    """True when every point of the plane has winding number 0 or 1 around
    p's boundary: p wraps no point twice and none clockwise. Exactly then
    does the even-odd region, which :func:`polygon_to_mask` fills and
    :func:`intersection_area` measures, have p's shoelace area. Pinch points
    and zero-width spikes pass, also where a spike crosses an edge.

    The boundary is cut against itself. Beside a piece, on its -x side
    (above it, if horizontal), the winding number is the signed count of
    the edges a ray towards +x crosses, +1 upward and -1 downward; on the
    other side it is less by the signed passes along the piece. Every face
    of the boundary's arrangement borders a piece, so the test is exact.
    O(n^2) time; ``Polygon`` does not check."""
    v = np.asarray(p.vertices).T
    d = np.roll(v, -1, axis=1) - v
    nxt = np.roll(d, -1, axis=1)
    # every edge meets itself and its two neighbours; a boundary that touches
    # itself nowhere else, and never turns back along itself, is simple and,
    # stored counter-clockwise, winds once
    meets = sum(np.count_nonzero((side_s * side_e <= 0) & (at_s * at_e <= 0))
                for *_, side_s, side_e, at_s, at_e in _edge_pairs(v, v))
    turns_back = (_cross(d, nxt) == 0) & (np.sum(d * nxt, axis=0) < 0)
    if meets == 3 * v.shape[1] and not turns_back.any():
        return True
    sign = np.sign(np.where(d[1] != 0, d[1], d[0]))  # upward, or rightward if horizontal
    for *_, on, hits in _pieces(v, v):
        beside = hits @ sign
        if not (np.isin(beside, (0, 1)).all() and np.isin(beside - on @ sign, (0, 1)).all()):
            return False
    return True


def _boundary_integral(a, b, origin) -> float:
    """Sum of x*dy - y*dx about ``origin`` over the pieces of a's boundary
    that have b just beside them on their -x side (above, if horizontal),
    by the even-odd rule."""
    # on the line s + t * d, x*dy - y*dx integrates to (t1 - t0) * cross(s, d)
    moment = _cross(a - origin, np.roll(a, -1, axis=1) - a)
    total = 0.0
    for edge, t0, t1, _, hits in _pieces(a, b):
        keep = np.count_nonzero(hits, axis=1) % 2 == 1
        total += float(np.sum((t1 - t0)[keep] * moment[edge[keep]]))
    return total


def intersection_area(a: Polygon, b: Polygon) -> float:
    """Area of the intersection of two polygons' even-odd regions, each
    winding once around its region (weakly simple), by Green's theorem.

    The intersection's boundary is made of the pieces of a's boundary with b
    beside them on one side (-x, or above a horizontal piece) and the pieces
    of b's boundary with a beside them on the other side. A shared piece so
    counts once when both regions lie on the same side of it, and otherwise
    from both or neither, which cancel up to rounding (edge-adjacent
    polygons give 0 or about 1e-16 of their area). Zero-width spikes cancel
    the same way.
    """
    va, vb = np.asarray(a.vertices).T, np.asarray(b.vertices).T
    # point reflection swaps the two sides and keeps x*dy - y*dx
    return 0.5 * (_boundary_integral(va, vb, va[:, :1]) + _boundary_integral(-vb, -va, -va[:, :1]))


def iou_polygon(a: Polygon, b: Polygon) -> float:
    """|a n b| / |a u b| for polygons; symmetric by construction."""
    if b.vertices < a.vertices:  # canonical operand order => exact symmetry
        a, b = b, a
    inter = intersection_area(a, b)
    union = polygon_area(a) + polygon_area(b) - inter
    if union <= _AREA_EPS:
        raise GeometryError("IoU undefined: zero-area union")
    return min(max(inter / union, 0.0), 1.0)


# ---------------------------------------------------------------------------
# bit masks


class BitMask:
    """Boolean pixel mask of a text region in a ``width`` x ``height`` frame.

    Stores the offset ``(x0, y0)`` of the tight box around the set pixels,
    the read-only bool ``crop`` inside it (0 x 0 at (0, 0) when empty) and
    the popcount. The constructor and :meth:`from_array` crop a full-frame
    array. ``bits`` is a read-only full-frame copy built on each access.
    """

    __slots__ = ("width", "height", "x0", "y0", "crop", "_count")

    def __init__(self, width: int, height: int, bits):
        bits = np.asarray(bits, dtype=bool)
        if bits.shape != (height, width):
            raise ShapeError(
                f"mask bits shape {bits.shape} != (height, width) = ({height}, {width})"
            )
        self._store(width, height, 0, 0, bits)

    @classmethod
    def from_array(cls, arr) -> "BitMask":
        arr = np.asarray(arr, dtype=bool)
        if arr.ndim != 2:
            raise ShapeError(f"mask array must be 2-D, got rank {arr.ndim}")
        return cls(arr.shape[1], arr.shape[0], arr)

    @classmethod
    def from_crop(cls, width: int, height: int, x0: int, y0: int, crop) -> "BitMask":
        """Mask whose set pixels all lie in ``crop``, placed at (x0, y0)."""
        crop = np.asarray(crop, dtype=bool)
        if crop.ndim != 2:
            raise ShapeError(f"mask crop must be 2-D, got rank {crop.ndim}")
        h, w = crop.shape
        if x0 < 0 or y0 < 0 or x0 + w > width or y0 + h > height:
            raise ShapeError(
                f"mask crop {w}x{h} at ({x0}, {y0}) leaves the {width}x{height} frame"
            )
        mask = cls.__new__(cls)
        mask._store(width, height, x0, y0, crop)
        return mask

    @classmethod
    def empty(cls, width: int, height: int) -> "BitMask":
        return cls.from_crop(width, height, 0, 0, np.zeros((0, 0), bool))

    def _store(self, width, height, x0, y0, arr) -> None:
        rows = np.flatnonzero(arr.any(axis=1))
        if rows.size:
            cols = np.flatnonzero(arr.any(axis=0))
            crop = np.array(arr[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1])  # own copy
            x0, y0 = x0 + int(cols[0]), y0 + int(rows[0])
        else:
            crop, x0, y0 = np.zeros((0, 0), bool), 0, 0
        crop.flags.writeable = False
        self.width, self.height = int(width), int(height)
        self.x0, self.y0, self.crop = x0, y0, crop
        self._count = int(np.count_nonzero(crop))

    @property
    def bits(self) -> np.ndarray:
        """Full-frame (height, width) array, built on each access; read-only."""
        full = np.zeros((self.height, self.width), bool)
        h, w = self.crop.shape
        full[self.y0:self.y0 + h, self.x0:self.x0 + w] = self.crop
        full.flags.writeable = False
        return full

    def count(self) -> int:
        return self._count

    def is_empty(self) -> bool:
        return self._count == 0

    def crop_box(self) -> tuple[int, int, int, int]:
        """(x0, y0, x1, y1) of the stored crop; zero-sized for an empty mask."""
        h, w = self.crop.shape
        return (self.x0, self.y0, self.x0 + w, self.y0 + h)

    def window(self, x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
        """View of the pixels in [x0, x1) x [y0, y1), a box inside the crop box."""
        return self.crop[y0 - self.y0:y1 - self.y0, x0 - self.x0:x1 - self.x0]

    def key(self) -> tuple:
        """Hashable identity for sorting / multiset comparisons."""
        return (self.width, self.height, self.x0, self.y0, self.crop.shape,
                self.crop.tobytes())

    def __eq__(self, other):
        if not isinstance(other, BitMask):
            return NotImplemented
        return self.key() == other.key()

    __hash__ = None

    def __repr__(self):
        return f"BitMask({self.width}x{self.height}, {self._count} px, crop {self.crop_box()})"

    def foreground_box(self) -> AxisBox | None:
        """Tight box around foreground pixels, or None for an empty mask."""
        if self.is_empty():
            return None
        return AxisBox(*(float(v) for v in self.crop_box()))


def shared_window(masks) -> tuple[int, int, int, int] | None:
    """Intersection (x0, y0, x1, y1) of the masks' crop boxes, None if empty."""
    boxes = [m.crop_box() for m in masks]
    x0, y0 = max(b[0] for b in boxes), max(b[1] for b in boxes)
    x1, y1 = min(b[2] for b in boxes), min(b[3] for b in boxes)
    return (x0, y0, x1, y1) if x0 < x1 and y0 < y1 else None


def iou_mask(a: BitMask, b: BitMask) -> float:
    """popcount(a AND b) / popcount(a OR b); 0 when both masks are empty.

    Disjoint foreground boxes give 0 at once; otherwise AND is counted over
    the shared box only and OR = |a| + |b| - AND, exactly.
    """
    if (a.width, a.height) != (b.width, b.height):
        raise ShapeError(
            f"mask dimensions differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    win = shared_window((a, b))
    if win is None:
        return 0.0
    inter = int(np.count_nonzero(a.window(*win) & b.window(*win)))
    return inter / (a.count() + b.count() - inter)


# ---------------------------------------------------------------------------
# mask <-> polygon conversion

# (dx, dy) from a pixel's top-left corner to the start / end vertex of its
# up, right, down and left boundary edges (foreground on the left)
_SIDE_FROM = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])
_SIDE_TO = np.array([(1, 0), (1, 1), (0, 1), (0, 0)])


def _boundary_loops(comp: np.ndarray):
    """Closed grid-edge loops around a component, foreground kept on the left.

    Returns one (n, 2) integer vertex array per loop; the outer boundary
    winds CCW (positive shoelace), hole boundaries wind CW. Edges are
    numbered over row-major pixels, then sides up/right/down/left; each loop
    starts at its lowest-numbered edge. At pinch corners (pixels touching
    diagonally) the walk passes through to the diagonal pixel.
    """
    h, w = comp.shape
    padded = np.zeros((h + 2, w + 2), bool)
    padded[1:-1, 1:-1] = comp
    open_sides = np.stack([
        comp & ~padded[:-2, 1:-1],   # no neighbor above
        comp & ~padded[1:-1, 2:],    # no neighbor to the right
        comp & ~padded[2:, 1:-1],    # no neighbor below
        comp & ~padded[1:-1, :-2],   # no neighbor to the left
    ], axis=-1)
    ys, xs, sides = np.nonzero(open_sides)
    pixel = np.stack([xs, ys], axis=1)
    frm = pixel + _SIDE_FROM[sides]
    to = pixel + _SIDE_TO[sides]
    owner = ys * w + xs
    # successor of each edge: the edge leaving its end vertex; a pinch vertex
    # has two, and the walk takes the lower-numbered one owned by another pixel
    from_key = frm[:, 1] * (w + 1) + frm[:, 0]
    to_key = to[:, 1] * (w + 1) + to[:, 0]
    order = np.argsort(from_key, kind="stable")
    lo = np.searchsorted(from_key[order], to_key, side="left")
    hi = np.searchsorted(from_key[order], to_key, side="right")
    first = order[lo]
    second = order[np.minimum(lo + 1, len(order) - 1)]
    succ = np.where((hi - lo == 1) | (owner[first] != owner), first, second).tolist()

    used = [False] * len(succ)
    loops = []
    for start in range(len(succ)):
        if used[start]:
            continue
        cycle = [start]
        used[start] = True
        edge = succ[start]
        while edge != start:
            cycle.append(edge)
            used[edge] = True
            edge = succ[edge]
        loops.append(frm[cycle])
    return loops


def _merge_collinear(loop: np.ndarray) -> np.ndarray:
    prev = np.roll(loop, 1, axis=0)
    nxt = np.roll(loop, -1, axis=0)
    turn = ((loop[:, 0] - prev[:, 0]) * (nxt[:, 1] - loop[:, 1])
            - (loop[:, 1] - prev[:, 1]) * (nxt[:, 0] - loop[:, 0]))
    return loop[turn != 0]


def mask_to_polygons(m: BitMask) -> list[Polygon]:
    """Outer contours of the 8-connected foreground components of a mask.

    Each component contributes one CCW polygon tracing the pixel boundary
    grid lines (collinear vertices merged, holes ignored). Rasterizing the
    returned polygons with :func:`polygon_to_mask` reproduces hole-free
    components exactly.
    """
    if m.is_empty():
        return []
    labels, _ = ndimage.label(m.crop, structure=np.ones((3, 3), int))
    polygons = []
    for comp_id, (rows, cols) in enumerate(ndimage.find_objects(labels), start=1):
        offset = (m.x0 + cols.start, m.y0 + rows.start)
        for loop in _boundary_loops(labels[rows, cols] == comp_id):
            verts = _merge_collinear(loop)
            x, y = verts[:, 0], verts[:, 1]
            if np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) > 0:  # outer, not a hole
                polygons.append(Polygon(tuple((verts + offset).tolist())))
    return polygons


def polygon_to_mask(p: Polygon, width: int, height: int) -> BitMask:
    """Rasterize a polygon: pixel centers inside by the even-odd rule.

    The polygon must lie within the [0, width] x [0, height] canvas. Slivers
    thinner than one pixel row may cover no pixel centers and rasterize to an
    empty mask; that is the documented contract, not an error.
    """
    if width < 1 or height < 1:
        raise GeometryError(f"canvas must be at least 1x1, got {width}x{height}")
    xmin, ymin, xmax, ymax = p.bounds()
    if xmin < -1e-9 or ymin < -1e-9 or xmax > width + 1e-9 or ymax > height + 1e-9:
        raise GeometryError(
            f"canvas {width}x{height} too small for polygon bounds "
            f"({xmin:.3f}, {ymin:.3f}, {xmax:.3f}, {ymax:.3f})"
        )
    crossings_by_row: dict[int, list[float]] = {}
    verts = p.vertices
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        if y0 == y1:
            continue
        ylo, yhi = (y0, y1) if y0 < y1 else (y1, y0)
        r0 = max(math.ceil(ylo - 0.5), 0)
        r1 = min(math.ceil(yhi - 0.5), height)
        inv = 1.0 / (y1 - y0)
        for r in range(r0, r1):
            yc = r + 0.5
            crossings_by_row.setdefault(r, []).append(x0 + (yc - y0) * inv * (x1 - x0))
    spans = []  # (row, first column, end column) of each covered run
    for r, xs in crossings_by_row.items():
        xs.sort()
        for j in range(0, len(xs) - 1, 2):
            c0 = max(math.ceil(xs[j] - 0.5), 0)
            c1 = min(math.ceil(xs[j + 1] - 0.5), width)
            if c1 > c0:
                spans.append((r, c0, c1))
    if not spans:
        return BitMask.empty(width, height)
    r_lo = min(s[0] for s in spans)
    c_lo = min(s[1] for s in spans)
    crop = np.zeros((max(s[0] for s in spans) + 1 - r_lo,
                     max(s[2] for s in spans) - c_lo), bool)
    for r, c0, c1 in spans:
        crop[r - r_lo, c0 - c_lo:c1 - c_lo] = True
    return BitMask.from_crop(width, height, c_lo, r_lo, crop)
