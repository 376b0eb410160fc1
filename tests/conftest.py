"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library code paths they check:
convolution is a plain quadruple loop, pooling enumerates bin membership per
pixel, point-in-polygon is a local crossing-number routine, rasterization
walks one edge and one row at a time, the shoelace area adds one vertex's
term at a time, polygon intersection clips convex trapezoid pieces pairwise
(Sutherland-Hodgman), a tensor payload is written value by value through the
generic canonical JSON emitter, and blobs are built by stamping shapes, with
holes filled by scipy.
The instance-attention stages are run one instance and one head at a time
into preallocated buffers, on the same kernels, so the batched stages must
match them byte for byte.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import ndimage

from textdetkit.formats import dumps_canonical
from textdetkit.geometry import BitMask, Polygon
from textdetkit.instance_attention import fuse_features, global_context
from textdetkit.ndtensor import (adaptive_max_pool, bilinear_upsample, conv2d, layer_norm,
                                 linear, relu, softmax)
from textdetkit.pseudolabel import ScoredDetection


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# brute-force numeric oracles


def naive_conv2d(x, weights, bias):
    """Quadruple-loop same-padded cross-correlation, pure Python."""
    c_in, h, w = x.shape
    c_out, _, kh, kw = weights.shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros((c_out, h, w))
    for o in range(c_out):
        for y in range(h):
            for xx in range(w):
                acc = bias[o]
                for c in range(c_in):
                    for dy in range(kh):
                        for dx in range(kw):
                            yy = y + dy - ph
                            xs = xx + dx - pw
                            if 0 <= yy < h and 0 <= xs < w:
                                acc += weights[o, c, dy, dx] * x[c, yy, xs]
                out[o, y, xx] = acc
    return out


def naive_adaptive_max_pool(x, out_h, out_w):
    """Exhaustive per-bin max: every pixel is tested for bin membership."""
    c, h, w = x.shape
    out = np.full((c, out_h, out_w), -np.inf)
    for i in range(out_h):
        for j in range(out_w):
            for y in range(h):
                if not (math.floor(i * h / out_h) <= y < math.ceil((i + 1) * h / out_h)):
                    continue
                for xx in range(w):
                    if not (math.floor(j * w / out_w) <= xx < math.ceil((j + 1) * w / out_w)):
                        continue
                    out[:, i, j] = np.maximum(out[:, i, j], x[:, y, xx])
    return out


def naive_bilinear_upsample(x, out_h, out_w):
    """Direct per-pixel evaluation of the half-pixel sampling formula."""
    c, h, w = x.shape
    out = np.zeros((c, out_h, out_w))
    for i in range(out_h):
        sy = min(max((i + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
        y0 = int(math.floor(sy))
        y1 = min(y0 + 1, h - 1)
        wy = sy - y0
        for j in range(out_w):
            sx = min(max((j + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            x0 = int(math.floor(sx))
            x1 = min(x0 + 1, w - 1)
            wx = sx - x0
            for ch in range(c):
                top = x[ch, y0, x0] * (1 - wx) + x[ch, y0, x1] * wx
                bot = x[ch, y1, x0] * (1 - wx) + x[ch, y1, x1] * wx
                out[ch, i, j] = top * (1 - wy) + bot * wy
    return out


def points_in_polygon(xs, ys, vertices):
    """Vectorized even-odd (crossing number) test, local to the tests."""
    inside = np.zeros(xs.shape, dtype=bool)
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        if y0 == y1:
            continue
        crosses = ((y0 <= ys) & (ys < y1)) | ((y1 <= ys) & (ys < y0))
        xi = x0 + (ys - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (xs < xi)
    return inside


def row_rasterize(p: Polygon, width: int, height: int) -> BitMask:
    """Even-odd pixel centres of a polygon inside the canvas, one edge and one
    row at a time: each edge's crossing x with the row centres r + 0.5 in its
    [ceil(ylo - 0.5), ceil(yhi - 0.5)) rows, sorted per row and paired."""
    crossings_by_row = {}
    verts = p.vertices.tolist()
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        if y0 == y1:
            continue
        ylo, yhi = (y0, y1) if y0 < y1 else (y1, y0)
        inv = 1.0 / (y1 - y0)
        for r in range(max(math.ceil(ylo - 0.5), 0), min(math.ceil(yhi - 0.5), height)):
            crossings_by_row.setdefault(r, []).append(x0 + (r + 0.5 - y0) * inv * (x1 - x0))
    bits = np.zeros((height, width), bool)
    for r, xs in crossings_by_row.items():
        xs.sort()
        for j in range(0, len(xs) - 1, 2):
            bits[r, max(math.ceil(xs[j] - 0.5), 0):min(math.ceil(xs[j + 1] - 0.5), width)] = True
    return BitMask.from_array(bits)


# ---------------------------------------------------------------------------
# polygon intersection by convex clipping


def shoelace(vertices):
    """Signed area of a vertex list, its terms summed one at a time in
    vertex order. Fraction vertices sum exactly."""
    acc = 0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        acc += x0 * y1 - x1 * y0
    return acc / 2.0


def is_convex(verts) -> bool:
    """Whether a counter-clockwise vertex list turns left or goes straight
    at every vertex."""
    n = len(verts)
    for i in range(n):
        ax, ay = verts[i - 1]
        bx, by = verts[i]
        cx, cy = verts[(i + 1) % n]
        cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
        if cross < 0.0:
            return False
    return True


def _line_intersect(s, e, a, b):
    # Intersection of segment s->e with the infinite line through a->b.
    dcx, dcy = b[0] - a[0], b[1] - a[1]
    dpx, dpy = e[0] - s[0], e[1] - s[1]
    denom = dpx * dcy - dpy * dcx
    t = ((a[0] - s[0]) * dcy - (a[1] - s[1]) * dcx) / denom
    return (s[0] + t * dpx, s[1] + t * dpy)


def _clip_convex(subject, clip):
    """Sutherland-Hodgman clip of a CCW subject by a convex CCW clip polygon."""
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            return []
        a = clip[i]
        b = clip[(i + 1) % n]
        dcx, dcy = b[0] - a[0], b[1] - a[1]

        def inside(p):
            return dcx * (p[1] - a[1]) - dcy * (p[0] - a[0]) >= 0.0

        input_list = output
        output = []
        s = input_list[-1]
        s_in = inside(s)
        for e in input_list:
            e_in = inside(e)
            if e_in:
                if not s_in:
                    output.append(_line_intersect(s, e, a, b))
                output.append(e)
            elif s_in:
                output.append(_line_intersect(s, e, a, b))
            s, s_in = e, e_in
    return output


def _clean_piece(verts):
    """Drop consecutive (near-)duplicates and reject slivers; None if empty."""
    pts = []
    for x, y in verts:
        if not pts or abs(x - pts[-1][0]) > 1e-12 or abs(y - pts[-1][1]) > 1e-12:
            pts.append((x, y))
    while len(pts) > 1 and abs(pts[0][0] - pts[-1][0]) <= 1e-12 and abs(pts[0][1] - pts[-1][1]) <= 1e-12:
        pts.pop()
    if len(pts) < 3:
        return None
    if abs(shoelace(pts)) <= 1e-12:
        return None
    return pts


def _convex_pieces(verts):
    """Decompose the even-odd region of a vertex list into convex trapezoids.

    Bands between consecutive distinct vertex y-levels are cut by the active
    edges; pairs of crossings bound one trapezoid each. Robust for weakly
    simple polygons (mask contours with pinch points).
    """
    if is_convex(verts):
        return [verts]
    n = len(verts)
    edges = []
    for i in range(n):
        v0, v1 = verts[i], verts[(i + 1) % n]
        if v0[1] != v1[1]:
            edges.append((v0, v1))
    levels = sorted({v[1] for v in verts})
    pieces = []
    for ya, yb in zip(levels, levels[1:]):
        active = []
        for (x0, y0), (x1, y1) in edges:
            if min(y0, y1) <= ya and max(y0, y1) >= yb:
                inv = 1 / (y1 - y0)  # stays exact for Fraction input
                xa = x0 + (ya - y0) * inv * (x1 - x0)
                xb = x0 + (yb - y0) * inv * (x1 - x0)
                active.append(((xa + xb) / 2.0, xa, xb))
        active.sort()
        for k in range(0, len(active) - 1, 2):
            _, la, lb = active[k]
            _, ra, rb = active[k + 1]
            quad = _clean_piece([(la, ya), (ra, ya), (rb, yb), (lb, yb)])
            if quad is not None:
                pieces.append(quad)
    return pieces


def polygon_intersection(a, b) -> list[Polygon]:
    """Intersection region of two vertex lists as a list of disjoint pieces.

    Both operands are cut into convex pieces (a convex polygon is its own
    single piece) and all cross pairs are clipped, so the returned pieces
    tile the intersection without overlap. An empty list means disjoint.
    """
    out = []
    for pa in _convex_pieces(a):
        for pb in _convex_pieces(b):
            piece = _clean_piece(_clip_convex(pa, pb))
            if piece is not None:
                out.append(Polygon(tuple(piece)))
    return out


def oracle_intersection_area(a: Polygon, b: Polygon, exact=False):
    """Summed area of the clipped pieces. The clipper reads Python floats,
    so that a division by zero raises; with ``exact`` it runs in rational
    arithmetic (slow), so only the pieces' float vertices round. In floats,
    clipping near-parallel edges can be off by 1e-12 or divide by zero.
    Axis-parallel edges on dyadic coordinates clip exactly in floats."""
    a, b = a.vertices.tolist(), b.vertices.tolist()
    if exact:
        a, b = ([(Fraction(x), Fraction(y)) for x, y in p] for p in (a, b))
    return sum(shoelace(p.vertices.tolist()) for p in polygon_intersection(a, b))


# ---------------------------------------------------------------------------
# tensor payload text, one value at a time


def tensor_payload(arrays: dict) -> tuple[str, str]:
    """The canonical text of a tensor payload built as a generic document,
    each float written by ``format_float``, and its sha256."""
    text = dumps_canonical({name: {"shape": list(arrays[name].shape),
                                   "data": arrays[name].ravel().tolist()}
                            for name in sorted(arrays)})
    return text, hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# instance attention, one instance and one head at a time


def looped_roi_to_tokens(f, cfg):
    tokens = np.empty((f.shape[0], cfg.d_model))
    for i in range(f.shape[0]):
        reduced = conv2d(f[i], cfg.reduce)
        tokens[i] = adaptive_max_pool(reduced, cfg.pool_height, cfg.pool_width).ravel()
    return tokens


def looped_encoder(tokens, cfg):
    """(encoded tokens, per-layer (heads, M, M) attention maps)."""
    x, all_maps = tokens, []
    for layer in cfg.layers:
        m, d = x.shape
        d_head = d // cfg.heads
        q = linear(x, layer.w_query, layer.b_query)
        k = linear(x, layer.w_key, layer.b_key)
        v = linear(x, layer.w_value, layer.b_value)
        mixed = np.empty_like(x)
        maps = np.empty((cfg.heads, m, m))
        for h in range(cfg.heads):
            sl = slice(h * d_head, (h + 1) * d_head)
            maps[h] = softmax(q[:, sl] @ k[:, sl].T * (1.0 / math.sqrt(d_head)))
            mixed[:, sl] = maps[h] @ v[:, sl]
        x = layer_norm(x + linear(mixed, layer.w_out, layer.b_out),
                       layer.norm1_gamma, layer.norm1_beta)
        hidden = relu(linear(x, layer.ffn_w1, layer.ffn_b1))
        x = layer_norm(x + linear(hidden, layer.ffn_w2, layer.ffn_b2),
                       layer.norm2_gamma, layer.norm2_beta)
        all_maps.append(maps)
    return x, all_maps


def looped_tokens_to_roi(tokens, cfg):
    out = np.empty((tokens.shape[0], cfg.channels, cfg.roi_height, cfg.roi_width))
    for i in range(tokens.shape[0]):
        grid = tokens[i].reshape(cfg.reduced_channels, cfg.pool_height, cfg.pool_width)
        out[i] = conv2d(bilinear_upsample(grid, cfg.roi_height, cfg.roi_width), cfg.recover)
    return out


def looped_forward(f, pyramid, cfg):
    """(fused features, attention maps) of the whole module."""
    encoded, maps = looped_encoder(looped_roi_to_tokens(f, cfg), cfg)
    enhanced = looped_tokens_to_roi(encoded, cfg)
    return fuse_features(f, enhanced, global_context(pyramid, cfg)), maps


# ---------------------------------------------------------------------------
# synthetic masks and detections


def fill_holes(bits):
    """Set every background pixel not 4-connected to the border."""
    return ndimage.binary_fill_holes(bits)


def random_blob_bits(rng, width, height, n_stamps=3, hole_free=True):
    """Union of random rectangles and discs; holes optionally filled."""
    bits = np.zeros((height, width), dtype=bool)
    yy, xx = np.mgrid[0:height, 0:width]
    for _ in range(n_stamps):
        if rng.random() < 0.5 or min(width, height) < 6:
            x0 = int(rng.integers(0, max(width - 2, 1)))
            y0 = int(rng.integers(0, max(height - 2, 1)))
            x1 = int(rng.integers(x0 + 1, min(x0 + width // 2 + 2, width + 1)))
            y1 = int(rng.integers(y0 + 1, min(y0 + height // 2 + 2, height + 1)))
            bits[y0:y1, x0:x1] = True
        else:
            cx = rng.uniform(2, width - 2)
            cy = rng.uniform(2, height - 2)
            r = rng.uniform(1.5, min(width, height) / 4)
            bits |= (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
    if not bits.any():
        bits[height // 2, width // 2] = True
    if hole_free:
        bits = fill_holes(bits)
    return bits


def random_blob_mask(rng, width, height, n_stamps=3, hole_free=True):
    return BitMask.from_array(random_blob_bits(rng, width, height, n_stamps, hole_free))


def random_detections(rng, n, width=64, height=64, jitter=0):
    """Detections around random blobs; jitter shifts masks a few pixels so
    different 'models' disagree moderately."""
    dets = []
    for _ in range(n):
        bits = random_blob_bits(rng, width, height, n_stamps=2)
        if jitter:
            dy = int(rng.integers(-jitter, jitter + 1))
            dx = int(rng.integers(-jitter, jitter + 1))
            bits = np.roll(np.roll(bits, dy, axis=0), dx, axis=1)
        mask = BitMask.from_array(bits)
        if mask.is_empty():
            continue
        dets.append(ScoredDetection.from_mask(mask, float(rng.uniform(0.05, 1.0))))
    return dets
