"""Independent reference computations for the benchmark's output checks.

None of these call textdetkit. Mask work runs on the generator's cropped
masks, rasterization is a vectorized crossing-number test, polygon/pixel
overlap is integrated row by row with rectangle clipping, and the forward
passes are written with einsum. Where the library's arithmetic is a single
division or product (mask IoU, box IoU, score decay, fusion weights) the
reference repeats it operation for operation, so those results must match
bit for bit; the polygon areas and the forward passes sum in another order
and are compared within a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


# ---------------------------------------------------------------------------
# cropped masks


@dataclass(eq=False)
class Crop:
    """A mask as its bounding window: rows y0.., columns x0.. of a frame."""

    x0: int
    y0: int
    bits: np.ndarray

    @property
    def count(self) -> int:
        return int(self.bits.sum())

    def full(self, width: int, height: int) -> np.ndarray:
        out = np.zeros((height, width), bool)
        h, w = self.bits.shape
        out[self.y0:self.y0 + h, self.x0:self.x0 + w] = self.bits
        return out

    def box(self) -> tuple:
        """Tight foreground box (xmin, ymin, xmax, ymax) in pixel units."""
        rows = np.flatnonzero(self.bits.any(axis=1))
        cols = np.flatnonzero(self.bits.any(axis=0))
        return (float(self.x0 + cols[0]), float(self.y0 + rows[0]),
                float(self.x0 + cols[-1] + 1), float(self.y0 + rows[-1] + 1))


def _window(a: Crop, b: Crop):
    ah, aw = a.bits.shape
    bh, bw = b.bits.shape
    x0, y0 = max(a.x0, b.x0), max(a.y0, b.y0)
    x1, y1 = min(a.x0 + aw, b.x0 + bw), min(a.y0 + ah, b.y0 + bh)
    if x1 <= x0 or y1 <= y0:
        return None
    return (a.bits[y0 - a.y0:y1 - a.y0, x0 - a.x0:x1 - a.x0],
            b.bits[y0 - b.y0:y1 - b.y0, x0 - b.x0:x1 - b.x0], x0, y0)


def crop_iou(a: Crop, b: Crop) -> float:
    """Mask IoU from the overlap window; same integer ratio as a full-frame count."""
    win = _window(a, b)
    inter = 0 if win is None else int(np.logical_and(win[0], win[1]).sum())
    union = a.count + b.count - inter
    return 0.0 if union == 0 else inter / union


def crop_and(crops) -> Crop:
    """Pixelwise AND of cropped masks (assumed to overlap)."""
    out = crops[0]
    for c in crops[1:]:
        win = _window(out, c)
        out = Crop(win[2], win[3], np.logical_and(win[0], win[1]))
    return out


def box_iou(a, b) -> float:
    """Interval-overlap IoU of (xmin, ymin, xmax, ymax) tuples."""
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union


# ---------------------------------------------------------------------------
# fusion and suppression


def fuse(det_a, det_b, det_c, iou_threshold=0.8, alpha=0.5):
    """Greedy three-model fusion; detections are (Crop, box, score).

    Returns labels as (Crop, box, weight) plus (triples, pairs, dropped).
    """
    def claim(anchor, pool, taken):
        best_idx, best_key = None, None
        for idx, cand in enumerate(pool):
            if taken[idx]:
                continue
            iou = crop_iou(anchor[0], cand[0])
            if iou <= iou_threshold:
                continue
            key = (iou, cand[2], -idx)
            if best_key is None or key > best_key:
                best_idx, best_key = idx, key
        return best_idx

    taken_b = [False] * len(det_b)
    taken_c = [False] * len(det_c)
    labels, counts = [], [0, 0, 0]
    for i in sorted(range(len(det_a)), key=lambda i: (-det_a[i][2], i)):
        anchor = det_a[i]
        j = claim(anchor, det_b, taken_b)
        k = claim(anchor, det_c, taken_c)
        if j is not None:
            taken_b[j] = True
        if k is not None:
            taken_c[k] = True
        others = [d for d in ((det_b[j] if j is not None else None),
                              (det_c[k] if k is not None else None)) if d is not None]
        if not others:
            counts[2] += 1
            continue
        group = [anchor] + others
        n = len(group)
        box = tuple(sum(d[1][axis] for d in group) / n for axis in range(4))
        weight = anchor[2]
        for d in others:
            weight = weight * d[2]
        if len(others) == 1:
            weight = weight * alpha
        counts[0 if len(others) == 2 else 1] += 1
        labels.append((crop_and([d[0] for d in group]), box, weight))
    return labels, tuple(counts)


def soft_nms_linear(dets, iou_threshold=0.5, score_floor=0.001):
    """Sequential linear-decay soft NMS; returns [(index, final score)]."""
    pool = [(d[2], i) for i, d in enumerate(dets)]
    survivors = []
    while pool:
        best = max(range(len(pool)), key=lambda p: (pool[p][0], -pool[p][1]))
        score, idx = pool.pop(best)
        survivors.append((score, idx))
        decayed = []
        for s, i in pool:
            iou = crop_iou(dets[idx][0], dets[i][0])
            if iou > iou_threshold:
                s = s * (1.0 - iou)
            if s >= score_floor:
                decayed.append((s, i))
        pool = decayed
    survivors.sort(key=lambda t: (-t[0], t[1]))
    return [(idx, score) for score, idx in survivors]


def hard_nms_box(boxes, scores, iou_threshold=0.5):
    """Greedy hard NMS on boxes; returns kept indices in descending score order."""
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    removed = [False] * len(boxes)
    kept = []
    for i in order:
        if removed[i]:
            continue
        removed[i] = True
        kept.append(i)
        for j in order:
            if not removed[j] and box_iou(boxes[i], boxes[j]) > iou_threshold:
                removed[j] = True
    return kept


# ---------------------------------------------------------------------------
# polygons


def rasterize(vertices, width: int, height: int) -> Crop:
    """Pixels whose centers lie inside the polygon by the even-odd rule."""
    v = np.asarray(vertices, dtype=np.float64)
    x0 = max(int(math.floor(v[:, 0].min())) - 1, 0)
    y0 = max(int(math.floor(v[:, 1].min())) - 1, 0)
    x1 = min(int(math.ceil(v[:, 0].max())) + 1, width)
    y1 = min(int(math.ceil(v[:, 1].max())) + 1, height)
    px = np.arange(x0, x1) + 0.5
    py = (np.arange(y0, y1) + 0.5)[:, None]
    inside = np.zeros((y1 - y0, x1 - x0), bool)
    ax, ay = v[:, 0], v[:, 1]
    bx, by = np.roll(ax, -1), np.roll(ay, -1)
    for xa, ya, xb, yb in zip(ax, ay, bx, by):
        if ya == yb:
            continue
        spans = (ya > py) != (yb > py)
        xcross = xa + (py - ya) * (xb - xa) / (yb - ya)
        inside ^= spans & (px < xcross)
    return Crop(x0, y0, inside)


def shoelace(vertices) -> float:
    acc = 0.0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        acc += x0 * y1 - x1 * y0
    return acc / 2.0


def _clip_half(points, inside, cross):
    out = []
    if not points:
        return out
    s = points[-1]
    for e in points:
        if inside(e):
            if not inside(s):
                out.append(cross(s, e))
            out.append(e)
        elif inside(s):
            out.append(cross(s, e))
        s = e
    return out


def _clip_axis(points, axis, bound, keep_above):
    def inside(p):
        return p[axis] >= bound if keep_above else p[axis] <= bound

    def cross(s, e):
        t = (bound - s[axis]) / (e[axis] - s[axis])
        return (s[0] + t * (e[0] - s[0]), s[1] + t * (e[1] - s[1]))

    return _clip_half(points, inside, cross)


def polygon_pixel_overlap(vertices, crop: Crop) -> float:
    """Area shared by a simple polygon and the union of a mask's pixel squares.

    Each mask row is split into runs of set pixels; the polygon is clipped to
    the row band and then to each run's rectangle. Clipping a non-convex
    polygon by a convex window leaves only zero-area slivers besides the true
    intersection, so the shoelace area of each clip is exact.
    """
    pts = [(float(x), float(y)) for x, y in vertices]
    h, w = crop.bits.shape
    ys = [p[1] for p in pts]
    r0 = max(0, int(math.floor(min(ys))) - crop.y0)
    r1 = min(h, int(math.ceil(max(ys))) - crop.y0)
    total = 0.0
    for r in range(r0, r1):
        row = crop.bits[r]
        if not row.any():
            continue
        y = float(crop.y0 + r)
        band = _clip_axis(_clip_axis(pts, 1, y, True), 1, y + 1.0, False)
        if len(band) < 3:
            continue
        edges = np.flatnonzero(np.diff(np.concatenate(([0], row.astype(np.int8), [0]))))
        for c0, c1 in zip(edges[::2], edges[1::2]):
            piece = _clip_axis(_clip_axis(band, 0, float(crop.x0 + c0), True),
                               0, float(crop.x0 + c1), False)
            if len(piece) >= 3:
                total += abs(shoelace(piece))
    return total


def region_iou(gt_vertices, crop: Crop) -> float:
    inter = polygon_pixel_overlap(gt_vertices, crop)
    union = abs(shoelace(gt_vertices)) + crop.count - inter
    return 0.0 if union <= 0.0 else min(max(inter / union, 0.0), 1.0)


def evaluate(gt_polygons, ignore, det_crops, iou_thresh=0.5) -> dict:
    """Greedy one-to-one matching with don't-care handling, as a report dict."""
    candidates = []
    for g, poly in enumerate(gt_polygons):
        gx0, gy0 = min(p[0] for p in poly), min(p[1] for p in poly)
        gx1, gy1 = max(p[0] for p in poly), max(p[1] for p in poly)
        for d, crop in enumerate(det_crops):
            h, w = crop.bits.shape
            if crop.x0 >= gx1 or crop.x0 + w <= gx0 or crop.y0 >= gy1 or crop.y0 + h <= gy0:
                continue  # disjoint windows: IoU 0, below any threshold > 0
            iou = region_iou(poly, crop)
            if iou >= iou_thresh:
                candidates.append((iou, g, d))
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
    gt_used, det_used = set(), set()
    matches, ignored_dets = [], 0
    for iou, g, d in candidates:
        if g in gt_used or d in det_used:
            continue
        gt_used.add(g)
        det_used.add(d)
        if ignore[g]:
            ignored_dets += 1
        else:
            matches.append((g, d, iou))
    gt_count = len(gt_polygons) - sum(1 for f in ignore if f)
    det_count = len(det_crops) - ignored_dets
    tp = len(matches)
    recall = tp / gt_count if gt_count else 0.0
    precision = tp / det_count if det_count else 0.0
    f = 2.0 * precision * recall / (precision + recall) if precision + recall > 0.0 else 0.0
    return {"truePositives": tp, "gtCount": gt_count, "detCount": det_count,
            "recall": recall, "precision": precision, "fMeasure": f, "matches": matches}


# ---------------------------------------------------------------------------
# reference modules


def conv_same(x, weight, bias):
    """Zero-padded same-size cross-correlation of a (C, H, W) map."""
    _, _, kh, kw = weight.shape
    padded = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    windows = sliding_window_view(padded, (kh, kw), axis=(1, 2))
    return np.einsum("ocij,chwij->ohw", weight, windows, optimize=True) + bias[:, None, None]


def cascade(x, tensors, kernel_sizes, residual=True):
    """Three blocks of summed k x 1, 1 x k and k x k branches, ReLU after each."""
    y = x
    for i in range(len(kernel_sizes)):
        y = sum(conv_same(y, tensors[f"block{i}.{b}.weight"], tensors[f"block{i}.{b}.bias"])
                for b in ("vertical", "horizontal", "square"))
        if residual and i == len(kernel_sizes) - 1:
            y = y + x
        y = np.maximum(y, 0.0)
    return y


def _layer_norm(x, gamma, beta, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _upsample_weights(n_in, n_out):
    """(n_out, n_in) half-pixel bilinear interpolation matrix."""
    s = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
    lo = np.floor(s).astype(int)
    hi = np.minimum(lo + 1, n_in - 1)
    m = np.zeros((n_out, n_in))
    m[np.arange(n_out), lo] += 1.0 - (s - lo)
    m[np.arange(n_out), hi] += s - lo
    return m


def instance_attention(roi, pyramid, tensors, cfg):
    """Tokens -> post-norm encoder -> recovered maps + global context + input."""
    m, c, h, w = roi.shape
    ph, pw, heads = cfg["poolHeight"], cfg["poolWidth"], cfg["heads"]
    reduced = (np.einsum("oc,mchw->mohw", tensors["reduce.weight"][:, :, 0, 0], roi)
               + tensors["reduce.bias"][None, :, None, None])
    pooled = np.empty(reduced.shape[:2] + (ph, pw))
    for i in range(ph):
        rows = slice(i * h // ph, -(-(i + 1) * h // ph))
        for j in range(pw):
            cols = slice(j * w // pw, -(-(j + 1) * w // pw))
            pooled[:, :, i, j] = reduced[:, :, rows, cols].max(axis=(2, 3))
    x = pooled.reshape(m, -1)
    d = x.shape[1]
    dh = d // heads
    for layer in range(cfg["encoderLayers"]):
        t = {k: tensors[f"layer{layer}.{k}"] for k in (
            "query.weight", "query.bias", "key.weight", "key.bias", "value.weight",
            "value.bias", "out.weight", "out.bias", "ffn1.weight", "ffn1.bias",
            "ffn2.weight", "ffn2.bias", "norm1.gamma", "norm1.beta", "norm2.gamma",
            "norm2.beta")}
        q = (x @ t["query.weight"] + t["query.bias"]).reshape(m, heads, dh).transpose(1, 0, 2)
        k = (x @ t["key.weight"] + t["key.bias"]).reshape(m, heads, dh).transpose(1, 0, 2)
        v = (x @ t["value.weight"] + t["value.bias"]).reshape(m, heads, dh).transpose(1, 0, 2)
        attn = _softmax(q @ k.transpose(0, 2, 1) / math.sqrt(dh))
        mixed = (attn @ v).transpose(1, 0, 2).reshape(m, d)
        x = _layer_norm(x + mixed @ t["out.weight"] + t["out.bias"],
                        t["norm1.gamma"], t["norm1.beta"])
        hidden = np.maximum(x @ t["ffn1.weight"] + t["ffn1.bias"], 0.0)
        x = _layer_norm(x + hidden @ t["ffn2.weight"] + t["ffn2.bias"],
                        t["norm2.gamma"], t["norm2.beta"])
    grid = x.reshape(m, -1, ph, pw)
    up = np.einsum("yi,mcij,xj->mcyx", _upsample_weights(ph, h), grid, _upsample_weights(pw, w))
    enhanced = (np.einsum("oc,mchw->mohw", tensors["recover.weight"][:, :, 0, 0], up)
                + tensors["recover.bias"][None, :, None, None])
    context = sum(tensors[f"context{i}.weight"][:, :, 0, 0] @ level.mean(axis=(1, 2))
                  + tensors[f"context{i}.bias"] for i, level in enumerate(pyramid))
    return roi + enhanced + context[None, :, None, None]
