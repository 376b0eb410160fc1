"""The benchmark's three workloads: seeded inputs, CLI steps and output checks.

A workload is a list of frames (images). Each frame has input files, which
``write_inputs`` puts on disk with the public writers of the formats module
it is given, and a fixed sequence of CLI steps. Every step carries a check
that reads the step's output back through the library's public readers and
compares the decoded content with the reference that ``oracles`` computed
when the inputs were generated.

Sizes are chosen so one run, including three set-ups, fits in well under a
minute on a 2-CPU machine while each step still does the kind of work the
full-size inputs would; see perfbench/metadata.json for the cost profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import textdetkit
from textdetkit import formats

import oracles
from oracles import Crop


@dataclass
class Step:
    label: str                       # command name used in the reports
    argv: list
    output: str                      # file the command writes
    check: Callable[[], str | None]  # None when the output matches the reference


@dataclass
class Frame:
    name: str
    steps: list = field(default_factory=list)


@dataclass
class Workload:
    name: str
    steps: tuple                     # step labels, in per-image order
    frames: list
    write_inputs: Callable          # write_inputs(formats_module)


def _mismatch(what, got, want):
    return f"{what}: got {got!r}, expected {want!r}"


def _same_mask(bits: np.ndarray, crop: Crop) -> bool:
    h, w = crop.bits.shape
    window = bits[crop.y0:crop.y0 + h, crop.x0:crop.x0 + w]
    return window.shape == crop.bits.shape and np.array_equal(window, crop.bits) \
        and int(bits.sum()) == crop.count


# ---------------------------------------------------------------------------
# ensemble-mask: fuse + soft NMS over RLE masks


def _ellipse(cx, cy, a, b, theta) -> Crop:
    c, s = math.cos(theta), math.sin(theta)
    ex = math.hypot(a * c, b * s)
    ey = math.hypot(a * s, b * c)
    x0, y0 = int(math.floor(cx - ex)), int(math.floor(cy - ey))
    x1, y1 = int(math.ceil(cx + ex)) + 1, int(math.ceil(cy + ey)) + 1
    xs = np.arange(x0, x1) + 0.5 - cx
    ys = (np.arange(y0, y1) + 0.5 - cy)[:, None]
    u = xs * c + ys * s
    v = -xs * s + ys * c
    return Crop(x0, y0, (u / a) ** 2 + (v / b) ** 2 <= 1.0)


# (width, height, grid columns, grid rows, objects, duplicate proposals in
# model A, false positives per model): a sparse full-HD-ish frame whose masks
# outgrow L2, and a dense quarter-size frame whose masks fit in it.
MASK_FRAMES = (
    (1280, 720, 4, 3, 8, 0, 1),
    (640, 360, 6, 4, 18, 4, 2),
)


def _mask_frame(rng, width, height, cols, rows, n_obj, n_dup, n_fp):
    """Three models' detections as [(Crop, box, score)] lists."""
    cw, ch = width / cols, height / rows
    cells = rng.permutation(cols * rows)
    shapes = []
    for slot, cell in enumerate(cells[:n_obj + 3 * n_fp]):
        # Sizes come from a fixed table, so the pixel work of a frame does not
        # depend on the seed; the seed moves, turns and perturbs the shapes.
        cx = (cell % cols + 0.5) * cw + rng.uniform(-0.04, 0.04) * cw
        cy = (cell // cols + 0.5) * ch + rng.uniform(-0.04, 0.04) * ch
        a = (0.28 + 0.1 * (slot % 5) / 4) * cw
        b = min((0.22 + 0.1 * (slot % 3) / 2) * ch, 0.45 * a)
        shapes.append((cx, cy, a, b, rng.uniform(-0.25, 0.25)))

    def detect(shape, spread, lo, hi):
        cx, cy, a, b, th = shape
        crop = _ellipse(cx + rng.normal(0, spread * a), cy + rng.normal(0, spread * b),
                        a * rng.uniform(0.97, 1.03), b * rng.uniform(0.97, 1.03),
                        th + rng.normal(0, 0.02))
        return (crop, crop.box(), float(rng.uniform(lo, hi)))

    models = [[], [], []]
    for i, shape in enumerate(shapes[:n_obj]):
        for m in range(3):
            if (m, i % 4) not in ((1, 1), (2, 2)):  # B and C each miss a quarter
                models[m].append(detect(shape, 0.02, 0.55, 0.98))
        if i < n_dup:
            models[0].append(detect(shape, 0.08, 0.25, 0.5))
    for m in range(3):
        for shape in shapes[n_obj + m * n_fp:n_obj + (m + 1) * n_fp]:
            models[m].append(detect(shape, 0.0, 0.2, 0.6))
    return [[dets[i] for i in rng.permutation(len(dets))] for dets in models]


def ensemble_mask(rng, work) -> Workload:
    frames, sets = [], []
    for f, (width, height, *layout) in enumerate(MASK_FRAMES):
        models = _mask_frame(rng, width, height, *layout)
        image_id = f"mask-frame-{f}"
        paths = [str(work / f"f{f}-model{m}.json") for m in range(3)]
        for m, (dets, path) in enumerate(zip(models, paths)):
            lib_dets = [textdetkit.ScoredDetection(
                mask=textdetkit.BitMask(width, height, crop.full(width, height)),
                box=textdetkit.AxisBox(*box), score=score) for crop, box, score in dets]
            sets.append((path, textdetkit.DetectionSet(
                image_id=image_id, detections=lib_dets, source_tag=f"model{m}",
                image_width=width, image_height=height)))
        labels, counts = oracles.fuse(*models)
        merged = models[0] + models[1] + models[2]
        kept = oracles.soft_nms_linear(merged)
        fused, nmsed = str(work / f"f{f}-fused.json"), str(work / f"f{f}-nms.json")
        frames.append(Frame(f"f{f}-{width}x{height}", [
            Step("fuse", ["fuse", "--det-a", paths[0], "--det-b", paths[1],
                          "--det-c", paths[2], "--out", fused],
                 fused, _check_labels(fused, labels, width, height)),
            Step("nms", ["nms", "--in", *paths, "--out", nmsed],
                 nmsed, _check_suppressed(nmsed, merged, kept)),
        ]))

    def write_inputs(fmt):
        for path, det_set in sets:
            fmt.save_detection_file(path, det_set)

    return Workload("ensemble-mask", ("fuse", "nms"), frames, write_inputs)


def _check_labels(path, expected, width, height):
    def check():
        got = formats.load_weighted_label_file(path)
        if len(got.labels) != len(expected):
            return _mismatch("label count", len(got.labels), len(expected))
        raw = formats.read_json(path)["labels"]
        for i, (label, record, (crop, box, weight)) in enumerate(
                zip(got.labels, raw, expected)):
            if label.weight != weight:
                return _mismatch(f"label {i} weight", label.weight, weight)
            if label.box.as_tuple() != box:
                return _mismatch(f"label {i} box", label.box.as_tuple(), box)
            if not _same_mask(label.mask.bits, crop):
                return f"label {i}: mask differs from the fused reference"
            # the contours stored beside the mask must rasterize back to it
            drawn = np.zeros((height, width), bool)
            for poly in record["polygons"]:
                piece = oracles.rasterize(poly, width, height)
                h, w = piece.bits.shape
                drawn[piece.y0:piece.y0 + h, piece.x0:piece.x0 + w] |= piece.bits
            if not _same_mask(drawn, crop):
                return f"label {i}: contour polygons do not rasterize to the mask"
        return None
    return check


def _check_suppressed(path, merged, kept):
    def check():
        got = formats.load_detection_file(path).detections
        if len(got) != len(kept):
            return _mismatch("kept detections", len(got), len(kept))
        for rank, (det, (idx, score)) in enumerate(zip(got, kept)):
            crop, box, _ = merged[idx]
            if det.score != score:
                return _mismatch(f"detection {rank} score", det.score, score)
            if det.box.as_tuple() != box:
                return _mismatch(f"detection {rank} box", det.box.as_tuple(), box)
            if not _same_mask(det.mask.bits, crop):
                return f"detection {rank}: mask differs from input detection {idx}"
        return None
    return check


# ---------------------------------------------------------------------------
# curved-eval: hard box NMS over polygon records, then polygon-IoU evaluation


def _curved(cx, cy, length, height, bend, angle, n=8):
    """16-vertex band around a parabolic centerline: top side, then bottom."""
    c, s = math.cos(angle), math.sin(angle)
    top, bottom = [], []
    for t in np.linspace(-0.5, 0.5, n):
        px, py = t * length, bend * (1.0 - 4.0 * t * t)
        nx, ny = 8.0 * bend * t, length  # normal of the centerline, scaled
        norm = math.hypot(nx, ny)
        for side, sign in ((top, -1.0), (bottom, 1.0)):
            qx = px + sign * nx / norm * height / 2
            qy = py + sign * ny / norm * height / 2
            side.append((float(cx + qx * c - qy * s), float(cy + qx * s + qy * c)))
    return top + bottom[::-1]


CURVED_FRAME = (1280, 720, 4, 3)  # width, height, grid columns, rows
# Per ground-truth slot: length (share of a cell width), height (px), bend (px)
# and tilt (rad). Slot g sits in grid cell g and the false positives in the
# cells after the last slot. Clipping cost follows the number of distinct
# y-levels and, through early exits, where the pieces lie relative to each
# other, so sizes and layout are fixed and the seed only moves shapes by a
# few pixels, mirrors them and perturbs the detections. The last row is the
# false-positive shape.
CURVED_SHAPES = ((0.55, 24, 6, 0.0), (0.6, 28, 10, 0.02), (0.65, 32, 14, 0.04),
                 (0.7, 36, 16, 0.06), (0.75, 28, 12, 0.08), (0.8, 24, 8, 0.03),
                 (0.6, 30, 16, 0.05), (0.7, 32, 12, 0.07), (0.6, 28, 12, 0.04))
IGNORED, MISSED = (5, 6), 7  # two don't-care regions, one text no model finds


def _curved_frame(rng):
    width, height, cols, rows = CURVED_FRAME
    cw, ch = width / cols, height / rows
    n_gt = len(CURVED_SHAPES) - 1

    def shape(cell, slot):
        length, thick, bend, tilt = CURVED_SHAPES[slot]
        sign = rng.choice((-1.0, 1.0))  # one sign for both: a mirror image costs the same
        return _curved((cell % cols + 0.5) * cw + rng.uniform(-8, 8),
                       (cell // cols + 0.5) * ch + rng.uniform(-8, 8),
                       length * cw, thick, sign * bend, sign * tilt)

    gts = [shape(g, g) for g in range(n_gt)]
    ignore = [g in IGNORED for g in range(n_gt)]
    missed = MISSED
    models = []
    for m in range(3):
        dets = []
        for g, poly in enumerate(gts):
            if g == missed:
                continue
            dx, dy = rng.normal(0, 1.5, 2)
            dets.append([(x + dx + rng.normal(0, 1.0), y + dy + rng.normal(0, 1.0))
                         for x, y in poly])
        dets.append(shape(n_gt + m, n_gt))  # a false positive in a free cell
        models.append([(poly, float(rng.uniform(0.5, 0.98)))
                       for poly in (dets[i] for i in rng.permutation(len(dets)))])
    return gts, ignore, models


def _poly_box(poly):
    xs, ys = [p[0] for p in poly], [p[1] for p in poly]
    return (float(math.floor(min(xs))), float(math.floor(min(ys))),
            float(math.ceil(max(xs))), float(math.ceil(max(ys))))


def curved_eval(rng, work) -> Workload:
    width, height = CURVED_FRAME[:2]
    frames, docs, gt_sets = [], [], []
    for f in range(2):
        gts, ignore, models = _curved_frame(rng)
        image_id = f"curved-frame-{f}"
        paths = [str(work / f"f{f}-model{m}.json") for m in range(3)]
        for m, (dets, path) in enumerate(zip(models, paths)):
            docs.append((path, {
                "schemaVersion": formats.SCHEMA_VERSION, "imageId": image_id,
                "imageWidth": width, "imageHeight": height, "sourceTag": f"model{m}",
                "scaleFactor": 1.0,
                "detections": [{"box": list(_poly_box(poly)), "score": score,
                                "polygons": [[list(p) for p in poly]]}
                               for poly, score in dets],
            }))
        gt_path = str(work / f"f{f}-gt.json")
        gt_sets.append((gt_path, textdetkit.GroundTruthSet(
            image_id=image_id, instances=[textdetkit.Polygon(tuple(p)) for p in gts],
            ignore_flags=ignore, image_width=width, image_height=height)))
        merged = [d for dets in models for d in dets]
        kept = oracles.hard_nms_box([_poly_box(p) for p, _ in merged], [s for _, s in merged])
        crops = [oracles.rasterize(merged[i][0], width, height) for i in kept]
        report = oracles.evaluate(gts, ignore, crops)
        nmsed = str(work / f"f{f}-nms.json")
        report_path = str(work / f"f{f}-report.json")
        frames.append(Frame(f"f{f}-{width}x{height}", [
            Step("nms", ["nms", "--mode", "hard", "--iou-mode", "box", "--in", *paths,
                         "--out", nmsed],
                 nmsed, _check_hard_nms(nmsed, merged, kept, crops)),
            Step("eval", ["eval", "--gt", gt_path, "--det", nmsed, "--iou", "0.5",
                          "--report", report_path],
                 report_path, _check_report(report_path, report)),
        ]))

    def write_inputs(fmt):
        for path, doc in docs:
            fmt.write_canonical(path, doc)
        for path, gt in gt_sets:
            fmt.save_ground_truth_file(path, gt)

    return Workload("curved-eval", ("nms", "eval"), frames, write_inputs)


def _check_hard_nms(path, merged, kept, crops):
    def check():
        got = formats.load_detection_file(path).detections
        if len(got) != len(kept):
            return _mismatch("kept detections", len(got), len(kept))
        for rank, (det, idx, crop) in enumerate(zip(got, kept, crops)):
            poly, score = merged[idx]
            if det.score != score:
                return _mismatch(f"detection {rank} score", det.score, score)
            if det.box.as_tuple() != _poly_box(poly):
                return _mismatch(f"detection {rank} box", det.box.as_tuple(), _poly_box(poly))
            if not _same_mask(det.mask.bits, crop):
                return f"detection {rank}: mask differs from the rasterized polygon {idx}"
        return None
    return check


IOU_TOLERANCE = 1e-9  # the reference integrates areas in another order


def _check_report(path, want):
    def check():
        got = formats.read_json(path)
        for key in ("truePositives", "gtCount", "detCount", "recall", "precision", "fMeasure"):
            if got.get(key) != want[key]:
                return _mismatch(key, got.get(key), want[key])
        pairs = [(p["gt"], p["det"], p["iou"]) for p in got.get("matchedPairs", [])]
        if [p[:2] for p in pairs] != [m[:2] for m in want["matches"]]:
            return _mismatch("matched pairs", [p[:2] for p in pairs],
                             [m[:2] for m in want["matches"]])
        for (g, d, iou), (_, _, ref) in zip(pairs, want["matches"]):
            if not abs(iou - ref) <= IOU_TOLERANCE:
                return _mismatch(f"IoU of gt {g} / det {d}", iou, ref)
        return None
    return check


# ---------------------------------------------------------------------------
# forward-ref: both reference modules on tensor files

INTRA = {"channels": 24, "kernelSizes": [7, 5, 3], "activation": "relu", "residual": True}
INTRA_SIZES = (32, 40)                 # input height = width, per frame
INTER = {"channels": 32, "reducedChannels": 4, "roiHeight": 14, "roiWidth": 14,
         "poolHeight": 3, "poolWidth": 3, "encoderLayers": 3, "heads": 4, "ffnHidden": 144,
         "pyramidChannels": [32, 32, 32, 32]}
PYRAMID_SIZES = (32, 16, 8, 4)
INTER_ROIS = (9, 16)                   # instances per frame
FORWARD_TOLERANCE = 1e-9


def _intra_weights(rng):
    c = INTRA["channels"]
    tensors = {}
    for i, k in enumerate(INTRA["kernelSizes"]):
        scale = 0.9 / math.sqrt(c * (2 * k + k * k))
        for name, shape in (("vertical", (k, 1)), ("horizontal", (1, k)), ("square", (k, k))):
            tensors[f"block{i}.{name}.weight"] = rng.normal(0, scale, (c, c) + shape)
            tensors[f"block{i}.{name}.bias"] = rng.normal(0, 0.05, c)
    return tensors


def _inter_weights(rng):
    c, c0 = INTER["channels"], INTER["reducedChannels"]
    d = INTER["poolHeight"] * INTER["poolWidth"] * c0
    hidden = INTER["ffnHidden"]
    t = {"reduce.weight": rng.normal(0, 0.15, (c0, c, 1, 1)), "reduce.bias": rng.normal(0, 0.05, c0),
         "recover.weight": rng.normal(0, 0.3, (c, c0, 1, 1)), "recover.bias": rng.normal(0, 0.05, c)}
    for i in range(INTER["encoderLayers"]):
        for name in ("query", "key", "value", "out"):
            t[f"layer{i}.{name}.weight"] = rng.normal(0, 1 / math.sqrt(d), (d, d))
            t[f"layer{i}.{name}.bias"] = rng.normal(0, 0.05, d)
        t[f"layer{i}.ffn1.weight"] = rng.normal(0, 1 / math.sqrt(d), (d, hidden))
        t[f"layer{i}.ffn1.bias"] = rng.normal(0, 0.05, hidden)
        t[f"layer{i}.ffn2.weight"] = rng.normal(0, 1 / math.sqrt(hidden), (hidden, d))
        t[f"layer{i}.ffn2.bias"] = rng.normal(0, 0.05, d)
        for norm in ("norm1", "norm2"):
            t[f"layer{i}.{norm}.gamma"] = 1.0 + rng.normal(0, 0.05, d)
            t[f"layer{i}.{norm}.beta"] = rng.normal(0, 0.05, d)
    for i, cl in enumerate(INTER["pyramidChannels"]):
        t[f"context{i}.weight"] = rng.normal(0, 1 / math.sqrt(cl), (c, cl, 1, 1))
        t[f"context{i}.bias"] = rng.normal(0, 0.05, c)
    return t


def forward_ref(rng, work) -> Workload:
    files = []  # (path, tensors, module, config)
    intra_w, inter_w = _intra_weights(rng), _inter_weights(rng)
    intra_path, inter_path = str(work / "intra-weights.json"), str(work / "inter-weights.json")
    files += [(intra_path, intra_w, "intra", INTRA), (inter_path, inter_w, "inter", INTER)]
    frames = []
    for f, (size, m) in enumerate(zip(INTRA_SIZES, INTER_ROIS)):
        x = rng.normal(0, 1, (INTRA["channels"], size, size))
        roi = rng.normal(0, 1, (m, INTER["channels"], INTER["roiHeight"], INTER["roiWidth"]))
        pyramid = [rng.normal(0, 1, (cl, s, s))
                   for cl, s in zip(INTER["pyramidChannels"], PYRAMID_SIZES)]
        x_path, r_path = str(work / f"f{f}-intra-in.json"), str(work / f"f{f}-inter-in.json")
        files += [(x_path, {"input": x}, "tensors", None),
                  (r_path, {"roi": roi, **{f"pyramid.{i}": p for i, p in enumerate(pyramid)}},
                   "tensors", None)]
        want_intra = oracles.cascade(x, intra_w, INTRA["kernelSizes"])
        want_inter = oracles.instance_attention(roi, pyramid, inter_w, INTER)
        out_i, out_r = str(work / f"f{f}-intra-out.json"), str(work / f"f{f}-inter-out.json")
        frames.append(Frame(f"f{f}-{size}px-{m}rois", [
            Step("forward_intra", ["forward", "--module", "intra", "--weights", intra_path,
                                   "--input", x_path, "--out", out_i],
                 out_i, _check_tensor(out_i, want_intra)),
            Step("forward_inter", ["forward", "--module", "inter", "--weights", inter_path,
                                   "--input", r_path, "--out", out_r],
                 out_r, _check_tensor(out_r, want_inter)),
        ]))

    def write_inputs(fmt):
        for path, tensors, module, config in files:
            fmt.save_tensor_file(path, tensors, module=module, config=config)

    return Workload("forward-ref", ("forward_intra", "forward_inter"), frames, write_inputs)


def _check_tensor(path, want):
    def check():
        _, _, tensors = formats.load_tensor_file(path)
        got = tensors.get("output")
        if got is None or got.shape != want.shape:
            return _mismatch("output shape", None if got is None else got.shape, want.shape)
        err = float(np.max(np.abs(got - want)))
        if not err <= FORWARD_TOLERANCE:
            return f"output differs from the reference by {err:.3g} (> {FORWARD_TOLERANCE})"
        return None
    return check


BUILDERS = {"ensemble-mask": ensemble_mask, "curved-eval": curved_eval,
            "forward-ref": forward_ref}
