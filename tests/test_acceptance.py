"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is pinned here; the oracles are independent of the code
paths they check (scipy correlations, sequential re-implementations,
exhaustive enumeration, finite differences).
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import signal

from textdetkit import formats
from textdetkit.cli import main
from textdetkit.evaluate import GroundTruthSet, compute_metrics, match_detections, region_iou
from textdetkit.geometry import (
    BitMask,
    Polygon,
    iou_box,
    iou_mask,
    iou_polygon,
    mask_to_polygons,
    polygon_to_mask,
)
from textdetkit.instance_attention import AttentionConfig, forward, transformer_encoder
from textdetkit.losses import binary_cross_entropy, smooth_l1, softmax_cross_entropy
from textdetkit.multipath import CascadeConfig, cascade_forward
from textdetkit.ndtensor import Conv2dKernel, adaptive_max_pool, bilinear_upsample, conv2d
from textdetkit.pseudolabel import (
    FusionConfig,
    ScoredDetection,
    fuse_detections,
)
from textdetkit.suppress import DetectionSet, SuppressConfig, nms

from conftest import (
    naive_adaptive_max_pool,
    naive_bilinear_upsample,
    naive_conv2d,
    random_blob_mask,
    random_detections,
)
from test_losses import check_gradient
from test_pseudolabel import oracle_fuse
from test_suppress import oracle_mask_iou, oracle_soft_nms


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def scipy_conv_same(x, kern):
    out = np.zeros((kern.out_channels,) + x.shape[1:])
    for o in range(kern.out_channels):
        for c in range(kern.in_channels):
            out[o] += signal.correlate2d(x[c], kern.weights[o, c], mode="same",
                                         boundary="fill")
        out[o] += kern.bias[o]
    return out


def compose_full(outer, inner):
    """Effective kernel of applying ``inner`` then ``outer`` (full convolution
    over the spatial taps, contracted over the middle channels)."""
    co, cm = outer.shape[0], outer.shape[1]
    ci = inner.shape[1]
    kh = inner.shape[2] + outer.shape[2] - 1
    kw = inner.shape[3] + outer.shape[3] - 1
    out = np.zeros((co, ci, kh, kw))
    for o in range(co):
        for c in range(ci):
            for m in range(cm):
                out[o, c] += signal.convolve2d(outer[o, m], inner[m, c], mode="full")
    return out


def pad_centered(kern, kh, kw):
    """Embed a centered (odd-extent) kernel into a larger odd frame."""
    ph = (kh - kern.shape[2]) // 2
    pw = (kw - kern.shape[3]) // 2
    return np.pad(kern, ((0, 0), (0, 0), (ph, ph), (pw, pw)))


def test_criterion_1_path_decomposition():
    """Linear-mode cascade equals the sum of the 27 branch-choice paths."""
    start = time.monotonic()
    ok = True
    interior_ok = True
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        cfg = CascadeConfig.random(4, rng, kernel_sizes=(7, 5, 3),
                                   bias_scale=0.0, residual=False)
        x = rng.normal(size=(4, 16, 16))

        branch_sets = [[b.vertical, b.horizontal, b.square] for b in cfg.blocks]
        path_sum = np.zeros_like(x)
        composed_sum = np.zeros((4, 4, 13, 13))
        for choice in itertools.product(*branch_sets):
            y = x
            for kern in choice:
                y = scipy_conv_same(y, kern)
            path_sum += y
            eff = compose_full(choice[1].weights, choice[0].weights)
            eff = compose_full(choice[2].weights, eff)
            composed_sum += pad_centered(eff, 13, 13)

        got = cascade_forward(x, cfg)
        ok &= np.max(np.abs(got - path_sum)) <= 1e-9

        with_residual = CascadeConfig(blocks=cfg.blocks, residual=True)
        got_res = cascade_forward(x, with_residual)
        ok &= np.max(np.abs(got_res - (path_sum + x))) <= 1e-9

        # the single composed 13x13 kernel agrees away from the zero-padding
        # border (same-padding truncation between blocks only touches pixels
        # within r2 + r3 = 3 of the edge)
        composed_kernel = Conv2dKernel(composed_sum, np.zeros(4))
        via_composed = scipy_conv_same(x, composed_kernel)
        interior = (slice(None), slice(3, 13), slice(3, 13))
        interior_ok &= np.max(np.abs(got[interior] - via_composed[interior])) <= 1e-9
    elapsed = time.monotonic() - start
    report(1, "27-path decomposition", ok and interior_ok and elapsed < 30.0)


def test_criterion_2_pseudo_label_oracle():
    """Ensemble fusion equals the exhaustive-enumeration oracle, 100 trios."""
    start = time.monotonic()
    cfg = FusionConfig()  # defaults T = 0.8, alpha = 0.5
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        det_a = random_detections(rng, int(rng.integers(0, 21)), 64, 64)
        det_b = random_detections(rng, int(rng.integers(0, 21)), 64, 64, jitter=1)
        det_c = random_detections(rng, int(rng.integers(0, 21)), 64, 64, jitter=2)
        # overlay copies of some anchors so matches above T = 0.8 exist,
        # keeping every set at <= 20 detections
        for d in det_a[: len(det_a) // 2]:
            det_b.append(ScoredDetection.from_mask(d.mask, float(rng.uniform(0.1, 1))))
        for d in det_a[: len(det_a) // 3]:
            det_c.append(ScoredDetection.from_mask(d.mask, float(rng.uniform(0.1, 1))))
        det_b = det_b[:20]
        det_c = det_c[:20]
        got = sorted(
            (l.mask.bits.tobytes(), l.box.as_tuple(), l.weight)
            for l in fuse_detections(det_a, det_b, det_c, cfg).labels
        )
        want = sorted(oracle_fuse(det_a, det_b, det_c, cfg.iou_threshold, cfg.alpha))
        ok &= got == want

    bits = np.zeros((64, 64), dtype=bool)
    bits[8:24, 8:40] = True
    mask = BitMask.from_array(bits)
    triple = fuse_detections(
        [ScoredDetection.from_mask(mask, 0.9)],
        [ScoredDetection.from_mask(mask, 0.8)],
        [ScoredDetection.from_mask(mask, 0.9)],
        cfg,
    ).labels
    ok &= len(triple) == 1 and abs(triple[0].weight - 0.648) <= 1e-12
    pair = fuse_detections(
        [ScoredDetection.from_mask(mask, 0.9)],
        [ScoredDetection.from_mask(mask, 0.8)],
        [],
        cfg,
    ).labels
    ok &= len(pair) == 1 and abs(pair[0].weight - 0.36) <= 1e-12
    elapsed = time.monotonic() - start
    report(2, "ensemble fusion oracle equivalence", ok and elapsed < 60.0)


def test_criterion_3_attention_contracts():
    """Permutation equivariance, attention row sums, default output shape."""
    start = time.monotonic()
    rng = np.random.default_rng(3000)
    cfg = AttentionConfig.random(rng, pyramid_channels=[256, 256])
    pyramid = [rng.normal(size=(256, 8, 8)), rng.normal(size=(256, 4, 4))]
    ok = True
    for m in (2, 5, 9):
        f = rng.normal(size=(m, 256, 14, 14))
        out, maps = forward(f, pyramid, cfg, return_attention=True)
        ok &= out.shape == (m, 256, 14, 14)
        for layer_maps in maps:
            ok &= np.max(np.abs(layer_maps.sum(axis=-1) - 1.0)) <= 1e-9
        perm = rng.permutation(m)
        out_perm = forward(f[perm], pyramid, cfg)
        ok &= np.max(np.abs(out_perm - out[perm])) <= 1e-9
    elapsed = time.monotonic() - start
    report(3, "instance-attention contracts", ok and elapsed < 10.0)


def test_criterion_4_kernel_oracles():
    """conv2d / adaptive_max_pool / bilinear_upsample match brute force, 50 each."""
    ok = True
    for seed in range(50):
        rng = np.random.default_rng(4000 + seed)
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 4))
        h, w = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        kh = int(rng.choice([1, 3, 5]))
        kw = int(rng.choice([1, 3, 5]))
        x = rng.normal(size=(c_in, h, w))
        kern = Conv2dKernel.random(c_out, c_in, kh, kw, rng)
        ok &= np.max(np.abs(conv2d(x, kern) - naive_conv2d(x, kern.weights, kern.bias))) <= 1e-12

        ph, pw = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
        ok &= np.array_equal(adaptive_max_pool(x, ph, pw),
                             naive_adaptive_max_pool(x, ph, pw))

        uh, uw = int(rng.integers(h, 3 * h)), int(rng.integers(w, 3 * w))
        ok &= np.max(np.abs(bilinear_upsample(x, uh, uw)
                            - naive_bilinear_upsample(x, uh, uw))) <= 1e-12
    report(4, "conv/pool/interp oracle equality", ok)


def test_criterion_5_gradient_checks():
    """Analytic gradients vs central finite differences, rel err < 1e-4."""
    rng = np.random.default_rng(5000)
    ok = True
    try:
        pred = rng.normal(size=(10, 10)) * 2
        target = rng.normal(size=(10, 10)) * 2
        res = smooth_l1(pred, target)
        check_gradient(lambda p: smooth_l1(p, target).value, pred, res.gradient,
                       probes=100, rng=rng,
                       skip=lambda idx: abs(abs((pred - target)[idx]) - 1.0) < 0.05)

        probs = rng.uniform(0.05, 0.95, size=(10, 10))
        labels = (rng.random(size=(10, 10)) < 0.5).astype(float)
        res = binary_cross_entropy(probs, labels)
        check_gradient(lambda p: binary_cross_entropy(p, labels).value, probs,
                       res.gradient, probes=100, rng=rng)

        logits = rng.normal(size=(20, 5)) * 3
        classes = rng.integers(0, 5, size=20)
        res = softmax_cross_entropy(logits, classes)
        check_gradient(lambda l: softmax_cross_entropy(l, classes).value, logits,
                       res.gradient, probes=100, rng=rng)
    except AssertionError:
        ok = False
    report(5, "loss gradient checks", ok)


def test_criterion_6_geometry():
    """Shifted-square IoU = 1/3; contour round-trips; IoU symmetry."""
    ok = True
    square = Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))
    ok &= abs(iou_polygon(square, square.translated(0.5, 0.0)) - 1.0 / 3.0) <= 1e-12

    rng = np.random.default_rng(6000)
    for _ in range(50):
        mask = random_blob_mask(rng, 64, 64)
        rebuilt = np.zeros((64, 64), dtype=bool)
        for poly in mask_to_polygons(mask):
            rebuilt |= polygon_to_mask(poly, 64, 64).bits
        ok &= np.array_equal(rebuilt, mask.bits)

    for i in range(200):
        op = i % 3
        if op == 0:
            a = random_blob_mask(rng, 24, 24)
            b = random_blob_mask(rng, 24, 24)
            ok &= iou_mask(a, b) == iou_mask(b, a)
        elif op == 1:
            x0, x1 = sorted(rng.uniform(0, 20, 2))
            y0, y1 = sorted(rng.uniform(0, 20, 2))
            u0, u1 = sorted(rng.uniform(0, 20, 2))
            v0, v1 = sorted(rng.uniform(0, 20, 2))
            from textdetkit.geometry import AxisBox
            a = AxisBox(x0, y0, x1 + 1, y1 + 1)
            b = AxisBox(u0, v0, u1 + 1, v1 + 1)
            ok &= iou_box(a, b) == iou_box(b, a)
        else:
            pa = mask_to_polygons(random_blob_mask(rng, 20, 20))[0]
            pb = mask_to_polygons(random_blob_mask(rng, 20, 20))[0]
            ok &= iou_polygon(pa, pb) == iou_polygon(pb, pa)
    report(6, "geometry contracts", ok)


def test_criterion_7_soft_nms_oracle():
    """Soft NMS equals the sequential-recomputation oracle, 50 random sets."""
    ok = True
    for seed in range(50):
        rng = np.random.default_rng(7000 + seed)
        mode = "soft-linear" if seed % 2 == 0 else "soft-gaussian"
        cfg = SuppressConfig(mode=mode, iou_threshold=0.4, sigma=0.6)
        dets = random_detections(rng, int(rng.integers(2, 16)), 48, 48)
        got = nms(dets, cfg)
        want = oracle_soft_nms(dets, cfg)
        ok &= len(got) == len(want)
        if ok:
            for det, (score, idx) in zip(got, want):
                ok &= det.mask == dets[idx].mask and abs(det.score - score) <= 1e-12

    bits = np.zeros((48, 48), dtype=bool)
    bits[4:20, 4:20] = True
    mask = BitMask.from_array(bits)
    pair = [ScoredDetection.from_mask(mask, 0.9), ScoredDetection.from_mask(mask, 0.8)]
    kept = nms(pair, SuppressConfig(mode="soft-linear"))
    ok &= len(kept) == 1 and kept[0].score == 0.9
    report(7, "soft-NMS oracle equality", ok)


def test_criterion_8_evaluation():
    """Handcrafted metric fixtures plus greedy-vs-assignment agreement."""
    ok = True
    canvas = 64

    def square_det(x0, y0, size, score=0.9):
        bits = np.zeros((canvas, canvas), dtype=bool)
        bits[y0:y0 + size, x0:x0 + size] = True
        return ScoredDetection.from_mask(BitMask.from_array(bits), score)

    d1 = square_det(4, 4, 10)
    d2 = square_det(36, 36, 12)
    polys = mask_to_polygons(d1.mask) + mask_to_polygons(d2.mask)
    gt = GroundTruthSet("img", polys, [False, False], image_width=canvas, image_height=canvas)

    full = DetectionSet("img", [d1, d2], image_width=canvas, image_height=canvas)
    res = match_detections(gt, full)
    rep = compute_metrics(res.matches, res.effective_gt, res.effective_det)
    ok &= rep.recall == 1.0 and rep.precision == 1.0 and rep.f_measure == 1.0

    half = DetectionSet("img", [d1], image_width=canvas, image_height=canvas)
    res = match_detections(gt, half)
    rep = compute_metrics(res.matches, res.effective_gt, res.effective_det)
    ok &= (abs(rep.recall - 0.5) <= 1e-9 and abs(rep.precision - 1.0) <= 1e-9
           and abs(rep.f_measure - 2.0 / 3.0) <= 1e-9)

    from test_evaluate import brute_force_matching
    rng = np.random.default_rng(8000)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        gt_polys = []
        tries = 0
        while len(gt_polys) < n and tries < 60:
            tries += 1
            x0 = float(rng.uniform(1, canvas - 14))
            y0 = float(rng.uniform(1, canvas - 14))
            s = float(rng.uniform(6, 11))
            cand = Polygon(((x0, y0), (x0 + s, y0), (x0 + s, y0 + s), (x0, y0 + s)))
            if all(region_iou(cand, [p]) < 0.05 for p in gt_polys):
                gt_polys.append(cand)
        dets = []
        for p in gt_polys:
            dx, dy = rng.uniform(-1.5, 1.5, size=2)
            dets.append(ScoredDetection.from_mask(
                polygon_to_mask(p.translated(dx, dy), canvas, canvas),
                float(rng.uniform(0.5, 1.0))))
        gt_rand = GroundTruthSet("img", gt_polys, [False] * len(gt_polys),
                                 image_width=canvas, image_height=canvas)
        det_rand = DetectionSet("img", dets, image_width=canvas, image_height=canvas)
        result = match_detections(gt_rand, det_rand, iou_thresh=0.5)
        regions = [mask_to_polygons(d.mask) for d in dets]
        matrix = np.zeros((len(gt_polys), len(dets)))
        for g, p in enumerate(gt_polys):
            for d, pieces in enumerate(regions):
                matrix[g, d] = region_iou(p, pieces)
        count, _, pairs = brute_force_matching(matrix, 0.5)
        ok &= len(result.matches) == count
        ok &= {(g, d) for g, d, _ in result.matches} == set(pairs)
    report(8, "evaluation protocol", ok)


def test_criterion_9_cli_determinism(tmp_path):
    """fuse -> nms -> eval on a small corpus: byte-identical across 3 runs
    and equal to the in-process library composition."""
    ok = True
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    canvas = 48
    rng = np.random.default_rng(9000)
    images = []
    for i in range(3):
        image_id = f"fixture-{i:03d}"
        base = random_detections(rng, 4, canvas, canvas)
        variants = []
        for tag in ("a", "b", "c"):
            dets = [
                ScoredDetection.from_mask(d.mask, float(min(d.score * rng.uniform(0.8, 1.0) + 0.05, 1.0)))
                for d in base
            ]
            extra = random_detections(rng, 1, canvas, canvas)
            det_set = DetectionSet(image_id, dets + extra, source_tag=f"model-{tag}",
                                   image_width=canvas, image_height=canvas)
            path = corpus / f"{image_id}_{tag}.json"
            formats.save_detection_file(path, det_set)
            variants.append(path)
        gt_polys = []
        flags = []
        for d in base[:3]:
            gt_polys.extend(mask_to_polygons(d.mask))
            flags.extend([False] * (len(gt_polys) - len(flags)))
        gt = GroundTruthSet(image_id, gt_polys, flags, image_width=canvas, image_height=canvas)
        gt_path = corpus / f"{image_id}_gt.json"
        formats.save_ground_truth_file(gt_path, gt)
        images.append((image_id, variants, gt_path))

    def run_pipeline(out_dir):
        out_dir.mkdir()
        produced = []
        for image_id, (pa, pb, pc), gt_path in images:
            labels = out_dir / f"{image_id}_labels.json"
            merged = out_dir / f"{image_id}_merged.json"
            report_path = out_dir / f"{image_id}_report.json"
            assert main(["fuse", "--det-a", str(pa), "--det-b", str(pb),
                         "--det-c", str(pc), "--out", str(labels)]) == 0
            assert main(["nms", "--in", str(pa), str(pb), str(pc),
                         "--mode", "soft-linear", "--out", str(merged)]) == 0
            assert main(["eval", "--gt", str(gt_path), "--det", str(merged),
                         "--report", str(report_path)]) == 0
            produced.extend([labels, merged, report_path])
        return [p.read_bytes() for p in produced]

    runs = [run_pipeline(tmp_path / f"run{i}") for i in range(3)]
    ok &= runs[0] == runs[1] == runs[2]

    # library composition must produce the same files byte for byte
    lib_dir = tmp_path / "lib"
    lib_dir.mkdir()
    lib_bytes = []
    for image_id, (pa, pb, pc), gt_path in images:
        sets = [formats.load_detection_file(p) for p in (pa, pb, pc)]
        outcome = fuse_detections(sets[0].detections, sets[1].detections,
                                  sets[2].detections, FusionConfig())
        labels = lib_dir / f"{image_id}_labels.json"
        formats.save_weighted_label_file(labels, outcome.labels, image_id=image_id,
                                         width=canvas, height=canvas)
        from textdetkit.suppress import multi_scale_aggregate
        merged_set = multi_scale_aggregate(sets, SuppressConfig(mode="soft-linear"))
        merged = lib_dir / f"{image_id}_merged.json"
        formats.save_detection_file(merged, merged_set)
        gt = formats.load_ground_truth_file(gt_path)
        det = formats.load_detection_file(merged)
        result = match_detections(gt, det, iou_thresh=0.5)
        rep = compute_metrics(result.matches, result.effective_gt,
                              result.effective_det, image_id=image_id)
        report_path = lib_dir / f"{image_id}_report.json"
        formats.write_canonical(report_path, {
            "schemaVersion": formats.SCHEMA_VERSION,
            "iouThreshold": 0.5,
            "recall": rep.recall,
            "precision": rep.precision,
            "fMeasure": rep.f_measure,
            "truePositives": rep.true_positives,
            "gtCount": rep.gt_count,
            "detCount": rep.det_count,
            "flags": list(rep.undefined),
            "matchedPairs": [
                {"imageId": img, "gt": g, "det": d, "iou": iou}
                for img, g, d, iou in rep.matched_pairs
            ],
        })
        lib_bytes.extend([labels.read_bytes(), merged.read_bytes(), report_path.read_bytes()])
    ok &= runs[0] == lib_bytes
    report(9, "CLI pipeline determinism", ok)
