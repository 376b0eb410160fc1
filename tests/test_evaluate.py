import importlib
import itertools
import tracemalloc

import numpy as np
import pytest

from textdetkit.errors import GeometryError, ImageIdMismatch
from textdetkit.evaluate import (
    GroundTruthSet,
    compute_metrics,
    evaluate,
    _region,
    match_detections,
    region_iou,
)
from textdetkit.geometry import AxisBox, BitMask, Polygon, mask_to_polygons, polygon_to_mask
from textdetkit.pseudolabel import ScoredDetection
from textdetkit.suppress import DetectionSet

from conftest import fill_holes

CANVAS = 64


def square_poly(x0, y0, size):
    return Polygon(((x0, y0), (x0 + size, y0), (x0 + size, y0 + size), (x0, y0 + size)))


def detection_for(poly, score=0.9):
    mask = polygon_to_mask(poly, CANVAS, CANVAS)
    return ScoredDetection.from_mask(mask, score)


def gt_set(polys, ignore=None, image_id="img"):
    ignore = ignore or [False] * len(polys)
    return GroundTruthSet(image_id=image_id, instances=list(polys), ignore_flags=list(ignore),
                          image_width=CANVAS, image_height=CANVAS)


def det_set(dets, image_id="img"):
    return DetectionSet(image_id=image_id, detections=list(dets),
                        image_width=CANVAS, image_height=CANVAS)


def brute_force_matching(iou_matrix, thresh):
    """Best one-to-one assignment: max match count, then max total IoU."""
    n_gt, n_det = iou_matrix.shape
    best = (0, 0.0, [])
    dets = list(range(n_det))
    for count in range(min(n_gt, n_det), 0, -1):
        for gts in itertools.combinations(range(n_gt), count):
            for chosen in itertools.permutations(dets, count):
                total = 0.0
                ok = True
                for g, d in zip(gts, chosen):
                    if iou_matrix[g, d] < thresh:
                        ok = False
                        break
                    total += iou_matrix[g, d]
                if ok and (count, total) > (best[0], best[1]):
                    best = (count, total, list(zip(gts, chosen)))
        if best[0] == count:
            break
    return best


class TestMatching:
    def test_perfect_detection(self):
        polys = [square_poly(4, 4, 10), square_poly(30, 30, 12)]
        result = match_detections(gt_set(polys), det_set([detection_for(p) for p in polys]))
        report = compute_metrics(result.matches, result.effective_gt, result.effective_det)
        assert report.recall == 1.0
        assert report.precision == 1.0
        assert report.f_measure == 1.0

    def test_half_recall_fixture(self):
        polys = [square_poly(4, 4, 10), square_poly(30, 30, 12)]
        result = match_detections(gt_set(polys), det_set([detection_for(polys[0])]))
        report = compute_metrics(result.matches, result.effective_gt, result.effective_det)
        assert report.recall == 0.5
        assert report.precision == 1.0
        assert abs(report.f_measure - 2.0 / 3.0) <= 1e-9

    def test_image_id_mismatch(self):
        with pytest.raises(ImageIdMismatch):
            match_detections(gt_set([square_poly(4, 4, 8)], image_id="a"),
                             det_set([], image_id="b"))

    def test_matches_brute_force_on_perturbed_sets(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            polys = []
            attempts = 0
            while len(polys) < n and attempts < 50:
                attempts += 1
                x0 = float(rng.uniform(1, CANVAS - 14))
                y0 = float(rng.uniform(1, CANVAS - 14))
                size = float(rng.uniform(6, 12))
                cand = square_poly(x0, y0, size)
                if all(region_iou(cand, [p]) < 0.05 for p in polys):
                    polys.append(cand)
            dets = []
            for p in polys:
                dx, dy = rng.uniform(-1.5, 1.5, size=2)
                dets.append(detection_for(p.translated(dx, dy),
                                          score=float(rng.uniform(0.5, 1))))
            gt = gt_set(polys)
            ds = det_set(dets)
            result = match_detections(gt, ds, iou_thresh=0.5)
            det_regions = [mask_to_polygons(d.mask) for d in ds.detections]
            iou_matrix = np.zeros((len(polys), len(dets)))
            for g, p in enumerate(polys):
                for d, pieces in enumerate(det_regions):
                    iou_matrix[g, d] = region_iou(p, pieces)
            count, _, pairs = brute_force_matching(iou_matrix, 0.5)
            got_pairs = {(g, d) for g, d, _ in result.matches}
            assert len(result.matches) == count
            assert got_pairs == set(pairs)

    def test_ignore_regions_excluded(self):
        polys = [square_poly(4, 4, 10), square_poly(30, 30, 12)]
        gt = gt_set(polys, ignore=[False, True])
        dets = [detection_for(polys[0]), detection_for(polys[1])]
        result = match_detections(gt, det_set(dets))
        assert result.effective_gt == 1
        assert result.effective_det == 1  # the ignored-matched det leaves the FP pool
        report = compute_metrics(result.matches, result.effective_gt, result.effective_det)
        assert report.recall == 1.0
        assert report.precision == 1.0


def ungated_match(gt, ds, iou_thresh):
    """match_detections without the box gate: region_iou on every pair."""
    det_polys = [mask_to_polygons(d.mask) for d in ds.detections]
    candidates = []
    for g, poly in enumerate(gt.instances):
        for d, pieces in enumerate(det_polys):
            iou = region_iou(poly, pieces)
            if iou >= iou_thresh:
                candidates.append((iou, g, d))
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
    gt_used, det_used = set(), set()
    matches, ignored = [], []
    for iou, g, d in candidates:
        if g in gt_used or d in det_used:
            continue
        gt_used.add(g)
        det_used.add(d)
        if gt.ignore_flags[g]:
            ignored.append(d)
        else:
            matches.append((g, d, iou))
    return matches, ignored


class TestBoxGate:
    def _scene(self, rng):
        """Ground truth squares (2 px margin) and detections that overlap
        them, overlap by a 1 px strip, share only an edge, miss, or are empty."""
        polys = [square_poly(float(rng.uniform(2, CANVAS - 14)), float(rng.uniform(2, CANVAS - 14)),
                             float(rng.uniform(4, 12))) for _ in range(5)]
        dets = [detection_for(p.translated(*rng.uniform(-2, 2, size=2)),
                              score=float(rng.uniform(0.3, 1))) for p in polys[1:4]]
        x0, y0, x1, y1 = polys[0].bounds()
        dets.append(detection_for(square_poly(x1, y0, 2.0)))   # edge contact only
        dets.append(detection_for(Polygon(((x1 - 1, y0), (x1 + 1, y0), (x1 + 1, y1),
                                           (x1 - 1, y1)))))   # a 1 px wide overlap
        dets.append(detection_for(square_poly(float(rng.uniform(0, CANVAS - 8)),
                                              float(rng.uniform(0, CANVAS - 8)), 8.0)))
        dets.append(ScoredDetection(mask=BitMask.empty(CANVAS, CANVAS),
                                    box=AxisBox(0.0, 0.0, 1.0, 1.0), score=0.5))
        ignore = [bool(rng.random() < 0.3) for _ in polys]
        return gt_set(polys, ignore=ignore), det_set(dets)

    @pytest.mark.parametrize("thresh", [0.0, 0.01, 0.5])
    def test_matches_ungated(self, rng, monkeypatch, thresh):
        # textdetkit.evaluate is also a function exported by the package
        evaluate_module = importlib.import_module("textdetkit.evaluate")
        calls = []

        def counting_region_iou(poly, pieces):
            calls.append(1)
            return region_iou(poly, pieces)

        monkeypatch.setattr(evaluate_module, "region_iou", counting_region_iou)
        pairs = 0
        for _ in range(4):
            gt, ds = self._scene(rng)
            result = match_detections(gt, ds, iou_thresh=thresh)
            matches, ignored = ungated_match(gt, ds, thresh)
            assert result.matches == matches
            assert result.ignored_detections == ignored
            pairs += len(gt.instances) * len(ds.detections)
        if thresh == 0.0:
            assert len(calls) == pairs  # at 0 a zero-IoU pair is still a candidate
        else:
            assert len(calls) < pairs


class TestComputeMetrics:
    def test_zero_tp(self):
        report = compute_metrics([], 4, 5)
        assert (report.recall, report.precision, report.f_measure) == (0.0, 0.0, 0.0)

    def test_forced_arithmetic(self):
        matches = [(0, 0, 0.9), (1, 1, 0.8), (2, 2, 0.7)]
        report = compute_metrics(matches, 4, 5)
        assert report.recall == 0.75
        assert report.precision == 0.6
        assert abs(report.f_measure - 2.0 / 3.0) <= 1e-12

    def test_zero_denominators_flagged(self):
        report = compute_metrics([], 0, 0)
        assert report.recall == 0.0
        assert report.precision == 0.0
        assert set(report.undefined) == {"recall", "precision"}

    def test_harmonic_mean_bounds(self, rng):
        for _ in range(50):
            gt_count = int(rng.integers(1, 10))
            det_count = int(rng.integers(1, 10))
            tp = int(rng.integers(1, min(gt_count, det_count) + 1))
            report = compute_metrics([(i, i, 1.0) for i in range(tp)], gt_count, det_count)
            assert 0.0 <= report.f_measure <= 1.0
            assert min(report.precision, report.recall) <= report.f_measure
            assert report.f_measure <= max(report.precision, report.recall)

    def test_false_positive_never_helps(self):
        polys = [square_poly(4, 4, 10), square_poly(30, 30, 12)]
        dets = [detection_for(polys[0]), detection_for(polys[1])]
        junk = detection_for(square_poly(48, 4, 8))
        before_match = match_detections(gt_set(polys), det_set(dets))
        before = compute_metrics(before_match.matches, before_match.effective_gt,
                                 before_match.effective_det)
        after_match = match_detections(gt_set(polys), det_set(dets + [junk]))
        after = compute_metrics(after_match.matches, after_match.effective_gt,
                                after_match.effective_det)
        assert after.recall == before.recall
        assert after.precision <= before.precision
        assert after.f_measure <= before.f_measure

    def test_permutation_invariance(self, rng):
        polys = [square_poly(4, 4, 10), square_poly(30, 30, 12), square_poly(4, 40, 9)]
        dets = [detection_for(p) for p in polys]
        base = match_detections(gt_set(polys), det_set(dets))
        ref = compute_metrics(base.matches, base.effective_gt, base.effective_det)
        order = list(rng.permutation(3))
        shuffled = match_detections(
            gt_set([polys[i] for i in order]),
            det_set([dets[i] for i in reversed(order)]),
        )
        got = compute_metrics(shuffled.matches, shuffled.effective_gt, shuffled.effective_det)
        assert (got.recall, got.precision, got.f_measure) == (ref.recall, ref.precision, ref.f_measure)


class TestCorpusEvaluate:
    def test_two_images_aggregated(self):
        polys1 = [square_poly(4, 4, 10), square_poly(30, 30, 12)]
        polys2 = [square_poly(10, 10, 8)]
        gts = [gt_set(polys1, image_id="a"), gt_set(polys2, image_id="b")]
        dets = [
            det_set([detection_for(polys1[0])], image_id="a"),
            det_set([detection_for(polys2[0])], image_id="b"),
        ]
        report = evaluate(gts, dets)
        assert report.gt_count == 3
        assert report.det_count == 2
        assert report.true_positives == 2
        assert report.recall == 2 / 3
        assert report.precision == 1.0
        assert set(report.per_image) == {"a", "b"}
        assert report.per_image["a"]["recall"] == 0.5

    def test_corpus_id_mismatch(self):
        gts = [gt_set([square_poly(4, 4, 8)], image_id="a")]
        dets = [det_set([], image_id="b")]
        with pytest.raises(ImageIdMismatch):
            evaluate(gts, dets)


class TestGroundTruthSet:
    def test_crossing_polygon_rejected_when_built(self):
        bow_tie = Polygon(((0, 0), (6, 6), (6, 0), (0, 2)))
        with pytest.raises(GeometryError, match="instance 1: polygon boundary crosses itself"):
            gt_set([square_poly(10, 10, 4), bow_tie])


class TestRegionIou:
    def test_island_in_a_hole_counted_once(self):
        # the region is the hole-filled ring (100 px), which holds the island
        bits = np.zeros((CANVAS, CANVAS), bool)
        bits[10:20, 10:20] = True
        bits[12:18, 12:18] = False
        bits[14:16, 14:16] = True
        ds = det_set([ScoredDetection.from_mask(BitMask.from_array(bits), 0.9)])
        result = match_detections(gt_set([square_poly(14, 14, 2)]), ds, iou_thresh=0.0)
        assert result.matches == [(0, 0, 4 / 100)]

    def test_empty_region(self):
        assert region_iou(square_poly(0, 0, 4), []) == 0.0

    def test_multi_component_detection(self):
        gt = square_poly(0, 0, 8)
        bits = np.zeros((CANVAS, CANVAS), bool)
        bits[0:8, 0:4] = True
        bits[0:8, 20:24] = True  # second blob outside the gt
        mask = BitMask.from_array(bits)
        pieces = mask_to_polygons(mask)
        assert len(pieces) == 2
        got = region_iou(gt, pieces)
        assert abs(got - 32 / 96) <= 1e-12


class TestRegion:
    def test_contours_of_the_filled_mask(self):
        # nested rectangles toggled in turn leave rings, holes and islands in
        # holes, and 3-5% noise adds specks in holes and pinches; denser plain
        # noise leaves small holes, islands and components with nested boxes
        rng = np.random.default_rng(15)
        islands = 0
        for k in range(2000):
            height, width = rng.integers(1, 25, size=2)
            if k % 4:
                bits = rng.random((height, width)) < rng.uniform(0.03, 0.05)
                y0, x0, y1, x1 = 0, 0, height, width
                while y0 < y1 and x0 < x1:
                    bits[y0:y1, x0:x1] ^= True
                    y0, x0 = y0 + rng.integers(1, 4), x0 + rng.integers(1, 4)
                    y1, x1 = y1 - rng.integers(1, 4), x1 - rng.integers(1, 4)
            else:
                bits = rng.random((height, width)) < rng.uniform(0.3, 0.7)
            frame = np.zeros((height + 3, width + 5), bool)
            frame[2:-1, 3:-2] = bits
            mask = BitMask.from_array(frame)
            filled = BitMask.from_crop(mask.width, mask.height, mask.x0, mask.y0,
                                       fill_holes(mask.crop))
            got = _region(mask)
            assert ([p.vertices.tolist() for p in got]
                    == [p.vertices.tolist() for p in mask_to_polygons(filled)]), k
            islands += len(got) < len(mask_to_polygons(mask))
        assert islands >= 200

    def test_speckle_memory_stays_near_the_trace(self):
        # 4,096 one-pixel components: testing each contour against every
        # other at once would hold 4,096^2 entries, about 67 MB at 4 bytes
        bits = np.zeros((128, 128), bool)
        bits[::2, ::2] = True
        mask = BitMask.from_array(bits)
        peaks = []
        for run in (mask_to_polygons, _region):
            tracemalloc.start()
            try:
                assert len(run(mask)) == 4096
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]
