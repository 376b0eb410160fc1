import numpy as np
import pytest

from textdetkit.errors import ConfigError, ShapeError
from textdetkit.geometry import AxisBox, BitMask
from textdetkit.pseudolabel import (
    FusionConfig,
    PseudoLabel,
    ScoredDetection,
    fuse_detections,
    overlap_mask,
    soft_box,
)

from conftest import random_blob_mask, random_detections


def make_detection(bits, score):
    return ScoredDetection.from_mask(BitMask.from_array(bits), score)


def square_detection(x0, y0, size, score, canvas=32):
    bits = np.zeros((canvas, canvas), dtype=bool)
    bits[y0:y0 + size, x0:x0 + size] = True
    return make_detection(bits, score)


# ---------------------------------------------------------------------------
# independent re-implementation of the matching policy (test-local)


def oracle_mask_iou(a, b):
    inter = int(np.logical_and(a.mask.bits, b.mask.bits).sum())
    union = int(np.logical_or(a.mask.bits, b.mask.bits).sum())
    return inter / union if union else 0.0


def oracle_fuse(det_a, det_b, det_c, thresh, alpha):
    """Enumerate all (anchor, candidate) IoU combinations and replay the
    greedy descending-score policy."""
    iou_b = [[oracle_mask_iou(a, b) for b in det_b] for a in det_a]
    iou_c = [[oracle_mask_iou(a, c) for c in det_c] for a in det_a]
    order = sorted(range(len(det_a)), key=lambda i: (-det_a[i].score, i))
    free_b = set(range(len(det_b)))
    free_c = set(range(len(det_c)))
    labels = []

    def pick(free, ious, pool):
        best = None
        best_key = None
        for idx in free:
            if ious[idx] <= thresh:
                continue
            key = (ious[idx], pool[idx].score, -idx)
            if best_key is None or key > best_key:
                best, best_key = idx, key
        return best

    for i in order:
        a = det_a[i]
        j = pick(free_b, iou_b[i], det_b)
        k = pick(free_c, iou_c[i], det_c)
        if j is not None and k is not None:
            free_b.discard(j)
            free_c.discard(k)
            masks = [a.mask.bits, det_b[j].mask.bits, det_c[k].mask.bits]
            boxes = [a.box, det_b[j].box, det_c[k].box]
            weight = a.score * det_b[j].score * det_c[k].score
        elif j is not None:
            free_b.discard(j)
            masks = [a.mask.bits, det_b[j].mask.bits]
            boxes = [a.box, det_b[j].box]
            weight = a.score * det_b[j].score * alpha
        elif k is not None:
            free_c.discard(k)
            masks = [a.mask.bits, det_c[k].mask.bits]
            boxes = [a.box, det_c[k].box]
            weight = a.score * det_c[k].score * alpha
        else:
            continue
        fused_bits = masks[0]
        for m in masks[1:]:
            fused_bits = fused_bits & m
        n = len(boxes)
        box = (
            sum(b.xmin for b in boxes) / n,
            sum(b.ymin for b in boxes) / n,
            sum(b.xmax for b in boxes) / n,
            sum(b.ymax for b in boxes) / n,
        )
        labels.append((fused_bits.tobytes(), box, weight))
    return labels


def label_multiset(labels):
    return sorted((l.mask.bits.tobytes(), l.box.as_tuple(), l.weight) for l in labels)


class TestOverlapMask:
    def test_idempotent(self, rng):
        m = random_blob_mask(rng, 16, 16)
        assert overlap_mask([m, m]) == m

    def test_empty_absorbs(self, rng):
        m = random_blob_mask(rng, 16, 16)
        empty = BitMask.empty(16, 16)
        assert overlap_mask([m, empty]).is_empty()

    def test_matches_pixel_oracle(self, rng):
        masks = [random_blob_mask(rng, 12, 12) for _ in range(3)]
        got = overlap_mask(masks)
        want = masks[0].bits & masks[1].bits & masks[2].bits
        assert np.array_equal(got.bits, want)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            overlap_mask([BitMask.empty(4, 4), BitMask.empty(5, 5)])

    def test_needs_two(self, rng):
        with pytest.raises(ShapeError):
            overlap_mask([random_blob_mask(rng, 8, 8)])


class TestSoftBox:
    def test_identical(self):
        b = AxisBox(1, 2, 3, 4)
        assert soft_box([b, b]).as_tuple() == b.as_tuple()

    def test_midpoint(self):
        got = soft_box([AxisBox(0, 0, 2, 2), AxisBox(2, 2, 4, 4)])
        assert got.as_tuple() == (1.0, 1.0, 3.0, 3.0)

    def test_matches_mean_oracle(self, rng):
        boxes = []
        for _ in range(3):
            x0, x1 = sorted(rng.uniform(0, 10, 2))
            y0, y1 = sorted(rng.uniform(0, 10, 2))
            boxes.append(AxisBox(x0, y0, x1 + 1, y1 + 1))
        got = soft_box(boxes)
        want = tuple(
            sum(getattr(b, f) for b in boxes) / 3
            for f in ("xmin", "ymin", "xmax", "ymax")
        )
        assert got.as_tuple() == want

    def test_needs_two(self):
        with pytest.raises(ShapeError):
            soft_box([AxisBox(0, 0, 1, 1)])


class TestGeneratePseudoLabels:
    def test_triple_weight_is_score_product(self):
        a = square_detection(4, 4, 10, 0.9)
        b = square_detection(4, 4, 10, 0.8)
        c = square_detection(4, 4, 10, 0.9)
        labels = fuse_detections([a], [b], [c]).labels
        assert len(labels) == 1
        assert abs(labels[0].weight - 0.648) <= 1e-12
        assert labels[0].mask == a.mask
        assert labels[0].box.as_tuple() == a.box.as_tuple()

    def test_pair_weight_decayed(self):
        a = square_detection(4, 4, 10, 0.9)
        b = square_detection(4, 4, 10, 0.8)
        labels = fuse_detections([a], [b], []).labels
        assert len(labels) == 1
        assert abs(labels[0].weight - 0.36) <= 1e-12

    def test_outcome_counts_name_the_confirming_sets(self):
        a = square_detection(4, 4, 10, 0.9)
        b = square_detection(4, 4, 10, 0.8)
        far = square_detection(30, 30, 6, 0.9)

        def counts(*sets):
            o = fuse_detections(*sets)
            return (o.triples, o.pairs_b, o.pairs_c, o.dropped)

        assert counts([a], [b], [b]) == (1, 0, 0, 0)
        assert counts([a], [b], [far]) == (0, 1, 0, 0)
        assert counts([a], [far], [b]) == (0, 0, 1, 0)
        assert counts([a], [far], [far]) == (0, 0, 0, 1)

    def test_unconfirmed_anchor_dropped(self):
        a = square_detection(4, 4, 10, 0.9)
        far = square_detection(20, 20, 6, 0.9)
        outcome = fuse_detections([a], [far], [far])
        assert outcome.labels == []
        assert outcome.dropped == 1

    def test_candidate_consumed_once(self):
        # two identical anchors compete for a single confirming detection;
        # only the higher-scored anchor may claim it
        a1 = square_detection(4, 4, 10, 0.9)
        a2 = square_detection(4, 4, 10, 0.7)
        b = square_detection(4, 4, 10, 0.8)
        outcome = fuse_detections([a2, a1], [b], [])
        assert len(outcome.labels) == 1
        assert abs(outcome.labels[0].weight - 0.9 * 0.8 * 0.5) <= 1e-12
        assert outcome.dropped == 1

    def test_matches_enumeration_oracle(self, rng):
        cfg = FusionConfig(iou_threshold=0.5, alpha=0.5)
        for _ in range(15):
            det_a = random_detections(rng, int(rng.integers(0, 8)), 48, 48)
            det_b = [ScoredDetection.from_mask(d.mask, float(rng.uniform(0.1, 1)))
                     for d in random_detections(rng, int(rng.integers(0, 8)), 48, 48, jitter=2)]
            det_c = random_detections(rng, int(rng.integers(0, 8)), 48, 48, jitter=3)
            got = [
                (l.mask.bits.tobytes(), l.box.as_tuple(), l.weight)
                for l in fuse_detections(det_a, det_b, det_c, cfg).labels
            ]
            want = oracle_fuse(det_a, det_b, det_c, cfg.iou_threshold, cfg.alpha)
            assert sorted(got) == sorted(want)

    def test_weight_bounded_by_min_score(self, rng):
        cfg = FusionConfig(iou_threshold=0.3)
        det_a = random_detections(rng, 6, 48, 48)
        det_b = random_detections(rng, 6, 48, 48, jitter=2)
        det_c = random_detections(rng, 6, 48, 48, jitter=2)
        scores = [d.score for d in det_a + det_b + det_c]
        for label in fuse_detections(det_a, det_b, det_c, cfg).labels:
            assert label.weight <= max(scores)
            assert 0.0 <= label.weight <= 1.0

    def test_mask_subset_of_contributors(self, rng):
        cfg = FusionConfig(iou_threshold=0.3)
        det_a = random_detections(rng, 5, 48, 48)
        det_b = random_detections(rng, 5, 48, 48, jitter=1)
        det_c = random_detections(rng, 5, 48, 48, jitter=1)
        labels = fuse_detections(det_a, det_b, det_c, cfg).labels
        assert len(labels) <= len(det_a)
        union_a = np.zeros((48, 48), dtype=bool)
        for d in det_a:
            union_a |= d.mask.bits
        for label in labels:
            assert not (label.mask.bits & ~union_a).any()

    def test_threshold_monotonicity(self, rng):
        det_a = random_detections(rng, 10, 48, 48)
        det_b = random_detections(rng, 10, 48, 48, jitter=2)
        det_c = random_detections(rng, 10, 48, 48, jitter=2)
        triples = []
        for t in (0.3, 0.5, 0.7, 0.9):
            outcome = fuse_detections(det_a, det_b, det_c, FusionConfig(iou_threshold=t))
            triples.append(outcome.triples)
        assert all(a >= b for a, b in zip(triples, triples[1:]))

    def test_determinism(self, rng):
        det_a = random_detections(rng, 8, 48, 48)
        det_b = random_detections(rng, 8, 48, 48, jitter=2)
        det_c = random_detections(rng, 8, 48, 48, jitter=2)
        first = fuse_detections(det_a, det_b, det_c).labels
        second = fuse_detections(det_a, det_b, det_c).labels
        assert label_multiset(first) == label_multiset(second)
        assert [l.weight for l in first] == [l.weight for l in second]

    def test_dimension_mismatch_across_sets(self, rng):
        det_a = random_detections(rng, 2, 48, 48)
        det_b = random_detections(rng, 2, 32, 32)
        with pytest.raises(ShapeError):
            fuse_detections(det_a, det_b, []).labels

    def test_box_iou_mode(self):
        a = square_detection(4, 4, 10, 0.9)
        b = square_detection(5, 4, 10, 0.8)  # box IoU 9/11 > 0.8 threshold fails; use lower
        cfg = FusionConfig(iou_threshold=0.7, iou_mode="box")
        labels = fuse_detections([a], [b], [], cfg).labels
        assert len(labels) == 1

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            FusionConfig(iou_threshold=1.5)
        with pytest.raises(ConfigError):
            FusionConfig(alpha=0.0)
        with pytest.raises(ConfigError):
            FusionConfig(iou_mode="polygon")

    def test_nan_config_rejected(self):
        with pytest.raises(ConfigError, match="iou_threshold"):
            FusionConfig(iou_threshold=float("nan"))
        with pytest.raises(ConfigError, match="alpha"):
            FusionConfig(alpha=float("nan"))
        FusionConfig(alpha=1.0)  # closed at 1


class TestAttachWeights:
    def test_export_round_trips(self, tmp_path, rng):
        from textdetkit import formats

        det_a = random_detections(rng, 6, 32, 32)
        det_b = [ScoredDetection.from_mask(d.mask, d.score * 0.9) for d in det_a]
        labels = fuse_detections(det_a, det_b, [], FusionConfig(iou_threshold=0.5)).labels
        path = tmp_path / "labels.json"
        formats.save_weighted_label_file(path, labels, image_id="img", width=32, height=32)
        loaded = formats.load_weighted_label_file(path)
        assert len(loaded.labels) == len(labels)
        for got, want in zip(loaded.labels, labels):
            assert got.weight == want.weight
            assert got.mask == want.mask
            assert got.box.as_tuple() == want.box.as_tuple()


class TestTypeInvariants:
    def test_score_range_enforced(self, rng):
        with pytest.raises(ValueError):
            ScoredDetection.from_mask(random_blob_mask(rng, 8, 8), 1.2)

    def test_weight_range_enforced(self, rng):
        m = random_blob_mask(rng, 8, 8)
        with pytest.raises(ValueError):
            PseudoLabel(mask=m, box=m.foreground_box(), weight=-0.1)

    def test_box_encloses_mask_validation(self, rng):
        m = random_blob_mask(rng, 16, 16)
        fg = m.foreground_box()
        if fg.xmax > 1.5 or fg.ymax > 1.5:
            with pytest.raises(ValueError):
                ScoredDetection(mask=m, box=AxisBox(0, 0, 0.5, 0.5), score=0.5)
        ScoredDetection.from_mask(m, 0.5)

    @pytest.mark.parametrize("record_type", [ScoredDetection, PseudoLabel])
    def test_box_must_enclose_mask_when_built(self, record_type):
        bits = np.zeros((40, 40), bool)
        bits[20:30, 20:30] = True
        mask = BitMask.from_array(bits)
        record_type(mask, AxisBox(21, 21, 29, 29), 0.5)  # 1 px short on each side
        for box in (AxisBox(0, 0, 4, 4), AxisBox(21.5, 20, 30, 30)):
            with pytest.raises(ValueError, match="does not enclose"):
                record_type(mask, box, 0.5)
