import math

import numpy as np
import pytest

from textdetkit.errors import ConfigError, ImageIdMismatch
from textdetkit.geometry import BitMask
from textdetkit.pseudolabel import ScoredDetection
from textdetkit.suppress import DetectionSet, SuppressConfig, multi_scale_aggregate, nms

from conftest import random_detections


def square_detection(x0, y0, size, score, canvas=48):
    bits = np.zeros((canvas, canvas), dtype=bool)
    bits[y0:y0 + size, x0:x0 + size] = True
    return ScoredDetection.from_mask(BitMask.from_array(bits), score)


def oracle_mask_iou(a, b):
    inter = int(np.logical_and(a.mask.bits, b.mask.bits).sum())
    union = int(np.logical_or(a.mask.bits, b.mask.bits).sum())
    return inter / union if union else 0.0


def oracle_box_iou(a, b):
    (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = a.box.as_tuple(), b.box.as_tuple()
    inter = max(0.0, min(ax1, bx1) - max(ax0, bx0)) * max(0.0, min(ay1, by1) - max(ay0, by0))
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union


def oracle_soft_nms(dets, cfg, iou_fn=oracle_mask_iou):
    """Step-by-step sequential recomputation, independent of the library loop."""
    entries = [{"score": d.score, "idx": i, "det": d} for i, d in enumerate(dets)]
    picked = []
    while entries:
        best = max(entries, key=lambda e: (e["score"], -e["idx"]))
        entries.remove(best)
        picked.append((best["score"], best["idx"]))
        kept = []
        for e in entries:
            iou = iou_fn(best["det"], e["det"])
            if cfg.mode == "soft-linear":
                if iou > cfg.iou_threshold:
                    e["score"] *= 1.0 - iou
            else:
                e["score"] *= math.exp(-(iou * iou) / cfg.sigma)
            if e["score"] >= cfg.score_floor:
                kept.append(e)
        entries = kept
    picked.sort(key=lambda t: (-t[0], t[1]))
    return picked


class TestHardNms:
    def test_duplicate_suppressed(self):
        a = square_detection(4, 4, 10, 0.9)
        b = square_detection(4, 4, 10, 0.8)
        kept = nms([a, b], SuppressConfig(mode="hard"))
        assert kept == [a]

    def test_disjoint_survive(self):
        a = square_detection(2, 2, 6, 0.9)
        b = square_detection(30, 30, 6, 0.5)
        kept = nms([a, b], SuppressConfig(mode="hard"))
        assert kept == [a, b]

    def test_matches_reference_loop(self, rng):
        cfg = SuppressConfig(mode="hard", iou_threshold=0.4)
        dets = random_detections(rng, 25, 48, 48)
        kept = nms(dets, cfg)
        # independent O(n^2) reference
        order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
        alive = set(order)
        want = []
        for i in order:
            if i not in alive:
                continue
            want.append(dets[i])
            alive.discard(i)
            for j in list(alive):
                if oracle_mask_iou(dets[i], dets[j]) > cfg.iou_threshold:
                    alive.discard(j)
        assert kept == want

    def test_score_floor_ignored(self):
        a = square_detection(2, 2, 6, 0.5)
        b = square_detection(30, 30, 6, 0.3)
        kept = nms([a, b], SuppressConfig(mode="hard", score_floor=0.9))
        assert kept == [a, b]

    def test_tie_keeps_lower_index(self):
        a = square_detection(4, 4, 10, 0.9)
        b = square_detection(4, 4, 10, 0.9)
        assert nms([a, b], SuppressConfig(mode="hard")) == [a]
        assert nms([b, a], SuppressConfig(mode="hard")) == [b]

    def test_iou_at_threshold_kept(self):
        a = square_detection(4, 4, 10, 0.9)
        b = square_detection(9, 4, 10, 0.8)  # IoU 50 / 150
        assert nms([a, b], SuppressConfig(mode="hard", iou_threshold=50 / 150)) == [a, b]

    def test_pairwise_iou_bounded(self, rng):
        cfg = SuppressConfig(mode="hard", iou_threshold=0.5)
        kept = nms(random_detections(rng, 20, 48, 48), cfg)
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                assert oracle_mask_iou(a, b) <= cfg.iou_threshold


class TestSoftNms:
    def test_full_overlap_linear_annihilates(self):
        a = square_detection(4, 4, 10, 0.9)
        b = square_detection(4, 4, 10, 0.8)
        kept = nms([a, b], SuppressConfig(mode="soft-linear"))
        assert len(kept) == 1
        assert kept[0].score == 0.9

    def test_no_decay_below_threshold(self):
        a = square_detection(2, 2, 6, 0.9)
        b = square_detection(30, 30, 6, 0.5)
        kept = nms([a, b], SuppressConfig(mode="soft-linear"))
        assert [d.score for d in kept] == [0.9, 0.5]

    def test_iou_at_threshold_not_decayed(self):
        a = square_detection(4, 4, 10, 0.9)
        b = square_detection(9, 4, 10, 0.8)  # IoU 50 / 150
        kept = nms([a, b], SuppressConfig(mode="soft-linear", iou_threshold=50 / 150))
        assert [d.score for d in kept] == [0.9, 0.8]

    def test_floor_drops_undecayed_detection(self):
        a = square_detection(2, 2, 6, 0.9)
        b = square_detection(30, 30, 6, 0.0005)
        for mode in ("soft-linear", "soft-gaussian"):
            kept = nms([a, b], SuppressConfig(mode=mode, score_floor=0.001))
            assert [(d.mask, d.score) for d in kept] == [(a.mask, 0.9)]

    def test_equal_scores_sorted_by_index(self):
        a = square_detection(2, 2, 6, 0.5)
        b = square_detection(30, 30, 6, 0.5)
        kept = nms([a, b], SuppressConfig(mode="soft-linear"))
        assert [d.mask for d in kept] == [a.mask, b.mask]

    def test_gaussian_decays_all_overlaps(self):
        a = square_detection(4, 4, 10, 0.9)
        b = square_detection(6, 4, 10, 0.8)
        iou = oracle_mask_iou(a, b)
        kept = nms([a, b], SuppressConfig(mode="soft-gaussian", sigma=0.5))
        assert len(kept) == 2
        assert abs(kept[1].score - 0.8 * math.exp(-iou * iou / 0.5)) <= 1e-12

    def test_matches_sequential_oracle(self, rng):
        for mode in ("soft-linear", "soft-gaussian"):
            cfg = SuppressConfig(mode=mode, iou_threshold=0.3, sigma=0.7)
            for _ in range(5):
                dets = random_detections(rng, 15, 48, 48)
                kept = nms(dets, cfg)
                want = oracle_soft_nms(dets, cfg)
                assert len(kept) == len(want)
                for det, (score, idx) in zip(kept, want):
                    assert det.mask == dets[idx].mask
                    assert abs(det.score - score) <= 1e-12

    @pytest.mark.parametrize("mode", ["soft-linear", "soft-gaussian"])
    def test_box_iou_matches_sequential_oracle(self, rng, mode):
        cfg = SuppressConfig(mode=mode, iou_threshold=0.3, sigma=0.7, iou_mode="box")
        for _ in range(5):
            dets = random_detections(rng, 15, 48, 48)
            kept = nms(dets, cfg)
            want = oracle_soft_nms(dets, cfg, oracle_box_iou)
            assert len(kept) == len(want)
            for det, (score, idx) in zip(kept, want):
                assert det.box == dets[idx].box and det.mask == dets[idx].mask
                assert abs(det.score - score) <= 1e-12

    def test_scores_never_increase(self, rng):
        cfg = SuppressConfig(mode="soft-gaussian")
        dets = random_detections(rng, 12, 48, 48)
        by_mask = {d.mask.key(): d.score for d in dets}
        for det in nms(dets, cfg):
            assert det.score <= by_mask[det.mask.key()] + 1e-15

    def test_geometry_unchanged_sub_multiset(self, rng):
        cfg = SuppressConfig(mode="soft-linear")
        dets = random_detections(rng, 12, 48, 48)
        keys = [d.mask.key() for d in dets]
        for det in nms(dets, cfg):
            assert det.mask.key() in keys

    def test_order_invariance_distinct_scores(self, rng):
        dets = random_detections(rng, 10, 48, 48)
        for i, d in enumerate(dets):  # force distinct scores
            d.score = 0.1 + 0.08 * i
        cfg = SuppressConfig(mode="soft-linear")
        ref = [(d.mask.key(), d.score) for d in nms(dets, cfg)]
        perm = list(rng.permutation(len(dets)))
        got = [(d.mask.key(), d.score) for d in nms([dets[i] for i in perm], cfg)]
        assert got == ref


class TestAggregation:
    def test_single_scale_is_suppression_only(self, rng):
        dets = random_detections(rng, 6, 48, 48)
        s = DetectionSet("img", dets, source_tag="s1000", image_width=48, image_height=48)
        cfg = SuppressConfig(mode="soft-linear")
        merged = multi_scale_aggregate([s], cfg)
        want = nms(dets, cfg)
        assert [d.score for d in merged.detections] == [d.score for d in want]

    def test_same_detection_two_scales_hard(self):
        det = square_detection(4, 4, 10, 0.9)
        det_lo = square_detection(4, 4, 10, 0.7)
        s1 = DetectionSet("img", [det], source_tag="s1", image_width=48, image_height=48)
        s2 = DetectionSet("img", [det_lo], source_tag="s2", image_width=48, image_height=48)
        merged = multi_scale_aggregate([s1, s2], SuppressConfig(mode="hard"))
        assert len(merged.detections) == 1
        assert merged.source_tag == "s1+s2"

    def test_concat_then_suppress_composition(self, rng):
        cfg = SuppressConfig(mode="soft-linear", iou_threshold=0.4)
        sets = [
            DetectionSet("img", random_detections(rng, 5, 48, 48), source_tag=f"m{i}",
                         image_width=48, image_height=48)
            for i in range(3)
        ]
        merged = multi_scale_aggregate(sets, cfg)
        concat = [d for s in sets for d in s.detections]
        want = nms(concat, cfg)
        assert [d.score for d in merged.detections] == [d.score for d in want]

    def test_image_id_mismatch(self, rng):
        s1 = DetectionSet("img1", [], image_width=48, image_height=48)
        s2 = DetectionSet("img2", [], image_width=48, image_height=48)
        with pytest.raises(ImageIdMismatch):
            multi_scale_aggregate([s1, s2], SuppressConfig())


class TestModelEnsemble:
    def test_single_model(self, rng):
        dets = random_detections(rng, 6, 48, 48)
        s = DetectionSet("img", dets, source_tag="model-a", image_width=48, image_height=48)
        cfg = SuppressConfig(mode="soft-linear")
        merged = multi_scale_aggregate([s], cfg)
        assert [d.score for d in merged.detections] == [d.score for d in nms(dets, cfg)]

    def test_disjoint_models_union(self):
        a = square_detection(2, 2, 6, 0.9)
        b = square_detection(30, 30, 6, 0.5)
        s1 = DetectionSet("img", [a], source_tag="m1", image_width=48, image_height=48)
        s2 = DetectionSet("img", [b], source_tag="m2", image_width=48, image_height=48)
        merged = multi_scale_aggregate([s1, s2], SuppressConfig(mode="soft-linear"))
        assert len(merged.detections) == 2


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ConfigError):
            SuppressConfig(iou_threshold=0.0)
        with pytest.raises(ConfigError):
            SuppressConfig(sigma=0.0)
        with pytest.raises(ConfigError):
            SuppressConfig(mode="softest")
        with pytest.raises(ConfigError):
            SuppressConfig(iou_mode="pixel")

    @pytest.mark.parametrize("field", ["iou_threshold", "sigma", "score_floor"])
    def test_nan_rejected(self, field):
        with pytest.raises(ConfigError, match=field):
            SuppressConfig(**{field: float("nan")})

    def test_boundaries(self):
        SuppressConfig(score_floor=0.0)  # closed at 0
        SuppressConfig(sigma=math.inf, score_floor=math.inf)
        with pytest.raises(ConfigError):
            SuppressConfig(score_floor=-1e-12)
        with pytest.raises(ConfigError):
            SuppressConfig(sigma=-1.0)
