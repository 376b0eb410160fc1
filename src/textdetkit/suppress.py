"""Redundancy removal: one greedy NMS loop, and concat-then-suppress for
multi-scale and multi-model fusion.

Each step keeps the pool's highest-scoring detection (ties go to the lower
input index) and rescores every other pooled detection against it by the
configured mode: hard NMS drops it once the IoU exceeds the threshold,
linear soft NMS multiplies its score by (1 - IoU) above the threshold, and
Gaussian soft NMS multiplies it by exp(-IoU^2 / sigma) unconditionally. In
the soft modes a detection also leaves the pool once its rescored score
falls below the floor; as in Bodla et al.'s loop, the floor is checked only
after a rescoring, so the first pick (and a lone detection) is kept whatever
its score. Hard NMS never applies the floor. Output is sorted by final
score then input index, so it is deterministic and independent of input
ordering for distinct scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError, ImageIdMismatch, check_range
from .pseudolabel import IOU_MODES, ScoredDetection, detection_iou


def _hard(score, iou, cfg):
    return None if iou > cfg.iou_threshold else score


def _linear(score, iou, cfg):
    if iou > cfg.iou_threshold:
        score *= 1.0 - iou
    return score if score >= cfg.score_floor else None


def _gaussian(score, iou, cfg):
    score *= math.exp(-(iou * iou) / cfg.sigma)
    return score if score >= cfg.score_floor else None


# Each rule rescores a pooled detection against the pick, or drops it (None).
_RESCORE = {"hard": _hard, "soft-linear": _linear, "soft-gaussian": _gaussian}
MODES = tuple(_RESCORE)


@dataclass
class SuppressConfig:
    mode: str = "soft-linear"
    iou_threshold: float = 0.5
    sigma: float = 0.5
    score_floor: float = 0.001
    iou_mode: str = "mask"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        check_range("iou_threshold", self.iou_threshold, 0.0, 1.0)
        check_range("sigma", self.sigma, 0.0, math.inf, high_closed=True)
        check_range("score_floor", self.score_floor, 0.0, math.inf, low_closed=True,
                    high_closed=True)
        if self.iou_mode not in IOU_MODES:
            raise ConfigError(f"iou_mode must be one of {IOU_MODES}, got {self.iou_mode!r}")


@dataclass
class DetectionSet:
    """One model's (or one scale's) detections for a single image."""

    image_id: str
    detections: list
    source_tag: str = ""
    image_width: int | None = None
    image_height: int | None = None
    scale_factor: float = 1.0


def nms(dets, cfg: SuppressConfig) -> list[ScoredDetection]:
    """Greedy NMS in ``cfg.mode``. A detection whose score is unchanged is
    returned as the input object; a decayed one is a copy."""
    rescore = _RESCORE[cfg.mode]
    # (score, -index) keys are unique, so tuple comparison never reaches det
    pool = [(det.score, -i, det) for i, det in enumerate(dets)]
    kept = []
    while pool:
        best = max(pool)
        kept.append(best)
        pick, rest = best[2], []
        for entry in pool:
            if entry is not best:
                score, neg_index, det = entry
                score = rescore(score, detection_iou(pick, det, cfg.iou_mode), cfg)
                if score is not None:
                    rest.append((score, neg_index, det))
        pool = rest
    kept.sort(reverse=True)
    return [det if score == det.score else replace(det, score=score)
            for score, _, det in kept]


def multi_scale_aggregate(sets, cfg: SuppressConfig) -> DetectionSet:
    """Concatenate per-scale or per-model sets (already rescaled to
    original-image coordinates by the caller) and suppress redundant
    instances with ``nms``."""
    sets = list(sets)
    if not sets:
        raise ConfigError("need at least one detection set")
    ids = {s.image_id for s in sets}
    if len(ids) != 1:
        raise ImageIdMismatch(f"detection sets describe different images: {sorted(ids)}")
    tags = [s.source_tag for s in sets if s.source_tag]
    return DetectionSet(
        image_id=sets[0].image_id,
        detections=nms([det for s in sets for det in s.detections], cfg),
        source_tag="+".join(tags) if tags else "aggregate",
        image_width=next((s.image_width for s in sets if s.image_width is not None), None),
        image_height=next((s.image_height for s in sets if s.image_height is not None), None),
        scale_factor=1.0,
    )
