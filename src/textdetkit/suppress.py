"""Redundancy removal: hard NMS, score-decaying soft NMS, and the
concat-then-suppress drivers for multi-scale and multi-model fusion.

Soft NMS keeps every detection but decays overlapping scores instead of
deleting them outright: linear decay multiplies by (1 - IoU) once the IoU
exceeds the threshold, Gaussian decay multiplies by exp(-IoU^2 / sigma)
unconditionally. Detections fall out once their score drops below the
floor. All selection loops break ties by score then input index, so output
is deterministic and independent of input ordering for distinct scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import ConfigError, ImageIdMismatch, check_range
from .pseudolabel import IOU_MODES, ScoredDetection, detection_iou

MODES = ("hard", "soft-linear", "soft-gaussian")


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
    """Classic hard NMS: keep the top-scoring detection, drop everything
    overlapping it above the threshold, repeat."""
    dets = list(dets)
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    removed = [False] * len(dets)
    kept = []
    for idx in order:
        if removed[idx]:
            continue
        removed[idx] = True
        kept.append(dets[idx])
        for jdx in order:
            if removed[jdx]:
                continue
            if detection_iou(dets[idx], dets[jdx], cfg.iou_mode) > cfg.iou_threshold:
                removed[jdx] = True
    return kept


def soft_nms(dets, cfg: SuppressConfig) -> list[ScoredDetection]:
    """Soft NMS with linear or Gaussian score decay; output carries the
    decayed scores, sorted by final score."""
    if cfg.mode not in ("soft-linear", "soft-gaussian"):
        raise ConfigError(f"soft_nms requires a soft mode, got {cfg.mode!r}")
    pool = [(det.score, i, det) for i, det in enumerate(dets)]
    survivors = []
    while pool:
        best_pos = 0
        for pos in range(1, len(pool)):
            if (pool[pos][0], -pool[pos][1]) > (pool[best_pos][0], -pool[best_pos][1]):
                best_pos = pos
        score, idx, det = pool.pop(best_pos)
        survivors.append((score, idx, det))
        decayed = []
        for s, i, d in pool:
            iou = detection_iou(det, d, cfg.iou_mode)
            if cfg.mode == "soft-linear":
                if iou > cfg.iou_threshold:
                    s = s * (1.0 - iou)
            else:
                s = s * math.exp(-(iou * iou) / cfg.sigma)
            if s >= cfg.score_floor:
                decayed.append((s, i, d))
        pool = decayed
    survivors.sort(key=lambda t: (-t[0], t[1]))
    return [replace(det, score=score) for score, _, det in survivors]


def suppress(dets, cfg: SuppressConfig) -> list[ScoredDetection]:
    """Dispatch on the configured mode."""
    if cfg.mode == "hard":
        return nms(dets, cfg)
    return soft_nms(dets, cfg)


def _merge_sets(sets) -> DetectionSet:
    sets = list(sets)
    if not sets:
        raise ConfigError("need at least one detection set")
    ids = {s.image_id for s in sets}
    if len(ids) != 1:
        raise ImageIdMismatch(f"detection sets describe different images: {sorted(ids)}")
    merged = []
    for s in sets:
        merged.extend(s.detections)
    tags = [s.source_tag for s in sets if s.source_tag]
    width = next((s.image_width for s in sets if s.image_width is not None), None)
    height = next((s.image_height for s in sets if s.image_height is not None), None)
    return DetectionSet(
        image_id=sets[0].image_id,
        detections=merged,
        source_tag="+".join(tags) if tags else "aggregate",
        image_width=width,
        image_height=height,
        scale_factor=1.0,
    )


def multi_scale_aggregate(sets, cfg: SuppressConfig) -> DetectionSet:
    """Concatenate per-scale sets (already rescaled to original-image
    coordinates by the caller) and suppress redundant instances."""
    merged = _merge_sets(sets)
    merged.detections = suppress(merged.detections, cfg)
    return merged


def model_ensemble(sets, cfg: SuppressConfig) -> DetectionSet:
    """Concatenate per-model sets and remove redundancy with soft NMS."""
    if cfg.mode == "hard":
        raise ConfigError("model_ensemble uses soft NMS; pick a soft mode")
    merged = _merge_sets(sets)
    merged.detections = soft_nms(merged.detections, cfg)
    return merged
