"""Ensemble fusion of three detectors' outputs into weighted pseudo labels.

The first detection set anchors the pass: its detections are visited in
descending score order and each one greedily claims the best-overlapping
still-unclaimed detection from each of the other two sets (IoU strictly
above the threshold; ties broken by higher score, then input index).

* confirmed by both other sets: label mask is the pixelwise intersection of
  the three masks, the box is the coordinate-wise mean of the three boxes,
  and the weight is the product of the three scores;
* confirmed by exactly one other set: same fusion over the pair, with the
  two-score product decayed by the configured factor;
* unconfirmed: the anchor detection is dropped.

Each non-anchor detection can back at most one label, which keeps a single
detection from inflating several pseudo labels. Results depend on which set
anchors; rotate the roles externally to compare all three outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, check_range
from .geometry import OVERHANG_TOL, AxisBox, BitMask, iou_box, iou_mask, shared_window

IOU_MODES = ("mask", "box")


def _check_box(mask: BitMask, box: AxisBox) -> None:
    """ValueError unless the box encloses the mask's foreground box within 1 px."""
    fg = mask.foreground_box()
    if fg is None:
        return
    tol = OVERHANG_TOL
    if (box.xmin > fg.xmin + tol or box.ymin > fg.ymin + tol
            or box.xmax < fg.xmax - tol or box.ymax < fg.ymax - tol):
        raise ValueError(
            f"box {box.as_tuple()} does not enclose mask foreground {fg.as_tuple()} within 1 px"
        )


@dataclass(eq=False)
class ScoredDetection:
    """One detection: mask, a box enclosing it within 1 px, score in [0, 1]."""

    mask: BitMask
    box: AxisBox
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:  # before float(), which overflows on 10**400
            raise ValueError(f"score must be in [0, 1], got {self.score}")
        self.score = float(self.score)
        _check_box(self.mask, self.box)

    @classmethod
    def from_mask(cls, mask: BitMask, score: float) -> "ScoredDetection":
        """Build a detection whose box is the tight foreground box."""
        box = mask.foreground_box()
        if box is None:
            raise ValueError("cannot derive a box from an empty mask")
        return cls(mask=mask, box=box, score=score)


@dataclass(eq=False)
class PseudoLabel:
    """Fused label: mask, a box enclosing it within 1 px, loss weight in [0, 1]."""

    mask: BitMask
    box: AxisBox
    weight: float

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:  # before float(), which overflows on 10**400
            raise ValueError(f"weight must be in [0, 1], got {self.weight}")
        self.weight = float(self.weight)
        _check_box(self.mask, self.box)


@dataclass
class FusionConfig:
    iou_threshold: float = 0.8
    alpha: float = 0.5
    iou_mode: str = "mask"

    def __post_init__(self):
        check_range("iou_threshold", self.iou_threshold, 0.0, 1.0)
        check_range("alpha", self.alpha, 0.0, 1.0, high_closed=True)
        if self.iou_mode not in IOU_MODES:
            raise ConfigError(f"iou_mode must be one of {IOU_MODES}, got {self.iou_mode!r}")


def detection_iou(a: ScoredDetection, b: ScoredDetection, mode: str = "mask") -> float:
    """Similarity between detections: mask IoU by default, box IoU optionally.

    Mask IoU is the default because arbitrary-shaped instances are compared by
    their actual regions; boxes misrank overlapping curved instances. ``mode``
    is one of ``IOU_MODES``, as ``FusionConfig`` and ``SuppressConfig`` check.
    """
    if mode == "box":
        return iou_box(a.box, b.box)
    return iou_mask(a.mask, b.mask)


def overlap_mask(masks) -> BitMask:
    """Pixelwise AND of two or more equally sized masks, computed over the
    intersection of their crop boxes only."""
    masks = list(masks)
    if len(masks) < 2:
        raise ShapeError(f"overlap_mask needs >= 2 masks, got {len(masks)}")
    first = masks[0]
    for m in masks[1:]:
        if (m.width, m.height) != (first.width, first.height):
            raise ShapeError(
                f"mask dimensions differ: {first.width}x{first.height} vs {m.width}x{m.height}"
            )
    win = shared_window(masks)
    if win is None:
        return BitMask.empty(first.width, first.height)
    bits = np.logical_and.reduce([m.window(*win) for m in masks])
    return BitMask.from_crop(first.width, first.height, win[0], win[1], bits)


def soft_box(boxes) -> AxisBox:
    """Coordinate-wise arithmetic mean of two or more boxes."""
    boxes = list(boxes)
    if len(boxes) < 2:
        raise ShapeError(f"soft_box needs >= 2 boxes, got {len(boxes)}")
    n = len(boxes)
    return AxisBox(
        sum(b.xmin for b in boxes) / n,
        sum(b.ymin for b in boxes) / n,
        sum(b.xmax for b in boxes) / n,
        sum(b.ymax for b in boxes) / n,
    )


@dataclass
class FusionOutcome:
    """Labels plus counters for reporting (triple / pair / dropped anchors)."""

    labels: list
    triples: int = 0
    pairs_b: int = 0
    pairs_c: int = 0
    dropped: int = 0


def _check_dimensions(*detection_sets):
    dims = None
    for dets in detection_sets:
        for det in dets:
            d = (det.mask.width, det.mask.height)
            if dims is None:
                dims = d
            elif d != dims:
                raise ShapeError(
                    f"detection masks must share image dimensions: {dims} vs {d}"
                )


def _claim_best(anchor, pool, taken, cfg: FusionConfig):
    """Index of the unclaimed candidate with the highest IoU above threshold.

    Ties break toward higher score, then lower input index.
    """
    best_idx = None
    best_key = None
    for idx, cand in enumerate(pool):
        if taken[idx]:
            continue
        iou = detection_iou(anchor, cand, cfg.iou_mode)
        if iou <= cfg.iou_threshold:
            continue
        key = (iou, cand.score, -idx)
        if best_key is None or key > best_key:
            best_key = key
            best_idx = idx
    return best_idx


def fuse_detections(det_a, det_b, det_c, cfg: FusionConfig | None = None) -> FusionOutcome:
    """Run the ensemble fusion; det_a anchors the matching."""
    cfg = cfg or FusionConfig()
    det_a, det_b, det_c = list(det_a), list(det_b), list(det_c)
    _check_dimensions(det_a, det_b, det_c)
    order = sorted(range(len(det_a)), key=lambda i: (-det_a[i].score, i))
    pools = [(det_b, [False] * len(det_b)), (det_c, [False] * len(det_c))]
    outcome = FusionOutcome(labels=[])
    for i in order:
        anchor = det_a[i]
        found = [_claim_best(anchor, pool, taken, cfg) for pool, taken in pools]
        group = [anchor]
        for (pool, taken), idx in zip(pools, found):
            if idx is not None:
                taken[idx] = True
                group.append(pool[idx])
        if len(group) == 1:
            outcome.dropped += 1
            continue
        # score product left to right, decayed when only one other set confirms
        weight = math.prod(d.score for d in group)
        if len(group) == 2:
            weight *= cfg.alpha
        outcome.labels.append(PseudoLabel(
            mask=overlap_mask([d.mask for d in group]),
            box=soft_box([d.box for d in group]),
            weight=weight,
        ))
        if len(group) == 3:
            outcome.triples += 1
        elif found[0] is not None:
            outcome.pairs_b += 1
        else:
            outcome.pairs_c += 1
    return outcome
