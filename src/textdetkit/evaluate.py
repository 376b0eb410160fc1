"""Detection evaluation: one-to-one IoU matching and recall / precision /
F-measure.

Matching is greedy over candidate (ground truth, detection) pairs sorted by
polygon IoU descending; each side is used at most once. Detections matched
to an ignore-flagged ground truth are excluded from both the true-positive
and false-positive counts; ignored ground truths never enter the recall
denominator. This is the common IoU-at-0.5 protocol, a documented
approximation of dataset-specific official evaluators, not a replacement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, ImageIdMismatch
from .geometry import (BitMask, Polygon, intersection_area, mask_to_polygons, polygon_area,
                       winds_once)
from .suppress import DetectionSet


@dataclass
class GroundTruthSet:
    """Polygon instances of one image, each winding once, and don't-care flags."""

    image_id: str
    instances: list
    ignore_flags: list
    image_width: int | None = None
    image_height: int | None = None

    def __post_init__(self):
        if len(self.instances) != len(self.ignore_flags):
            raise ValueError(
                f"{len(self.instances)} instances vs {len(self.ignore_flags)} ignore flags"
            )
        for k, poly in enumerate(self.instances):
            # where the boundary winds twice or clockwise, the shoelace area
            # disagrees with the region it rasterizes to, so IoU would be wrong
            if not winds_once(poly):
                raise GeometryError(f"instance {k}: polygon boundary crosses itself")


@dataclass
class MatchResult:
    """Per-image matching outcome feeding the metric roll-up."""

    image_id: str
    matches: list          # (gt_index, det_index, iou) over non-ignored gt
    ignored_detections: list
    gt_total: int
    gt_ignored: int
    det_count: int

    @property
    def effective_gt(self) -> int:
        return self.gt_total - self.gt_ignored

    @property
    def effective_det(self) -> int:
        return self.det_count - len(self.ignored_detections)


@dataclass
class EvalReport:
    recall: float
    precision: float
    f_measure: float
    matched_pairs: list = field(default_factory=list)  # (image_id, gt, det, iou)
    per_image: dict = field(default_factory=dict)
    undefined: tuple = ()
    true_positives: int = 0
    gt_count: int = 0
    det_count: int = 0

    def summary(self) -> dict:
        """The fields the CLI report shares with each per-image entry, in file order."""
        return {
            "recall": self.recall,
            "precision": self.precision,
            "fMeasure": self.f_measure,
            "truePositives": self.true_positives,
            "gtCount": self.gt_count,
            "detCount": self.det_count,
            "flags": list(self.undefined),
        }


def region_iou(gt_poly: Polygon, det_polys) -> float:
    """IoU between a ground-truth polygon and a detection region given as a
    list of disjoint polygons (one per mask component). The union is at least
    the ground truth's area, which a ``Polygon`` keeps above zero."""
    det_polys = list(det_polys)
    inter = sum(intersection_area(gt_poly, piece) for piece in det_polys)
    union = polygon_area(gt_poly) + sum(polygon_area(p) for p in det_polys) - inter
    return min(max(inter / union, 0.0), 1.0)


def _region(mask: BitMask) -> list[Polygon]:
    """Outer contours of the hole-filled mask: an island in a hole counts once.

    Those are the mask's outer contours less the ones inside another. Each
    contour winds once counter-clockwise and starts at the top-left corner
    of its component's first pixel, so the pixel above that one lies inside
    exactly the contours around the component. Contours never cross, so the
    winding numbers of all of them, summed on the crop's pixel grid, count
    those contours at that pixel."""
    polys = mask_to_polygons(mask)
    if len(polys) < 2:
        return polys
    v = (np.concatenate([p.vertices for p in polys]) - (mask.x0, mask.y0)).astype(np.intp)
    sizes = np.array([len(p.vertices) for p in polys])
    ends = np.cumsum(sizes)
    starts = v[ends - sizes]
    nxt = np.roll(v, -1, axis=0)
    nxt[ends - 1] = starts
    # an edge from row y0 to y1 at column x changes by -1 the winding of the
    # pixels right of it in rows [y0, y1), or by +1 in rows [y1, y0); a
    # horizontal edge adds both at one point and cancels
    h, w = mask.crop.shape
    winding = np.zeros((h + 1, w + 1), np.int32)
    np.add.at(winding, (v[:, 1], v[:, 0]), -1)
    np.add.at(winding, (nxt[:, 1], v[:, 0]), 1)
    np.cumsum(winding, axis=0, out=winding)
    np.cumsum(winding, axis=1, out=winding)
    # row -1 reads row h, below the crop, where every winding number is 0
    around = winding[starts[:, 1] - 1, starts[:, 0]]
    return [p for p, n in zip(polys, around.tolist()) if n == 0]


def _share_area(bounds, box) -> bool:
    """Whether polygon bounds (xmin, ymin, xmax, ymax) and a mask's foreground
    box (None for an empty mask) overlap with positive area."""
    if box is None:
        return False
    xmin, ymin, xmax, ymax = bounds
    return min(xmax, box.xmax) > max(xmin, box.xmin) and min(ymax, box.ymax) > max(ymin, box.ymin)


def match_detections(gt: GroundTruthSet, det_set: DetectionSet,
                     iou_thresh: float = 0.5) -> MatchResult:
    """Greedy one-to-one matching of detections to ground-truth polygons.

    Detection regions are the outer contours of their hole-filled masks
    (disjoint polygons, one per 8-connected component). Candidate pairs
    with IoU >= iou_thresh are taken in IoU-descending order (ties by ground
    truth index, then detection index). For iou_thresh > 0, a pair whose
    polygon bounds and mask foreground box share no area has IoU 0 and is
    skipped before any intersection is computed.
    """
    if gt.image_id != det_set.image_id:
        raise ImageIdMismatch(
            f"ground truth is for {gt.image_id!r}, detections for {det_set.image_id!r}"
        )
    det_polys = [_region(det.mask) for det in det_set.detections]
    det_boxes = [det.mask.foreground_box() for det in det_set.detections]
    gate = iou_thresh > 0.0  # at 0 a zero-IoU pair is still a candidate
    candidates = []
    for g, poly in enumerate(gt.instances):
        bounds = poly.bounds()
        for d, pieces in enumerate(det_polys):
            if gate and not _share_area(bounds, det_boxes[d]):
                continue  # IoU is 0, below the threshold
            iou = region_iou(poly, pieces)
            if iou >= iou_thresh:
                candidates.append((iou, g, d))
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
    gt_used = [False] * len(gt.instances)
    det_used = [False] * len(det_set.detections)
    matches = []
    ignored_dets = []
    for iou, g, d in candidates:
        if gt_used[g] or det_used[d]:
            continue
        gt_used[g] = True
        det_used[d] = True
        if gt.ignore_flags[g]:
            ignored_dets.append(d)
        else:
            matches.append((g, d, iou))
    return MatchResult(
        image_id=gt.image_id,
        matches=matches,
        ignored_detections=ignored_dets,
        gt_total=len(gt.instances),
        gt_ignored=sum(1 for f in gt.ignore_flags if f),
        det_count=len(det_set.detections),
    )


def compute_metrics(matches, gt_count: int, det_count: int,
                    image_id: str = "") -> EvalReport:
    """Roll matched pairs and counts up into recall / precision / F-measure.

    gt_count and det_count must already exclude ignored instances. Zero
    denominators yield metric 0 and a flag in ``undefined``.
    """
    matches = list(matches)
    tp = len(matches)
    undefined = [name for name, n in (("recall", gt_count), ("precision", det_count)) if n <= 0]
    recall = tp / gt_count if gt_count > 0 else 0.0
    precision = tp / det_count if det_count > 0 else 0.0
    if precision + recall > 0.0:
        f_measure = 2.0 * precision * recall / (precision + recall)
    else:
        f_measure = 0.0
    return EvalReport(
        recall=recall,
        precision=precision,
        f_measure=f_measure,
        matched_pairs=[(image_id, g, d, iou) for g, d, iou in matches],
        per_image={},
        undefined=tuple(undefined),
        true_positives=tp,
        gt_count=gt_count,
        det_count=det_count,
    )


def evaluate(gt_sets, det_sets, iou_thresh: float = 0.5) -> EvalReport:
    """Evaluate a corpus: per-image matching plus an overall roll-up.

    gt_sets and det_sets must cover the same image ids (any order).
    """
    gt_by_id = {g.image_id: g for g in gt_sets}
    det_by_id = {d.image_id: d for d in det_sets}
    if set(gt_by_id) != set(det_by_id):
        raise ImageIdMismatch(
            f"image ids differ: gt={sorted(gt_by_id)} det={sorted(det_by_id)}"
        )
    all_pairs = []
    per_image = {}
    tp = gt_eff = det_eff = 0
    for image_id in sorted(gt_by_id):
        result = match_detections(gt_by_id[image_id], det_by_id[image_id], iou_thresh)
        image_report = compute_metrics(
            result.matches, result.effective_gt, result.effective_det, image_id
        )
        per_image[image_id] = {
            **image_report.summary(),
            "matches": [[g, d, iou] for g, d, iou in result.matches],
        }
        all_pairs.extend(image_report.matched_pairs)
        tp += image_report.true_positives
        gt_eff += result.effective_gt
        det_eff += result.effective_det
    overall = compute_metrics([m[1:] for m in all_pairs], gt_eff, det_eff)
    overall.matched_pairs = all_pairs
    overall.per_image = per_image
    return overall
