"""Desk-scale toolkit for arbitrary-shaped text detection.

Submodules:

* :mod:`textdetkit.ndtensor` -- float64 tensor primitives (conv, pooling,
  interpolation, linear maps, softmax, layer norm),
* :mod:`textdetkit.multipath` -- multi-receptive-field convolution cascade,
* :mod:`textdetkit.instance_attention` -- instance-token transformer with
  pooled global context,
* :mod:`textdetkit.geometry` -- polygons, boxes, bit masks, IoU, contours,
* :mod:`textdetkit.pseudolabel` -- three-detector ensemble label fusion,
* :mod:`textdetkit.suppress` -- one greedy NMS loop (hard, linear or
  Gaussian) over concatenated multi-scale or multi-model detections,
* :mod:`textdetkit.evaluate` -- recall / precision / F-measure protocol,
* :mod:`textdetkit.losses` -- reference losses with analytic gradients,
* :mod:`textdetkit.formats` / :mod:`textdetkit.cli` -- JSON file formats and
  the command-line surface.
"""

from .errors import (
    ConfigError,
    EmptyProposalSet,
    GeometryError,
    ImageIdMismatch,
    ParseError,
    ShapeError,
)
from .geometry import (
    AxisBox,
    BitMask,
    Polygon,
    intersection_area,
    iou_box,
    iou_mask,
    iou_polygon,
    mask_to_polygons,
    polygon_area,
    polygon_to_mask,
)
from .ndtensor import (
    Conv2dKernel,
    adaptive_max_pool,
    bilinear_upsample,
    conv2d,
    layer_norm,
    linear,
    softmax,
)
from .pseudolabel import (
    FusionConfig,
    PseudoLabel,
    ScoredDetection,
    fuse_detections,
    overlap_mask,
    soft_box,
)
from .suppress import (
    DetectionSet,
    SuppressConfig,
    multi_scale_aggregate,
    nms,
)
from .evaluate import EvalReport, GroundTruthSet, compute_metrics, evaluate, match_detections
from .losses import LossResult, binary_cross_entropy, smooth_l1, softmax_cross_entropy, total_loss

__version__ = "0.1.0"

__all__ = [
    "AxisBox", "BitMask", "Polygon", "Conv2dKernel",
    "ScoredDetection", "PseudoLabel", "DetectionSet", "GroundTruthSet",
    "FusionConfig", "SuppressConfig", "EvalReport", "LossResult",
    "ConfigError", "EmptyProposalSet", "GeometryError", "ImageIdMismatch",
    "ParseError", "ShapeError",
    "conv2d", "adaptive_max_pool", "bilinear_upsample", "linear", "softmax",
    "layer_norm",
    "iou_box", "iou_mask", "iou_polygon", "polygon_area",
    "intersection_area", "mask_to_polygons", "polygon_to_mask",
    "fuse_detections", "overlap_mask", "soft_box",
    "nms", "multi_scale_aggregate",
    "match_detections", "compute_metrics", "evaluate",
    "smooth_l1", "binary_cross_entropy", "softmax_cross_entropy", "total_loss",
]
