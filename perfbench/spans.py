"""Span tracing from outside the program.

Each wrap point replaces one function at the module attribute where its
caller looks it up (``textdetkit.pseudolabel.iou_mask``, not
``textdetkit.geometry.iou_mask``, because pseudolabel imported the name).
A wrapped call appends one span (name, layer, start, end, parent, failed) to
an in-memory list and may feed a counter from its arguments or result.
Spans are recorded only while a CLI command runs, so the benchmark's own
calls into the readers for output checks stay out of the trace.

A wrap point whose module or attribute no longer exists is skipped and
listed in ``Tracer.missing``; its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

LAYERS = ("cli", "formats", "geometry", "pseudolabel", "suppress", "evaluate",
          "ndtensor", "multipath", "instance_attention")

# Thresholds the benchmark passes to the CLI; the ratio counters compare
# results against them.
FUSE_IOU_THRESHOLD = 0.8
EVAL_IOU_THRESHOLD = 0.5

# layers that call no other wrapped layer: their self time equals their busy time
LEAF_LAYERS = ("geometry", "ndtensor")

OTHER_NDTENSOR = ("ndtensor.softmax", "ndtensor.layer_norm",
                  "ndtensor.adaptive_max_pool", "ndtensor.bilinear_upsample")


@dataclass
class WrapPoint:
    module: str
    attr: str
    span: str
    observe: Callable | None = None  # observe(tracer, args, kwargs, result)

    @property
    def layer(self) -> str:
        return self.span.split(".", 1)[0]


def _path_arg(args, kwargs):
    return kwargs.get("path", args[0] if args else None)


def _bytes_read(tr, args, kwargs, result):
    if tr.parent_layer() != "formats":  # a nested formats call was counted by its caller
        tr.count("formats.bytes_read", os.path.getsize(_path_arg(args, kwargs)))


def _bytes_written(tr, args, kwargs, result):
    if tr.parent_layer() != "formats":
        tr.count("formats.bytes_written", os.path.getsize(_path_arg(args, kwargs)))


def _iou_mask(tr, args, kwargs, result):
    tr.count("geometry.iou_mask.zero", result == 0.0)


def _polygon_intersection(tr, args, kwargs, result):
    tr.count("geometry.polygon_intersection.empty", not result)


def _fusion_iou(tr, args, kwargs, result):
    tr.count("pseudolabel.matches", result > FUSE_IOU_THRESHOLD)


def _fusion_outcome(tr, args, kwargs, result):
    tr.count("pseudolabel.triples", getattr(result, "triples", 0))
    tr.count("pseudolabel.pairs", getattr(result, "pairs_b", 0) + getattr(result, "pairs_c", 0))
    tr.count("pseudolabel.dropped", getattr(result, "dropped", 0))


def _aggregate(tr, args, kwargs, result):
    sets = kwargs.get("sets", args[0] if args else ())
    tr.count("suppress.input", sum(len(s.detections) for s in sets))
    tr.count("suppress.kept", len(result.detections))


def _region_iou(tr, args, kwargs, result):
    tr.count("evaluate.candidates", result >= EVAL_IOU_THRESHOLD)


def _conv_flop(tr, args, kwargs, result):
    x = kwargs.get("x", args[0] if args else None)
    kernel = kwargs.get("kernel", args[1] if len(args) > 1 else None)
    c_out, c_in, kh, kw = kernel.weights.shape
    _, h, w = x.shape
    tr.count("ndtensor.conv2d.flop", 2 * c_out * c_in * kh * kw * h * w)


P = "textdetkit."
WRAP_POINTS = (
    WrapPoint(P + "cli", "main", "cli.main"),
    # formats: the CLI calls these as attributes of the formats module
    WrapPoint(P + "formats", "load_detection_file", "formats.load_detection_file", _bytes_read),
    WrapPoint(P + "formats", "save_detection_file", "formats.save_detection_file", _bytes_written),
    WrapPoint(P + "formats", "save_weighted_label_file", "formats.save_weighted_label_file",
              _bytes_written),
    WrapPoint(P + "formats", "load_ground_truth_file", "formats.load_ground_truth_file",
              _bytes_read),
    WrapPoint(P + "formats", "load_tensor_file", "formats.load_tensor_file", _bytes_read),
    WrapPoint(P + "formats", "save_tensor_file", "formats.save_tensor_file", _bytes_written),
    WrapPoint(P + "formats", "write_canonical", "formats.write_canonical", _bytes_written),
    WrapPoint(P + "formats", "rle_encode", "formats.rle_encode"),
    WrapPoint(P + "formats", "rle_decode", "formats.rle_decode"),
    # geometry, at each module that imported the name
    WrapPoint(P + "pseudolabel", "iou_mask", "geometry.iou_mask", _iou_mask),
    WrapPoint(P + "pseudolabel", "iou_box", "geometry.iou_box"),
    WrapPoint(P + "evaluate", "polygon_intersection", "geometry.polygon_intersection",
              _polygon_intersection),
    WrapPoint(P + "formats", "mask_to_polygons", "geometry.mask_to_polygons"),
    WrapPoint(P + "evaluate", "mask_to_polygons", "geometry.mask_to_polygons"),
    WrapPoint(P + "formats", "polygon_to_mask", "geometry.polygon_to_mask"),
    # pseudolabel
    WrapPoint(P + "cli", "fuse_detections", "pseudolabel.fuse_detections", _fusion_outcome),
    WrapPoint(P + "pseudolabel", "detection_iou", "pseudolabel.detection_iou", _fusion_iou),
    # suppress
    WrapPoint(P + "cli", "multi_scale_aggregate", "suppress.multi_scale_aggregate", _aggregate),
    WrapPoint(P + "suppress", "detection_iou", "suppress.detection_iou"),
    # evaluate
    WrapPoint(P + "cli", "match_detections", "evaluate.match_detections"),
    WrapPoint(P + "evaluate", "region_iou", "evaluate.region_iou", _region_iou),
    WrapPoint(P + "cli", "compute_metrics", "evaluate.compute_metrics"),
    # ndtensor, at each module that imported the name
    WrapPoint(P + "multipath", "conv2d", "ndtensor.conv2d", _conv_flop),
    WrapPoint(P + "instance_attention", "conv2d", "ndtensor.conv2d", _conv_flop),
    WrapPoint(P + "instance_attention", "linear", "ndtensor.linear"),
    WrapPoint(P + "instance_attention", "softmax", "ndtensor.softmax"),
    WrapPoint(P + "instance_attention", "layer_norm", "ndtensor.layer_norm"),
    WrapPoint(P + "instance_attention", "adaptive_max_pool", "ndtensor.adaptive_max_pool"),
    WrapPoint(P + "instance_attention", "bilinear_upsample", "ndtensor.bilinear_upsample"),
    # multipath: the CLI calls the first two through the module
    WrapPoint(P + "multipath", "from_named_tensors", "multipath.from_named_tensors"),
    WrapPoint(P + "multipath", "cascade_forward", "multipath.cascade_forward"),
    WrapPoint(P + "multipath", "block_forward", "multipath.block_forward"),
    # instance_attention: the CLI calls the first two through the module
    WrapPoint(P + "instance_attention", "from_named_tensors",
              "instance_attention.from_named_tensors"),
    WrapPoint(P + "instance_attention", "forward", "instance_attention.forward"),
    WrapPoint(P + "instance_attention", "roi_to_tokens", "instance_attention.roi_to_tokens"),
    WrapPoint(P + "instance_attention", "transformer_encoder",
              "instance_attention.transformer_encoder"),
    WrapPoint(P + "instance_attention", "tokens_to_roi", "instance_attention.tokens_to_roi"),
    WrapPoint(P + "instance_attention", "global_context", "instance_attention.global_context"),
    WrapPoint(P + "instance_attention", "fuse_features", "instance_attention.fuse_features"),
)


class Tracer:
    """Collects spans and counters; ``install`` swaps in the wrappers."""

    def __init__(self):
        self.spans = []      # [name, layer, start_ns, end_ns, parent, failed]
        self.counters = defaultdict(int)
        self.missing = []    # "module.attr" of wrap points that could not be found
        self._stack = []
        self._saved = []     # (module, attr, original)

    def count(self, name: str, n) -> None:
        self.counters[name] += int(n)

    def parent_layer(self):
        """Layer of the innermost open span (the caller of a finished call)."""
        return self.spans[self._stack[-1]][1] if self._stack else None

    def _wrap(self, fn, point: WrapPoint):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            is_root = point.span == "cli.main"
            if not tracer._stack and not is_root:
                return fn(*args, **kwargs)  # a call made by the benchmark itself
            span = [point.span, point.layer, time.perf_counter_ns(), 0,
                    tracer._stack[-1] if tracer._stack else None, False]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[3] = time.perf_counter_ns()
                tracer._stack.pop()
            if is_root and result != 0:
                span[5] = True
            if point.observe is not None:
                try:
                    point.observe(tracer, args, kwargs, result)
                except Exception:  # a changed signature must not fail the command
                    tracer.count("trace.observer_errors", 1)
            return result

        return wrapper

    def install(self) -> None:
        for point in WRAP_POINTS:
            try:
                module = importlib.import_module(point.module)
                original = getattr(module, point.attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{point.module}.{point.attr}")
                continue
            if not callable(original):
                self.missing.append(f"{point.module}.{point.attr}")
                continue
            self._saved.append((module, point.attr, original))
            setattr(module, point.attr, self._wrap(original, point))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start_ns", "end_ns", "parent", "failed"],
                       "spans": self.spans, "counters": dict(self.counters),
                       "missing": self.missing}, fh)

    # -----------------------------------------------------------------------
    # derived metrics

    def _own_times(self):
        """Per span: its duration minus the time of child spans in other layers."""
        n = len(self.spans)
        dur = [s[3] - s[2] for s in self.spans]
        child_time = [0] * n
        same_layer_own = [0] * n
        own = [0] * n
        for i in range(n - 1, -1, -1):  # children always follow their parent
            own[i] = dur[i] - child_time[i] + same_layer_own[i]
            parent = self.spans[i][4]
            if parent is not None:
                child_time[parent] += dur[i]
                if self.spans[parent][1] == self.spans[i][1]:
                    same_layer_own[parent] += own[i]
        return dur, own

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics averaged per pass over the workload's frames."""
        dur, own = self._own_times()
        calls = defaultdict(int)
        secs = defaultdict(int)
        own_by_name = defaultdict(int)
        layer = {name: defaultdict(int) for name in ("s", "self_s", "calls", "failed")}
        for i, (name, lay, _, _, parent, failed) in enumerate(self.spans):
            calls[name] += 1
            secs[name] += dur[i]
            own_by_name[name] += own[i]
            layer["calls"][lay] += 1
            layer["failed"][lay] += failed
            if parent is None or self.spans[parent][1] != lay:  # outermost span of its layer
                layer["s"][lay] += dur[i]
                layer["self_s"][lay] += own[i]
        c = self.counters

        def per_pass(x):
            return x / passes

        def frac(num, den):
            return num / den if den else 0.0

        out = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        for lay in LAYERS:
            put(f"{lay}.s", per_pass(layer["s"][lay] / 1e9), "s")
            if lay not in LEAF_LAYERS:
                put(f"{lay}.self_s", per_pass(layer["self_s"][lay] / 1e9), "s")
            put(f"{lay}.commands" if lay == "cli" else f"{lay}.calls",
                per_pass(layer["calls"][lay]), "count")
            put(f"{lay}.failed", per_pass(layer["failed"][lay]), "count")
        for name in ("geometry.iou_mask", "geometry.polygon_intersection",
                     "geometry.mask_to_polygons", "geometry.polygon_to_mask",
                     "formats.rle_encode", "formats.rle_decode", "ndtensor.conv2d"):
            put(f"{name}.calls", per_pass(calls[name]), "count")
            put(f"{name}.s", per_pass(secs[name] / 1e9), "s")
        put("geometry.iou_box.calls", per_pass(calls["geometry.iou_box"]), "count")
        put("geometry.iou_mask.zero_frac",
            frac(c["geometry.iou_mask.zero"], calls["geometry.iou_mask"]), "ratio")
        put("geometry.polygon_intersection.empty_frac",
            frac(c["geometry.polygon_intersection.empty"],
                 calls["geometry.polygon_intersection"]), "ratio")
        for name in ("load_detection_file", "save_detection_file", "save_weighted_label_file",
                     "load_ground_truth_file", "load_tensor_file", "save_tensor_file"):
            put(f"formats.{name}.s", per_pass(secs[f"formats.{name}"] / 1e9), "s")
        put("formats.bytes_read", per_pass(c["formats.bytes_read"]), "B")
        put("formats.bytes_written", per_pass(c["formats.bytes_written"]), "B")
        put("pseudolabel.fuse_detections.self_s",
            per_pass(own_by_name["pseudolabel.fuse_detections"] / 1e9), "s")
        put("pseudolabel.iou_evals", per_pass(calls["pseudolabel.detection_iou"]), "count")
        put("pseudolabel.match_frac",
            frac(c["pseudolabel.matches"], calls["pseudolabel.detection_iou"]), "ratio")
        for name in ("triples", "pairs", "dropped"):
            put(f"pseudolabel.{name}", per_pass(c[f"pseudolabel.{name}"]), "count")
        put("suppress.multi_scale_aggregate.self_s",
            per_pass(own_by_name["suppress.multi_scale_aggregate"] / 1e9), "s")
        put("suppress.iou_evals", per_pass(calls["suppress.detection_iou"]), "count")
        put("suppress.kept_frac", frac(c["suppress.kept"], c["suppress.input"]), "ratio")
        put("evaluate.match_detections.self_s",
            per_pass(own_by_name["evaluate.match_detections"] / 1e9), "s")
        put("evaluate.region_iou.calls", per_pass(calls["evaluate.region_iou"]), "count")
        put("evaluate.candidate_frac",
            frac(c["evaluate.candidates"], calls["evaluate.region_iou"]), "ratio")
        put("ndtensor.conv2d.gflop", per_pass(c["ndtensor.conv2d.flop"] / 1e9), "GFLOP")
        put("ndtensor.linear.s", per_pass(secs["ndtensor.linear"] / 1e9), "s")
        put("ndtensor.other.s", per_pass(sum(secs[n] for n in OTHER_NDTENSOR) / 1e9), "s")
        for name in ("from_named_tensors", "cascade_forward", "block_forward"):
            put(f"multipath.{name}.s", per_pass(secs[f"multipath.{name}"] / 1e9), "s")
        for name in ("from_named_tensors", "roi_to_tokens", "transformer_encoder",
                     "tokens_to_roi", "global_context", "fuse_features"):
            put(f"instance_attention.{name}.s",
                per_pass(secs[f"instance_attention.{name}"] / 1e9), "s")
        put("trace.missing_points", len(self.missing), "count")
        put("trace.observer_errors", c["trace.observer_errors"], "count")
        return out
