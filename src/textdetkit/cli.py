"""Command-line pipelines binding the library into reproducible runs.

Subcommands: ``fuse`` (ensemble pseudo-label generation), ``nms``
(aggregate + suppress detection files), ``eval`` (recall / precision /
F-measure against ground truth), ``forward`` (run a reference module on a
tensor file), ``params`` (parameter-count table).

Exit codes are fixed for scripting: 0 ok, 2 file parse error or malformed
command line, 3 image-id mismatch, 4 invalid parameters or config, 5
shape/config mismatch or an overflow in ``forward``. Outputs are canonical
JSON, so identical inputs and flags produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import formats, instance_attention, multipath
from .errors import (ConfigError, GeometryError, ImageIdMismatch, ParseError, ShapeError,
                     check_range)
from .evaluate import compute_metrics, match_detections
from .ndtensor import as_tensor
from .pseudolabel import FusionConfig, fuse_detections
from .suppress import SuppressConfig, multi_scale_aggregate

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_IMAGE_ID = 3
EXIT_PARAMS = 4
EXIT_SHAPES = 5


@functools.cache  # built once per process: building costs more than a parse
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textdetkit",
        description="Text-detection post-processing and reference-module pipelines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", help="fuse three detection files into weighted pseudo labels")
    p.add_argument("--det-a", required=True, help="anchor detection file")
    p.add_argument("--det-b", required=True)
    p.add_argument("--det-c", required=True)
    p.add_argument("--iou-threshold", type=float, default=0.8)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--iou-mode", default="mask")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_fuse)

    p = sub.add_parser("nms", help="aggregate detection files and suppress redundancy")
    p.add_argument("--in", dest="inputs", nargs="+", required=True, metavar="FILE")
    p.add_argument("--mode", default="soft-linear",
                   help="hard | soft-linear | soft-gaussian")
    p.add_argument("--iou-threshold", type=float, default=0.5)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--score-floor", type=float, default=0.001)
    p.add_argument("--iou-mode", default="mask")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_nms)

    p = sub.add_parser("eval", help="evaluate detections against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--det", required=True)
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("forward", help="run a reference module on a tensor file")
    p.add_argument("--module", required=True, help="intra | inter")
    p.add_argument("--weights", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_forward)

    p = sub.add_parser("params", help="print a parameter-count table for a module config")
    p.add_argument("--module", required=True, help="intra | inter")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=cmd_params)

    return parser


def cmd_fuse(args) -> int:
    cfg = FusionConfig(iou_threshold=args.iou_threshold, alpha=args.alpha,
                       iou_mode=args.iou_mode)
    sets = [formats.load_detection_file(p) for p in (args.det_a, args.det_b, args.det_c)]
    ids = {s.image_id for s in sets}
    if len(ids) != 1:
        raise ImageIdMismatch(f"detection files describe different images: {sorted(ids)}")
    dims = {(s.image_width, s.image_height) for s in sets}
    if len(dims) != 1:
        raise ParseError(f"detection files disagree on image dimensions: {sorted(dims)}")
    outcome = fuse_detections(sets[0].detections, sets[1].detections,
                              sets[2].detections, cfg)
    formats.save_weighted_label_file(
        args.out, outcome.labels, image_id=sets[0].image_id,
        width=sets[0].image_width, height=sets[0].image_height,
    )
    print(f"fused {len(outcome.labels)} labels: {outcome.triples} triple, "
          f"{outcome.pairs_b} pair(B), {outcome.pairs_c} pair(C), "
          f"{outcome.dropped} dropped -> {args.out}")
    return EXIT_OK


def cmd_nms(args) -> int:
    cfg = SuppressConfig(mode=args.mode, iou_threshold=args.iou_threshold,
                         sigma=args.sigma, score_floor=args.score_floor,
                         iou_mode=args.iou_mode)
    sets = [formats.load_detection_file(p) for p in args.inputs]
    dims = {(s.image_width, s.image_height) for s in sets}
    if len(dims) != 1:
        raise ParseError(f"detection files disagree on image dimensions: {sorted(dims)}")
    total = sum(len(s.detections) for s in sets)
    merged = multi_scale_aggregate(sets, cfg)
    formats.save_detection_file(args.out, merged)
    print(f"kept {len(merged.detections)} of {total} detections "
          f"({cfg.mode}, iou {cfg.iou_threshold}) -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    check_range("--iou", args.iou, 0.0, 1.0)
    gt = formats.load_ground_truth_file(args.gt)
    det = formats.load_detection_file(args.det)
    result = match_detections(gt, det, iou_thresh=args.iou)
    report = compute_metrics(result.matches, result.effective_gt,
                             result.effective_det, image_id=gt.image_id)
    if args.report:
        formats.write_canonical(args.report, {
            "schemaVersion": formats.SCHEMA_VERSION,
            "iouThreshold": args.iou,
            "recall": report.recall,
            "precision": report.precision,
            "fMeasure": report.f_measure,
            "truePositives": report.true_positives,
            "gtCount": report.gt_count,
            "detCount": report.det_count,
            "flags": list(report.undefined),
            "matchedPairs": [
                {"imageId": img, "gt": g, "det": d, "iou": iou}
                for img, g, d, iou in report.matched_pairs
            ],
        })
    header = f"{'image':<20}{'gt':>5}{'det':>5}{'TP':>5}{'recall':>10}{'precision':>11}{'F':>9}"
    print(header)
    print(f"{gt.image_id:<20}{report.gt_count:>5}{report.det_count:>5}"
          f"{report.true_positives:>5}{report.recall:>10.4f}"
          f"{report.precision:>11.4f}{report.f_measure:>9.4f}")
    for flag in report.undefined:
        print(f"note: {flag} has a zero denominator; reported as 0")
    return EXIT_OK


def _forward_intra(config, tensors, inputs):
    cfg = multipath.from_named_tensors(config, tensors)
    if "input" not in inputs:
        raise ShapeError("input file must carry a tensor named 'input'")
    return multipath.cascade_forward(as_tensor(inputs["input"], "input"), cfg)


def _forward_inter(config, tensors, inputs):
    cfg = instance_attention.from_named_tensors(config, tensors)
    if "roi" not in inputs:
        raise ShapeError("input file must carry a tensor named 'roi'")
    pyramid = []
    for i in range(len(cfg.context)):
        name = f"pyramid.{i}"
        if name not in inputs:
            raise ShapeError(f"input file must carry a tensor named {name!r}")
        pyramid.append(as_tensor(inputs[name], name))
    return instance_attention.forward(inputs["roi"], pyramid, cfg)


def _module(name: str):
    """(library module, forward runner) for a ``--module`` value."""
    modules = {"intra": (multipath, _forward_intra), "inter": (instance_attention, _forward_inter)}
    if name not in modules:
        raise ConfigError(f"--module must be 'intra' or 'inter', got {name!r}")
    return modules[name]


def cmd_forward(args) -> int:
    _, runner = _module(args.module)
    module, config, tensors = formats.load_tensor_file(args.weights)
    if module != args.module:
        raise ConfigError(f"weights file is for module {module!r}, not {args.module!r}")
    if not isinstance(config, dict):
        raise ConfigError("weights file carries no config object")
    _, _, inputs = formats.load_tensor_file(args.input)
    try:  # finite weights and inputs can still overflow inside the module
        with np.errstate(over="raise", invalid="raise"):
            out = runner(config, tensors, inputs)
    except FloatingPointError as exc:
        raise ConfigError(f"{args.module} module overflows to a non-finite value ({exc})") from exc
    formats.save_tensor_file(args.out, {"output": out})
    print(f"output shape: {list(out.shape)}")
    return EXIT_OK


def cmd_params(args) -> int:
    mod, _ = _module(args.module)
    try:
        config = formats.read_json(args.config)
    except ParseError as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{args.config}: config must be a JSON object")
    rows = mod.param_breakdown_from_config(config)
    width = max(len(name) for name, _ in rows) + 2
    print(f"{'component':<{width}}{'parameters':>12}")
    for name, count in rows:
        print(f"{name:<{width}}{count:>12}")
    print(f"{'total':<{width}}{sum(n for _, n in rows):>12}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ImageIdMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IMAGE_ID
    except (ConfigError, GeometryError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPES if args.command == "forward" else EXIT_PARAMS
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())
