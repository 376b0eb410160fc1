"""JSON file formats: detections, weighted labels, ground truth, and named
tensors.

All writers emit canonical UTF-8 bytes: fixed key order, no whitespace,
floats rendered with 17 significant digits (always with a decimal point or
exponent so they parse back as floats). 17 digits round-trip every IEEE
double exactly, and identical in-memory values always serialize to identical
bytes, which the CLI determinism tests rely on.

Masks travel as run-length encoding over row-major pixel order: ``counts``
alternates run lengths starting with the number of leading zeros. Polygons
travel as vertex lists. Readers accept either representation and prefer the
mask when both are present (polygons cannot represent holes).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, _json_int
from .evaluate import GroundTruthSet
from .geometry import (OVERHANG_TOL, AxisBox, BitMask, Polygon, mask_to_polygons,
                       polygon_to_mask, winds_once)
from .pseudolabel import PseudoLabel, ScoredDetection
from .suppress import DetectionSet

SCHEMA_VERSION = "1"
# the largest frame, in pixels, that a file may declare: masks and rasters
# are sized by the frame, so a larger one is refused before any is allocated
MAX_PIXELS = 2**28


# ---------------------------------------------------------------------------
# canonical JSON


def format_float(x: float) -> str:
    """A Python float with 17 significant digits, always with a decimal point
    or exponent; non-finite values raise ValueError."""
    s = format(x, ".17g")
    if "." in s or "e" in s:
        return s
    if not math.isfinite(x):  # "inf" and "nan" carry neither
        raise ValueError(f"cannot serialize non-finite number {x}")
    return s + ".0"


_encode_str = json.JSONEncoder(ensure_ascii=False).encode

# the text of each JSON scalar, keyed on its exact Python type, so that a bool
# is not taken for an int
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    float: format_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def dumps_canonical(obj) -> str:
    """Canonical JSON text: no whitespace, keys in insertion order and written
    as ``str(key)``, tuples as lists, numpy integer and floating scalars as
    the equal Python number. Anything else raises TypeError."""
    text = _SCALAR_TEXT.get(type(obj))
    if text is not None:
        return text(obj)
    if isinstance(obj, dict):
        return "{" + ",".join([_encode_str(str(key)) + ":" + dumps_canonical(value)
                               for key, value in obj.items()]) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join([dumps_canonical(value) for value in obj]) + "]"
    if isinstance(obj, np.integer):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return format_float(float(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_canonical(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(obj))
        fh.write("\n")


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _check_frame(width: int, height: int, what: str) -> None:
    if width < 1 or height < 1:
        raise ParseError(f"{what} dimensions must be positive, got {width}x{height}")
    if width * height > MAX_PIXELS:
        raise ParseError(f"{what} of {width}x{height} exceeds {MAX_PIXELS} pixels")


def _check_schema(doc, path) -> None:
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    version = doc.get("schemaVersion")
    if version != SCHEMA_VERSION:
        raise ParseError(f"{path}: unrecognized schemaVersion {version!r}")


# ---------------------------------------------------------------------------
# run-length encoded masks


def rle_encode(mask: BitMask) -> dict:
    """Alternating run lengths over row-major order, starting from value 0.

    Set runs are found per crop row; a run ending on the frame's right edge
    joins one starting on the next row's left edge.
    """
    width, height = mask.width, mask.height
    h, w = mask.crop.shape
    padded = np.zeros((h, w + 2), np.int8)
    padded[:, 1:-1] = mask.crop
    row, col = np.divmod(np.flatnonzero(np.diff(padded, axis=1)), w + 1)
    edges = (row + mask.y0) * width + col + mask.x0  # start, end, start, end, ...
    seam = np.flatnonzero(edges[2::2] == edges[1:-1:2])  # end == next start
    edges = np.delete(edges, np.concatenate([2 * seam + 1, 2 * seam + 2]))
    counts = np.diff(edges, prepend=0, append=width * height)
    if counts.size > 1 and counts[-1] == 0:  # the last run is a set run
        counts = counts[:-1]
    return {"width": width, "height": height, "counts": counts.tolist()}


def _json_numbers(values: list, what: str) -> np.ndarray:
    """A list of JSON numbers as float64, type-checked and converted in bulk.

    Bools, strings and nested values are rejected, and so is an integer
    literal too large for a double.
    """
    if not set(map(type, values)) <= {int, float}:
        raise ParseError(f"{what} must be JSON numbers")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError as exc:
        raise ParseError(f"{what} hold a number too large for a double") from exc


def rle_decode(obj) -> BitMask:
    """Inverse of :func:`rle_encode`, decoded straight into the crop.

    The crop spans the set pixels' rows and columns (all columns if a run
    wraps a row), so each run stays contiguous in its row-major order.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("counts"), (list, tuple)):
        raise ParseError("invalid RLE mask: needs width, height and a counts list")
    width = _json_int(obj.get("width"), "RLE width")
    height = _json_int(obj.get("height"), "RLE height")
    counts = obj["counts"]
    if not set(map(type, counts)) <= {int}:
        bad = next(c for c in counts if type(c) is not int)
        raise ParseError(f"RLE count must be an integer, got {bad!r}")
    _check_frame(width, height, "RLE mask")
    if min(counts, default=0) < 0 or sum(counts) != width * height:
        raise ParseError(
            f"RLE counts sum {sum(counts)} != {width}x{height} = {width * height}"
        )
    counts = np.array(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    starts, ends = (ends - counts)[1::2], ends[1::2]  # the set runs
    nonempty = ends > starts
    if not nonempty.any():
        return BitMask.empty(width, height)
    first_row, first_col = np.divmod(starts[nonempty], width)
    last_row, last_col = np.divmod(ends[nonempty] - 1, width)
    y0, y1 = int(first_row[0]), int(last_row[-1]) + 1
    if (first_row != last_row).any():
        x0, x1 = 0, width
    else:
        x0, x1 = int(first_col.min()), int(last_col.max()) + 1
    span = x1 - x0
    edges = np.empty(2 * first_row.size, np.int64)  # run bounds inside the crop
    edges[0::2] = (first_row - y0) * span + first_col - x0
    edges[1::2] = (last_row - y0) * span + last_col - x0 + 1
    lengths = np.diff(edges, prepend=0, append=(y1 - y0) * span)
    flat = np.repeat(np.arange(lengths.size) % 2 == 1, lengths)  # clear, set, ..., clear
    return BitMask.from_crop(width, height, x0, y0, flat.reshape(y1 - y0, span))


# ---------------------------------------------------------------------------
# image documents: a header, then one list of records
#
# Detection, weighted-label and ground-truth files share the layout
# {schemaVersion, imageId, imageWidth, imageHeight, <fields>, <list_key>: [...]}.


def _write_image_doc(path, image_id, width, height, fields: dict) -> None:
    if width is None or height is None:
        raise ValueError(f"{path}: image width and height are needed to save the file")
    write_canonical(path, {"schemaVersion": SCHEMA_VERSION, "imageId": image_id,
                           "imageWidth": width, "imageHeight": height, **fields})


def _read_image_doc(path, list_key):
    """Returns (doc, image_id, width, height, records) of a checked document."""
    doc = read_json(path)
    _check_schema(doc, path)
    if "imageId" not in doc:
        raise ParseError(f"{path}: bad image header: no 'imageId'")
    width = _json_int(doc.get("imageWidth"), f"{path}: imageWidth")
    height = _json_int(doc.get("imageHeight"), f"{path}: imageHeight")
    _check_frame(width, height, f"{path}: image")
    records = doc.get(list_key)
    if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise ParseError(f"{path}: {list_key!r} must be a list of objects")
    return doc, str(doc["imageId"]), width, height, records


def _check_in_frame(what, coords, width, height, path) -> None:
    """``coords`` [xmin, ymin, xmax, ymax] may overhang the canvas by 1 px;
    NaN is never in frame."""
    xmin, ymin, xmax, ymax = coords
    if not (-OVERHANG_TOL <= xmin and -OVERHANG_TOL <= ymin
            and xmax <= width + OVERHANG_TOL and ymax <= height + OVERHANG_TOL):
        raise ParseError(
            f"{path}: {what} {coords} outside image bounds {width}x{height} (+1 px slack)"
        )


def _box_from_json(raw, width, height, path) -> AxisBox:
    if not isinstance(raw, list) or len(raw) != 4:
        raise ParseError(f"{path}: box must be a list of 4 numbers, got {raw!r}")
    vals = _json_numbers(raw, f"{path}: box coordinates").tolist()
    _check_in_frame("box", vals, width, height, path)
    try:
        return AxisBox(*vals)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _polygon_from_json(raw, width, height, path) -> Polygon:
    if not isinstance(raw, list) or len(raw) < 3:
        raise ParseError(f"{path}: polygon must list >= 3 points")
    if not all(isinstance(p, list) and len(p) == 2 for p in raw):
        raise ParseError(f"{path}: polygon points must be [x, y] number pairs")
    pts = _json_numbers([c for p in raw for c in p], f"{path}: polygon points")
    pts = pts.reshape(-1, 2).tolist()
    xs, ys = zip(*pts)
    _check_in_frame("polygon extent", [min(xs), min(ys), max(xs), max(ys)], width, height, path)
    # clamp the permitted 1 px overhang onto the canvas for rasterization; a
    # NaN vertex survives the clamp and is rejected by Polygon
    w, h = float(width), float(height)
    try:
        return Polygon(tuple((min(max(x, 0.0), w), min(max(y, 0.0), h)) for x, y in pts))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _mask_from_record(record, width, height, path) -> BitMask:
    if "mask" in record:
        mask = rle_decode(record["mask"])
        if (mask.width, mask.height) != (width, height):
            raise ParseError(
                f"{path}: mask dimensions {mask.width}x{mask.height} != "
                f"image {width}x{height}"
            )
        return mask
    polys = record.get("polygons")
    if polys is None and "polygon" in record:
        polys = [record["polygon"]]
    if not polys or not isinstance(polys, list):
        raise ParseError(f"{path}: record carries neither a mask nor a list of polygons")
    masks = [polygon_to_mask(_polygon_from_json(raw, width, height, path), width, height)
             for raw in polys]
    pieces = [m for m in masks if not m.is_empty()] or masks[:1]
    if len(pieces) == 1:
        return pieces[0]
    # union of the pieces, pasted into the box that covers all their crops
    boxes = [m.crop_box() for m in pieces]
    x0, y0 = min(b[0] for b in boxes), min(b[1] for b in boxes)
    x1, y1 = max(b[2] for b in boxes), max(b[3] for b in boxes)
    bits = np.zeros((y1 - y0, x1 - x0), dtype=bool)
    for m, (mx0, my0, mx1, my1) in zip(pieces, boxes):
        bits[my0 - y0:my1 - y0, mx0 - x0:mx1 - x0] |= m.crop
    return BitMask.from_crop(width, height, x0, y0, bits)


def _scored_record(item, value_key: str, value: float) -> dict:
    return {"box": [item.box.xmin, item.box.ymin, item.box.xmax, item.box.ymax],
            value_key: value, "mask": rle_encode(item.mask)}


def _read_scored_records(path, list_key: str, value_key: str):
    """Returns (doc, image_id, width, height, [(value, box, mask), ...]), where
    each value is a JSON number in [0, 1]."""
    doc, image_id, width, height, records = _read_image_doc(path, list_key)
    rows = []
    for record in records:
        value = record.get(value_key)
        if type(value) not in (int, float) or not 0.0 <= value <= 1.0:
            raise ParseError(f"{path}: {value_key} must be a number in [0, 1], got {value!r}")
        rows.append((float(value), _box_from_json(record.get("box"), width, height, path),
                     _mask_from_record(record, width, height, path)))
    return doc, image_id, width, height, rows


# ---------------------------------------------------------------------------
# detection files


def save_detection_file(path, det_set: DetectionSet) -> None:
    _write_image_doc(path, det_set.image_id, det_set.image_width, det_set.image_height, {
        "sourceTag": det_set.source_tag,
        "scaleFactor": det_set.scale_factor,
        "detections": [_scored_record(det, "score", det.score) for det in det_set.detections],
    })


def load_detection_file(path) -> DetectionSet:
    doc, image_id, width, height, rows = _read_scored_records(path, "detections", "score")
    detections = []
    for score, box, mask in rows:
        det = ScoredDetection(mask=mask, box=box, score=score)
        try:
            det.validate()
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        detections.append(det)
    scale = doc.get("scaleFactor", 1.0)
    # an integer above the largest double would overflow float()
    if type(scale) not in (int, float) or not 0.0 < scale <= sys.float_info.max:
        raise ParseError(f"{path}: scaleFactor must be a finite number > 0, got {scale!r}")
    return DetectionSet(image_id=image_id, detections=detections,
                        source_tag=str(doc.get("sourceTag", "")), image_width=width,
                        image_height=height, scale_factor=float(scale))


# ---------------------------------------------------------------------------
# weighted label files


@dataclass
class WeightedLabelSet:
    image_id: str
    labels: list
    source_tag: str = ""
    image_width: int | None = None
    image_height: int | None = None


def save_weighted_label_file(path, labels, image_id: str, width: int, height: int,
                             source_tag: str = "fusion") -> None:
    """Per label: the box, the weight, the mask and its contour polygons."""
    records = []
    for label in labels:
        record = _scored_record(label, "weight", label.weight)
        record["polygons"] = [[[x, y] for x, y in poly.vertices]
                              for poly in mask_to_polygons(label.mask)]
        records.append(record)
    _write_image_doc(path, image_id, width, height,
                     {"sourceTag": source_tag, "scaleFactor": 1.0, "labels": records})


def load_weighted_label_file(path) -> WeightedLabelSet:
    doc, image_id, width, height, rows = _read_scored_records(path, "labels", "weight")
    return WeightedLabelSet(
        image_id=image_id,
        labels=[PseudoLabel(mask=mask, box=box, weight=weight) for weight, box, mask in rows],
        source_tag=str(doc.get("sourceTag", "")),
        image_width=width,
        image_height=height,
    )


# ---------------------------------------------------------------------------
# ground truth files


def save_ground_truth_file(path, gt: GroundTruthSet) -> None:
    _write_image_doc(path, gt.image_id, gt.image_width, gt.image_height, {"instances": [
        {"polygon": [[x, y] for x, y in poly.vertices], "ignore": bool(ignore)}
        for poly, ignore in zip(gt.instances, gt.ignore_flags)
    ]})


def load_ground_truth_file(path) -> GroundTruthSet:
    _, image_id, width, height, records = _read_image_doc(path, "instances")
    instances, flags = [], []
    for k, record in enumerate(records):
        poly = _polygon_from_json(record.get("polygon"), width, height, path)
        # where the boundary winds twice or clockwise, the shoelace area
        # disagrees with the region it rasterizes to, so IoU would be wrong
        if not winds_once(poly):
            raise ParseError(f"{path}: instance {k}: polygon boundary crosses itself")
        instances.append(poly)
        ignore = record.get("ignore", False)
        if type(ignore) is not bool:
            raise ParseError(f"{path}: 'ignore' must be true or false, got {ignore!r}")
        flags.append(ignore)
    return GroundTruthSet(image_id=image_id, instances=instances, ignore_flags=flags,
                          image_width=width, image_height=height)


# ---------------------------------------------------------------------------
# named tensor files


def _data_text(flat: np.ndarray) -> str:
    """``dumps_canonical(flat.tolist())`` without its brackets, in one ``%``
    formatting call. ``%.17g`` writes neither a ``.`` nor an ``e`` only for
    integral values below 1e17 in magnitude (-0.0 among them), so exactly
    those get ``.0`` appended; non-finite values raise ValueError."""
    finite = np.isfinite(flat)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite number {float(flat[~finite][0])}")
    fmt = ["%.17g"] * flat.size
    for i in np.flatnonzero((flat == np.floor(flat)) & (np.abs(flat) < 1e17)).tolist():
        fmt[i] = "%.17g.0"
    return ",".join(fmt) % tuple(flat.tolist())


def _payload(arrays: dict) -> tuple[str, str]:
    """The canonical text of a tensor payload and its sha256: the payload is
    {name: {"shape", "data"}} in name order, with data as float64 values in
    row-major order, the same text ``dumps_canonical`` gives that dict."""
    text = "{" + ",".join([
        _encode_str(str(name)) + ':{"shape":' + dumps_canonical(arrays[name].shape)
        + ',"data":[' + _data_text(arrays[name].ravel()) + "]}"
        for name in sorted(arrays)]) + "}"
    return text, hashlib.sha256(text.encode("utf-8")).hexdigest()


def save_tensor_file(path, tensors: dict, module: str = "tensors", config=None) -> None:
    payload, checksum = _payload({name: np.asarray(t, dtype=np.float64)
                                  for name, t in tensors.items()})
    head = dumps_canonical({"schemaVersion": SCHEMA_VERSION, "module": module, "config": config})
    with open(path, "w", encoding="utf-8") as fh:  # the payload text goes in as hashed
        fh.writelines([head[:-1], ',"tensors":', payload, ',"checksum":"', checksum, '"}\n'])


def load_tensor_file(path):
    """Returns (module, config, {name: float64 array}); verifies the checksum."""
    doc = read_json(path)
    _check_schema(doc, path)
    raw = doc.get("tensors")
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: 'tensors' must be an object")
    tensors = {}
    for name in sorted(raw):
        entry = raw[name] if isinstance(raw[name], dict) else {}
        shape, data = entry.get("shape"), entry.get("data")
        if not isinstance(shape, list) or not isinstance(data, list):
            raise ParseError(f"{path}: tensor {name!r} needs a 'shape' list and a 'data' list")
        for e in shape:
            if _json_int(e, f"{path}: tensor {name!r} shape entry") < 1:
                raise ParseError(f"{path}: tensor {name!r} has an empty extent {shape}")
        expected = math.prod(shape)
        if expected != len(data):
            raise ParseError(
                f"{path}: tensor {name!r} declares shape {shape} "
                f"({expected} values) but carries {len(data)}"
            )
        arr = _json_numbers(data, f"{path}: tensor {name!r} data")
        if not np.isfinite(arr).all():
            raise ParseError(f"{path}: tensor {name!r} holds a non-finite value")
        tensors[name] = arr.reshape(shape)
    stored = doc.get("checksum")
    _, actual = _payload(tensors)
    if stored != actual:
        raise ParseError(f"{path}: checksum mismatch ({stored!r} != {actual!r})")
    return str(doc.get("module", "tensors")), doc.get("config"), tensors
