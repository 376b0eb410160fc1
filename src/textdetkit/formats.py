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

import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, _json_int, _json_str
from .evaluate import GroundTruthSet
from .geometry import OVERHANG_TOL, AxisBox, BitMask, Polygon, mask_to_polygons, polygon_to_mask
from .pseudolabel import PseudoLabel, ScoredDetection
from .suppress import DetectionSet

SCHEMA_VERSION = "1"
# the largest frame, in pixels, that a file may declare, and the most pixels
# that the mask crops of one file may decode to: each crop is at most a frame,
# so a larger frame is refused before any is allocated, and a file stops
# decoding once its crops pass this total
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


_encode_json_str = json.JSONEncoder(ensure_ascii=False).encode


def _encode_str(s: str) -> str:
    """A JSON string literal; lone surrogates, which have no UTF-8 bytes, are escaped."""
    return _encode_json_str(s).encode("utf-8", "backslashreplace").decode("utf-8")


# the text of each JSON scalar, keyed on its exact Python type, so that a bool
# is not taken for an int
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    float: format_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _array_text(a: np.ndarray) -> str:
    """``dumps_canonical(a.tolist())`` of a float64 array, in one ``%``
    formatting call. ``%.17g`` writes neither a ``.`` nor an ``e`` only for
    integral values below 1e17 in magnitude (-0.0 among them), so exactly
    those get ``.0`` appended; non-finite values raise ValueError."""
    if a.size == 0:
        return dumps_canonical(a.tolist())
    flat = a.ravel()
    if not np.isfinite(flat).all():
        raise ValueError(f"cannot serialize non-finite number {flat[~np.isfinite(flat)][0]}")
    parts = ["%.17g"] * flat.size
    for i in np.flatnonzero((flat == np.floor(flat)) & (np.abs(flat) < 1e17)).tolist():
        parts[i] = "%.17g.0"
    for n in reversed(a.shape):  # bracket the innermost axis first
        parts = ["[" + ",".join(parts[i:i + n]) + "]" for i in range(0, len(parts), n)]
    return parts[0] % tuple(flat.tolist())


def dumps_canonical(obj) -> str:
    """Canonical JSON text: no whitespace, keys in insertion order and written
    as ``str(key)``, tuples as lists, numpy integer and floating scalars as
    the equal Python number, float64 arrays as nested lists. Anything else
    raises TypeError."""
    text = _SCALAR_TEXT.get(type(obj))
    if text is not None:
        return text(obj)
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64:
        return _array_text(obj)
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


def _reads_file(read):
    """``read(path)`` with any fault of the file raised as a ParseError that
    names it: what a reader does depends only on the file's bytes, so each
    ValueError (a record rule, JSON syntax, an integer over Python's digit
    limit), RecursionError (deep nesting) and OSError is the file's fault."""
    @functools.wraps(read)
    def reader(path):
        try:
            return read(path)
        except (ValueError, RecursionError, OSError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
    return reader


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


read_json = _reads_file(_load_json)


def _check_frame(width: int, height: int, what: str) -> None:
    if width < 1 or height < 1:
        raise ParseError(f"{what} dimensions must be positive, got {width}x{height}")
    if width * height > MAX_PIXELS:
        raise ParseError(f"{what} of {width}x{height} exceeds {MAX_PIXELS} pixels")


def _check_schema(doc) -> None:
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    version = doc.get("schemaVersion")
    if version != SCHEMA_VERSION:
        raise ParseError(f"unrecognized schemaVersion {version!r}")


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
    if min(counts, default=0) < 0:
        raise ParseError(f"RLE count must be non-negative, got {min(counts)}")
    if sum(counts) != width * height:
        raise ParseError(f"RLE counts sum {sum(counts)} != {width}x{height} = {width * height}")
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
    doc = _load_json(path)
    _check_schema(doc)
    image_id = _json_str(doc.get("imageId"), "imageId")
    width = _json_int(doc.get("imageWidth"), "imageWidth")
    height = _json_int(doc.get("imageHeight"), "imageHeight")
    _check_frame(width, height, "image")
    records = doc.get(list_key)
    if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise ParseError(f"{list_key!r} must be a list of objects")
    return doc, image_id, width, height, records


def _pixel_budget():
    """A function that charges a decoded mask's crop to the file's total of
    MAX_PIXELS and returns the mask: a run-length mask or a polygon of a few
    bytes can decode to a crop the size of its frame."""
    left = MAX_PIXELS

    def charge(mask: BitMask) -> BitMask:
        nonlocal left
        left -= mask.crop.size
        if left < 0:
            raise ParseError(f"mask crops exceed {MAX_PIXELS} pixels in total")
        return mask

    return charge


def _check_in_frame(what, coords, width, height) -> None:
    """``coords`` [xmin, ymin, xmax, ymax] may overhang the canvas by 1 px;
    NaN is never in frame."""
    xmin, ymin, xmax, ymax = coords
    if not (-OVERHANG_TOL <= xmin and -OVERHANG_TOL <= ymin
            and xmax <= width + OVERHANG_TOL and ymax <= height + OVERHANG_TOL):
        raise ParseError(f"{what} {coords} outside image bounds {width}x{height} (+1 px slack)")


def _box_from_json(raw, width, height) -> AxisBox:
    if not isinstance(raw, list) or len(raw) != 4:
        raise ParseError(f"box must be a list of 4 numbers, got {raw!r}")
    vals = _json_numbers(raw, "box coordinates").tolist()
    _check_in_frame("box", vals, width, height)
    return AxisBox(*vals)


def _polygon_from_json(raw, width, height) -> Polygon:
    if not isinstance(raw, list) or len(raw) < 3:
        raise ParseError("polygon must list >= 3 points")
    if not all(isinstance(p, list) and len(p) == 2 for p in raw):
        raise ParseError("polygon points must be [x, y] number pairs")
    pts = _json_numbers([c for p in raw for c in p], "polygon points").reshape(-1, 2)
    # the extent skips NaN, which Polygon rejects as not finite
    extent = np.fmin.reduce(pts).tolist() + np.fmax.reduce(pts).tolist()
    _check_in_frame("polygon extent", extent, width, height)
    # clamp the permitted 1 px overhang onto the canvas for rasterization
    return Polygon(np.clip(pts, 0.0, (float(width), float(height))))


def _mask_from_record(record, width, height, charge) -> BitMask:
    """The record's mask; each crop decoded for it goes through ``charge``."""
    if "mask" in record:
        mask = rle_decode(record["mask"])
        if (mask.width, mask.height) != (width, height):
            raise ParseError(f"mask dimensions {mask.width}x{mask.height} != "
                             f"image {width}x{height}")
        return charge(mask)
    polys = record.get("polygons")
    if polys is None and "polygon" in record:
        polys = [record["polygon"]]
    if not polys or not isinstance(polys, list):
        raise ParseError("record carries neither a mask nor a list of polygons")
    masks = [charge(polygon_to_mask(_polygon_from_json(raw, width, height), width, height))
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
    return charge(BitMask.from_crop(width, height, x0, y0, bits))


def _scored_record(item, value_key: str, value: float) -> dict:
    return {"box": [item.box.xmin, item.box.ymin, item.box.xmax, item.box.ymax],
            value_key: value, "mask": rle_encode(item.mask)}


def _read_scored_records(path, list_key: str, record_type, value_key: str):
    """Returns (image_id, width, height, source_tag, scale_factor, items), each
    item built as ``record_type(mask, box, value)`` from a JSON number value."""
    doc, image_id, width, height, records = _read_image_doc(path, list_key)
    source_tag = _json_str(doc.get("sourceTag", ""), "sourceTag")
    scale = doc.get("scaleFactor", 1.0)
    # an integer above the largest double would overflow float()
    if type(scale) not in (int, float) or not 0.0 < scale <= sys.float_info.max:
        raise ParseError(f"scaleFactor must be a finite number > 0, got {scale!r}")
    charge = _pixel_budget()
    items = []
    for record in records:
        value = record.get(value_key)
        if type(value) not in (int, float):
            raise ParseError(f"{value_key} must be a JSON number, got {value!r}")
        box = _box_from_json(record.get("box"), width, height)
        mask = _mask_from_record(record, width, height, charge)
        items.append(record_type(mask, box, value))
    return image_id, width, height, source_tag, float(scale), items


# ---------------------------------------------------------------------------
# detection files


def save_detection_file(path, det_set: DetectionSet) -> None:
    _write_image_doc(path, det_set.image_id, det_set.image_width, det_set.image_height, {
        "sourceTag": det_set.source_tag,
        "scaleFactor": det_set.scale_factor,
        "detections": [_scored_record(det, "score", det.score) for det in det_set.detections],
    })


@_reads_file
def load_detection_file(path) -> DetectionSet:
    image_id, width, height, source_tag, scale, detections = _read_scored_records(
        path, "detections", ScoredDetection, "score")
    return DetectionSet(image_id=image_id, detections=detections, source_tag=source_tag,
                        image_width=width, image_height=height, scale_factor=scale)


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
        record["polygons"] = [poly.vertices for poly in mask_to_polygons(label.mask)]
        records.append(record)
    _write_image_doc(path, image_id, width, height,
                     {"sourceTag": source_tag, "scaleFactor": 1.0, "labels": records})


@_reads_file
def load_weighted_label_file(path) -> WeightedLabelSet:
    image_id, width, height, source_tag, _, labels = _read_scored_records(
        path, "labels", PseudoLabel, "weight")
    return WeightedLabelSet(image_id=image_id, labels=labels, source_tag=source_tag,
                            image_width=width, image_height=height)


# ---------------------------------------------------------------------------
# ground truth files


def save_ground_truth_file(path, gt: GroundTruthSet) -> None:
    _write_image_doc(path, gt.image_id, gt.image_width, gt.image_height, {"instances": [
        {"polygon": poly.vertices, "ignore": bool(ignore)}
        for poly, ignore in zip(gt.instances, gt.ignore_flags)
    ]})


@_reads_file
def load_ground_truth_file(path) -> GroundTruthSet:
    _, image_id, width, height, records = _read_image_doc(path, "instances")
    instances, flags = [], []
    for record in records:
        instances.append(_polygon_from_json(record.get("polygon"), width, height))
        ignore = record.get("ignore", False)
        if type(ignore) is not bool:
            raise ParseError(f"'ignore' must be true or false, got {ignore!r}")
        flags.append(ignore)
    return GroundTruthSet(image_id, instances, flags, width, height)


# ---------------------------------------------------------------------------
# named tensor files


def _payload(arrays: dict) -> tuple[str, str]:
    """The canonical text of a tensor payload, {name: {"shape", "data"}} in
    name order with the data in row-major order, and its sha256."""
    text = dumps_canonical({name: {"shape": arrays[name].shape, "data": arrays[name].ravel()}
                            for name in sorted(arrays)})
    return text, hashlib.sha256(text.encode("utf-8")).hexdigest()


def save_tensor_file(path, tensors: dict, module: str = "tensors", config=None) -> None:
    payload, checksum = _payload({name: np.asarray(t, dtype=np.float64)
                                  for name, t in tensors.items()})
    head = dumps_canonical({"schemaVersion": SCHEMA_VERSION, "module": module, "config": config})
    with open(path, "w", encoding="utf-8") as fh:  # the payload text goes in as hashed
        fh.writelines([head[:-1], ',"tensors":', payload, ',"checksum":"', checksum, '"}\n'])


@_reads_file
def load_tensor_file(path):
    """Returns (module, config, {name: float64 array}); verifies the checksum."""
    doc = _load_json(path)
    _check_schema(doc)
    raw = doc.get("tensors")
    if not isinstance(raw, dict):
        raise ParseError("'tensors' must be an object")
    tensors = {}
    for name in sorted(raw):
        entry = raw[name] if isinstance(raw[name], dict) else {}
        shape, data = entry.get("shape"), entry.get("data")
        if not isinstance(shape, list) or not isinstance(data, list):
            raise ParseError(f"tensor {name!r} needs a 'shape' list and a 'data' list")
        for e in shape:
            if _json_int(e, f"tensor {name!r} shape entry") < 1:
                raise ParseError(f"tensor {name!r} has an empty extent {shape}")
        expected = math.prod(shape)
        if expected != len(data):
            raise ParseError(f"tensor {name!r} declares shape {shape} "
                             f"({expected} values) but carries {len(data)}")
        arr = _json_numbers(data, f"tensor {name!r} data")
        if not np.isfinite(arr).all():
            raise ParseError(f"tensor {name!r} holds a non-finite value")
        tensors[name] = arr.reshape(shape)
    stored = doc.get("checksum")
    _, actual = _payload(tensors)
    if stored != actual:
        raise ParseError(f"checksum mismatch ({stored!r} != {actual!r})")
    return _json_str(doc.get("module", "tensors"), "module"), doc.get("config"), tensors
