import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from textdetkit import formats
from textdetkit.errors import ParseError
from textdetkit.evaluate import GroundTruthSet
from textdetkit.geometry import AxisBox, BitMask, Polygon, polygon_to_mask
from textdetkit.pseudolabel import PseudoLabel, ScoredDetection
from textdetkit.suppress import DetectionSet

from conftest import random_blob_mask, random_detections, tensor_payload


_SQUARE = [[0, 0], [4, 0], [4, 4], [0, 4]]


def _image_doc(list_key, record, **header):
    return {"schemaVersion": "1", "imageId": "img", "imageWidth": 8, "imageHeight": 8,
            **header, list_key: [record]}


_DET = {"box": [0.0, 0.0, 4.0, 4.0], "score": 0.5, "polygon": _SQUARE}
_LABEL = {"box": [0.0, 0.0, 4.0, 4.0], "weight": 0.5, "polygon": _SQUARE}


class TestCanonicalJson:
    def test_floats_round_trip_exactly(self, rng):
        for _ in range(200):
            x = float(rng.normal() * 10 ** int(rng.integers(-8, 9)))
            assert float(json.loads(formats.format_float(x))) == x

    def test_floats_stay_floats(self):
        assert formats.format_float(1.0) == "1.0"
        assert formats.format_float(-0.0) == "-0.0"
        assert isinstance(json.loads(formats.format_float(3.0)), float)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            formats.format_float(float("inf"))

    def test_deterministic_bytes(self, rng):
        obj = {"a": [1, 2.5, "x"], "b": {"c": True, "d": None}}
        assert formats.dumps_canonical(obj) == formats.dumps_canonical(obj)
        assert formats.dumps_canonical(obj) == '{"a":[1,2.5,"x"],"b":{"c":true,"d":null}}'

    @pytest.mark.parametrize("value, python", [
        (np.float64(0.1), 0.1), (np.float64(-3.0), -3.0), (np.float32(0.1), float(np.float32(0.1))),
        (np.int64(-7), -7), (np.int64(2**62), 2**62), (np.uint8(200), 200),
    ])
    def test_numpy_scalars_write_as_python_numbers(self, value, python):
        assert formats.dumps_canonical(value) == formats.dumps_canonical(python)
        assert formats.dumps_canonical([value, {"k": value}]) == \
            formats.dumps_canonical([python, {"k": python}])

    def test_tuples_and_key_types(self):
        assert formats.dumps_canonical((1, (2.0, "é"))) == formats.dumps_canonical([1, [2.0, "é"]])
        assert formats.dumps_canonical({1: True, None: [], 2.5: {}}) == \
            '{"1":true,"None":[],"2.5":{}}'

    @pytest.mark.parametrize("value", [{1, 2}, np.zeros(2), np.bool_(True), [np.bool_(False)],
                                       {"k": object()}],
                             ids=["set", "ndarray", "np.bool_", "nested np.bool_", "object"])
    def test_other_types_rejected(self, value):
        with pytest.raises(TypeError, match="cannot serialize"):
            formats.dumps_canonical(value)


class TestRle:
    def test_round_trip_random(self, rng):
        for _ in range(20):
            mask = random_blob_mask(rng, int(rng.integers(3, 40)), int(rng.integers(3, 40)),
                                    hole_free=False)
            assert formats.rle_decode(formats.rle_encode(mask)) == mask

    def test_empty_and_full(self):
        empty = BitMask.empty(5, 4)
        assert formats.rle_encode(empty)["counts"] == [20]
        full = BitMask.from_array(np.ones((4, 5), bool))
        assert formats.rle_encode(full)["counts"] == [0, 20]
        assert formats.rle_decode(formats.rle_encode(full)) == full

    def test_bad_counts_rejected(self):
        for counts in ([3], [2**70], [-1, 17], [2**70, 16 - 2**70]):
            with pytest.raises(ParseError):
                formats.rle_decode({"width": 4, "height": 4, "counts": counts})

    @pytest.mark.parametrize("counts", [[0, 10.7, 6.0], [True, 15], [0, 16.0], ["16"]])
    def test_non_integer_counts_rejected(self, counts):
        with pytest.raises(ParseError, match="integer"):
            formats.rle_decode({"width": 4, "height": 4, "counts": counts})

    def test_zero_length_runs_accepted(self):
        mask = formats.rle_decode({"width": 3, "height": 2, "counts": [1, 2, 0, 1, 2]})
        assert mask.bits.tolist() == [[False, True, True], [True, False, False]]


class TestDetectionFiles:
    def test_round_trip(self, tmp_path, rng):
        dets = random_detections(rng, 5, 32, 32)
        original = DetectionSet("img-7", dets, source_tag="model-a",
                                image_width=32, image_height=32, scale_factor=1.5)
        path = tmp_path / "dets.json"
        formats.save_detection_file(path, original)
        loaded = formats.load_detection_file(path)
        assert loaded.image_id == original.image_id
        assert loaded.source_tag == "model-a"
        assert loaded.scale_factor == 1.5
        assert len(loaded.detections) == len(dets)
        for got, want in zip(loaded.detections, dets):
            assert got.mask == want.mask
            assert got.box.as_tuple() == want.box.as_tuple()
            assert got.score == want.score

    def test_polygon_only_record_accepted(self, tmp_path):
        doc = {
            "schemaVersion": "1", "imageId": "img", "imageWidth": 16, "imageHeight": 16,
            "sourceTag": "", "scaleFactor": 1.0,
            "detections": [{
                "box": [2.0, 2.0, 6.0, 6.0], "score": 0.5,
                "polygon": [[2, 2], [6, 2], [6, 6], [2, 6]],
            }],
        }
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(doc))
        loaded = formats.load_detection_file(path)
        assert loaded.detections[0].mask.count() == 16

    def test_polygon_pieces_are_united(self, tmp_path):
        pieces = [[[2, 2], [6, 2], [6, 6], [2, 6]], [[4, 4], [9, 4], [9, 7], [4, 7]],
                  [[12, 1], [14, 1], [14, 3], [12, 3]]]
        doc = {
            "schemaVersion": "1", "imageId": "img", "imageWidth": 16, "imageHeight": 16,
            "sourceTag": "", "scaleFactor": 1.0,
            "detections": [{"box": [2.0, 1.0, 14.0, 7.0], "score": 0.5, "polygons": pieces}],
        }
        path = tmp_path / "pieces.json"
        path.write_text(json.dumps(doc))
        want = np.zeros((16, 16), bool)
        for piece in pieces:
            want |= polygon_to_mask(Polygon(tuple(map(tuple, piece))), 16, 16).bits
        mask = formats.load_detection_file(path).detections[0].mask
        assert np.array_equal(mask.bits, want)
        assert mask.foreground_box().as_tuple() == (2.0, 1.0, 14.0, 7.0)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schemaVersion": "9"}')
        with pytest.raises(ParseError, match="schemaVersion"):
            formats.load_detection_file(path)

    def test_out_of_bounds_box_rejected(self, tmp_path):
        doc = {
            "schemaVersion": "1", "imageId": "img", "imageWidth": 8, "imageHeight": 8,
            "sourceTag": "", "scaleFactor": 1.0,
            "detections": [{"box": [0.0, 0.0, 12.0, 4.0], "score": 0.5,
                            "polygon": [[0, 0], [4, 0], [4, 4], [0, 4]]}],
        }
        path = tmp_path / "oob.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="bounds"):
            formats.load_detection_file(path)

    def test_score_range_enforced(self, tmp_path):
        doc = {
            "schemaVersion": "1", "imageId": "img", "imageWidth": 8, "imageHeight": 8,
            "sourceTag": "", "scaleFactor": 1.0,
            "detections": [{"box": [0.0, 0.0, 4.0, 4.0], "score": 1.5,
                            "polygon": [[0, 0], [4, 0], [4, 4], [0, 4]]}],
        }
        path = tmp_path / "score.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="score"):
            formats.load_detection_file(path)

    def test_bool_score_rejected(self, tmp_path):
        doc = {
            "schemaVersion": "1", "imageId": "img", "imageWidth": 8, "imageHeight": 8,
            "sourceTag": "", "scaleFactor": 1.0,
            "detections": [{"box": [0.0, 0.0, 4.0, 4.0], "score": True,
                            "polygon": [[0, 0], [4, 0], [4, 4], [0, 4]]}],
        }
        path = tmp_path / "score.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="score"):
            formats.load_detection_file(path)

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            formats.load_detection_file(path)


class TestWeightedLabelFiles:
    def test_bool_weight_rejected(self, tmp_path):
        doc = {
            "schemaVersion": "1", "imageId": "img", "imageWidth": 8, "imageHeight": 8,
            "sourceTag": "fusion", "scaleFactor": 1.0,
            "labels": [{"box": [0.0, 0.0, 4.0, 4.0], "weight": True,
                        "mask": {"width": 8, "height": 8, "counts": [64]}}],
        }
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="weight"):
            formats.load_weighted_label_file(path)

    def test_empty_file_valid(self, tmp_path):
        path = tmp_path / "labels.json"
        formats.save_weighted_label_file(path, [], image_id="img", width=8, height=8)
        loaded = formats.load_weighted_label_file(path)
        assert loaded.labels == []
        assert loaded.image_id == "img"

    def test_single_label_round_trip(self, tmp_path, rng):
        mask = random_blob_mask(rng, 24, 24)
        label = PseudoLabel(mask=mask, box=mask.foreground_box(), weight=0.648)
        path = tmp_path / "one.json"
        formats.save_weighted_label_file(path, [label], image_id="img", width=24, height=24)
        loaded = formats.load_weighted_label_file(path)
        assert len(loaded.labels) == 1
        assert loaded.labels[0].mask == mask
        assert loaded.labels[0].weight == 0.648
        assert loaded.labels[0].box.as_tuple() == label.box.as_tuple()

    def test_fifty_random_labels_round_trip(self, tmp_path, rng):
        labels = []
        for _ in range(50):
            mask = random_blob_mask(rng, 20, 20, hole_free=False)
            labels.append(PseudoLabel(mask=mask, box=mask.foreground_box(),
                                      weight=float(rng.uniform(0, 1))))
        path = tmp_path / "many.json"
        formats.save_weighted_label_file(path, labels, image_id="img", width=20, height=20)
        loaded = formats.load_weighted_label_file(path)
        assert len(loaded.labels) == 50
        for got, want in zip(loaded.labels, labels):
            assert got.weight == want.weight
            assert got.mask == want.mask

    def test_records_carry_polygons(self, tmp_path, rng):
        mask = random_blob_mask(rng, 16, 16)
        label = PseudoLabel(mask=mask, box=mask.foreground_box(), weight=0.5)
        path = tmp_path / "poly.json"
        formats.save_weighted_label_file(path, [label], image_id="img", width=16, height=16)
        doc = json.loads(path.read_text())
        assert doc["labels"][0]["polygons"]
        assert doc["labels"][0]["mask"]["counts"]


class TestGroundTruthFiles:
    def test_round_trip(self, tmp_path):
        gt = GroundTruthSet(
            image_id="img",
            instances=[Polygon(((2, 2), (10, 2), (10, 8), (2, 8))),
                       Polygon(((12, 12), (20, 12), (16, 20)))],
            ignore_flags=[False, True],
            image_width=32, image_height=32,
        )
        path = tmp_path / "gt.json"
        formats.save_ground_truth_file(path, gt)
        loaded = formats.load_ground_truth_file(path)
        assert loaded.image_id == "img"
        assert loaded.ignore_flags == [False, True]
        assert loaded.instances[0].vertices == gt.instances[0].vertices

    @pytest.mark.parametrize("polygon, error", [
        ([[-1, -1], [9, -1], [9, 9]], None),  # the 1 px overhang is clamped
        ([[-1.5, 0], [4, 0], [4, 4]], "bounds"),
        ([[0, 0], [4, 0], [4, 9.5]], "bounds"),
        ([[0, 0], [4, 0], [float("nan"), 4]], "finite"),
        ([[0, 0], [4, 0], {"x": 4}], "pairs"),
        ([[0, 0], [4, 0], [4]], "pairs"),
        ([[0, 0], [6, 6], [6, 0], [0, 2]], "cross"),  # bow tie: area 12, fills 17 px
        ([[0, 0], [4, 0], [0, 4], [5, 5]], "cross"),  # hourglass with unequal lobes
        ([[1, 1], [7, 1], [7, 7], [3, 0], [1, 7]], "cross"),  # two edges cross a third
        # through (0.5, 1), a vertex inside the edge (0, 1)-(1, 1), from below to
        # above: shoelace area 1.5, even-odd area 2.0
        ([[0, 1], [1, 1], [1, 0], [0.5, 1], [1, 8]], "cross"),
        # (2, 0)-(0, 0) and (1, 0)-(4, 0) overlap on [1, 2], and nothing properly
        # crosses, but the loop through (2, 1) winds twice: shoelace area 3.5,
        # even-odd area 4.5
        ([[2, 0], [0, 0], [2, 1], [1, 0], [4, 0], [2, 4]], "cross"),
    ])
    def test_polygon_points(self, tmp_path, polygon, error):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(_image_doc("instances", {"polygon": polygon})))
        if error is None:
            poly = formats.load_ground_truth_file(path).instances[0]
            assert set(poly.vertices) == {(0.0, 0.0), (8.0, 0.0), (8.0, 8.0)}
        else:
            with pytest.raises(ParseError, match=error):
                formats.load_ground_truth_file(path)

    @pytest.mark.parametrize("polygon", [
        # the contour of two diagonal pixels passes through (1, 1) twice
        [[0, 0], [1, 0], [1, 1], [2, 1], [2, 2], [1, 2], [1, 1], [0, 1]],
        # two triangles pinched at (4, 0), which lies inside the edge (0, 0)-(8, 0)
        [[0, 0], [8, 0], [8, 8], [4, 0], [0, 8]],
        # a zero-width spike from (3, 6) down through the edge y = 2 to (3, 1)
        [[1, 2], [5, 2], [5, 6], [3, 6], [3, 1], [3, 6], [1, 6]],
    ])
    def test_weakly_simple_polygon_loads(self, tmp_path, polygon):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(_image_doc("instances", {"polygon": polygon})))
        poly = formats.load_ground_truth_file(path).instances[0]
        assert sorted(poly.vertices) == sorted((float(x), float(y)) for x, y in polygon)

    def test_random_round_trips(self, tmp_path, rng):
        for case in range(10):
            n = int(rng.integers(1, 5))
            instances = []
            for _ in range(n):
                x0, y0 = rng.uniform(1, 20, size=2)
                w, h = rng.uniform(2, 10, size=2)
                instances.append(Polygon((
                    (x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h))))
            flags = [bool(rng.random() < 0.3) for _ in range(n)]
            gt = GroundTruthSet(f"img{case}", instances, flags,
                                image_width=32, image_height=32)
            path = tmp_path / f"gt{case}.json"
            formats.save_ground_truth_file(path, gt)
            loaded = formats.load_ground_truth_file(path)
            assert loaded.ignore_flags == flags
            for got, want in zip(loaded.instances, instances):
                assert got.vertices == want.vertices


class TestHeaderAndFlagTypes:
    """Image sizes must be JSON integers and don't-care flags JSON bools; values
    that only look like them are parse errors, not silent conversions."""

    @pytest.mark.parametrize("load, doc, match", [
        (formats.load_detection_file, _image_doc("detections", _DET, imageWidth=32.7),
         "imageWidth"),
        (formats.load_detection_file, _image_doc("detections", _DET, imageWidth="32"),
         "imageWidth"),
        (formats.load_detection_file, _image_doc("detections", _DET, imageHeight=True),
         "imageHeight"),
        (formats.load_weighted_label_file, _image_doc("labels", _LABEL, imageWidth=8.0),
         "imageWidth"),
        (formats.load_ground_truth_file,
         _image_doc("instances", {"polygon": _SQUARE}, imageHeight=None), "imageHeight"),
        (formats.load_ground_truth_file,
         _image_doc("instances", {"polygon": _SQUARE, "ignore": "false"}), "ignore"),
        (formats.load_ground_truth_file,
         _image_doc("instances", {"polygon": _SQUARE, "ignore": 1}), "ignore"),
        (formats.load_ground_truth_file,
         _image_doc("instances", {"polygon": _SQUARE, "ignore": None}), "ignore"),
    ])
    def test_loose_values_rejected(self, tmp_path, load, doc, match):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=match):
            load(path)

    @pytest.mark.parametrize("height", [2**14, 2**14 + 1])
    def test_frame_cap(self, tmp_path, height):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps({"schemaVersion": "1", "imageId": "img",
                                    "imageWidth": 2**14, "imageHeight": height, "instances": []}))
        rle = {"width": 2**14, "height": height, "counts": [2**14 * height]}
        if 2**14 * height <= formats.MAX_PIXELS:
            assert formats.load_ground_truth_file(path).image_height == height
            assert formats.rle_decode(rle).is_empty()
        else:
            with pytest.raises(ParseError, match="exceeds"):
                formats.load_ground_truth_file(path)
            with pytest.raises(ParseError, match="exceeds"):
                formats.rle_decode(rle)

    def test_ignore_defaults_to_false(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(_image_doc("instances", {"polygon": _SQUARE})))
        assert formats.load_ground_truth_file(path).ignore_flags == [False]


def _golden_inputs():
    """Fixed writer inputs: odd float digits, a non-ASCII tag, a mask whose run
    wraps the right edge, a multi-component label mask with a hole, and a
    don't-care GT instance."""
    w, h = 20, 12
    rect = np.zeros((h, w), bool)
    rect[2:6, 3:9] = True
    wrap = np.zeros((h, w), bool)
    wrap[6, 17:] = True
    wrap[7, :2] = True
    ell = np.zeros((h, w), bool)
    ell[1:5, 10:12] = True
    ell[3:5, 12:15] = True
    dets = [
        ScoredDetection.from_mask(BitMask.from_array(rect), 0.9),
        ScoredDetection(mask=BitMask.from_array(wrap), box=AxisBox(0, 6, 20, 8), score=1 / 3),
        ScoredDetection(mask=BitMask.from_array(ell), box=AxisBox(9.5, 0.25, 15.0, 5.0),
                        score=1),
    ]
    det_set = DetectionSet("golden-7", dets, source_tag="mödel-a",
                           image_width=w, image_height=h, scale_factor=1.5)
    blobs = np.zeros((h, w), bool)
    blobs[1:6, 1:6] = True
    blobs[3, 3] = False  # a hole
    blobs[7:10, 12:18] = True
    blobs[9, 19] = True
    labels = [
        PseudoLabel(mask=BitMask.from_array(blobs), box=AxisBox(1, 1, 20, 10),
                    weight=0.9 * 0.8 * 0.7),
        PseudoLabel(mask=BitMask.from_array(rect), box=AxisBox(2.5, 2, 9, 6.125),
                    weight=0.6 * 0.7 * 0.5),
    ]
    gt = GroundTruthSet(
        "golden-7",
        [Polygon(((1.5, 2.25), (8.0, 2.0), (8.75, 6.5), (1.0, 6.0))),
         Polygon(((12, 7), (18, 7), (18, 10), (12, 10)))],
        [False, True], image_width=w, image_height=h,
    )
    return det_set, labels, gt


class TestWriterGoldenBytes:
    """The writers' exact output bytes, pinned: key order, float digits and
    record order may not drift."""

    def _digest(self, path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_detection_file(self, tmp_path):
        det_set, _, _ = _golden_inputs()
        path = tmp_path / "dets.json"
        formats.save_detection_file(path, det_set)
        assert self._digest(path) == "e676c99d9ea8344a1d35e08a6d36706a6886f4a1bd496bddcd064ca5f8f1f4cb"

    def test_weighted_label_file(self, tmp_path):
        _, labels, _ = _golden_inputs()
        path = tmp_path / "labels.json"
        formats.save_weighted_label_file(path, labels, image_id="golden-7", width=20, height=12)
        assert self._digest(path) == "2d8c6fd93a2a9d72f817d61d07c8c6f3293a35ed459f1e4f4f699fe90029715e"

    def test_ground_truth_file(self, tmp_path):
        _, _, gt = _golden_inputs()
        path = tmp_path / "gt.json"
        formats.save_ground_truth_file(path, gt)
        assert path.read_bytes() == (
            b'{"schemaVersion":"1","imageId":"golden-7","imageWidth":20,"imageHeight":12,'
            b'"instances":[{"polygon":[[1.5,2.25],[8.0,2.0],[8.75,6.5],[1.0,6.0]],'
            b'"ignore":false},{"polygon":[[12.0,7.0],[18.0,7.0],[18.0,10.0],[12.0,10.0]],'
            b'"ignore":true}]}\n'
        )


_BIG = [1e17, np.nextafter(1e17, 0), np.nextafter(1e17, np.inf), 2.0**53, 2.0**53 + 2,
        np.finfo(np.float64).max, np.finfo(np.float64).tiny, 5e-324, 1e-5, 0.5]
# the edge cases of the ".0" rule, integral values and arbitrary finite doubles
# (subnormals among them), each sign
_PAYLOAD_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0] + _BIG + [-x for x in _BIG]),
    st.integers(-2**62, 2**62).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-10, 10))
# quotes, backslashes and control characters, which JSON escapes, a few it
# may write either way, and any others
_NAME_CHARS = st.one_of(st.sampled_from('"\\/\n\t\x00\x7f\u2028\u00e9'), st.characters())


class TestTensorFiles:
    def test_round_trip(self, tmp_path, rng):
        tensors = {
            "alpha": rng.normal(size=(3, 4)),
            "beta": rng.normal(size=7),
        }
        path = tmp_path / "tensors.json"
        formats.save_tensor_file(path, tensors, module="tensors", config={"n": 3})
        module, config, loaded = formats.load_tensor_file(path)
        assert module == "tensors"
        assert config == {"n": 3}
        for name in tensors:
            assert np.array_equal(loaded[name], tensors[name])

    def test_checksum_mismatch_rejected(self, tmp_path, rng):
        path = tmp_path / "tampered.json"
        formats.save_tensor_file(path, {"w": rng.normal(size=4)})
        doc = json.loads(path.read_text())
        doc["tensors"]["w"]["data"][0] += 1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="checksum"):
            formats.load_tensor_file(path)

    def test_shape_payload_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.json"
        doc = {
            "schemaVersion": "1", "module": "tensors", "config": None,
            "tensors": {"w": {"shape": [3], "data": [1.0, 2.0]}},
            "checksum": "x",
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="shape"):
            formats.load_tensor_file(path)

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "golden.json"
        formats.save_tensor_file(
            path, {"w": np.array([[1.5, -2.0], [1e-300, 1 / 3]]), "b": np.arange(3)},
            module="intra",
            config={"kernelSizes": [7, 5, 3], "extra": {"flag": True, "none": None}, "name": "x"})
        assert path.read_bytes() == (
            b'{"schemaVersion":"1","module":"intra","config":{"kernelSizes":[7,5,3],'
            b'"extra":{"flag":true,"none":null},"name":"x"},"tensors":{"b":{"shape":[3],'
            b'"data":[0.0,1.0,2.0]},"w":{"shape":[2,2],"data":[1.5,-2.0,1e-300,'
            b'0.33333333333333331]}},'
            b'"checksum":"243030f93c9952c0bd4de20e3d9cb49fd3c02248ef303b5c84bccda6dc139f9a"}\n'
        )

    @pytest.mark.parametrize("hashed, ok", [('{"a":{"shape":[2],"data":[1.0,2.0]}}', True),
                                            ('{"a":{"shape":[2],"data":[1,2]}}', False)])
    def test_checksum_covers_float_data(self, tmp_path, hashed, ok):
        # a hand-written file may write 1 for 1.0: the checksum covers the
        # canonical text of the data as float64
        path = tmp_path / "hand.json"
        path.write_text(json.dumps({
            "schemaVersion": "1", "module": "tensors", "config": None,
            "tensors": {"a": {"shape": [2], "data": [1, 2]}},
            "checksum": hashlib.sha256(hashed.encode()).hexdigest()}))
        if ok:
            _, _, tensors = formats.load_tensor_file(path)
            assert tensors["a"].dtype == np.float64 and tensors["a"].tolist() == [1.0, 2.0]
        else:
            with pytest.raises(ParseError, match="checksum"):
                formats.load_tensor_file(path)

    def test_byte_identical_writes(self, tmp_path, rng):
        tensors = {"w": rng.normal(size=(2, 5))}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        formats.save_tensor_file(p1, tensors)
        formats.save_tensor_file(p2, {k: v.copy() for k, v in tensors.items()})
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.text(_NAME_CHARS, max_size=4), hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
        elements=_PAYLOAD_VALUES), max_size=4))
    def test_payload_matches_value_by_value_text(self, arrays):
        assert formats._payload(arrays) == tensor_payload(arrays)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["a", "b"])
    def test_non_finite_save_writes_nothing(self, tmp_path, rng, bad, name):
        tensors = {"a": rng.normal(size=3), "b": rng.normal(size=(2, 2))}
        tensors[name].flat[-1] = bad
        path = tmp_path / "t.json"
        with pytest.raises(ValueError, match="non-finite"):
            formats.save_tensor_file(path, tensors)
        assert not path.exists()
