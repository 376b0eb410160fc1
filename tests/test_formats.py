import json

import numpy as np
import pytest

from textdetkit import formats
from textdetkit.errors import ParseError
from textdetkit.evaluate import GroundTruthSet
from textdetkit.geometry import AxisBox, BitMask, Polygon, polygon_to_mask
from textdetkit.pseudolabel import PseudoLabel, ScoredDetection
from textdetkit.suppress import DetectionSet

from conftest import random_blob_mask, random_detections


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
        with pytest.raises(ParseError):
            formats.rle_decode({"width": 4, "height": 4, "counts": [3]})

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

    def test_byte_identical_writes(self, tmp_path, rng):
        tensors = {"w": rng.normal(size=(2, 5))}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        formats.save_tensor_file(p1, tensors)
        formats.save_tensor_file(p2, {k: v.copy() for k, v in tensors.items()})
        assert p1.read_bytes() == p2.read_bytes()
