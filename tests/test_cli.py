import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textdetkit import formats, instance_attention, multipath
from textdetkit.cli import main
from textdetkit.evaluate import GroundTruthSet, compute_metrics, match_detections
from textdetkit.geometry import BitMask, mask_to_polygons
from textdetkit.pseudolabel import FusionConfig, ScoredDetection, fuse_detections
from textdetkit.suppress import DetectionSet, SuppressConfig, multi_scale_aggregate

from conftest import random_detections

CANVAS = 48


def write_detection_file(path, dets, image_id="img", tag="m"):
    formats.save_detection_file(
        path,
        DetectionSet(image_id, list(dets), source_tag=tag,
                     image_width=CANVAS, image_height=CANVAS),
    )


def square_detection(x0, y0, size, score):
    bits = np.zeros((CANVAS, CANVAS), dtype=bool)
    bits[y0:y0 + size, x0:x0 + size] = True
    return ScoredDetection.from_mask(BitMask.from_array(bits), score)


# float-flag values beside "nan": argparse takes each but "-inf" (an unknown option)
ODD_FLAG_VALUES = ("inf", "-inf", "-1", "1e309")


def clean_exit(argv) -> int:
    """Runs the CLI; it must exit 0, 2 or 4, with an error line when it fails."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 4), argv
    assert code == 0 or "error:" in err.getvalue(), argv
    return code


@pytest.fixture
def model_files(tmp_path, rng):
    """Three detection files over one image: shared and unique detections."""
    base = random_detections(rng, 5, CANVAS, CANVAS)
    jam = random_detections(rng, 2, CANVAS, CANVAS)
    det_a = base
    det_b = [ScoredDetection.from_mask(d.mask, min(d.score * 0.9 + 0.05, 1.0)) for d in base[:4]]
    det_c = [ScoredDetection.from_mask(d.mask, min(d.score * 0.8 + 0.1, 1.0)) for d in base[1:]] + jam
    paths = []
    for tag, dets in (("a", det_a), ("b", det_b), ("c", det_c)):
        p = tmp_path / f"det_{tag}.json"
        write_detection_file(p, dets, tag=f"model-{tag}")
        paths.append(p)
    return paths


class TestFuse:
    def test_identical_triple_weight(self, tmp_path):
        det = square_detection(4, 4, 10, 0.9)
        det_b = square_detection(4, 4, 10, 0.8)
        det_c = square_detection(4, 4, 10, 0.9)
        pa, pb, pc = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
        write_detection_file(pa, [det])
        write_detection_file(pb, [det_b])
        write_detection_file(pc, [det_c])
        out = tmp_path / "labels.json"
        code = main(["fuse", "--det-a", str(pa), "--det-b", str(pb), "--det-c", str(pc),
                     "--out", str(out)])
        assert code == 0
        loaded = formats.load_weighted_label_file(out)
        assert len(loaded.labels) == 1
        assert abs(loaded.labels[0].weight - 0.648) <= 1e-12

    def test_empty_anchor_empty_output(self, tmp_path):
        det = square_detection(4, 4, 10, 0.9)
        pa, pb, pc = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
        write_detection_file(pa, [])
        write_detection_file(pb, [det])
        write_detection_file(pc, [det])
        out = tmp_path / "labels.json"
        code = main(["fuse", "--det-a", str(pa), "--det-b", str(pb), "--det-c", str(pc),
                     "--out", str(out)])
        assert code == 0
        assert formats.load_weighted_label_file(out).labels == []

    def test_byte_identical_across_runs(self, tmp_path, model_files):
        pa, pb, pc = model_files
        outputs = []
        for run in range(2):
            out = tmp_path / f"labels{run}.json"
            code = main(["fuse", "--det-a", str(pa), "--det-b", str(pb),
                         "--det-c", str(pc), "--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_matches_library_composition(self, tmp_path, model_files):
        pa, pb, pc = model_files
        out = tmp_path / "labels.json"
        assert main(["fuse", "--det-a", str(pa), "--det-b", str(pb), "--det-c", str(pc),
                     "--iou-threshold", "0.6", "--out", str(out)]) == 0
        sets = [formats.load_detection_file(p) for p in (pa, pb, pc)]
        want = fuse_detections(sets[0].detections, sets[1].detections, sets[2].detections,
                               FusionConfig(iou_threshold=0.6)).labels
        got = formats.load_weighted_label_file(out).labels
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.weight == w.weight
            assert g.mask == w.mask

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        ok = tmp_path / "ok.json"
        write_detection_file(ok, [])
        assert main(["fuse", "--det-a", str(bad), "--det-b", str(ok), "--det-c", str(ok),
                     "--out", str(tmp_path / "o.json")]) == 2

    def test_image_id_mismatch_exit_3(self, tmp_path):
        p1, p2, p3 = (tmp_path / f"{i}.json" for i in range(3))
        write_detection_file(p1, [], image_id="one")
        write_detection_file(p2, [], image_id="two")
        write_detection_file(p3, [], image_id="one")
        assert main(["fuse", "--det-a", str(p1), "--det-b", str(p2), "--det-c", str(p3),
                     "--out", str(tmp_path / "o.json")]) == 3

    def test_bad_params_exit_4(self, tmp_path):
        ok = tmp_path / "ok.json"
        write_detection_file(ok, [])
        assert main(["fuse", "--det-a", str(ok), "--det-b", str(ok), "--det-c", str(ok),
                     "--alpha", "0", "--out", str(tmp_path / "o.json")]) == 4

    @pytest.mark.parametrize("flag", ["--alpha", "--iou-threshold"])
    def test_nan_params_exit_4(self, tmp_path, flag):
        ok = tmp_path / "ok.json"
        write_detection_file(ok, [])
        assert main(["fuse", "--det-a", str(ok), "--det-b", str(ok), "--det-c", str(ok),
                     flag, "nan", "--out", str(tmp_path / "o.json")]) == 4
        for value in ODD_FLAG_VALUES:
            clean_exit(["fuse", "--det-a", str(ok), "--det-b", str(ok), "--det-c", str(ok),
                        flag, value, "--out", str(tmp_path / "o.json")])


class TestNms:
    def test_single_file_disjoint_unchanged(self, tmp_path):
        dets = [square_detection(2, 2, 6, 0.9), square_detection(30, 30, 6, 0.5)]
        src = tmp_path / "in.json"
        write_detection_file(src, dets)
        out = tmp_path / "out.json"
        assert main(["nms", "--in", str(src), "--mode", "soft-linear",
                     "--out", str(out)]) == 0
        loaded = formats.load_detection_file(out)
        assert [d.score for d in loaded.detections] == [0.9, 0.5]

    def test_duplicate_file_hard_dedup(self, tmp_path):
        dets = [square_detection(4, 4, 10, 0.9), square_detection(30, 30, 6, 0.5)]
        src = tmp_path / "in.json"
        write_detection_file(src, dets)
        out = tmp_path / "out.json"
        assert main(["nms", "--in", str(src), str(src), "--mode", "hard",
                     "--out", str(out)]) == 0
        loaded = formats.load_detection_file(out)
        assert len(loaded.detections) == 2  # each duplicate pair collapsed

    def test_hard_mode_ignores_score_floor(self, tmp_path):
        dets = [square_detection(2, 2, 6, 0.5), square_detection(30, 30, 6, 0.3)]
        src = tmp_path / "in.json"
        write_detection_file(src, dets)
        out = tmp_path / "out.json"
        assert main(["nms", "--in", str(src), "--mode", "hard", "--score-floor", "0.9",
                     "--out", str(out)]) == 0
        loaded = formats.load_detection_file(out)
        assert [d.score for d in loaded.detections] == [0.5, 0.3]

    def test_matches_library_pipeline(self, tmp_path, model_files):
        out = tmp_path / "out.json"
        args = ["nms", "--in"] + [str(p) for p in model_files] + [
            "--mode", "soft-gaussian", "--sigma", "0.4", "--out", str(out)]
        assert main(args) == 0
        sets = [formats.load_detection_file(p) for p in model_files]
        cfg = SuppressConfig(mode="soft-gaussian", sigma=0.4)
        want = multi_scale_aggregate(sets, cfg)
        got = formats.load_detection_file(out)
        assert [d.score for d in got.detections] == [d.score for d in want.detections]

    def test_invalid_mode_exit_4(self, tmp_path):
        src = tmp_path / "in.json"
        write_detection_file(src, [])
        assert main(["nms", "--in", str(src), "--mode", "softest",
                     "--out", str(tmp_path / "o.json")]) == 4

    def test_image_id_mismatch_exit_3(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_detection_file(p1, [], image_id="one")
        write_detection_file(p2, [], image_id="two")
        assert main(["nms", "--in", str(p1), str(p2),
                     "--out", str(tmp_path / "o.json")]) == 3

    @pytest.mark.parametrize("flags", [["--mode", "soft-gaussian", "--sigma", "nan"],
                                       ["--score-floor", "nan"],
                                       ["--iou-threshold", "nan"]])
    def test_nan_parameter_exit_4(self, tmp_path, flags):
        dets = [square_detection(2 + 9 * i, 2, 6, 0.9 - 0.1 * i) for i in range(5)]
        src = tmp_path / "in.json"
        write_detection_file(src, dets)
        out = tmp_path / "out.json"
        assert main(["nms", "--in", str(src), *flags, "--out", str(out)]) == 4
        assert not out.exists()
        for value in ODD_FLAG_VALUES:
            clean_exit(["nms", "--in", str(src), *flags[:-1], value, "--out", str(out)])


class TestFieldTypes:
    """Readers reject JSON values that only look numeric (exit 2)."""

    def _nms_on_record(self, tmp_path, record):
        doc = {"schemaVersion": "1", "imageId": "img", "imageWidth": 4, "imageHeight": 4,
               "sourceTag": "m", "scaleFactor": 1.0, "detections": [record]}
        src = tmp_path / "in.json"
        src.write_text(json.dumps(doc))
        return main(["nms", "--in", str(src), "--out", str(tmp_path / "o.json")])

    def test_fractional_rle_counts_exit_2(self, tmp_path):
        record = {"box": [0, 0, 4, 4], "score": 0.5,
                  "mask": {"width": 4, "height": 4, "counts": [0, 10.7, 6.0]}}
        assert self._nms_on_record(tmp_path, record) == 2

    def test_bool_rle_count_exit_2(self, tmp_path):
        record = {"box": [0, 0, 4, 4], "score": 0.5,
                  "mask": {"width": 4, "height": 4, "counts": [True, 15]}}
        assert self._nms_on_record(tmp_path, record) == 2

    def test_bool_score_exit_2(self, tmp_path):
        record = {"box": [0, 0, 4, 4], "score": True,
                  "mask": {"width": 4, "height": 4, "counts": [5, 2, 9]}}
        assert self._nms_on_record(tmp_path, record) == 2

    def test_valid_record_still_exit_0(self, tmp_path):
        record = {"box": [0, 0, 4, 4], "score": 1,
                  "mask": {"width": 4, "height": 4, "counts": [5, 2, 9]}}
        assert self._nms_on_record(tmp_path, record) == 0


class TestMalformedInputs:
    """Values that used to escape as tracebacks: each exits 2 with an error line."""

    @staticmethod
    def _detection_file(path, scale):
        doc = {"schemaVersion": "1", "imageId": "img", "imageWidth": CANVAS,
               "imageHeight": CANVAS, "sourceTag": "m", "scaleFactor": scale,
               "detections": []}
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("scale", ["abc", None, [1], True, 0, -1.5,
                                       float("nan"), float("inf")])
    def test_bad_scale_factor_nms_exit_2(self, tmp_path, capsys, scale):
        src = self._detection_file(tmp_path / "in.json", scale)
        assert main(["nms", "--in", src, "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "scaleFactor" in err

    @pytest.mark.parametrize("scale", ["abc", None, [1]])
    def test_bad_scale_factor_fuse_exit_2(self, tmp_path, capsys, scale):
        bad = self._detection_file(tmp_path / "bad.json", scale)
        ok = tmp_path / "ok.json"
        write_detection_file(ok, [])
        assert main(["fuse", "--det-a", str(ok), "--det-b", bad, "--det-c", str(ok),
                     "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "scaleFactor" in err

    @pytest.mark.parametrize("scale", ["abc", None, [1]])
    def test_bad_scale_factor_eval_exit_2(self, tmp_path, capsys, scale):
        gt = tmp_path / "gt.json"
        formats.save_ground_truth_file(gt, GroundTruthSet("img", [], [], CANVAS, CANVAS))
        det = self._detection_file(tmp_path / "det.json", scale)
        assert main(["eval", "--gt", str(gt), "--det", det]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "scaleFactor" in err

    def test_self_crossing_gt_polygon_eval_exit_2(self, tmp_path, capsys):
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({
            "schemaVersion": "1", "imageId": "img", "imageWidth": CANVAS,
            "imageHeight": CANVAS, "instances": [{"polygon": [[0, 0], [6, 6], [6, 0], [0, 2]]}],
        }))
        det = tmp_path / "det.json"
        write_detection_file(det, [square_detection(0, 0, 6, 0.9)])
        assert main(["eval", "--gt", str(gt), "--det", str(det)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cross" in err

    def test_crossing_hidden_in_an_overlap_eval_exit_2(self, tmp_path, capsys):
        # no edge properly crosses another, but the edges (2, 0)-(0, 0) and
        # (1, 0)-(4, 0) overlap and the loop through (2, 1) winds twice
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({
            "schemaVersion": "1", "imageId": "img", "imageWidth": CANVAS, "imageHeight": CANVAS,
            "instances": [{"polygon": [[2, 0], [0, 0], [2, 1], [1, 0], [4, 0], [2, 4]]}]}))
        det = tmp_path / "det.json"
        write_detection_file(det, [square_detection(0, 0, 4, 0.9)])
        assert main(["eval", "--gt", str(gt), "--det", str(det)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "crosses itself" in err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("which", ["weights", "input"])
    def test_non_finite_tensor_exit_2(self, tmp_path, capsys, rng, bad, which):
        config, tensors = multipath.to_named_tensors(multipath.CascadeConfig.zeros(2))
        paths = {"weights": tmp_path / "weights.json", "input": tmp_path / "input.json"}
        formats.save_tensor_file(paths["weights"], tensors, module="intra", config=config)
        formats.save_tensor_file(paths["input"], {"input": rng.normal(size=(2, 5, 5))})
        doc = json.loads(paths[which].read_text())
        next(iter(doc["tensors"].values()))["data"][0] = bad
        paths[which].write_text(json.dumps(doc))  # Python's json writes NaN / Infinity
        assert main(["forward", "--module", "intra", "--weights", str(paths["weights"]),
                     "--input", str(paths["input"]), "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err


    # a JSON integer literal far outside the range of a double
    HUGE = int("9" * 400)

    def test_fractional_tensor_shape_exit_2(self, tmp_path, capsys):
        # the checksum was recomputed from the truncated shape, so (1, 1, 1) used to load
        path = tmp_path / "input.json"
        formats.save_tensor_file(path, {"input": np.ones((1, 1, 1))})
        doc = json.loads(path.read_text())
        doc["tensors"]["input"]["shape"] = [1, 1.9, 1]
        path.write_text(json.dumps(doc))
        weights = tmp_path / "weights.json"
        config, tensors = multipath.to_named_tensors(multipath.CascadeConfig.zeros(1))
        formats.save_tensor_file(weights, tensors, module="intra", config=config)
        assert main(["forward", "--module", "intra", "--weights", str(weights),
                     "--input", str(path), "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "shape" in err

    def test_huge_tensor_value_exit_2(self, tmp_path, capsys):
        path = tmp_path / "input.json"
        formats.save_tensor_file(path, {"input": np.ones((1, 2, 2))})
        text = path.read_text().replace("[1.0,", f"[{self.HUGE},", 1)
        assert str(self.HUGE) in text
        path.write_text(text)
        weights = tmp_path / "weights.json"
        config, tensors = multipath.to_named_tensors(multipath.CascadeConfig.zeros(1))
        formats.save_tensor_file(weights, tensors, module="intra", config=config)
        assert main(["forward", "--module", "intra", "--weights", str(weights),
                     "--input", str(path), "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "too large" in err

    @pytest.mark.parametrize("box", [["0", "0", "4", True], [0, 0, HUGE, 4]],
                             ids=["strings-and-bool", "huge"])
    def test_bad_box_coordinates_nms_exit_2(self, tmp_path, capsys, box):
        doc = {"schemaVersion": "1", "imageId": "img", "imageWidth": 4, "imageHeight": 4,
               "sourceTag": "m", "scaleFactor": 1.0, "detections": [
                   {"box": box, "score": 0.5,
                    "mask": {"width": 4, "height": 4, "counts": [5, 2, 9]}}]}
        src = tmp_path / "in.json"
        src.write_text(json.dumps(doc))
        assert main(["nms", "--in", str(src), "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "box" in err

    @pytest.mark.parametrize("polygon", [["00", "40", [4, 4]],
                                         [[0, 0], [4, 0], [4, HUGE]],
                                         [[0, 0], [4, False], [4, 4]]],
                             ids=["strings", "huge", "bool"])
    def test_bad_gt_polygon_eval_exit_2(self, tmp_path, capsys, polygon):
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({"schemaVersion": "1", "imageId": "img", "imageWidth": 8,
                                  "imageHeight": 8, "instances": [{"polygon": polygon}]}))
        det = tmp_path / "det.json"
        write_detection_file(det, [])
        assert main(["eval", "--gt", str(gt), "--det", str(det)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "polygon" in err

    def test_huge_scale_factor_nms_exit_2(self, tmp_path, capsys):
        src = self._detection_file(tmp_path / "in.json", self.HUGE)
        assert main(["nms", "--in", src, "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "scaleFactor" in err

    # each file declares a 100000x100000 frame in its header or its one RLE
    # mask, with a run or a polygon that spans it: 10^10 pixels, refused
    # before a raster of that frame is allocated
    @pytest.mark.parametrize("command, header, mask", [
        ("eval", 100000, 100000), ("nms", 100000, 100000), ("nms", 8, 100000)],
        ids=["gt-header", "detection-header", "rle-mask"])
    def test_huge_frame_exit_2(self, tmp_path, capsys, command, header, mask):
        side = 100000
        record = {"box": [0, 0, header, header], "score": 0.5,
                  "mask": {"width": mask, "height": mask, "counts": [0, mask * mask]}}
        doc = {"schemaVersion": "1", "imageId": "img", "imageWidth": header,
               "imageHeight": header}
        det, gt = tmp_path / "det.json", tmp_path / "gt.json"
        det.write_text(json.dumps({**doc, "detections": [record]}))
        gt.write_text(json.dumps({**doc, "instances": [
            {"polygon": [[0, 0], [side, 0], [side, side], [0, side]]}]}))
        argv = (["eval", "--gt", str(gt), "--det", str(det)] if command == "eval" else
                ["nms", "--in", str(det), "--out", str(tmp_path / "o.json")])
        tracemalloc.start()
        try:
            assert main(argv) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{side}x{side} exceeds {2**28} pixels" in err


class TestEval:
    def _write_gt(self, path, polys, ignore=None):
        gt = GroundTruthSet("img", list(polys), list(ignore or [False] * len(polys)),
                            image_width=CANVAS, image_height=CANVAS)
        formats.save_ground_truth_file(path, gt)

    def test_perfect_detection_all_ones(self, tmp_path):
        det = square_detection(4, 4, 10, 0.9)
        polys = mask_to_polygons(det.mask)
        gt_path, det_path = tmp_path / "gt.json", tmp_path / "det.json"
        self._write_gt(gt_path, polys)
        write_detection_file(det_path, [det])
        report_path = tmp_path / "report.json"
        assert main(["eval", "--gt", str(gt_path), "--det", str(det_path),
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["recall"] == report["precision"] == report["fMeasure"] == 1.0

    def test_two_gt_one_det_fixture(self, tmp_path):
        d1 = square_detection(4, 4, 10, 0.9)
        d2 = square_detection(30, 30, 8, 0.9)
        gt_path, det_path = tmp_path / "gt.json", tmp_path / "det.json"
        self._write_gt(gt_path, mask_to_polygons(d1.mask) + mask_to_polygons(d2.mask))
        write_detection_file(det_path, [d1])
        report_path = tmp_path / "report.json"
        assert main(["eval", "--gt", str(gt_path), "--det", str(det_path),
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["recall"] == 0.5
        assert report["precision"] == 1.0
        assert abs(report["fMeasure"] - 2.0 / 3.0) <= 1e-9

    def test_image_id_mismatch_exit_3(self, tmp_path):
        d1 = square_detection(4, 4, 10, 0.9)
        gt_path, det_path = tmp_path / "gt.json", tmp_path / "det.json"
        gt = GroundTruthSet("other", mask_to_polygons(d1.mask), [False],
                            image_width=CANVAS, image_height=CANVAS)
        formats.save_ground_truth_file(gt_path, gt)
        write_detection_file(det_path, [d1])
        assert main(["eval", "--gt", str(gt_path), "--det", str(det_path)]) == 3

    def test_spike_along_a_detection_edge(self, tmp_path):
        # the GT's spike runs up the detection's edge x = 4 to (4, 3): the
        # 2 x 1 GT box lies inside the 4 x 4 detection, IoU 2 / 16 = 0.125
        gt_path, det_path = tmp_path / "gt.json", tmp_path / "det.json"
        gt_path.write_text(json.dumps({
            "schemaVersion": "1", "imageId": "img", "imageWidth": CANVAS, "imageHeight": CANVAS,
            "instances": [{"polygon": [[2, 1], [4, 1], [4, 3], [4, 2], [2, 2]]}]}))
        write_detection_file(det_path, [square_detection(0, 0, 4, 0.9)])
        report_path = tmp_path / "report.json"
        assert main(["eval", "--gt", str(gt_path), "--det", str(det_path), "--iou", "0.2",
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["truePositives"] == 0 and report["matchedPairs"] == []

    def test_nan_iou_exit_4(self, tmp_path):
        det = square_detection(4, 4, 10, 0.9)
        gt_path, det_path = tmp_path / "gt.json", tmp_path / "det.json"
        self._write_gt(gt_path, mask_to_polygons(det.mask))
        write_detection_file(det_path, [det])
        argv = ["eval", "--gt", str(gt_path), "--det", str(det_path),
                "--report", str(tmp_path / "report.json")]
        assert main([*argv, "--iou", "nan"]) == 4
        for value in ODD_FLAG_VALUES:
            clean_exit([*argv, "--iou", value])

    def test_empty_detections_flagged(self, tmp_path):
        d1 = square_detection(4, 4, 10, 0.9)
        gt_path, det_path = tmp_path / "gt.json", tmp_path / "det.json"
        self._write_gt(gt_path, mask_to_polygons(d1.mask))
        write_detection_file(det_path, [])
        report_path = tmp_path / "report.json"
        assert main(["eval", "--gt", str(gt_path), "--det", str(det_path),
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["recall"] == 0.0
        assert report["precision"] == 0.0
        assert report["fMeasure"] == 0.0
        assert "precision" in report["flags"]


# Module config values that only look like the right JSON type. Each used to
# load: "false" as a residual that is on, true as one head, 2.7 as 2 channels.
LOOSE_CONFIGS = [
    ("intra", "residual", "false"), ("intra", "channels", 2.7),
    ("intra", "kernelSizes", [3.9, 3, 3]), ("inter", "heads", True),
    ("inter", "roiHeight", "4"), ("inter", "pyramidChannels", [8.2]),
]


def _module_config(module):
    """A valid small (config, tensors) pair for `module`."""
    if module == "intra":
        return multipath.to_named_tensors(
            multipath.CascadeConfig.zeros(2, kernel_sizes=(3, 3, 3)))
    return instance_attention.to_named_tensors(instance_attention.AttentionConfig.zeros(
        channels=8, reduced_channels=2, roi_size=(4, 4), pool_size=(2, 2),
        encoder_layers=1, heads=2, pyramid_channels=[8]))


class TestForward:
    def test_intra_zero_weights_residual_identity(self, tmp_path, rng):
        cfg = multipath.CascadeConfig.zeros(3)
        config, tensors = multipath.to_named_tensors(cfg)
        weights_path = tmp_path / "weights.json"
        formats.save_tensor_file(weights_path, tensors, module="intra", config=config)
        x = rng.normal(size=(3, 9, 9))
        input_path = tmp_path / "input.json"
        formats.save_tensor_file(input_path, {"input": x})
        out_path = tmp_path / "out.json"
        assert main(["forward", "--module", "intra", "--weights", str(weights_path),
                     "--input", str(input_path), "--out", str(out_path)]) == 0
        _, _, loaded = formats.load_tensor_file(out_path)
        assert np.array_equal(loaded["output"], x)

    def test_intra_matches_library_bit_for_bit(self, tmp_path, rng):
        cfg = multipath.CascadeConfig.random(2, rng, kernel_sizes=(3, 3, 3))
        config, tensors = multipath.to_named_tensors(cfg)
        weights_path = tmp_path / "weights.json"
        formats.save_tensor_file(weights_path, tensors, module="intra", config=config)
        x = rng.normal(size=(2, 7, 7))
        input_path = tmp_path / "input.json"
        formats.save_tensor_file(input_path, {"input": x})
        out_path = tmp_path / "out.json"
        assert main(["forward", "--module", "intra", "--weights", str(weights_path),
                     "--input", str(input_path), "--out", str(out_path)]) == 0
        _, _, loaded = formats.load_tensor_file(out_path)
        assert np.array_equal(loaded["output"], multipath.cascade_forward(x, cfg))

    def test_inter_default_shape_echo(self, tmp_path, rng, capsys):
        cfg = instance_attention.AttentionConfig.zeros(pyramid_channels=[256, 256])
        config, tensors = instance_attention.to_named_tensors(cfg)
        weights_path = tmp_path / "weights.json"
        formats.save_tensor_file(weights_path, tensors, module="inter", config=config)
        inputs = {
            "roi": rng.normal(size=(9, 256, 14, 14)),
            "pyramid.0": rng.normal(size=(256, 8, 8)),
            "pyramid.1": rng.normal(size=(256, 4, 4)),
        }
        input_path = tmp_path / "input.json"
        formats.save_tensor_file(input_path, inputs)
        out_path = tmp_path / "out.json"
        assert main(["forward", "--module", "inter", "--weights", str(weights_path),
                     "--input", str(input_path), "--out", str(out_path)]) == 0
        assert "output shape: [9, 256, 14, 14]" in capsys.readouterr().out

    def test_shape_mismatch_exit_5(self, tmp_path, rng):
        cfg = multipath.CascadeConfig.zeros(3)
        config, tensors = multipath.to_named_tensors(cfg)
        weights_path = tmp_path / "weights.json"
        formats.save_tensor_file(weights_path, tensors, module="intra", config=config)
        input_path = tmp_path / "input.json"
        formats.save_tensor_file(input_path, {"input": rng.normal(size=(2, 5, 5))})
        assert main(["forward", "--module", "intra", "--weights", str(weights_path),
                     "--input", str(input_path), "--out", str(tmp_path / "o.json")]) == 5

    def test_wrong_module_tag_exit_5(self, tmp_path, rng):
        cfg = multipath.CascadeConfig.zeros(2)
        config, tensors = multipath.to_named_tensors(cfg)
        weights_path = tmp_path / "weights.json"
        formats.save_tensor_file(weights_path, tensors, module="intra", config=config)
        input_path = tmp_path / "input.json"
        formats.save_tensor_file(input_path, {"roi": rng.normal(size=(1, 2, 3, 3))})
        assert main(["forward", "--module", "inter", "--weights", str(weights_path),
                     "--input", str(input_path), "--out", str(tmp_path / "o.json")]) == 5


    @pytest.mark.parametrize("module, key, value", LOOSE_CONFIGS)
    def test_loose_config_types_exit_5(self, tmp_path, capsys, module, key, value):
        config, tensors = _module_config(module)
        weights = tmp_path / "weights.json"
        formats.save_tensor_file(weights, tensors, module=module, config={**config, key: value})
        inputs = tmp_path / "input.json"
        formats.save_tensor_file(inputs, {"input": np.ones((2, 4, 4)),
                                          "roi": np.ones((1, 8, 4, 4)),
                                          "pyramid.0": np.ones((8, 2, 2))})
        assert main(["forward", "--module", module, "--weights", str(weights),
                     "--input", str(inputs), "--out", str(tmp_path / "o.json")]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    def test_too_many_encoder_layers_exit_5(self, tmp_path, capsys):
        config, tensors = _module_config("inter")
        weights = tmp_path / "weights.json"
        formats.save_tensor_file(weights, tensors, module="inter",
                                 config={**config, "encoderLayers": 200000})
        inputs = tmp_path / "input.json"
        formats.save_tensor_file(inputs, {"roi": np.ones((1, 8, 4, 4)),
                                          "pyramid.0": np.ones((8, 2, 2))})
        assert main(["forward", "--module", "inter", "--weights", str(weights),
                     "--input", str(inputs), "--out", str(tmp_path / "o.json")]) == 5
        assert capsys.readouterr().err.startswith("error: at most 64 encoder layers")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_output_exit_5(self, tmp_path, capsys):
        # every value is finite, so both files load, but the cascade's output
        # overflows to inf
        config, tensors = multipath.to_named_tensors(
            multipath.CascadeConfig.zeros(2, kernel_sizes=(3, 3, 3)))
        weights = tmp_path / "weights.json"
        formats.save_tensor_file(weights, {name: np.full_like(t, 1e200)
                                           for name, t in tensors.items()},
                                 module="intra", config=config)
        inputs = tmp_path / "input.json"
        formats.save_tensor_file(inputs, {"input": np.full((2, 5, 5), 1e200)})
        out = tmp_path / "o.json"
        assert main(["forward", "--module", "intra", "--weights", str(weights),
                     "--input", str(inputs), "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_attention_logits_exit_5(self, tmp_path, capsys):
        # every value is finite, but the attention logits overflow before the
        # softmax, long before the output
        cfg = instance_attention.AttentionConfig.random(
            np.random.default_rng(0), channels=4, reduced_channels=2, roi_size=(3, 3),
            pool_size=(1, 1), encoder_layers=1, heads=1, pyramid_channels=[4])
        config, tensors = instance_attention.to_named_tensors(cfg)
        for name in ("layer0.query.weight", "layer0.key.weight"):
            tensors[name] = tensors[name] * 1e200
        weights, inputs = tmp_path / "weights.json", tmp_path / "input.json"
        formats.save_tensor_file(weights, tensors, module="inter", config=config)
        rng = np.random.default_rng(1)
        formats.save_tensor_file(inputs, {"roi": rng.normal(size=(3, 4, 3, 3)),
                                          "pyramid.0": rng.normal(size=(4, 5, 5))})
        out = tmp_path / "o.json"
        assert main(["forward", "--module", "inter", "--weights", str(weights),
                     "--input", str(inputs), "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err
        assert not out.exists()


TENSOR_FILE_MUTATIONS = ("drop-doc-key", "drop-entry-key", "shape-entry", "truncate-data",
                         "nest-data", "non-dict-entry", "checksum")


class TestMutatedTensorFiles:
    """A valid weights/input pair for ``forward`` with one file mutated: the
    command fails with exit 2 or 5 and an error line, never a traceback."""

    @pytest.fixture(scope="class")
    def docs(self, tmp_path_factory):
        config, tensors = _module_config("intra")
        base = tmp_path_factory.mktemp("valid")
        formats.save_tensor_file(base / "weights.json", tensors, module="intra", config=config)
        formats.save_tensor_file(base / "input.json",
                                 {"input": np.linspace(-1, 1, 32).reshape(2, 4, 4)})
        return {which: (base / f"{which}.json").read_text() for which in ("weights", "input")}

    @settings(max_examples=120, deadline=None)
    @given(which=st.sampled_from(["weights", "input"]),
           kind=st.sampled_from(TENSOR_FILE_MUTATIONS), data=st.data())
    def test_forward_fails_cleanly(self, docs, tmp_path_factory, which, kind, data):
        doc = json.loads(docs[which])
        name = data.draw(st.sampled_from(sorted(doc["tensors"])), label="tensor")
        entry = doc["tensors"][name]

        def pick(seq, label):
            return data.draw(st.sampled_from(seq), label=label)

        def index(seq):
            return data.draw(st.integers(0, len(seq) - 1), label="index")

        if kind == "drop-doc-key":
            del doc[pick(["schemaVersion", "tensors", "checksum"], "key")]
        elif kind == "drop-entry-key":
            del entry[pick(["shape", "data"], "key")]
        elif kind == "shape-entry":
            i = index(entry["shape"])
            extent = entry["shape"][i]
            entry["shape"][i] = pick([float(extent), True, str(extent), 0, -1], "extent")
        elif kind == "truncate-data":
            entry["data"] = entry["data"][:index(entry["data"])]
        elif kind == "nest-data":
            i = index(entry["data"])
            entry["data"][i] = [entry["data"][i]]
        elif kind == "non-dict-entry":
            doc["tensors"][name] = pick([None, 3, "w", [entry["data"][0]], [entry]], "entry")
        else:
            i = index(doc["checksum"])
            digit = "1" if doc["checksum"][i] == "0" else "0"
            doc["checksum"] = doc["checksum"][:i] + digit + doc["checksum"][i + 1:]
        work = tmp_path_factory.mktemp("mutated")
        paths = {w: work / f"{w}.json" for w in ("weights", "input")}
        for w, path in paths.items():
            path.write_text(json.dumps(doc) if w == which else docs[w])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["forward", "--module", "intra", "--weights", str(paths["weights"]),
                         "--input", str(paths["input"]), "--out", str(work / "o.json")])
        assert code in (2, 5) and err.getvalue().startswith("error:")


# each field of an image file is set to one of these, or deleted
FIELD_MUTATIONS = (None, True, 0, -1, 2**70, 1e308, 0.5, "x", [], {}, [[[1]]], "delete")


def _field_paths(node, path=()):
    """The path (dict keys and list indices) of every field of a JSON document."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


class TestMutatedImageFiles:
    """Valid detection and GT files with one field set to a wrong value or
    deleted: every command that reads the file exits 0, 2, 3, 4 or 5, prints
    an error line when it fails, and never raises. The commands share one
    reader per file kind, so a file the first command refuses to parse
    (exit 2) is not run through the others."""

    HEADER = {"schemaVersion": "1", "imageId": "img", "imageWidth": 8, "imageHeight": 8}
    DETECTIONS = {**HEADER, "sourceTag": "m", "scaleFactor": 1.0, "detections": [
        {"box": [0, 0, 1, 1], "score": 0.5,
         "mask": {"width": 8, "height": 8, "counts": [0, 1, 63]}},
        {"box": [1, 1, 5, 4], "score": 0.4, "polygons": [[[1, 1], [5, 1], [5, 4]]]}]}
    GT = {**HEADER, "instances": [{"polygon": [[0, 0], [4, 0], [4, 4]], "ignore": False}]}

    @staticmethod
    def _mutants(doc):
        for path in _field_paths(doc):
            for value in FIELD_MUTATIONS:
                mutant = json.loads(json.dumps(doc))
                *parents, last = path
                node = mutant
                for key in parents:
                    node = node[key]
                if value == "delete":
                    del node[last]
                else:
                    node[last] = value
                yield path, value, mutant

    @pytest.mark.parametrize("which", ["detections", "gt"])
    def test_commands_fail_cleanly(self, tmp_path, which):
        det, gt, out = tmp_path / "det.json", tmp_path / "gt.json", tmp_path / "o.json"
        det.write_text(json.dumps(self.DETECTIONS))
        gt.write_text(json.dumps(self.GT))
        argvs = [["eval", "--gt", str(gt), "--det", str(det)]]
        if which == "detections":
            argvs = [["nms", "--in", str(det), "--out", str(out)], *argvs,
                     ["fuse", "--det-a", str(det), "--det-b", str(det), "--det-c", str(det),
                      "--out", str(out)]]
        target = det if which == "detections" else gt
        for path, value, mutant in self._mutants(self.DETECTIONS if which == "detections"
                                                 else self.GT):
            target.write_text(json.dumps(mutant))
            for argv in argvs:
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                assert code in (0, 2, 3, 4, 5), (argv[0], path, value)
                assert code == 0 or err.getvalue().startswith("error:"), (argv[0], path, value)
                if code == 2:
                    break


class TestParams:
    def test_too_many_encoder_layers_exit_4(self, tmp_path, capsys):
        config, _ = _module_config("inter")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, "encoderLayers": 200000}))
        assert main(["params", "--module", "inter", "--config", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: at most 64 encoder layers")

    def test_toy_intra_table(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"channels": 1, "kernelSizes": [3, 3, 3]}))
        assert main(["params", "--module", "intra", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1].split() == ["total", "54"]

    def test_inter_matches_enumeration(self, tmp_path, rng, capsys):
        cfg = instance_attention.AttentionConfig.random(
            rng, channels=8, reduced_channels=4, roi_size=(6, 6), pool_size=(2, 2),
            encoder_layers=2, heads=2, pyramid_channels=[8, 8])
        config, tensors = instance_attention.to_named_tensors(cfg)
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        assert main(["params", "--module", "inter", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        total = int(out.strip().splitlines()[-1].split()[-1])
        assert total == sum(arr.size for arr in tensors.values())

    def test_malformed_config_exit_4(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text("{broken")
        assert main(["params", "--module", "intra", "--config", str(config_path)]) == 4

    def test_missing_keys_exit_4(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"channels": 4}))
        assert main(["params", "--module", "intra", "--config", str(config_path)]) == 4


    @pytest.mark.parametrize("module, key, value", LOOSE_CONFIGS)
    def test_loose_config_types_exit_4(self, tmp_path, capsys, module, key, value):
        config, _ = _module_config(module)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, key: value}))
        assert main(["params", "--module", module, "--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err


class TestArgumentErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["fuse", "--det-a", "x.json"]) == 2

    @pytest.mark.parametrize("value", ["abc", ""])
    def test_malformed_flag_values(self, tmp_path, monkeypatch, value):
        # each flag of the image commands in turn; an output named "abc" is
        # written to tmp_path and removed, so no later run reads it
        monkeypatch.chdir(tmp_path)
        write_detection_file(tmp_path / "det.json", [square_detection(2, 2, 6, 0.9)])
        formats.save_ground_truth_file(tmp_path / "gt.json", GroundTruthSet(
            "img", mask_to_polygons(square_detection(2, 2, 6, 0.9).mask), [False],
            image_width=CANVAS, image_height=CANVAS))
        fuse = {"--det-a": "det.json", "--det-b": "det.json", "--det-c": "det.json",
                "--iou-threshold": "0.8", "--alpha": "0.5", "--iou-mode": "mask",
                "--out": "o.json"}
        nms = {"--in": "det.json", "--mode": "hard", "--iou-threshold": "0.5",
               "--sigma": "0.5", "--score-floor": "0.001", "--iou-mode": "mask",
               "--out": "o.json"}
        evaluate = {"--gt": "gt.json", "--det": "det.json", "--iou": "0.5",
                    "--report": "r.json"}
        for command, flags in (("fuse", fuse), ("nms", nms), ("eval", evaluate)):
            for flag in flags:
                argv = [command, *(a for k, v in {**flags, flag: value}.items() for a in (k, v))]
                code = clean_exit(argv)
                assert code != 0 or flag in ("--out", "--report"), argv
                (tmp_path / "abc").unlink(missing_ok=True)
