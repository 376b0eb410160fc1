"""Golden pins for the two reference modules' tensor layouts.

The `params` tables, the named-tensor listing of both default configs and
the bytes of small seeded weight files are fixed here, so any rewrite of how
the modules declare, build or count their tensors must keep them exactly.
"""

import hashlib
import json

import numpy as np
import pytest

from textdetkit import formats, instance_attention, multipath
from textdetkit.cli import main

DEPLOYED_INTRA = {"channels": 256, "kernelSizes": [7, 5, 3]}
DEFAULT_INTER = {"channels": 256, "reducedChannels": 32, "roiHeight": 14, "roiWidth": 14,
                 "poolHeight": 3, "poolWidth": 3, "encoderLayers": 3, "heads": 4,
                 "ffnHidden": 1152, "pyramidChannels": [256, 256, 256, 256]}

INTRA_TABLE = """\
component       parameters
block0 (k=7)       4129536
block1 (k=5)       2294528
block2 (k=3)        983808
total              7407872
"""

INTER_TABLE = """\
component                            parameters
token reduction (1x1 conv)                 8224
encoder layer 0                          999072
encoder layer 1                          999072
encoder layer 2                          999072
feature recovery (1x1 conv)                8448
global context level 0 (1x1 conv)         65792
global context level 1 (1x1 conv)         65792
global context level 2 (1x1 conv)         65792
global context level 3 (1x1 conv)         65792
total                                   3277056
"""

LAYER_TENSORS = (  # per encoder layer, d = 288, hidden = 1152
    ("query.weight", (288, 288)), ("query.bias", (288,)),
    ("key.weight", (288, 288)), ("key.bias", (288,)),
    ("value.weight", (288, 288)), ("value.bias", (288,)),
    ("out.weight", (288, 288)), ("out.bias", (288,)),
    ("ffn1.weight", (288, 1152)), ("ffn1.bias", (1152,)),
    ("ffn2.weight", (1152, 288)), ("ffn2.bias", (288,)),
    ("norm1.gamma", (288,)), ("norm1.beta", (288,)),
    ("norm2.gamma", (288,)), ("norm2.beta", (288,)),
)


class TestParamsTable:
    @pytest.mark.parametrize("module, config, table", [
        ("intra", DEPLOYED_INTRA, INTRA_TABLE),
        ("inter", DEFAULT_INTER, INTER_TABLE),
    ])
    def test_stdout(self, tmp_path, capsys, module, config, table):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["params", "--module", module, "--config", str(path)]) == 0
        assert capsys.readouterr().out == table


class TestNamedTensorLayout:
    def test_intra_deployed(self):
        config, tensors = multipath.to_named_tensors(multipath.CascadeConfig.zeros(256))
        assert config == {"channels": 256, "kernelSizes": [7, 5, 3],
                          "activation": "none", "residual": True}
        assert list(config) == ["channels", "kernelSizes", "activation", "residual"]
        want = []
        for i, k in enumerate((7, 5, 3)):
            for name, kh, kw in (("vertical", k, 1), ("horizontal", 1, k), ("square", k, k)):
                want += [(f"block{i}.{name}.weight", (256, 256, kh, kw)),
                         (f"block{i}.{name}.bias", (256,))]
        assert [(n, a.shape) for n, a in tensors.items()] == want

    def test_inter_default(self):
        config, tensors = instance_attention.to_named_tensors(
            instance_attention.AttentionConfig.zeros())
        assert config == DEFAULT_INTER
        assert list(config) == list(DEFAULT_INTER)
        want = [("reduce.weight", (32, 256, 1, 1)), ("reduce.bias", (32,))]
        for i in range(3):
            want += [(f"layer{i}.{suffix}", shape) for suffix, shape in LAYER_TENSORS]
        want += [("recover.weight", (256, 32, 1, 1)), ("recover.bias", (256,))]
        for i in range(4):
            want += [(f"context{i}.weight", (256, 256, 1, 1)), (f"context{i}.bias", (256,))]
        assert [(n, a.shape) for n, a in tensors.items()] == want


def _intra(seed, **kwargs):
    cfg = multipath.CascadeConfig.random(kwargs.pop("channels"), np.random.default_rng(seed),
                                         **kwargs)
    return "intra", multipath.to_named_tensors(cfg)


def _inter(seed, **kwargs):
    rng = np.random.default_rng(seed)
    cfg = instance_attention.AttentionConfig.random(rng, **kwargs)
    return "inter", instance_attention.to_named_tensors(cfg)


class TestWeightFileBytes:
    """sha256 of `save_tensor_file` over seeded configs: every RNG draw, its
    order, the gains' 1 + 0.1 * draw, the names and the config key order."""

    @pytest.mark.parametrize("build, digest", [
        (lambda: _intra(5, channels=3, kernel_sizes=(5, 3, 3), activation="relu"),
         "f85093a32b99bfcef8e1a5252b39b137e1b51dade0549b97e33b92ddeb446556"),
        (lambda: _intra(6, channels=2, kernel_sizes=(3, 3, 1), bias_scale=0.0, residual=False),
         "7852e79ce570ca1da541a0d5f868d93499ff3b9c7a60e38e0a7a69f4320410b2"),
        (lambda: _inter(7, channels=6, reduced_channels=2, roi_size=(5, 4), pool_size=(2, 2),
                        encoder_layers=2, heads=2, pyramid_channels=[6, 3]),
         "893730f3f18463c55f2fd2f19bb00fc0fc0a0abc366b1bef30d35e534216b7cc"),
        (lambda: _inter(8, channels=4, reduced_channels=3, roi_size=(3, 3), pool_size=(1, 2),
                        encoder_layers=1, heads=3, ffn_hidden=5, pyramid_channels=[2],
                        zero_bias=True),
         "6a3db057e5005cca48158770e7d22c8b0aaf86ca8a7344a43f64cdbd1c54e6e0"),
        (lambda: ("inter", instance_attention.to_named_tensors(
            instance_attention.AttentionConfig.zeros(
                channels=4, reduced_channels=2, roi_size=(3, 3), pool_size=(1, 1),
                encoder_layers=2, heads=1, pyramid_channels=[4, 2]))),
         "957e33097d8b3e0293ac3a5e19d17bb19b78ecea0e364038049950d72a48de54"),
    ], ids=["intra", "intra-no-bias", "inter", "inter-zero-bias", "inter-zeros"])
    def test_sha256(self, tmp_path, build, digest):
        module, (config, tensors) = build()
        path = tmp_path / "weights.json"
        formats.save_tensor_file(path, tensors, module=module, config=config)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
