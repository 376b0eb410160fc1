import math
import re

import numpy as np
import pytest

from textdetkit.errors import ConfigError, EmptyProposalSet, ShapeError
from textdetkit.instance_attention import (
    AttentionConfig,
    forward,
    from_named_tensors,
    fuse_features,
    global_context,
    param_breakdown_from_config,
    param_count,
    param_count_from_config,
    roi_to_tokens,
    to_named_tensors,
    tokens_to_roi,
    transformer_encoder,
)
from textdetkit.ndtensor import Conv2dKernel


def small_config(rng=None, **kwargs):
    """Compact dims (d_model 16) so stage oracles stay cheap."""
    defaults = dict(channels=6, reduced_channels=4, roi_size=(6, 6),
                    pool_size=(2, 2), encoder_layers=2, heads=2,
                    pyramid_channels=[6, 6])
    defaults.update(kwargs)
    if rng is None:
        return AttentionConfig.zeros(**defaults)
    return AttentionConfig.random(rng, **defaults)


def ref_layer_norm(x, gamma, beta, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


class TestRoiToTokens:
    def test_constant_propagation_with_copy_conv(self):
        cfg = small_config()
        # copy-style reduce: each output channel copies one input channel
        w = np.zeros((4, 6, 1, 1))
        for o in range(4):
            w[o, o, 0, 0] = 1.0
        cfg.reduce = Conv2dKernel(w, np.zeros(4))
        f = np.full((1, 6, 6, 6), 3.25)
        tokens = roi_to_tokens(f, cfg)
        assert tokens.shape == (1, cfg.d_model)
        assert np.array_equal(tokens, np.full((1, 16), 3.25))

    def test_default_token_length_288(self, rng):
        cfg = AttentionConfig.zeros()
        f = rng.normal(size=(2, 256, 14, 14))
        tokens = roi_to_tokens(f, cfg)
        assert tokens.shape == (2, 288)

    def test_matches_stage_oracle(self, rng):
        cfg = small_config(rng)
        f = rng.normal(size=(3, 6, 6, 6))
        tokens = roi_to_tokens(f, cfg)
        # test-local pipeline: 1x1 conv is a channel matmul, pool over bins
        w = cfg.reduce.weights[:, :, 0, 0]
        for i in range(3):
            reduced = np.einsum("oc,chw->ohw", w, f[i]) + cfg.reduce.bias[:, None, None]
            pooled = np.empty((4, 2, 2))
            for bi in range(2):
                for bj in range(2):
                    y0, y1 = (bi * 6) // 2, ((bi + 1) * 6 + 1) // 2
                    x0, x1 = (bj * 6) // 2, ((bj + 1) * 6 + 1) // 2
                    pooled[:, bi, bj] = reduced[:, y0:y1, x0:x1].max(axis=(1, 2))
            assert np.max(np.abs(tokens[i] - pooled.ravel())) <= 1e-12

    def test_empty_proposal_set(self):
        cfg = small_config()
        with pytest.raises(EmptyProposalSet):
            roi_to_tokens(np.zeros((0, 6, 6, 6)), cfg)

    def test_dims_checked(self, rng):
        cfg = small_config()
        with pytest.raises(ShapeError):
            roi_to_tokens(rng.normal(size=(2, 6, 5, 6)), cfg)


class TestTransformerEncoder:
    def test_single_token_attention_is_identity_mixing(self, rng):
        cfg = small_config(rng, encoder_layers=1)
        q = rng.normal(size=(1, 16))
        out, maps = transformer_encoder(q, cfg, return_attention=True)
        assert np.array_equal(maps[0], np.ones((2, 1, 1)))
        layer = cfg.layers[0]
        v = q @ layer.w_value + layer.b_value  # single token: attention output is V
        attn = v @ layer.w_out + layer.b_out
        x = ref_layer_norm(q + attn, layer.norm1_gamma, layer.norm1_beta)
        hidden = np.maximum(x @ layer.ffn_w1 + layer.ffn_b1, 0.0)
        want = ref_layer_norm(x + hidden @ layer.ffn_w2 + layer.ffn_b2,
                              layer.norm2_gamma, layer.norm2_beta)
        assert np.max(np.abs(out - want)) <= 1e-12

    def test_zero_weights_reduce_to_nested_layer_norms(self, rng):
        cfg = small_config(encoder_layers=3)
        q = rng.normal(size=(4, 16))
        out = transformer_encoder(q, cfg)
        want = q
        for _ in range(3):
            want = ref_layer_norm(ref_layer_norm(want, np.ones(16), np.zeros(16)),
                                  np.ones(16), np.zeros(16))
        assert np.max(np.abs(out - want)) <= 1e-12

    def test_permutation_equivariance(self, rng):
        cfg = small_config(rng)
        q = rng.normal(size=(5, 16))
        perm = rng.permutation(5)
        out = transformer_encoder(q, cfg)
        out_perm = transformer_encoder(q[perm], cfg)
        assert np.max(np.abs(out_perm - out[perm])) <= 1e-9

    def test_attention_rows_sum_to_one(self, rng):
        cfg = small_config(rng)
        q = rng.normal(size=(6, 16))
        _, maps = transformer_encoder(q, cfg, return_attention=True)
        for layer_maps in maps:
            assert np.max(np.abs(layer_maps.sum(axis=-1) - 1.0)) <= 1e-9

    def test_head_divisibility_checked(self):
        with pytest.raises(ConfigError, match="divisible"):
            small_config(heads=3)

    @pytest.mark.parametrize("dims, config, match", [
        (dict(pool_size=(7, 2)), {"poolHeight": 7}, "pooled size"),
        (dict(encoder_layers=0), {"encoderLayers": 0}, ">= 1"),
        (dict(channels=0), {"channels": 0}, ">= 1"),
        (dict(ffn_hidden=-4), {"ffnHidden": -4}, ">= 1"),
    ])
    def test_dimensions_checked(self, dims, config, match):
        with pytest.raises(ConfigError, match=match):
            small_config(**dims)
        # a weight-file config goes through the same check
        with pytest.raises(ConfigError, match=match):
            param_count_from_config({**to_named_tensors(small_config())[0], **config})


class TestTokensToRoi:
    def test_constant_token_copy_conv(self):
        cfg = small_config()
        w = np.zeros((6, 4, 1, 1))
        for o in range(6):
            w[o, o % 4, 0, 0] = 1.0
        cfg.recover = Conv2dKernel(w, np.zeros(6))
        tokens = np.full((2, 16), -1.5)
        out = tokens_to_roi(tokens, cfg)
        assert np.array_equal(out, np.full((2, 6, 6, 6), -1.5))

    def test_default_output_shape(self, rng):
        cfg = AttentionConfig.zeros()
        out = tokens_to_roi(rng.normal(size=(3, 288)), cfg)
        assert out.shape == (3, 256, 14, 14)

    def test_matches_stage_oracle(self, rng):
        cfg = small_config(rng)
        tokens = rng.normal(size=(2, 16))
        out = tokens_to_roi(tokens, cfg)
        from conftest import naive_bilinear_upsample
        w = cfg.recover.weights[:, :, 0, 0]
        for i in range(2):
            grid = tokens[i].reshape(4, 2, 2)
            up = naive_bilinear_upsample(grid, 6, 6)
            want = np.einsum("oc,chw->ohw", w, up) + cfg.recover.bias[:, None, None]
            assert np.max(np.abs(out[i] - want)) <= 1e-12


class TestGlobalContext:
    def test_single_constant_level(self):
        cfg = small_config(pyramid_channels=[6])
        cfg.context = [Conv2dKernel.identity(6)]
        g = global_context([np.full((6, 4, 4), 3.0)], cfg)
        assert np.array_equal(g, np.full(6, 3.0))

    def test_two_levels_add(self):
        cfg = small_config()
        cfg.context = [Conv2dKernel.identity(6), Conv2dKernel.identity(6)]
        g = global_context([np.full((6, 4, 4), 1.0), np.full((6, 2, 2), 2.0)], cfg)
        assert np.array_equal(g, np.full(6, 3.0))

    def test_matches_mean_sum_oracle(self, rng):
        cfg = small_config(rng, pyramid_channels=[6, 6, 6, 6])
        pyramid = [rng.normal(size=(6, 8, 8)), rng.normal(size=(6, 6, 6)),
                   rng.normal(size=(6, 4, 4)), rng.normal(size=(6, 2, 2))]
        g = global_context(pyramid, cfg)
        want = np.zeros(6)
        for level, kern in zip(pyramid, cfg.context):
            w = kern.weights[:, :, 0, 0]
            mapped = np.einsum("oc,chw->ohw", w, level) + kern.bias[:, None, None]
            want += mapped.mean(axis=(1, 2))
        assert np.max(np.abs(g - want)) <= 1e-12

    def test_empty_pyramid_rejected(self):
        cfg = small_config()
        with pytest.raises(ShapeError):
            global_context([], cfg)

    def test_scaling_additivity_zero_bias(self, rng):
        cfg = small_config()
        cfg.context = [
            Conv2dKernel.random(6, 6, 1, 1, rng, bias_scale=0.0),
            Conv2dKernel.random(6, 6, 1, 1, rng, bias_scale=0.0),
        ]
        pyramid = [rng.normal(size=(6, 5, 5)), rng.normal(size=(6, 3, 3))]
        g1 = global_context(pyramid, cfg)
        g2 = global_context([2.5 * p for p in pyramid], cfg)
        assert np.max(np.abs(g2 - 2.5 * g1)) <= 1e-10


class TestFuseAndForward:
    def test_fuse_identities(self, rng):
        f = rng.normal(size=(2, 3, 4, 4))
        assert np.array_equal(fuse_features(f, np.zeros_like(f), np.zeros(3)), f)
        g = np.arange(1.0, 4.0)
        out = fuse_features(np.zeros_like(f), np.zeros_like(f), g)
        for c in range(3):
            assert np.array_equal(out[:, c], np.full((2, 4, 4), g[c]))

    def test_forward_default_shape_m9(self, rng):
        cfg = AttentionConfig.random(rng, pyramid_channels=[256, 256])
        f = rng.normal(size=(9, 256, 14, 14))
        pyramid = [rng.normal(size=(256, 8, 8)), rng.normal(size=(256, 4, 4))]
        out = forward(f, pyramid, cfg)
        assert out.shape == (9, 256, 14, 14)

    def test_zero_weights_reduce_to_input_plus_constant_offset(self, rng):
        cfg = small_config()
        f = rng.normal(size=(3, 6, 6, 6))
        pyramid = [rng.normal(size=(6, 4, 4)), rng.normal(size=(6, 2, 2))]
        out = forward(f, pyramid, cfg)
        offsets = out - f
        # all-zero weights and biases: every stage emits zeros, so the offset
        # vanishes and is trivially shared across instances
        assert np.max(np.abs(offsets)) <= 1e-12
        # with nonzero biases the offset is still identical for every instance
        cfg2 = small_config()
        cfg2.reduce = Conv2dKernel(np.zeros((4, 6, 1, 1)), rng.normal(size=4))
        cfg2.recover = Conv2dKernel(np.zeros((6, 4, 1, 1)), rng.normal(size=6))
        out2 = forward(f, pyramid, cfg2)
        offsets2 = out2 - f
        assert np.max(np.abs(offsets2 - offsets2[0])) <= 1e-12
        assert np.max(np.abs(offsets2[0] - cfg2.recover.bias[:, None, None])) <= 1e-12

    def test_instance_permutation_equivariance(self, rng):
        cfg = small_config(rng)
        f = rng.normal(size=(4, 6, 6, 6))
        pyramid = [rng.normal(size=(6, 4, 4)), rng.normal(size=(6, 2, 2))]
        perm = rng.permutation(4)
        out = forward(f, pyramid, cfg)
        out_perm = forward(f[perm], pyramid, cfg)
        assert np.max(np.abs(out_perm - out[perm])) <= 1e-9


class TestParamsAndSerialization:
    def test_param_count_matches_enumeration(self, rng):
        cfg = small_config(rng)
        config, tensors = to_named_tensors(cfg)
        want = sum(arr.size for arr in tensors.values())
        assert param_count(cfg) == want
        assert param_count_from_config(config) == want

    def test_default_ffn_hidden_is_4x_token_width(self):
        cfg = AttentionConfig.zeros()
        assert cfg.d_model == 288
        assert cfg.ffn_hidden == 1152
        rows = dict(param_breakdown_from_config(to_named_tensors(cfg)[0]))
        d, hidden = 288, 1152
        assert rows["encoder layer 0"] == 4 * (d * d + d) + d * hidden + hidden + hidden * d + d + 4 * d

    def test_named_tensor_round_trip(self, rng):
        cfg = small_config(rng)
        config, tensors = to_named_tensors(cfg)
        rebuilt = from_named_tensors(config, tensors)
        f = rng.normal(size=(2, 6, 6, 6))
        pyramid = [rng.normal(size=(6, 4, 4)), rng.normal(size=(6, 2, 2))]
        assert np.array_equal(forward(f, pyramid, cfg), forward(f, pyramid, rebuilt))

    @pytest.mark.parametrize("name, shape", [
        ("reduce.weight", (4, 6, 3, 3)),
        ("layer1.ffn2.weight", (16, 64)),
        ("layer0.norm2.gamma", (15,)),
        ("recover.weight", (6, 3, 1, 1)),
        ("context1.weight", (6, 6, 3, 3)),
    ])
    def test_wrong_tensor_shape_rejected(self, rng, name, shape):
        config, tensors = to_named_tensors(small_config(rng))
        tensors[name] = np.zeros(shape)
        with pytest.raises(ConfigError, match=re.escape(name)):
            from_named_tensors(config, tensors)

    def test_config_pyramid_must_match_context_tensors(self, rng):
        config, tensors = to_named_tensors(small_config(rng))
        config["pyramidChannels"] = [6, 5]
        with pytest.raises(ConfigError, match="pyramidChannels"):
            from_named_tensors(config, tensors)

    def test_missing_tensor_rejected(self, rng):
        cfg = small_config(rng)
        config, tensors = to_named_tensors(cfg)
        del tensors["layer1.ffn2.weight"]
        with pytest.raises(ConfigError, match="layer1.ffn2"):
            from_named_tensors(config, tensors)
