import itertools

import numpy as np
import pytest
from scipy import signal

from textdetkit.errors import ConfigError, ShapeError
from textdetkit.multipath import (
    ConvBlock,
    CascadeConfig,
    block_forward,
    cascade_forward,
    forward_pyramid,
    from_named_tensors,
    param_breakdown_from_config,
    param_count,
    param_count_from_config,
    to_named_tensors,
)
from textdetkit.ndtensor import Conv2dKernel, conv2d, relu


def scipy_conv_same(x, kern):
    """Independent same-padded multichannel cross-correlation."""
    out = np.zeros((kern.out_channels,) + x.shape[1:])
    for o in range(kern.out_channels):
        for c in range(kern.in_channels):
            out[o] += signal.correlate2d(x[c], kern.weights[o, c], mode="same",
                                         boundary="fill")
        out[o] += kern.bias[o]
    return out


def path_sum_oracle(x, cfg):
    """Sum over every branch choice per block, each path run as its own
    sequential cascade of same-padded convolutions."""
    total = np.zeros_like(x)
    branch_sets = [[b.vertical, b.horizontal, b.square] for b in cfg.blocks]
    for choice in itertools.product(*branch_sets):
        y = x
        for kern in choice:
            y = scipy_conv_same(y, kern)
        total += y
    return total


class TestBlockForward:
    def test_identity_square_path(self, rng):
        c, k = 3, 3
        block = ConvBlock(
            vertical=Conv2dKernel.zeros(c, c, k, 1),
            horizontal=Conv2dKernel.zeros(c, c, 1, k),
            square=Conv2dKernel.identity(c, k),
        )
        x = rng.normal(size=(c, 6, 6))
        assert np.array_equal(block_forward(x, block), x)

    def test_all_zero_with_relu(self, rng):
        block = ConvBlock.zeros(2, 5, activation="relu")
        out = block_forward(rng.normal(size=(2, 7, 7)), block)
        assert np.array_equal(out, np.zeros((2, 7, 7)))

    def test_equals_three_conv_sum(self, rng):
        block = ConvBlock.random(3, 5, rng)
        x = rng.normal(size=(3, 9, 9))
        got = block_forward(x, block)
        want = (scipy_conv_same(x, block.vertical)
                + scipy_conv_same(x, block.horizontal)
                + scipy_conv_same(x, block.square))
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_channel_mismatch(self, rng):
        block = ConvBlock.zeros(2, 3)
        with pytest.raises(ShapeError):
            block_forward(np.ones((3, 4, 4)), block)

    def test_branch_shape_validation(self):
        with pytest.raises(ConfigError):
            ConvBlock(
                vertical=Conv2dKernel.zeros(2, 2, 3, 1),
                horizontal=Conv2dKernel.zeros(2, 2, 1, 5),  # wrong k
                square=Conv2dKernel.zeros(2, 2, 3, 3),
            )


class TestCascadeForward:
    def test_zero_weights_residual_is_identity(self, rng):
        cfg = CascadeConfig.zeros(3)
        x = rng.normal(size=(3, 8, 8))
        assert np.array_equal(cascade_forward(x, cfg), x)

    def test_zero_weights_residual_identity_with_relu_on_nonnegative(self, rng):
        cfg = CascadeConfig.zeros(3, activation="relu")
        x = np.abs(rng.normal(size=(3, 8, 8)))
        assert np.array_equal(cascade_forward(x, cfg), x)

    def test_path_decomposition_without_residual(self, rng):
        cfg = CascadeConfig.random(2, rng, kernel_sizes=(5, 3, 3),
                                   bias_scale=0.0, residual=False)
        x = rng.normal(size=(2, 12, 12))
        got = cascade_forward(x, cfg)
        want = path_sum_oracle(x, cfg)
        assert np.max(np.abs(got - want)) <= 1e-9

    def test_path_decomposition_with_residual(self, rng):
        cfg = CascadeConfig.random(2, rng, kernel_sizes=(5, 3, 3), bias_scale=0.0)
        x = rng.normal(size=(2, 12, 12))
        got = cascade_forward(x, cfg)
        want = path_sum_oracle(x, cfg) + x
        assert np.max(np.abs(got - want)) <= 1e-9

    def test_superposition_in_linear_mode(self, rng):
        cfg = CascadeConfig.random(2, rng, kernel_sizes=(3, 3, 3), bias_scale=0.0)
        x = rng.normal(size=(2, 8, 8))
        y = rng.normal(size=(2, 8, 8))
        lhs = cascade_forward(2.0 * x - 0.5 * y, cfg)
        rhs = 2.0 * cascade_forward(x, cfg) - 0.5 * cascade_forward(y, cfg)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_branch_sums_added_left_to_right(self, rng):
        # (kx1 + 1xk) + kxk per block, then the residual: bit for bit
        cfg = CascadeConfig.random(3, rng, kernel_sizes=(5, 3, 3), activation="relu")
        x = rng.normal(size=(3, 9, 9))
        y = x
        for i, block in enumerate(cfg.blocks):
            y = conv2d(y, block.vertical) + conv2d(y, block.horizontal) + conv2d(y, block.square)
            y = relu(y + x if i == 2 else y)
        assert np.array_equal(cascade_forward(x, cfg), y)

    def test_spatial_size_preserved(self, rng):
        cfg = CascadeConfig.random(2, rng)
        x = rng.normal(size=(2, 10, 17))
        assert cascade_forward(x, cfg).shape == x.shape

    def test_default_kernel_order(self):
        cfg = CascadeConfig.zeros(1)
        assert cfg.kernel_sizes == (7, 5, 3)

    def test_shared_weights_over_pyramid(self, rng):
        cfg = CascadeConfig.random(2, rng, kernel_sizes=(3, 3, 3))
        levels = [rng.normal(size=(2, 8, 8)), rng.normal(size=(2, 4, 4))]
        outs = forward_pyramid(levels, cfg)
        assert [o.shape for o in outs] == [(2, 8, 8), (2, 4, 4)]
        assert np.array_equal(outs[0], cascade_forward(levels[0], cfg))

    def test_wrong_block_count_rejected(self):
        with pytest.raises(ConfigError):
            CascadeConfig(blocks=[ConvBlock.zeros(2, 3)] * 2)


class TestParamCount:
    def test_hand_count_small(self):
        cfg = CascadeConfig.zeros(1, kernel_sizes=(3, 3, 3))
        assert param_count(cfg) == 54  # per block (3 + 3 + 9) weights + 3 biases

    def test_matches_enumeration_oracle(self, rng):
        cfg = CascadeConfig.random(4, rng, kernel_sizes=(7, 5, 3))
        want = 0
        for block in cfg.blocks:
            for _, kern in block.branches():
                want += kern.weights.size + kern.bias.size
        assert param_count(cfg) == want
        config, _ = to_named_tensors(cfg)
        assert param_count_from_config(config) == want

    def test_default_width_formula(self):
        config = {"channels": 256, "kernelSizes": [7, 5, 3]}
        rows = dict(param_breakdown_from_config(config))
        assert rows["block0 (k=7)"] == (7 + 7 + 49) * 256 * 256 + 3 * 256

    def test_zero_channels_rejected(self):
        with pytest.raises(ConfigError):
            param_count_from_config({"channels": 0, "kernelSizes": [3, 3, 3]})


class TestNamedTensors:
    def test_round_trip(self, rng):
        cfg = CascadeConfig.random(3, rng, kernel_sizes=(5, 3, 3),
                                   activation="relu", residual=False)
        config, tensors = to_named_tensors(cfg)
        rebuilt = from_named_tensors(config, tensors)
        x = rng.normal(size=(3, 6, 6))
        assert np.array_equal(cascade_forward(x, cfg), cascade_forward(x, rebuilt))
        assert rebuilt.residual is False
        assert rebuilt.blocks[0].activation == "relu"

    def test_missing_tensor_rejected(self, rng):
        cfg = CascadeConfig.random(2, rng, kernel_sizes=(3, 3, 3))
        config, tensors = to_named_tensors(cfg)
        del tensors["block1.square.weight"]
        with pytest.raises(ConfigError, match="block1.square"):
            from_named_tensors(config, tensors)
