"""Cascade of multi-receptive-field convolution blocks with a residual skip.

Each block runs three parallel same-padded convolutions over its input, a
tall k x 1 kernel, a wide 1 x k kernel, and a square k x k kernel, and sums
the three responses. Three blocks run in sequence (kernel extents 7, 5, 3 by
default) and the module adds the original input on top of the last block's
sum when the residual connection is enabled.

With all activations set to "none" the cascade is a linear operator and
decomposes into the 27 single-branch paths (one branch choice per block);
the test suite pins that decomposition. The optional ReLU is applied after
each block's fused sum and, for the last block, after the residual add.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, _json_int
from .ndtensor import Conv2dKernel, Tensor, as_tensor, conv2d, relu

ACTIVATIONS = ("none", "relu")
DEFAULT_KERNEL_SIZES = (7, 5, 3)


def _branch_extents(k: int) -> dict:
    """Branch name -> (kh, kw) for a block of kernel extent k, in weight-file order."""
    return {"vertical": (k, 1), "horizontal": (1, k), "square": (k, k)}


def _activate(x: Tensor, activation: str) -> Tensor:
    return relu(x) if activation == "relu" else x


@dataclass
class ConvBlock:
    """One block: parallel k x 1 / 1 x k / k x k convolutions, summed."""

    vertical: Conv2dKernel    # k x 1
    horizontal: Conv2dKernel  # 1 x k
    square: Conv2dKernel      # k x k
    activation: str = "none"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        c, extents = self.channels, _branch_extents(self.kernel_size)
        for name, kern in self.branches():
            want = (c, c, *extents[name])
            if kern.weights.shape != want:
                raise ConfigError(
                    f"{name} branch kernel must have shape {want}, got {kern.weights.shape}"
                )

    @property
    def kernel_size(self) -> int:
        return self.vertical.kh

    @property
    def channels(self) -> int:
        return self.vertical.in_channels

    def branches(self):
        return [(name, getattr(self, name)) for name in _branch_extents(self.kernel_size)]

    @classmethod
    def zeros(cls, channels: int, k: int, activation: str = "none") -> "ConvBlock":
        return cls(**{name: Conv2dKernel.zeros(channels, channels, kh, kw)
                      for name, (kh, kw) in _branch_extents(k).items()}, activation=activation)

    @classmethod
    def random(cls, channels: int, k: int, rng: np.random.Generator,
               scale: float = 0.1, bias_scale: float = 0.1,
               activation: str = "none") -> "ConvBlock":
        return cls(**{name: Conv2dKernel.random(channels, channels, kh, kw, rng, scale, bias_scale)
                      for name, (kh, kw) in _branch_extents(k).items()}, activation=activation)


@dataclass
class CascadeConfig:
    """Three blocks plus the residual switch; one shared channel width."""

    blocks: list = field(default_factory=list)
    residual: bool = True

    def __post_init__(self):
        if len(self.blocks) != 3:
            raise ConfigError(f"cascade needs exactly 3 blocks, got {len(self.blocks)}")
        widths = {b.channels for b in self.blocks}
        if len(widths) != 1:
            raise ConfigError(f"all blocks must share one channel width, got {sorted(widths)}")

    @property
    def channels(self) -> int:
        return self.blocks[0].channels

    @property
    def kernel_sizes(self) -> tuple[int, ...]:
        return tuple(b.kernel_size for b in self.blocks)

    @classmethod
    def zeros(cls, channels: int, kernel_sizes=DEFAULT_KERNEL_SIZES,
              activation: str = "none", residual: bool = True) -> "CascadeConfig":
        blocks = [ConvBlock.zeros(channels, k, activation) for k in kernel_sizes]
        return cls(blocks=blocks, residual=residual)

    @classmethod
    def random(cls, channels: int, rng: np.random.Generator,
               kernel_sizes=DEFAULT_KERNEL_SIZES, scale: float = 0.1,
               bias_scale: float = 0.1, activation: str = "none",
               residual: bool = True) -> "CascadeConfig":
        blocks = [
            ConvBlock.random(channels, k, rng, scale, bias_scale, activation)
            for k in kernel_sizes
        ]
        return cls(blocks=blocks, residual=residual)


def _check_input(x, channels: int, what: str) -> Tensor:
    x = as_tensor(x, what)
    if x.ndim != 3 or x.shape[0] != channels:
        raise ShapeError(f"{what} must be ({channels}, H, W), got {tuple(x.shape)}")
    return x


def _branch_sum(x: Tensor, block: ConvBlock) -> Tensor:
    vertical, horizontal, square = (conv2d(x, kern) for _, kern in block.branches())
    return vertical + horizontal + square


def block_forward(x: Tensor, block: ConvBlock) -> Tensor:
    """act( conv_kx1(x) + conv_1xk(x) + conv_kxk(x) ), spatial size preserved."""
    x = _check_input(x, block.channels, "block input")
    return _activate(_branch_sum(x, block), block.activation)


def cascade_forward(x: Tensor, cfg: CascadeConfig) -> Tensor:
    """Run the three blocks in order; the residual input joins before the
    last block's activation."""
    x = _check_input(x, cfg.channels, "cascade input")
    y = x
    for block in cfg.blocks[:-1]:
        y = block_forward(y, block)
    y = _branch_sum(y, cfg.blocks[-1])
    if cfg.residual:
        y = y + x
    return _activate(y, cfg.blocks[-1].activation)


def forward_pyramid(levels, cfg) -> list:
    """Apply the cascade to every pyramid level.

    Pass one config to share weights across levels or a list of configs
    (one per level) for per-level weights.
    """
    configs = cfg if isinstance(cfg, (list, tuple)) else [cfg] * len(levels)
    if len(configs) != len(levels):
        raise ConfigError(f"got {len(configs)} configs for {len(levels)} levels")
    return [cascade_forward(level, c) for level, c in zip(levels, configs)]


def param_count(cfg: CascadeConfig) -> int:
    """Exact number of scalar weights plus biases in the configured module."""
    return sum(arr.size for arr in to_named_tensors(cfg)[1].values())


def param_breakdown_from_config(config: dict) -> list[tuple[str, int]]:
    """Per-block parameter counts from a plain config dict (no weights needed):
    each branch holds (C, C, kh, kw) weights and C biases."""
    c, kernel_sizes, _, _ = _parse_config(config)
    return [(f"block{i} (k={k})",
             sum(c * c * kh * kw + c for kh, kw in _branch_extents(k).values()))
            for i, k in enumerate(kernel_sizes)]


def param_count_from_config(config: dict) -> int:
    return sum(n for _, n in param_breakdown_from_config(config))


# ---------------------------------------------------------------------------
# named-tensor serialization (weight files)


def _parse_config(config: dict):
    try:
        channels = _json_int(config["channels"], "channels", ConfigError)
        kernel_sizes = [_json_int(k, "kernelSizes entry", ConfigError)
                        for k in config["kernelSizes"]]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"invalid cascade config: {exc}") from exc
    activation = config.get("activation", "none")
    residual = config.get("residual", True)
    if type(residual) is not bool:
        raise ConfigError(f"residual must be true or false, got {residual!r}")
    if channels < 1:
        raise ConfigError("channels must be >= 1")
    if len(kernel_sizes) != 3:
        raise ConfigError("kernelSizes must list exactly 3 extents")
    if any(k < 1 or k % 2 == 0 for k in kernel_sizes):
        raise ConfigError(f"kernel extents must be odd and >= 1, got {kernel_sizes}")
    if activation not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation!r}")
    return channels, kernel_sizes, activation, residual


def to_named_tensors(cfg: CascadeConfig) -> tuple[dict, dict]:
    """Split a config into (plain config dict, named weight arrays)."""
    config = {
        "channels": cfg.channels,
        "kernelSizes": list(cfg.kernel_sizes),
        "activation": cfg.blocks[0].activation,
        "residual": cfg.residual,
    }
    tensors = {}
    for i, block in enumerate(cfg.blocks):
        for name, kern in block.branches():
            tensors[f"block{i}.{name}.weight"] = kern.weights
            tensors[f"block{i}.{name}.bias"] = kern.bias
    return config, tensors


def from_named_tensors(config: dict, tensors: dict) -> CascadeConfig:
    channels, kernel_sizes, activation, residual = _parse_config(config)
    blocks = []
    for i, k in enumerate(kernel_sizes):
        kerns = {}
        for name in _branch_extents(k):
            try:
                weights = tensors[f"block{i}.{name}.weight"]
                bias = tensors[f"block{i}.{name}.bias"]
            except KeyError as exc:
                raise ConfigError(f"missing tensor block{i}.{name}") from exc
            kerns[name] = Conv2dKernel(weights, bias)
        block = ConvBlock(activation=activation, **kerns)
        if block.kernel_size != k or block.channels != channels:
            raise ConfigError(
                f"block{i} tensors disagree with config "
                f"(k={block.kernel_size} vs {k}, channels={block.channels} vs {channels})"
            )
        blocks.append(block)
    return CascadeConfig(blocks=blocks, residual=residual)
