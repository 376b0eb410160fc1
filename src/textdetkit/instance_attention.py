"""Instance-token self-attention over RoI features with pooled global context.

Per-instance RoI maps are reduced to compact tokens (1 x 1 conv to fewer
channels, adaptive max pooling, row-major flatten), mixed across instances by
a stack of post-norm transformer encoder layers, recovered back to RoI-sized
maps (reshape, bilinear upsampling, 1 x 1 conv), and fused with the original
features plus a global context vector via element-wise summation. The global
context is the sum over pyramid levels of a per-level 1 x 1 conv followed by
global average pooling.

Tokens carry no positional encoding: instances form a set, so the whole
pipeline is permutation equivariant, a contract the tests pin down. Dropout
is omitted; outputs are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, make_dataclass

import numpy as np

from .errors import ConfigError, EmptyProposalSet, ShapeError, _json_int
from .ndtensor import (
    Conv2dKernel,
    Tensor,
    adaptive_max_pool,
    as_tensor,
    bilinear_upsample,
    conv2d,
    layer_norm,
    linear,
    relu,
    softmax,
)

# Each encoder-layer tensor in weight-file order: (file suffix, EncoderLayer
# attribute, shape in the symbols d = d_model and h = ffn_hidden).
_LAYER_TENSORS = (
    ("query.weight", "w_query", "dd"), ("query.bias", "b_query", "d"),
    ("key.weight", "w_key", "dd"), ("key.bias", "b_key", "d"),
    ("value.weight", "w_value", "dd"), ("value.bias", "b_value", "d"),
    ("out.weight", "w_out", "dd"), ("out.bias", "b_out", "d"),
    ("ffn1.weight", "ffn_w1", "dh"), ("ffn1.bias", "ffn_b1", "h"),
    ("ffn2.weight", "ffn_w2", "hd"), ("ffn2.bias", "ffn_b2", "d"),
    ("norm1.gamma", "norm1_gamma", "d"), ("norm1.beta", "norm1_beta", "d"),
    ("norm2.gamma", "norm2_gamma", "d"), ("norm2.beta", "norm2_beta", "d"),
)

EncoderLayer = make_dataclass(
    "EncoderLayer", [(attr, Tensor) for _, attr, _ in _LAYER_TENSORS],
    namespace={"__module__": __name__,
               "__doc__": "Weights of one post-norm encoder layer (attention + FFN)."},
)

MAX_ENCODER_LAYERS = 64  # far above the deployed 3; bounds a config read from a file

# Weight-file config keys and the AttentionConfig attributes they hold, in file order.
_CONFIG_KEYS = (
    ("channels", "channels"), ("reducedChannels", "reduced_channels"),
    ("roiHeight", "roi_height"), ("roiWidth", "roi_width"),
    ("poolHeight", "pool_height"), ("poolWidth", "pool_width"),
    ("encoderLayers", "encoder_layers"), ("heads", "heads"),
    ("ffnHidden", "ffn_hidden"), ("pyramidChannels", "pyramid_channels"),
)


def _layout(channels, reduced_channels, roi_height, roi_width, pool_height, pool_width,
            encoder_layers, heads, ffn_hidden, pyramid_channels):
    """Yields the module's components in weight-file order, once its dimensions check out.

    A component is (params-table label, constructor, {tensor name: shape}); the
    constructor takes the tensors in that order. Every dimension must be >= 1,
    at most MAX_ENCODER_LAYERS encoder layers, the pooled grid must fit in the
    RoI and the heads must divide d_model. ffn_hidden 0 stands for 4 * d_model.
    """
    d_model = pool_height * pool_width * reduced_channels
    ffn_hidden = ffn_hidden or 4 * d_model
    if min(channels, reduced_channels, roi_height, roi_width, pool_height, pool_width,
           encoder_layers, heads, ffn_hidden, *pyramid_channels) < 1 or not pyramid_channels:
        raise ConfigError("all attention config dimensions must be >= 1")
    if encoder_layers > MAX_ENCODER_LAYERS:
        raise ConfigError(f"at most {MAX_ENCODER_LAYERS} encoder layers, got {encoder_layers}")
    if pool_height > roi_height or pool_width > roi_width:
        raise ConfigError("pooled size must not exceed the RoI size")
    if d_model % heads != 0:
        raise ConfigError(f"token width {d_model} is not divisible by {heads} heads")

    def conv(label, prefix, c_out, c_in):
        return label, Conv2dKernel, {f"{prefix}.weight": (c_out, c_in, 1, 1),
                                     f"{prefix}.bias": (c_out,)}

    sizes = {"d": d_model, "h": ffn_hidden}
    layer = [(suffix, tuple(sizes[s] for s in shape)) for suffix, _, shape in _LAYER_TENSORS]
    yield conv("token reduction (1x1 conv)", "reduce", reduced_channels, channels)
    for i in range(encoder_layers):
        yield f"encoder layer {i}", EncoderLayer, {f"layer{i}.{suffix}": shape
                                                   for suffix, shape in layer}
    yield conv("feature recovery (1x1 conv)", "recover", channels, reduced_channels)
    for i, c in enumerate(pyramid_channels):
        yield conv(f"global context level {i} (1x1 conv)", f"context{i}", channels, c)


def _dims(channels, reduced_channels, roi_size, pool_size, encoder_layers, heads,
          ffn_hidden, pyramid_channels) -> dict:
    """``zeros``/``random`` arguments as {AttentionConfig attribute: value}."""
    return dict(channels=channels, reduced_channels=reduced_channels,
                roi_height=roi_size[0], roi_width=roi_size[1],
                pool_height=pool_size[0], pool_width=pool_size[1],
                encoder_layers=encoder_layers, heads=heads, ffn_hidden=ffn_hidden,
                pyramid_channels=list(pyramid_channels or [channels] * 4))


@dataclass
class AttentionConfig:
    """Dimensions and weights of the whole instance-attention module.

    Defaults follow the deployed setting: 256 RoI channels reduced to 32,
    14 x 14 RoIs pooled to 3 x 3 (token width 288), three encoder layers with
    four heads, FFN hidden width 4 * d_model.
    """

    reduce: Conv2dKernel
    layers: list
    recover: Conv2dKernel
    context: list
    channels: int = 256
    reduced_channels: int = 32
    roi_height: int = 14
    roi_width: int = 14
    pool_height: int = 3
    pool_width: int = 3
    heads: int = 4
    ffn_hidden: int = field(default=0)  # 0 => 4 * d_model

    def __post_init__(self):
        if self.ffn_hidden == 0:
            self.ffn_hidden = 4 * self.d_model
        for name, shape, arr in self._tensors():
            if arr.shape != shape:
                raise ConfigError(f"tensor {name} must have shape {shape}, got {arr.shape}")

    def _tensors(self):
        """(name, layout shape, array) for every tensor, in weight-file order."""
        parts = [self.reduce, *self.layers, self.recover, *self.context]
        layout = _layout(**{attr: getattr(self, attr) for _, attr in _CONFIG_KEYS})
        for (_, _, shapes), part in zip(layout, parts):
            for (name, shape), f in zip(shapes.items(), fields(part)):
                yield name, shape, np.asarray(getattr(part, f.name))

    @property
    def d_model(self) -> int:
        return self.pool_height * self.pool_width * self.reduced_channels

    @property
    def encoder_layers(self) -> int:
        return len(self.layers)

    @property
    def pyramid_channels(self) -> list[int]:
        return [kern.in_channels for kern in self.context]

    @classmethod
    def _build(cls, fill, dims: dict) -> "AttentionConfig":
        """The config whose tensors are fill(name, shape), called in weight-file order."""
        parts = [make(*(fill(name, shape) for name, shape in shapes.items()))
                 for _, make, shapes in _layout(**dims)]
        n = dims["encoder_layers"]
        attrs = {k: v for k, v in dims.items() if k not in ("encoder_layers", "pyramid_channels")}
        return cls(reduce=parts[0], layers=parts[1:n + 1], recover=parts[n + 1],
                   context=parts[n + 2:], **attrs)

    @classmethod
    def zeros(cls, channels: int = 256, reduced_channels: int = 32,
              roi_size: tuple[int, int] = (14, 14), pool_size: tuple[int, int] = (3, 3),
              encoder_layers: int = 3, heads: int = 4, ffn_hidden: int = 0,
              pyramid_channels=None) -> "AttentionConfig":
        """All-zero weights and biases, unit layer-norm gains."""
        def fill(name, shape):
            return np.ones(shape) if name.endswith(".gamma") else np.zeros(shape)

        return cls._build(fill, _dims(channels, reduced_channels, roi_size, pool_size,
                                      encoder_layers, heads, ffn_hidden, pyramid_channels))

    @classmethod
    def random(cls, rng: np.random.Generator, channels: int = 256,
               reduced_channels: int = 32, roi_size: tuple[int, int] = (14, 14),
               pool_size: tuple[int, int] = (3, 3), encoder_layers: int = 3,
               heads: int = 4, ffn_hidden: int = 0, pyramid_channels=None,
               scale: float = 0.05, zero_bias: bool = False) -> "AttentionConfig":
        """Normal(0, scale) draws in weight-file order; layer-norm gains are
        1 + 0.1 * draw. ``zero_bias`` zeroes the 1 x 1 conv biases without drawing."""
        bias_scale = 0.0 if zero_bias else scale

        def fill(name, shape):
            if name.endswith(".bias") and not name.startswith("layer"):  # a 1 x 1 conv bias
                return rng.normal(0.0, bias_scale, size=shape) if bias_scale else np.zeros(shape)
            draw = rng.normal(0.0, scale, size=shape)
            return 1.0 + draw * 0.1 if name.endswith(".gamma") else draw

        return cls._build(fill, _dims(channels, reduced_channels, roi_size, pool_size,
                                      encoder_layers, heads, ffn_hidden, pyramid_channels))


def _check_roi(f, cfg: AttentionConfig) -> Tensor:
    arr = np.ascontiguousarray(np.asarray(f, dtype=np.float64))
    if arr.ndim != 4:
        raise ShapeError(f"RoI features must be (M, C, H, W), got rank {arr.ndim}")
    if arr.shape[0] == 0:
        raise EmptyProposalSet("need at least one instance proposal")
    _, c, h, w = arr.shape
    if c != cfg.channels:
        raise ShapeError(f"RoI channels {c} != configured {cfg.channels}")
    if (h, w) != (cfg.roi_height, cfg.roi_width):
        raise ShapeError(
            f"RoI spatial size {h}x{w} != configured {cfg.roi_height}x{cfg.roi_width}"
        )
    return arr


def roi_to_tokens(f, cfg: AttentionConfig) -> Tensor:
    """Reduce (M, C, H, W) RoI features to M tokens of width d_model.

    Per instance: 1 x 1 conv to reduced channels, adaptive max pool to the
    pooled grid, row-major flatten; the pool runs once over all instances.
    """
    f = _check_roi(f, cfg)
    reduced = np.stack([conv2d(x, cfg.reduce) for x in f])
    pooled = adaptive_max_pool(reduced.reshape(-1, cfg.roi_height, cfg.roi_width),
                               cfg.pool_height, cfg.pool_width)
    return pooled.reshape(len(f), cfg.d_model)


def _self_attention(x: Tensor, layer: EncoderLayer, heads: int):
    """Scaled dot-product attention batched over heads: q, k and v are
    (heads, M, d_head) views of the projected (M, d_model) tokens."""
    m, d = x.shape
    d_head = d // heads
    q, k, v = (linear(x, w, b).reshape(m, heads, d_head).transpose(1, 0, 2)
               for w, b in ((layer.w_query, layer.b_query), (layer.w_key, layer.b_key),
                            (layer.w_value, layer.b_value)))
    maps = softmax(q @ k.transpose(0, 2, 1) * (1.0 / math.sqrt(d_head)))
    mixed = (maps @ v).transpose(1, 0, 2).reshape(m, d)
    return linear(mixed, layer.w_out, layer.b_out), maps


def transformer_encoder(tokens, cfg: AttentionConfig, return_attention: bool = False):
    """Post-norm encoder stack over a set of instance tokens.

    Each layer: multi-head scaled dot-product self-attention, residual add,
    layer norm, then FFN (linear -> ReLU -> linear), residual add, layer
    norm. No positional encoding. With ``return_attention`` the per-layer
    (heads, M, M) attention maps are returned alongside the tokens.
    """
    x = as_tensor(tokens, "token sequence")
    if x.ndim != 2:
        raise ShapeError(f"token sequence must be (M, d_model), got rank {x.ndim}")
    if x.shape[1] != cfg.d_model:
        raise ShapeError(f"token width {x.shape[1]} != configured d_model {cfg.d_model}")
    attention_maps = []
    for layer in cfg.layers:
        attn_out, maps = _self_attention(x, layer, cfg.heads)
        x = layer_norm(x + attn_out, layer.norm1_gamma, layer.norm1_beta)
        hidden = relu(linear(x, layer.ffn_w1, layer.ffn_b1))
        x = layer_norm(x + linear(hidden, layer.ffn_w2, layer.ffn_b2),
                       layer.norm2_gamma, layer.norm2_beta)
        attention_maps.append(maps)
    return (x, attention_maps) if return_attention else x


def tokens_to_roi(tokens, cfg: AttentionConfig) -> Tensor:
    """Recover (M, C, H, W) maps from tokens: reshape to the pooled grid,
    bilinear upsample to the RoI size, 1 x 1 conv back to full channels."""
    tokens = as_tensor(tokens, "token sequence")
    if tokens.ndim != 2 or tokens.shape[1] != cfg.d_model:
        raise ShapeError(
            f"token sequence must be (M, {cfg.d_model}), got {tuple(tokens.shape)}"
        )
    grids = tokens.reshape(-1, cfg.pool_height, cfg.pool_width)
    up = bilinear_upsample(grids, cfg.roi_height, cfg.roi_width)
    up = up.reshape(len(tokens), cfg.reduced_channels, cfg.roi_height, cfg.roi_width)
    return np.stack([conv2d(x, cfg.recover) for x in up])


def global_context(pyramid, cfg: AttentionConfig) -> Tensor:
    """Sum over levels of spatial-mean(1 x 1 conv(level)): a (C,) vector."""
    if not pyramid:
        raise ShapeError("global context needs at least one pyramid level")
    if len(pyramid) != len(cfg.context):
        raise ShapeError(
            f"got {len(pyramid)} pyramid levels for {len(cfg.context)} context kernels"
        )
    g = np.zeros(cfg.channels)
    for level, kern in zip(pyramid, cfg.context):
        mapped = conv2d(level, kern)
        g = g + mapped.mean(axis=(1, 2))
    return g


def fuse_features(f, enhanced, context_vec) -> Tensor:
    """Element-wise sum of the original RoI features, the recovered maps, and
    the global context vector broadcast over instances and positions."""
    f = as_tensor(f, "roi features")
    enhanced = as_tensor(enhanced, "enhanced features")
    context_vec = as_tensor(context_vec, "context vector")
    if f.ndim != 4:
        raise ShapeError(f"roi features must be (M, C, H, W), got rank {f.ndim}")
    if enhanced.shape != f.shape:
        raise ShapeError(
            f"enhanced features shape {tuple(enhanced.shape)} != roi shape {tuple(f.shape)}"
        )
    if context_vec.shape != (f.shape[1],):
        raise ShapeError(
            f"context vector must have shape ({f.shape[1]},), got {tuple(context_vec.shape)}"
        )
    return f + enhanced + context_vec[None, :, None, None]


def forward(f, pyramid, cfg: AttentionConfig, return_attention: bool = False):
    """Full pipeline: tokens -> encoder -> recovered maps -> fusion.

    Output shape always equals the input RoI shape (M, C, H, W); ``roi_to_tokens``
    checks it. ``return_attention`` adds the encoder's attention maps.
    """
    encoded, maps = transformer_encoder(roi_to_tokens(f, cfg), cfg, return_attention=True)
    fused = fuse_features(f, tokens_to_roi(encoded, cfg), global_context(pyramid, cfg))
    return (fused, maps) if return_attention else fused


# ---------------------------------------------------------------------------
# parameter counting and named-tensor serialization


def param_count(cfg: AttentionConfig) -> int:
    return sum(arr.size for arr in to_named_tensors(cfg)[1].values())


def param_breakdown_from_config(config: dict) -> list[tuple[str, int]]:
    return [(label, sum(math.prod(shape) for shape in shapes.values()))
            for label, _, shapes in _layout(**_parse_config(config))]


def param_count_from_config(config: dict) -> int:
    return sum(n for _, n in param_breakdown_from_config(config))


def _parse_config(config: dict) -> dict:
    """{AttentionConfig attribute: value} from a weight-file config; every
    count must be a JSON integer."""
    dims = {}
    try:
        for key, attr in _CONFIG_KEYS:
            value = config.get(key, 0) if key == "ffnHidden" else config[key]
            if key == "pyramidChannels":
                dims[attr] = [_json_int(c, "pyramidChannels entry", ConfigError) for c in value]
            else:
                dims[attr] = _json_int(value, key, ConfigError)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"invalid attention config: {exc}") from exc
    return dims


def to_named_tensors(cfg: AttentionConfig) -> tuple[dict, dict]:
    config = {key: getattr(cfg, attr) for key, attr in _CONFIG_KEYS}
    return config, {name: arr for name, _, arr in cfg._tensors()}


def from_named_tensors(config: dict, tensors: dict) -> AttentionConfig:
    def grab(name, shape):
        try:
            return tensors[name]
        except KeyError as exc:
            raise ConfigError(f"missing tensor {name}") from exc

    dims = _parse_config(config)
    cfg = AttentionConfig._build(grab, dims)
    # the context tensors, not config fields, carry these sizes
    if cfg.pyramid_channels != dims["pyramid_channels"]:
        raise ConfigError(f"context tensors take {cfg.pyramid_channels} channels, "
                          f"config pyramidChannels says {dims['pyramid_channels']}")
    return cfg
