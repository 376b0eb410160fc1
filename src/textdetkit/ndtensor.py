"""Dense float64 tensor primitives for the reference neural modules.

Every operation here is a pure function over numpy arrays (row-major,
float64). The numerical conventions are part of the public contract and are
pinned by the test suite:

* convolutions use same-size zero padding (kernel extents must be odd),
* adaptive max pooling bins pixel ``i`` of ``out_h`` outputs over input rows
  ``floor(i*h/out_h) .. ceil((i+1)*h/out_h)-1`` (same along width),
* bilinear interpolation samples half-pixel centers without corner
  alignment, clamped to the source grid.

Accumulations run in a fixed order, so repeated calls with equal inputs are
bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

Tensor = np.ndarray


def as_tensor(x, name: str = "tensor") -> Tensor:
    """Coerce to a C-contiguous float64 array with rank >= 1 and no empty axes."""
    arr = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if arr.ndim < 1:
        raise ShapeError(f"{name} must have rank >= 1, got a scalar")
    if min(arr.shape) < 1:
        raise ShapeError(f"{name} has an empty extent in shape {tuple(arr.shape)}")
    return arr


def _require_rank(arr: Tensor, rank: int, name: str) -> None:
    if arr.ndim != rank:
        raise ShapeError(f"{name} must have rank {rank}, got shape {tuple(arr.shape)}")


@dataclass
class Conv2dKernel:
    """2-D convolution weights with shape (out_channels, in_channels, kh, kw).

    kh and kw must be odd so that same-size zero padding is well defined.
    """

    weights: Tensor
    bias: Tensor

    def __post_init__(self):
        self.weights = as_tensor(self.weights, "kernel weights")
        self.bias = as_tensor(self.bias, "kernel bias")
        _require_rank(self.weights, 4, "kernel weights")
        _require_rank(self.bias, 1, "kernel bias")
        out_c, _, kh, kw = self.weights.shape
        if kh % 2 == 0 or kw % 2 == 0:
            raise ConfigError(f"kernel extents must be odd, got {kh}x{kw}")
        if self.bias.shape[0] != out_c:
            raise ShapeError(
                f"bias length {self.bias.shape[0]} != out_channels {out_c}"
            )

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kh(self) -> int:
        return self.weights.shape[2]

    @property
    def kw(self) -> int:
        return self.weights.shape[3]

    @classmethod
    def zeros(cls, out_channels: int, in_channels: int, kh: int, kw: int) -> "Conv2dKernel":
        return cls(np.zeros((out_channels, in_channels, kh, kw)), np.zeros(out_channels))

    @classmethod
    def identity(cls, channels: int, k: int = 1) -> "Conv2dKernel":
        """Kernel whose only nonzero tap copies each channel to itself."""
        w = np.zeros((channels, channels, k, k))
        for c in range(channels):
            w[c, c, k // 2, k // 2] = 1.0
        return cls(w, np.zeros(channels))

    @classmethod
    def random(cls, out_channels: int, in_channels: int, kh: int, kw: int,
               rng: np.random.Generator, scale: float = 0.1,
               bias_scale: float = 0.1) -> "Conv2dKernel":
        w = rng.normal(0.0, scale, size=(out_channels, in_channels, kh, kw))
        b = rng.normal(0.0, bias_scale, size=out_channels) if bias_scale else np.zeros(out_channels)
        return cls(w, b)


def conv2d(x: Tensor, kernel: Conv2dKernel) -> Tensor:
    """Same-size zero-padded 2-D cross-correlation over a (C, H, W) map.

    out[o, y, x] = bias[o]
                 + sum_{c, dy, dx} w[o, c, dy, dx] * padded[c, y + dy, x + dx]
    """
    x = as_tensor(x, "conv input")
    _require_rank(x, 3, "conv input")
    c_in, h, w = x.shape
    if c_in != kernel.in_channels:
        raise ShapeError(
            f"conv input channels {c_in} != kernel in_channels {kernel.in_channels}"
        )
    kh, kw = kernel.kh, kernel.kw
    ph, pw = kh // 2, kw // 2
    padded = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((kernel.out_channels, h, w))
    for dy in range(kh):
        for dx in range(kw):
            out += np.tensordot(
                kernel.weights[:, :, dy, dx], padded[:, dy:dy + h, dx:dx + w], axes=(1, 0)
            )
    out += kernel.bias[:, None, None]
    return out


def adaptive_max_pool(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Max pooling to an arbitrary (out_h, out_w) grid of floor/ceil bins."""
    x = as_tensor(x, "pool input")
    _require_rank(x, 3, "pool input")
    c, h, w = x.shape
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"pooled size must be >= 1, got {out_h}x{out_w}")
    if out_h > h or out_w > w:
        raise ShapeError(f"pooled size {out_h}x{out_w} exceeds input {h}x{w}")
    out = np.empty((c, out_h, out_w))
    for i in range(out_h):
        y0 = (i * h) // out_h
        y1 = ((i + 1) * h + out_h - 1) // out_h
        for j in range(out_w):
            x0 = (j * w) // out_w
            x1 = ((j + 1) * w + out_w - 1) // out_w
            out[:, i, j] = x[:, y0:y1, x0:x1].max(axis=(1, 2))
    return out


def bilinear_upsample(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Enlarge a (C, h, w) map to (C, out_h, out_w) via half-pixel bilinear
    sampling.

    Destination pixel d samples source coordinate s = (d + 0.5) * h/out_h - 0.5
    clamped to [0, h-1]; blends use the a + t*(b - a) form so constant fields
    are preserved exactly.
    """
    x = as_tensor(x, "upsample input")
    _require_rank(x, 3, "upsample input")
    _, h, w = x.shape
    if out_h < h or out_w < w:
        raise ShapeError(
            f"bilinear_upsample only enlarges: target {out_h}x{out_w} < input {h}x{w}"
        )
    sy = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    sx = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(sy).astype(int)
    x0 = np.floor(sx).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (sy - y0)[None, :, None]
    wx = (sx - x0)[None, None, :]

    def _row_blend(rows):
        left = rows[:, :, x0]
        return left + wx * (rows[:, :, x1] - left)

    top = _row_blend(x[:, y0, :])
    bottom = _row_blend(x[:, y1, :])
    return top + wy * (bottom - top)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map along the last axis: x @ weight + bias."""
    x = as_tensor(x, "linear input")
    weight = as_tensor(weight, "linear weight")
    bias = as_tensor(bias, "linear bias")
    _require_rank(weight, 2, "linear weight")
    _require_rank(bias, 1, "linear bias")
    d_in, d_out = weight.shape
    if x.shape[-1] != d_in:
        raise ShapeError(f"linear input dim {x.shape[-1]} != weight rows {d_in}")
    if bias.shape[0] != d_out:
        raise ShapeError(f"linear bias dim {bias.shape[0]} != weight cols {d_out}")
    return x @ weight + bias


def softmax(x: Tensor) -> Tensor:
    """Stable softmax along the last axis (max-subtracted)."""
    x = as_tensor(x, "softmax input")
    if np.isnan(x).any():
        raise ValueError("softmax input contains NaN")
    if not np.isfinite(x).all():
        raise ValueError("softmax input must be finite")
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    x = as_tensor(x, "layer_norm input")
    gamma = as_tensor(gamma, "gamma")
    beta = as_tensor(beta, "beta")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"gamma/beta must have shape ({d},), got {tuple(gamma.shape)} / {tuple(beta.shape)}"
        )
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


def relu(x: Tensor) -> Tensor:
    return np.maximum(x, 0.0)
