"""Composite network blocks.

``ConvBn`` is a bias-free "same"-padded convolution followed by BatchNorm,
and ``Cbs`` is the same unit with a SiLU on top.  ``AirBlock`` is the
attention-guided inverted-residual bottleneck: reduce channels 4x with a 1x1
convolution, refine with a depthwise 3x3, apply additive convolutional
attention at the reduced width, restore channels with a 1x1 convolution, and
add the identity skip.  ``DpdfBlock`` is the dual-pool downsampling block:
parallel max-pool and avg-pool paths, each refined by a partial convolution
and spatial/channel calibration, fused by a learnable convex coefficient
alpha = sigmoid(alpha_raw).  ``CspBlock`` (split-transform-merge bottleneck
stack) and ``Sppf`` (spatial pyramid pooling, fast) complete the baseline
skeleton the ablations are measured against.  Closed-form parameter counts
of the novel blocks live with the test oracles, which check the modules
against them.  For inference only, :func:`fold_batchnorm` folds each
``ConvBn``'s BatchNorm into its convolution (Jacob et al., CVPR 2018).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .rng import Rng
from .tensor import Parameter, Tensor, default_dtype, sigmoid, slice4
from .nn import BN_EPS, BatchNorm, Conv2d, Conv2dSpec, Module, ModuleList, PartialConv, concat_channels, pool2d
from .attention import CasAttention, ChannelCalibrate, SpatialCalibrate


class ConvBn(Module):
    """Conv followed by BatchNorm with no activation (restore/projection layers).

    The convolution is bias-free (BN absorbs it, literally after the inference-only
    :func:`fold_batchnorm`) and padded by kernel // 2: at stride 1 it keeps H and W.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel: int, rng: Rng,
                 stride: int = 1, groups: int = 1):
        super().__init__()
        self.conv = Conv2d(Conv2dSpec(in_channels, out_channels, kernel, stride=stride,
                                      padding=kernel // 2, groups=groups, has_bias=False), rng)
        self.bn = BatchNorm(out_channels)

    def forward(self, x: Tensor) -> Tensor:
        return self.conv(x) if self.bn is None else self.bn(self.conv(x))


class Cbs(ConvBn):
    """Conv-BatchNorm-SiLU: a :class:`ConvBn` whose output passes a SiLU."""

    def forward(self, x: Tensor) -> Tensor:
        return super().forward(x).silu()


class AirBlock(Module):
    """Attention-guided inverted-residual bottleneck; shape preserving.

    reduce: 1x1 conv C -> ceil(C/4) + BN + ReLU
    dw:     depthwise 3x3 + BN + ReLU at the reduced width
    attn:   additive convolutional attention at the reduced width
    expand: 1x1 conv back to C + BN (no activation)
    skip:   y = expand + x, the identity skip
    """

    def __init__(self, channels: int, rng: Rng):
        super().__init__()
        reduced = math.ceil(channels / 4)
        self.reduce = ConvBn(channels, reduced, kernel=1, rng=rng)
        self.dw = ConvBn(reduced, reduced, kernel=3, rng=rng, groups=reduced)
        self.attn = CasAttention(reduced, rng)
        self.expand = ConvBn(reduced, channels, kernel=1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        h = self.reduce(x).relu()
        h = self.dw(h).relu()
        h = self.attn(h)
        return self.expand(h) + x


class DpdfBlock(Module):
    """Dual-pool downsampling with learnable convex fusion; halves H and W.

    Each of the max-pool and avg-pool paths runs partial conv (depthwise 3x3
    on the first quarter of channels) then spatial and channel calibration.
    Fusion is alpha * max_path + (1 - alpha) * avg_path with
    alpha = sigmoid(alpha_raw), alpha_raw initialized to 0 (alpha = 0.5).
    When the output width differs from the input width, a 1x1 conv + BN
    projection follows the fusion.
    """

    def __init__(self, in_channels: int, out_channels: int, rng: Rng):
        super().__init__()
        self.pconv_max = PartialConv(in_channels, rng)
        self.sa_max = SpatialCalibrate(rng)
        self.ca_max = ChannelCalibrate(in_channels, rng)
        self.pconv_avg = PartialConv(in_channels, rng)
        self.sa_avg = SpatialCalibrate(rng)
        self.ca_avg = ChannelCalibrate(in_channels, rng)
        self.alpha_raw = Parameter(np.zeros((1, 1, 1, 1), dtype=default_dtype()))
        self.project = ConvBn(in_channels, out_channels, kernel=1, rng=rng) \
            if out_channels != in_channels else None

    def fuse_paths(self, x: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """Return (fused, max_path, avg_path) before any projection."""
        n, c, h, w = x.shape
        if h % 2 or w % 2 or h < 2 or w < 2:
            raise ValueError(f"input H,W must be even and >= 2, got {h}x{w}")
        path_max = self.ca_max(self.sa_max(self.pconv_max(pool2d(x, "max", 2, 2))))
        path_avg = self.ca_avg(self.sa_avg(self.pconv_avg(pool2d(x, "avg", 2, 2))))
        alpha = sigmoid(self.alpha_raw)
        fused = alpha * path_max + (1.0 - alpha) * path_avg
        return fused, path_max, path_avg

    def forward(self, x: Tensor) -> Tensor:
        fused, _, _ = self.fuse_paths(x)
        if self.project is not None:
            fused = self.project(fused)
        return fused


class Bottleneck(Module):
    """Two 3x3 Conv-BN-SiLU units with an identity skip when widths match."""

    def __init__(self, channels: int, rng: Rng, shortcut: bool = True):
        super().__init__()
        self.cv1 = Cbs(channels, channels, 3, rng)
        self.cv2 = Cbs(channels, channels, 3, rng)
        self.shortcut = shortcut

    def forward(self, x: Tensor) -> Tensor:
        y = self.cv2(self.cv1(x))
        return y + x if self.shortcut else y


class CspBlock(Module):
    """Split-transform-merge stage: split halves, stack bottlenecks, re-merge.

    cv1 maps C_in to 2h with h = C_out/2; the halves are split, n bottlenecks
    transform the second half sequentially with every intermediate kept, and
    cv2 merges the (2 + n)h concatenation back to C_out.
    """

    def __init__(self, in_channels: int, out_channels: int, n: int, rng: Rng,
                 shortcut: bool = True):
        super().__init__()
        if out_channels % 2:
            raise ValueError(f"out_channels must be even, got {out_channels}")
        self.hidden = out_channels // 2
        self.cv1 = Cbs(in_channels, 2 * self.hidden, 1, rng)
        self.bottlenecks = ModuleList([Bottleneck(self.hidden, rng, shortcut) for _ in range(n)])
        self.cv2 = Cbs((2 + n) * self.hidden, out_channels, 1, rng)

    def forward(self, x: Tensor) -> Tensor:
        y = self.cv1(x)
        h = self.hidden
        parts = [slice4(y, c=slice(0, h)), slice4(y, c=slice(h, 2 * h))]
        for b in self.bottlenecks:
            parts.append(b(parts[-1]))
        return self.cv2(concat_channels(parts))


class Sppf(Module):
    """Spatial pyramid pooling (fast): three chained 5x5 stride-1 max pools."""

    def __init__(self, in_channels: int, out_channels: int, rng: Rng):
        super().__init__()
        hidden = in_channels // 2
        self.cv1 = Cbs(in_channels, hidden, 1, rng)
        self.cv2 = Cbs(4 * hidden, out_channels, 1, rng)

    def forward(self, x: Tensor) -> Tensor:
        y0 = self.cv1(x)
        y1 = pool2d(y0, "max", kernel=5, stride=1, padding=2)
        y2 = pool2d(y1, "max", kernel=5, stride=1, padding=2)
        y3 = pool2d(y2, "max", kernel=5, stride=1, padding=2)
        return self.cv2(concat_channels([y0, y1, y2, y3]))


def fold_batchnorm(model: Module) -> None:
    """Fold each ``ConvBn``'s infer-mode BatchNorm into its conv, in place in the model dtype,
    and drop it.  For inference only; raises ``FloatingPointError`` like ``detect_batch``."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for unit in [m for _, m in model.named_modules() if isinstance(m, ConvBn)]:
            scale = unit.bn.gamma.data / np.sqrt(unit.bn.running_var + BN_EPS)
            unit.conv.weight.data *= scale.reshape(-1, 1, 1, 1)
            unit.conv.spec = replace(unit.conv.spec, has_bias=True)
            unit.conv.bias = Parameter(unit.bn.beta.data - unit.bn.running_mean * scale)
            del unit._children["bn"]
            unit.bn = None
