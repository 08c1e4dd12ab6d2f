"""Attention gates: convolutional additive self-attention and calibration.

Two families live here.  The additive self-attention used inside the
bottleneck block projects the input to Q/K/V with a 1x1 convolution, runs Q
and K through a spatial gate (position emphasis) and a channel gate (global
channel reweighting), multiplies the summed result elementwise with V, and
finishes with a depthwise 3x3 convolution.  There is no pairwise softmax and
no dropout anywhere — the attention is purely convolutional and additive.

The calibration gates used by the downsampling block are a dilated-conv
spatial mask built from channel-mean/channel-max maps, and a squeeze-excite
style channel gate.  All gate outputs are sigmoid-squashed, so every gate
scales its input by factors strictly inside (0, 1).

Each gate is one :class:`Module`: its arithmetic lives in its ``forward``
and nowhere else.  All convolutions and affine maps in this module are
bias-free; their normalization-free gates get their operating point from
the sigmoid instead.
"""

from __future__ import annotations

import math

from .rng import Rng
from .tensor import Tensor, kaiming_uniform, sigmoid, slice4
from .nn import (
    Conv2dSpec,
    Linear,
    Module,
    channel_max,
    channel_mean,
    concat_channels,
    conv2d,
    global_avg_pool,
)


def gate_hidden(channels: int) -> int:
    """Hidden width of the channel-gate MLP: ceil(channels / 4)."""
    return math.ceil(channels / 4)


class SpatialGate(Module):
    """Spatial gate: y = x * sigmoid(conv3x3(depthwise3x3(x))); shape preserved."""

    def __init__(self, channels: int, rng: Rng):
        super().__init__()
        self.dw_spec = Conv2dSpec(channels, channels, kernel=3, padding=1,
                                  groups=channels, has_bias=False)
        self.pw_spec = Conv2dSpec(channels, channels, kernel=3, padding=1, has_bias=False)
        self.dw_weight = kaiming_uniform(self.dw_spec.weight_shape, rng)
        self.pw_weight = kaiming_uniform(self.pw_spec.weight_shape, rng)

    def forward(self, x: Tensor) -> Tensor:
        h = conv2d(x, self.dw_spec, self.dw_weight)
        return x * sigmoid(conv2d(h, self.pw_spec, self.pw_weight))


class ChannelGate(Module):
    """Squeeze-excite channel gate: y = x * sigmoid(mlp(gap(x))).

    The MLP maps C -> ceil(C/4) -> C with a ReLU between its two bias-free
    layers; the (N, C, 1, 1) gate broadcasts across all spatial positions.
    """

    def __init__(self, channels: int, rng: Rng):
        super().__init__()
        hidden = gate_hidden(channels)
        self.fc1 = Linear(channels, hidden, rng)
        self.fc2 = Linear(hidden, channels, rng)

    def forward(self, x: Tensor) -> Tensor:
        return x * sigmoid(self.fc2(self.fc1(global_avg_pool(x)).relu()))


class CasAttention(Module):
    """Convolutional additive self-attention.

    Q, K, V come from one bias-free 1x1 convolution C -> 3C split
    contiguously as [Q | K | V].  Q and K each pass a spatial gate followed
    by a channel gate; the gated sum multiplies V elementwise; a depthwise
    3x3 convolution finishes the block.  Output shape equals input
    shape, and the map is linear in V when the gate inputs are held fixed.
    """

    def __init__(self, channels: int, rng: Rng):
        super().__init__()
        self.channels = channels
        self.qkv_spec = Conv2dSpec(channels, 3 * channels, kernel=1, has_bias=False)
        self.qkv_weight = kaiming_uniform(self.qkv_spec.weight_shape, rng)
        self.sg_q = SpatialGate(channels, rng)
        self.cg_q = ChannelGate(channels, rng)
        self.sg_k = SpatialGate(channels, rng)
        self.cg_k = ChannelGate(channels, rng)
        self.out_spec = Conv2dSpec(channels, channels, kernel=3, padding=1,
                                   groups=channels, has_bias=False)
        self.out_weight = kaiming_uniform(self.out_spec.weight_shape, rng)

    def forward(self, x: Tensor) -> Tensor:
        c = self.channels
        qkv = conv2d(x, self.qkv_spec, self.qkv_weight)
        q = slice4(qkv, c=slice(0, c))
        k = slice4(qkv, c=slice(c, 2 * c))
        v = slice4(qkv, c=slice(2 * c, 3 * c))
        q_hat = self.cg_q(self.sg_q(q))
        k_hat = self.cg_k(self.sg_k(k))
        return conv2d((q_hat + k_hat) * v, self.out_spec, self.out_weight)


class SpatialCalibrate(Module):
    """Spatial calibration: a single-channel dilated-conv mask rescales x.

    The mask is sigmoid(conv([channel-mean; channel-max], k=7, dilation=2,
    padding=6, out_channels=1)) and broadcasts across channels.
    """

    def __init__(self, rng: Rng):
        super().__init__()
        self.spec = Conv2dSpec(2, 1, kernel=7, padding=6, dilation=2, has_bias=False)
        self.weight = kaiming_uniform(self.spec.weight_shape, rng)

    def forward(self, x: Tensor) -> Tensor:
        pooled = concat_channels([channel_mean(x), channel_max(x)])
        mask = sigmoid(conv2d(pooled, self.spec, self.weight))
        return x * mask


class ChannelCalibrate(ChannelGate):
    """Channel calibration gate: same contract as ChannelGate, its own weights."""
