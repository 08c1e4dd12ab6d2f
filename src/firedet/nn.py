"""Neural-network primitives over rank-4 tensors.

Everything here is assembled from the autodiff ops in :mod:`firedet.tensor`:
convolution (grouped / depthwise / dilated), batch normalization, max/avg
pooling, 2x nearest-neighbour upsampling, channel concatenation, a linear
map over (N, C, 1, 1) vectors, and the partial convolution that convolves
only the first quarter of the channels.

Convolution uses the cross-correlation convention (no kernel flip).  The
forward pass is one GEMM per group over an im2col copy of a read-only
``as_strided`` window view of the input, padded by filling one
``np.empty``, with the batch folded into the columns (Chellapilla, Puri &
Simard 2006); the backward pass is the transposed GEMMs over those columns,
and :func:`_col2im` scatter-adds the column gradients back, once per kernel
offset.  Pooling reads its taps from the same window view, one pass per
offset, and average pooling's backward goes through the same col2im.
Training is sensitive to the last bit, so these kernels are pinned byte for
byte to reference forms in the tests.

A MAC tally can be armed in the calling thread (see :func:`mac_counting`)
to make conv/linear add one image's multiply-accumulate count per call to
the weight tensor it used, in one dict from weight to MACs, while they
compute as always — the analytic cost model and the executable graph share
one definition this way, and a caller that knows the parameters' names can
group the counts.
BatchNorm, the one layer whose behaviour depends on a mode, is one
normalization whose statistics come from the batch under :func:`train_mode`
and from its running averages otherwise.  Both switches are
:func:`firedet.tensor.switched` modes, like ``no_grad``, so they reach the
calling thread only.  Calling a :class:`Module` only runs its ``forward``.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .rng import Rng
from .tensor import (
    Parameter,
    Tensor,
    default_dtype,
    kaiming_uniform,
    make_node,
    slice4,
    switched,
    tmean,
    unary,
)

# -- analytic cost tally ----------------------------------------------------------

# The armed tally dict, or None.
_mac_tally = contextvars.ContextVar("mac_tally", default=None)


def mac_counting():
    """Arm MAC counting; yields the tally, a dict from weight tensor to MACs.

    Each conv2d or linear call adds one image's multiply-accumulates under
    the weight tensor it used, whatever its batch, so a forward over an empty
    batch yields exact per-image counts while doing no arithmetic; the total
    is the sum of the values, and per-layer groups follow from the
    parameters' names (see :func:`firedet.profiler.count_macs`).  The tally
    is armed for the calling thread only, and it only observes: conv2d and
    linear compute and return exactly what they do unarmed.
    """
    return switched(_mac_tally, {})


def _add_macs(weight: Tensor, count: int) -> None:
    tally = _mac_tally.get()
    tally[weight] = tally.get(weight, 0) + count


# -- module system -----------------------------------------------------------------


def _dotted(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


class Module:
    """Base class for layers: tracks child modules, parameters and buffers.

    Attribute assignment registers :class:`Parameter` and :class:`Module`
    values automatically, in assignment order, which makes parameter
    enumeration (and therefore initialization draws and archive layout)
    deterministic.  Buffers are non-learnable arrays saved alongside
    parameters (batch-norm running statistics).
    """

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "_buffers", {})

    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self._params[key] = value
        elif isinstance(value, Module):
            self._children[key] = value
        object.__setattr__(self, key, value)

    def register_buffer(self, key: str, value: np.ndarray) -> None:
        self._buffers[key] = value
        object.__setattr__(self, key, value)

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """(dotted path, module) pairs in pre-order; this module's path is ``prefix``."""
        yield prefix, self
        for key, child in self._children.items():
            yield from child.named_modules(_dotted(prefix, key))

    def named_parameters(self) -> Iterator[tuple[str, Parameter]]:
        for path, m in self.named_modules():
            for key, p in m._params.items():
                yield _dotted(path, key), p

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self) -> Iterator[tuple[str, np.ndarray]]:
        for path, m in self.named_modules():
            for key in m._buffers:
                yield _dotted(path, key), getattr(m, key)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class ModuleList(Module):
    """A sequence of child modules addressed by index."""

    def __init__(self, modules: list[Module]):
        super().__init__()
        for i, m in enumerate(modules):
            self._children[str(i)] = m

    def __iter__(self):
        return iter(self._children.values())

    def __getitem__(self, i: int) -> Module:
        return self._children[str(i)]


# -- convolution ----------------------------------------------------------------------


@dataclass(frozen=True)
class Conv2dSpec:
    """Static description of a 2-D convolution; shape and cost rules live here."""

    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0
    dilation: int = 1
    groups: int = 1
    has_bias: bool = True

    def __post_init__(self):
        if self.in_channels <= 0 or self.out_channels <= 0:
            raise ValueError(f"channel counts must be positive: {self}")
        if self.kernel <= 0 or self.stride < 1 or self.padding < 0 or self.dilation < 1:
            raise ValueError(f"bad geometry: {self}")
        if self.groups < 1 or self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError(
                f"groups={self.groups} must divide in_channels={self.in_channels} "
                f"and out_channels={self.out_channels}"
            )

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_channels, self.in_channels // self.groups, self.kernel, self.kernel)

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        eff = self.dilation * (self.kernel - 1) + 1
        ho = (h + 2 * self.padding - eff) // self.stride + 1
        wo = (w + 2 * self.padding - eff) // self.stride + 1
        if ho <= 0 or wo <= 0:
            raise ValueError(f"output extent <= 0 for input {h}x{w} with {self}")
        return ho, wo

    def macs(self, h: int, w: int) -> int:
        """Multiply-accumulates for one sample at input resolution h x w."""
        ho, wo = self.out_hw(h, w)
        return self.kernel * self.kernel * (self.in_channels // self.groups) * self.out_channels * ho * wo


def _pad(a: np.ndarray, p: int, fill: float) -> np.ndarray:
    """``a`` with ``p`` rows and columns of ``fill`` on each side of its last two axes."""
    if not p:
        return a
    out = np.empty((*a.shape[:2], a.shape[2] + 2 * p, a.shape[3] + 2 * p), dtype=a.dtype)
    out[..., p:-p, p:-p] = a
    out[..., :p, :] = out[..., -p:, :] = out[..., :p] = out[..., -p:] = fill
    return out


def _windows(a: np.ndarray, k: int, s: int, d: int, ho: int, wo: int) -> np.ndarray:
    """Read-only (N, C, Ho, Wo, k, k) windows of ``a`` at stride ``s``, dilation ``d``."""
    sn, sc, sh, sw = a.strides
    return as_strided(a, (*a.shape[:2], ho, wo, k, k), (sn, sc, s * sh, s * sw, d * sh, d * sw), writeable=False)


def _col2im(tap: np.ndarray, x: np.ndarray, k: int, s: int, p: int, d: int, ho: int, wo: int) -> np.ndarray:
    """Gradient of ``x`` from the gradients ``tap`` (N, C, Ho, Wo, k, k) of its padded
    :func:`_windows`: each tap added at its strided place, row-major, padding cut off."""
    n, c, h, w = x.shape
    gxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    for ki in range(k):
        for kj in range(k):
            gxp[:, :, ki * d: ki * d + s * ho: s, kj * d: kj * d + s * wo: s] += tap[..., ki, kj]
    return gxp[:, :, p: p + h, p: p + w]


def conv2d(x: Tensor, spec: Conv2dSpec, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """2-D cross-correlation with stride/padding/dilation/groups.

    ``weight`` has shape (out_channels, in_channels/groups, k, k); ``bias``
    (1, out_channels, 1, 1).  Differentiable with respect to x, weight, bias.
    """
    if not isinstance(x, Tensor) or not isinstance(weight, Tensor):
        raise TypeError("conv2d expects Tensor inputs (wrap arrays with from_array)")
    n, c, h, w = x.shape
    if c != spec.in_channels:
        raise ValueError(f"input has {c} channels, spec expects {spec.in_channels}")
    if weight.shape != spec.weight_shape:
        raise ValueError(f"weight shape {weight.shape} != expected {spec.weight_shape}")
    if (bias is None) == spec.has_bias:
        raise ValueError(f"bias presence does not match has_bias={spec.has_bias}")
    if bias is not None and bias.shape != (1, spec.out_channels, 1, 1):
        raise ValueError(f"bias shape {bias.shape} != (1, {spec.out_channels}, 1, 1)")

    ho, wo = spec.out_hw(h, w)
    g = spec.groups
    cig = spec.in_channels // g
    cog = spec.out_channels // g
    k, s, p, d = spec.kernel, spec.stride, spec.padding, spec.dilation

    if _mac_tally.get() is not None:
        _add_macs(weight, spec.macs(h, w))
    wing = _windows(_pad(x.data, p, 0.0), k, s, d, ho, wo).reshape(n, g, cig, ho, wo, k, k)
    wg = weight.data.reshape(g, cog, cig * k * k)
    # im2col with the batch folded into the columns: one GEMM per group.  The
    # result is an (N, O, Ho, Wo) view of (O, N, Ho, Wo) memory, the layout
    # einsum produced, so BatchNorm's reductions keep their summation order.
    cols = wing.transpose(1, 2, 5, 6, 0, 3, 4).reshape(g, cig * k * k, n * ho * wo)
    out = np.matmul(wg, cols).reshape(spec.out_channels, n, ho, wo).transpose(1, 0, 2, 3)
    if bias is not None:
        out += bias.data  # into the fresh GEMM output, whose layout it keeps

    parents = [x, weight] if bias is None else [x, weight, bias]

    def bwd(grad: np.ndarray) -> None:
        # grad @ colsᵀ for the weight; Wᵀ @ grad, the column gradient, for x.
        gg = grad.transpose(1, 0, 2, 3).reshape(g, cog, n * ho * wo)
        if weight.requires_grad:
            weight.accumulate_grad(np.matmul(gg, cols.transpose(0, 2, 1)).reshape(spec.weight_shape))
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(grad.sum(axis=(0, 2, 3), keepdims=True))
        if x.requires_grad:
            gcols = np.matmul(wg.transpose(0, 2, 1), gg).reshape(c, k, k, n, ho, wo)
            x.accumulate_grad(_col2im(gcols.transpose(3, 0, 4, 5, 1, 2), x.data, k, s, p, d, ho, wo))

    return make_node(out, parents, bwd)


class Conv2d(Module):
    """Learnable convolution layer over a :class:`Conv2dSpec`."""

    def __init__(self, spec: Conv2dSpec, rng: Rng):
        super().__init__()
        self.spec = spec
        self.weight = kaiming_uniform(spec.weight_shape, rng)
        self.bias = Parameter(np.zeros((1, spec.out_channels, 1, 1), dtype=default_dtype())) if spec.has_bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.spec, self.weight, self.bias)


# -- batch normalization -----------------------------------------------------------------

BN_EPS = 1e-5
BN_MOMENTUM = 0.1

_training = contextvars.ContextVar("training", default=False)


def train_mode():
    """Mark the calling thread as training: BatchNorm uses batch statistics.

    Off by default, so a thread that never enters it (an ``infer --threads``
    worker too) uses running statistics."""
    return switched(_training, True)


class BatchNorm(Module):
    """Per-channel batch normalization: ``gamma * (x - mean) / sqrt(var + BN_EPS) + beta``.

    Only the source of ``mean`` and ``var`` depends on the mode.  In train
    mode (:func:`train_mode`) they are the batch mean and biased variance
    over (N, H, W), and the running statistics move toward them in place
    with ``running = (1 - BN_MOMENTUM) * running + BN_MOMENTUM * batch``
    (biased variance throughout, documented convention).  Otherwise (infer
    mode, the default) they are the running statistics.  Both modes are
    differentiable; train mode backpropagates through the batch statistics.
    """

    def __init__(self, channels: int):
        super().__init__()
        self.channels = channels
        dt = default_dtype()
        self.gamma = Parameter(np.ones((1, channels, 1, 1), dtype=dt))
        self.beta = Parameter(np.zeros((1, channels, 1, 1), dtype=dt))
        self.register_buffer("running_mean", np.zeros((1, channels, 1, 1), dtype=dt))
        self.register_buffer("running_var", np.ones((1, channels, 1, 1), dtype=dt))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[1] != self.channels:
            raise ValueError(f"input has {x.shape[1]} channels, layer has {self.channels}")
        gamma, beta = self.gamma, self.beta
        axes = (0, 2, 3)
        training = _training.get()
        mean = x.data.mean(axis=axes, keepdims=True) if training else self.running_mean
        xhat = x.data - mean
        if training:  # np.var's steps, so its bits, over the centred x
            var = np.square(xhat).sum(axis=axes, keepdims=True) / (x.size // self.channels)
            self.running_mean[...] = (1.0 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
            self.running_var[...] = (1.0 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var
        else:
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv_std

        def bwd(grad: np.ndarray) -> None:
            if x.requires_grad:
                if training:  # through the batch statistics too
                    # inv_std * (gh - mean(gh) - xhat * mean(gh * xhat)) in place, into
                    # gh * xhat's buffer: the memory order the unfused form gave gx.
                    gh = grad * gamma.data
                    gx = gh * xhat
                    m1, m2 = gh.mean(axis=axes, keepdims=True), gx.mean(axis=axes, keepdims=True)
                    gh -= m1
                    np.subtract(gh, np.multiply(xhat, m2, out=gx), out=gx)
                    gx *= inv_std
                else:
                    gx = grad * (gamma.data * inv_std)
                x.accumulate_grad(gx)
            if gamma.requires_grad:
                gamma.accumulate_grad((grad * xhat).sum(axis=axes, keepdims=True))
            if beta.requires_grad:
                beta.accumulate_grad(grad.sum(axis=axes, keepdims=True))

        return make_node(gamma.data * xhat + beta.data, [x, gamma, beta], bwd)


# -- pooling and resampling ---------------------------------------------------------------


def pool2d(x: Tensor, kind: str, kernel: int = 2, stride: int = 2, padding: int = 0) -> Tensor:
    """Max or average pooling over square windows.

    The forward pass makes one strided-slice pass per window offset, in
    row-major window order: a running maximum for max, a running sum from +0
    divided by ``k**2`` for avg.  Max pooling routes each window's gradient
    to the first maximal element in row-major window order (the first NaN in
    a window holding one), found again in the backward pass; average pooling
    spreads ``1/k**2`` to every window element.  Padding uses -inf for max
    and 0 for avg (the divisor stays ``k**2``) and may be at most ``k // 2``,
    so every window overlaps the input.
    """
    if kind not in ("max", "avg"):
        raise ValueError(f"kind must be 'max' or 'avg', got {kind!r}")
    n, c, h, w = x.shape
    k, s, p = kernel, stride, padding
    if k < 1 or s < 1 or not 0 <= p <= k // 2:
        raise ValueError(f"need kernel >= 1, stride >= 1 and 0 <= padding <= kernel // 2, "
                         f"got kernel={k}, stride={s}, padding={p}")
    if h + 2 * p < k or w + 2 * p < k:
        raise ValueError(f"input {h}x{w} smaller than kernel {k} (padding {p})")

    xp = _pad(x.data, p, -np.inf if kind == "max" else 0.0)
    ho = (h + 2 * p - k) // s + 1
    wo = (w + 2 * p - k) // s + 1
    win = _windows(xp, k, s, 1, ho, wo)
    taps = [win[..., ki, kj] for ki in range(k) for kj in range(k)]  # (N, C, Ho, Wo) each

    if kind == "max":
        out = taps[0].copy()
        for tap in taps[1:]:
            # np.maximum returns its second operand on ties, so the earlier
            # element's bits (e.g. -0.0 against +0.0) are kept.
            np.maximum(tap, out, out=out)

        def grad_max(grad: np.ndarray) -> np.ndarray:
            # argmax gives the first maximum, or the first NaN in a window holding one.
            idx = win.reshape(n, c, ho, wo, k * k).argmax(axis=-1)
            gxp = np.zeros(xp.shape, dtype=xp.dtype)
            ni, ci, hi, wi = np.indices((n, c, ho, wo), sparse=False)
            rows = hi * s + idx // k
            cols = wi * s + idx % k
            np.add.at(gxp, (ni, ci, rows, cols), grad)
            return gxp[:, :, p: p + h, p: p + w]

        return unary(x, out, grad_max)

    # Summed from +0 in order, as NumPy sums fewer than eight terms, so 2x2
    # windows equal the mean of the flattened window bit for bit.
    out = np.zeros((n, c, ho, wo), dtype=xp.dtype)
    for tap in taps:
        out += tap
    out /= k * k

    def grad_avg(grad: np.ndarray) -> np.ndarray:
        share = np.broadcast_to((grad / (k * k))[..., None, None], (*grad.shape, k, k))
        return _col2im(share, x.data, k, s, p, 1, ho, wo)

    return unary(x, out, grad_avg)


def global_avg_pool(x: Tensor) -> Tensor:
    """Per-channel spatial mean, shape (N, C, 1, 1)."""
    return tmean(x, axes=(2, 3))


def upsample_nearest(x: Tensor) -> Tensor:
    """Replicate each pixel 2 x 2; backward sums the replicas."""
    n, c, h, w = x.shape
    out = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)
    return unary(x, out, lambda g: g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)))


def concat_channels(parts: list[Tensor]) -> Tensor:
    """Concatenate along the channel axis; backward slices the gradient."""
    if not parts:
        raise ValueError("concat_channels needs at least one tensor")
    base = parts[0].shape
    for t in parts[1:]:
        if t.shape[0] != base[0] or t.shape[2] != base[2] or t.shape[3] != base[3]:
            raise ValueError(f"concat mismatch: {t.shape} vs {base} on N/H/W")
    out = np.concatenate([t.data for t in parts], axis=1)
    widths = [t.shape[1] for t in parts]

    def bwd(grad: np.ndarray) -> None:
        start = 0
        for t, cw in zip(parts, widths):
            t.accumulate_grad(grad[:, start: start + cw])
            start += cw

    return make_node(out, parents=list(parts), bwd=bwd)


def channel_max(x: Tensor) -> Tensor:
    """Maximum over channels, shape (N, 1, H, W); first channel wins ties."""
    idx = x.data.argmax(axis=1, keepdims=True)

    def grad(g: np.ndarray) -> np.ndarray:
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, idx, g, axis=1)
        return gx

    return unary(x, np.take_along_axis(x.data, idx, axis=1), grad)


def channel_mean(x: Tensor) -> Tensor:
    """Mean over channels, shape (N, 1, H, W)."""
    return tmean(x, axes=1)


# -- linear map over channel vectors ------------------------------------------------------


def linear(x: Tensor, weight: Tensor) -> Tensor:
    """Linear map on (N, Cin, 1, 1) vectors; weight (Cout, Cin, 1, 1)."""
    n, cin, h, w = x.shape
    if h != 1 or w != 1:
        raise ValueError(f"linear expects spatial extents 1x1, got {x.shape}")
    cout, cin_w = weight.shape[0], weight.shape[1]
    if weight.shape[2] != 1 or weight.shape[3] != 1 or cin_w != cin:
        raise ValueError(f"weight shape {weight.shape} incompatible with input {x.shape}")

    if _mac_tally.get() is not None:
        _add_macs(weight, cin * cout)
    xm = x.data.reshape(n, cin)
    wm = weight.data.reshape(cout, cin)
    out = (xm @ wm.T).reshape(n, cout, 1, 1)

    def bwd(grad: np.ndarray) -> None:
        gm = grad.reshape(n, cout)
        if x.requires_grad:
            x.accumulate_grad((gm @ wm).reshape(n, cin, 1, 1))
        if weight.requires_grad:
            weight.accumulate_grad((gm.T @ xm).reshape(cout, cin, 1, 1))

    return make_node(out, [x, weight], bwd)


class Linear(Module):
    """Learnable bias-free linear map over (N, C, 1, 1) vectors."""

    def __init__(self, in_features: int, out_features: int, rng: Rng):
        super().__init__()
        self.weight = kaiming_uniform((out_features, in_features, 1, 1), rng)

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight)


# -- partial convolution ---------------------------------------------------------------------


def partial_conv_spec(channels: int) -> Conv2dSpec:
    """Spec of the depthwise 3x3 applied to the first channels/4 channels."""
    if channels % 4:
        raise ValueError(f"channels={channels} not divisible by 4")
    cp = channels // 4
    return Conv2dSpec(cp, cp, kernel=3, stride=1, padding=1, groups=cp, has_bias=False)


def partial_conv(x: Tensor, dw_weight: Tensor) -> Tensor:
    """Depthwise-convolve the first C/4 channels; pass the rest through.

    The convolved slice keeps its original channel positions, so the output
    has exactly the input's shape.
    """
    c = x.shape[1]
    spec = partial_conv_spec(c)
    cp = c // 4
    front = conv2d(slice4(x, c=slice(0, cp)), spec, dw_weight)
    rest = slice4(x, c=slice(cp, c))
    return concat_channels([front, rest])


class PartialConv(Module):
    """Learnable partial convolution (depthwise 3x3 on the first C/4 channels)."""

    def __init__(self, channels: int, rng: Rng):
        super().__init__()
        self.weight = kaiming_uniform(partial_conv_spec(channels).weight_shape, rng)

    def forward(self, x: Tensor) -> Tensor:
        return partial_conv(x, self.weight)

