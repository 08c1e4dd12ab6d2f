"""The conv, pool and sigmoid kernels, the conv and avg-pool input gradients,
BatchNorm in both modes and the AdamW step equal their reference forms bit
for bit.

Training is chaotic in the last bit: a ten-step AdamW run amplifies a one-ulp
change in a forward kernel into a visibly different loss curve.  So the
kernels are pinned to the byte patterns of the references in ``oracles``,
not to a tolerance.  The one exception is the conv weight gradient: the GEMM
backward sums its N*Ho*Wo products in another order than the einsum it
replaced, so it is pinned by the rounding-error bound of a dot product, which
the einsum form meets as well.
"""

import contextlib
import dataclasses

import numpy as np
import pytest

from oracles import (adamw_step_ref, argmax_max_pool_grad, argmax_pool2d, batchnorm_ref,
                     einsum_conv2d, einsum_conv_weight_grad, scatter_conv_input_grad,
                     slice_avg_pool_grad, where_sigmoid)

import firedet.attention
import firedet.blocks
import firedet.nn as nn
from firedet.fileio import load_config
from firedet.model import build
from firedet.nn import train_mode
from firedet.rng import Rng
from firedet.tensor import Parameter, _sigmoid_np, from_array, using_dtype
from firedet.train import AdamW


def _layout(a: np.ndarray) -> list[int]:
    """Strides of the axes longer than 1: the order reductions walk memory in."""
    return [st for st, size in zip(a.strides, a.shape) if size > 1]


@pytest.mark.parametrize("config, size, batch, training", [
    ("toy", 64, 8, True),
    ("full", 640, 1, False),
])
def test_conv_and_pool_calls_of_a_forward_match_reference_bits(monkeypatch, config, size, batch, training):
    calls = {"conv": 0, "pool": 0}
    conv2d, pool2d = nn.conv2d, nn.pool2d

    def checked_conv(x, spec, weight, bias=None):
        out = conv2d(x, spec, weight, bias)
        want = einsum_conv2d(x.data, weight.data, None if bias is None else bias.data,
                             spec.stride, spec.padding, spec.dilation, spec.groups)
        assert out.data.dtype == want.dtype and out.data.tobytes() == want.tobytes(), spec
        # Same memory order, so BatchNorm's reductions sum in the same order.
        assert _layout(out.data) == _layout(want), spec
        calls["conv"] += 1
        return out

    def checked_pool(x, kind, kernel=2, stride=2, padding=0):
        out = pool2d(x, kind, kernel, stride, padding)
        want, _ = argmax_pool2d(x.data, kind, kernel, stride, padding)
        assert out.data.dtype == want.dtype and out.data.tobytes() == want.tobytes(), (kind, kernel)
        calls["pool"] += 1
        return out

    for mod in (nn, firedet.blocks, firedet.attention):
        if hasattr(mod, "conv2d"):
            monkeypatch.setattr(mod, "conv2d", checked_conv)
        if hasattr(mod, "pool2d"):
            monkeypatch.setattr(mod, "pool2d", checked_pool)
    model = build(dataclasses.replace(load_config(f"configs/{config}.json"), input_size=size), Rng(5))
    x = from_array(Rng(6).uniform64(batch * 3 * size * size).reshape(batch, 3, size, size))
    with train_mode() if training else contextlib.nullcontext():
        model(x)
    assert calls["conv"] > 50 and calls["pool"] >= 3


def _tricky_pool_input(shape, seed):
    """Small integers (many ties), signed zeros, -inf and one NaN per channel."""
    rng = Rng(seed)
    vals = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, -np.inf])
    x = vals[rng.integers(int(np.prod(shape)), 0, len(vals))].reshape(shape)
    n, c, h, w = shape
    rows = rng.integers(n * c, 0, h)
    cols = rng.integers(n * c, 0, w)
    x[np.arange(n)[:, None], np.arange(c)[None, :], rows.reshape(n, c), cols.reshape(n, c)] = np.nan
    x[0, 0, :5, :5] = -np.inf
    return x


@pytest.mark.parametrize("kernel, stride, padding", [
    (2, 2, 0), (2, 1, 0), (3, 1, 1), (3, 2, 1), (5, 1, 2), (4, 3, 2),
])
def test_max_pool_values_and_gradients_match_argmax_reference(kernel, stride, padding):
    x = _tricky_pool_input((2, 3, 9, 11), seed=kernel * 10 + stride + padding)
    xp = Parameter(x)
    out = nn.pool2d(xp, "max", kernel, stride, padding)
    want, _ = argmax_pool2d(x, "max", kernel, stride, padding)
    assert out.data.tobytes() == want.tobytes()
    assert np.isnan(want).any() and (want == -np.inf).any()
    grad = Rng(3).uniform64(out.data.size, -1.0, 1.0).reshape(out.shape)
    out.backward(grad)
    assert xp.grad.tobytes() == argmax_max_pool_grad(x, grad, kernel, stride, padding).tobytes()


@pytest.mark.parametrize("stride", [1, 2])
def test_avg_pool_2x2_matches_flattened_mean_bits(stride):
    # NumPy sums fewer than eight terms from +0 in order, so an all -0.0
    # window averages to +0.0; the slice passes must do the same.
    x = _tricky_pool_input((2, 3, 8, 10), seed=stride)
    x[1, 2] = -0.0
    got = nn.pool2d(from_array(x.astype(np.float32)), "avg", 2, stride).data
    want, _ = argmax_pool2d(x.astype(np.float32), "avg", 2, stride)
    assert got.tobytes() == want.tobytes()


def _strided_inputs(n, c, h, w, seed):
    """Two non-contiguous (N, C, H, W) views: (C, N, H, W) memory, the layout
    conv2d returns for N > 1, and a channel slice as partial_conv takes."""
    vals = Rng(seed).uniform64(4 * n * c * h * w, -2.0, 2.0).astype(np.float32)
    onhw = vals[: n * c * h * w].reshape(c, n, h, w).transpose(1, 0, 2, 3)
    sliced = vals.reshape(n, 4 * c, h, w)[:, c: 2 * c]
    return {"onhw": onhw, "channel_slice": sliced}


@pytest.mark.parametrize("padding", [0, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("dilation", [1, 2, 3])
def test_conv_on_non_contiguous_inputs_matches_einsum_bits(padding, stride, dilation):
    for layout, x in _strided_inputs(2, 4, 11, 13, seed=stride * 7 + dilation).items():
        assert not x.flags.c_contiguous
        for groups in (1, 4):
            spec = nn.Conv2dSpec(4, 4, kernel=3, stride=stride, padding=padding,
                                 dilation=dilation, groups=groups, has_bias=False)
            w = Rng(groups).uniform64(int(np.prod(spec.weight_shape)), -1.0, 1.0) \
                .astype(np.float32).reshape(spec.weight_shape)
            got = nn.conv2d(from_array(x), spec, from_array(w)).data
            want = einsum_conv2d(x, w, None, stride, padding, dilation, groups)
            assert got.tobytes() == want.tobytes(), (layout, groups)


@pytest.mark.parametrize("kind, kernel, stride, padding", [
    ("max", 2, 2, 0), ("max", 3, 1, 1), ("max", 3, 3, 1), ("max", 2, 1, 1),
    ("avg", 2, 2, 0), ("avg", 2, 1, 1), ("avg", 2, 3, 1),
])
def test_pool_on_non_contiguous_inputs_matches_argmax_bits(kind, kernel, stride, padding):
    for layout, x in _strided_inputs(2, 3, 9, 10, seed=kernel + stride).items():
        got = nn.pool2d(from_array(x), kind, kernel, stride, padding).data
        want, _ = argmax_pool2d(x, kind, kernel, stride, padding)
        assert got.tobytes() == want.tobytes(), layout


def _grad_inputs(n, c, h, w, dtype, seed):
    """A contiguous (N, C, H, W) array and a non-contiguous one of (C, N, H, W) memory."""
    vals = Rng(seed).uniform64(2 * n * c * h * w, -2.0, 2.0).astype(dtype)
    return {"contiguous": vals[: n * c * h * w].reshape(n, c, h, w),
            "onhw": vals[n * c * h * w:].reshape(c, n, h, w).transpose(1, 0, 2, 3)}


def _input_grad(out, xp, seed):
    """``xp.grad`` after backpropagating a seeded gradient from ``out``."""
    grad = Rng(seed).uniform64(out.data.size, -1.0, 1.0).astype(out.data.dtype).reshape(out.shape)
    out.backward(grad)
    return grad, xp.grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("dilation", [1, 2, 3])
def test_conv_input_gradient_matches_scatter_reference_bits(dtype, padding, stride, dilation):
    with using_dtype(dtype):
        for layout, x in _grad_inputs(2, 4, 11, 12, dtype, seed=stride * 7 + dilation).items():
            for groups in (1, 4):
                spec = nn.Conv2dSpec(4, 6 if groups == 1 else 4, kernel=3, stride=stride,
                                     padding=padding, dilation=dilation, groups=groups,
                                     has_bias=False)
                w = Rng(groups + padding).uniform64(int(np.prod(spec.weight_shape)), -1.0, 1.0) \
                    .astype(dtype).reshape(spec.weight_shape)
                xp = Parameter(x)
                grad, got = _input_grad(nn.conv2d(xp, spec, from_array(w)), xp, seed=padding)
                want = scatter_conv_input_grad(x, w, grad, stride, padding, dilation, groups)
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes(), (layout, groups)


def _gamma(n: int, dtype) -> float:
    """Higham's gamma_n = n*u / (1 - n*u): the relative error bound of an
    n-term dot product in ``dtype``, whatever the summation order."""
    nu = n * np.finfo(dtype).eps / 2
    return nu / (1 - nu)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel", [1, 3, 7])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("dilation", [1, 2])
@pytest.mark.parametrize("depthwise", [False, True])
def test_conv_weight_gradient_within_dot_product_error_bound(dtype, kernel, stride, dilation,
                                                             depthwise):
    # Each weight-gradient element is a dot product of n = N*Ho*Wo output
    # gradients with n window entries, so |computed - exact| <= gamma_n *
    # sum|grad|*|window|.  The long-double reference is itself off by at most
    # gamma_n(longdouble) times the same sum (float64's where the two agree).
    c, padding = 4, dilation * (kernel - 1) // 2
    with using_dtype(dtype):
        for layout, x in _grad_inputs(2, c, 9, 10, dtype, seed=kernel * 10 + stride).items():
            spec = nn.Conv2dSpec(c, c if depthwise else 6, kernel=kernel, stride=stride,
                                 padding=padding, dilation=dilation,
                                 groups=c if depthwise else 1, has_bias=False)
            w = Rng(kernel + dilation).uniform64(int(np.prod(spec.weight_shape)), -1.0, 1.0) \
                .astype(dtype).reshape(spec.weight_shape)
            wp = Parameter(w)
            out = nn.conv2d(from_array(x), spec, wp)
            grad, got = _input_grad(out, wp, seed=dilation)
            geometry = (stride, padding, dilation, spec.groups)
            wide_x, wide_grad = x.astype(np.longdouble), grad.astype(np.longdouble)
            exact = einsum_conv_weight_grad(wide_x, w, wide_grad, *geometry)
            sum_abs = einsum_conv_weight_grad(np.abs(wide_x), w, np.abs(wide_grad), *geometry)
            n = out.shape[0] * out.shape[2] * out.shape[3]
            bound = (_gamma(n, dtype) + _gamma(n, np.longdouble)) * sum_abs
            assert got.dtype == dtype and got.shape == spec.weight_shape
            assert np.all(np.abs(got - exact) <= bound), layout
            # The form it replaced meets the same bound: derived, not tuned.
            before = einsum_conv_weight_grad(x, w, grad, *geometry)
            assert before.dtype == dtype and np.all(np.abs(before - exact) <= bound), layout


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel, stride, padding", [
    (2, 1, 0), (2, 2, 1), (3, 1, 1), (3, 2, 0), (3, 3, 1), (4, 1, 2), (5, 2, 2), (5, 3, 2),
])
def test_avg_pool_input_gradient_matches_slice_reference_bits(dtype, kernel, stride, padding):
    for layout, x in _grad_inputs(2, 3, 10, 9, dtype, seed=kernel * 10 + stride).items():
        xp = Parameter(x)
        grad, got = _input_grad(nn.pool2d(xp, "avg", kernel, stride, padding), xp, seed=padding)
        want = slice_avg_pool_grad(x, grad, kernel, stride, padding)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes(), layout


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("training", [False, True])
def test_batchnorm_matches_reference_bits(dtype, training):
    names = ("output", "running_mean", "running_var", "x.grad", "gamma.grad", "beta.grad")
    with using_dtype(dtype):
        for layout, x in _grad_inputs(3, 4, 5, 6, dtype, seed=9).items():
            layer = nn.BatchNorm(4)
            vals = Rng(10).uniform64(16, 0.5, 1.5).astype(dtype).reshape(4, 1, 4, 1, 1)
            layer.gamma.data[...], layer.running_var[...] = vals[0], vals[1]
            layer.beta.data[...], layer.running_mean[...] = vals[2] - 1.0, vals[3] - 1.0
            before = (layer.gamma.data.copy(), layer.beta.data.copy(),
                      layer.running_mean.copy(), layer.running_var.copy())
            xp = Parameter(x)
            with train_mode() if training else contextlib.nullcontext():
                out = layer(xp)
            grad, gx = _input_grad(out, xp, seed=4)
            got = (out.data, layer.running_mean, layer.running_var, gx,
                   layer.gamma.grad, layer.beta.grad)
            want = batchnorm_ref(x, *before, grad, training)
            for name, g, w in zip(names, got, want):
                assert g.dtype == w.dtype == dtype, (layout, name)
                assert g.tobytes() == w.tobytes(), (layout, name)


@pytest.mark.parametrize("training", [False, True])
def test_batchnorm_input_gradient_keeps_reference_memory_order(training):
    # x.grad's memory order is the order later reductions sum in, so it must
    # be the unfused expression's for every pairing of x and gradient layouts.
    for x_layout, x in _grad_inputs(3, 4, 5, 6, np.float32, seed=9).items():
        for grad_layout, grad in _grad_inputs(3, 4, 5, 6, np.float32, seed=4).items():
            layer = nn.BatchNorm(4)
            before = (layer.gamma.data, layer.beta.data, layer.running_mean.copy(),
                      layer.running_var.copy())
            xp = Parameter(x)
            with train_mode() if training else contextlib.nullcontext():
                out = layer(xp)
            out.backward(grad)
            want = batchnorm_ref(x, *before, grad, training)[3]
            assert _layout(xp.grad) == _layout(want), (x_layout, grad_layout)
            assert xp.grad.tobytes() == want.tobytes(), (x_layout, grad_layout)


@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
def test_adamw_step_matches_unfused_reference_bits(weight_decay):
    shapes = [(4, 3, 3, 3), (1, 5, 1, 1), (6, 2, 1, 1)]
    values = [Rng(i).uniform64(int(np.prod(sh)), -1.0, 1.0).astype(np.float32).reshape(sh)
              for i, sh in enumerate(shapes)]
    params = [Parameter(v.copy()) for v in values]
    opt = AdamW(params, lr=0.002, weight_decay=weight_decay)
    ms, vs = [np.zeros_like(v) for v in values], [np.zeros_like(v) for v in values]
    for t in range(1, 16):
        grads = [Rng(100 * t + i).uniform64(v.size, -1.0, 1.0).astype(np.float32).reshape(v.shape)
                 for i, v in enumerate(values)]
        grads[0].reshape(-1)[:4] = (0.0, -0.0, 1e-30, -1e-30)
        grads[1] = None if t % 3 else grads[1]  # a parameter with no gradient
        for p, g in zip(params, grads):
            p.grad = None if g is None else g.copy()
        opt.step()
        adamw_step_ref(values, grads, ms, vs, t, 0.002, weight_decay)
        for i, p in enumerate(params):
            assert p.data.tobytes() == values[i].tobytes(), (t, i)
            assert opt._m[i].tobytes() == ms[i].tobytes(), (t, i)
            assert opt._v[i].tobytes() == vs[i].tobytes(), (t, i)


def test_window_view_is_read_only_and_padding_matches_np_pad():
    x = _strided_inputs(2, 3, 5, 6, seed=1)["onhw"]
    for fill in (0.0, -np.inf):
        padded = nn._pad(x, 2, fill)
        assert padded.tobytes() == np.pad(x, ((0, 0), (0, 0), (2, 2), (2, 2)),
                                          constant_values=fill).tobytes()
    win = nn._windows(nn._pad(x, 1, 0.0), 3, 2, 1, 3, 3)
    assert win.shape == (2, 3, 3, 3, 3, 3) and not win.flags.writeable


BITS_OF = {np.float32: np.uint32, np.float64: np.uint64}


def _bit_patterns(dtype, n: int) -> np.ndarray:
    """``n`` values of ``dtype`` with uniformly drawn bits, the first eighth with the
    exponent field all ones: every exponent, subnormals, and NaNs of many payloads,
    quiet and signalling, of both signs."""
    uint = BITS_OF[dtype]
    bits = Rng(31)._block(n * np.dtype(dtype).itemsize // 8).view(uint)
    bits[:n // 8] |= np.array(np.inf, dtype=dtype).view(uint)
    return bits.view(dtype)


def _raised(f, a: np.ndarray) -> str | None:
    try:
        with np.errstate(all="raise"):
            f(a)
    except FloatingPointError as exc:
        return str(exc)
    return None


SIGMOID_SPECIALS = [0.0, -0.0, np.inf, -np.inf, 100.0, -100.0, 800.0, -800.0, np.nan,
                    1e-30, -1e-30, 16.0, -16.0, 88.7, -88.7, 709.0, -709.0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_two_branch_reference(dtype):
    special = np.array(SIGMOID_SPECIALS, dtype=dtype)
    patterns = _bit_patterns(dtype, 1 << 17)
    info = np.finfo(dtype)
    uint = BITS_OF[dtype]
    exponent = (patterns.view(uint) >> uint(info.nmant)) & uint((1 << info.nexp) - 1)
    assert np.unique(exponent).size == 1 << info.nexp
    assert np.count_nonzero(np.abs(patterns) < info.smallest_normal) > 10
    assert np.unique(patterns[np.isnan(patterns)].view(uint)).size > 1000
    x = np.concatenate([special, Rng(8).uniform64(4096, -40.0, 40.0).astype(dtype), patterns])
    with np.errstate(under="ignore", invalid="ignore"):  # signalling NaNs, exp(-|x|) -> 0
        for a in (x, x.reshape(1, 1, 1, -1)[..., ::3]):
            got = _sigmoid_np(a)
            want = where_sigmoid(a)
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_raises_where_the_reference_raises(dtype):
    # detect_batch runs under a raising errstate, so the sigmoid must fail
    # (underflow, a signalling NaN) on exactly the reference's inputs.
    uint = BITS_OF[dtype]
    signalling = np.array([np.inf], dtype=dtype).view(uint) | uint(1)
    x = np.concatenate([np.array(SIGMOID_SPECIALS, dtype=dtype), signalling.view(dtype),
                        _bit_patterns(dtype, 1 << 13)])
    seen = set()
    for v in x:
        got = _raised(_sigmoid_np, np.array([v]))
        assert got == _raised(where_sigmoid, np.array([v]))
        seen.add(got)
    # float32's exp also reports a signalling NaN as invalid; float64's does not.
    assert {None, "underflow encountered in exp"} <= seen
    assert _raised(_sigmoid_np, x) == _raised(where_sigmoid, x) is not None
