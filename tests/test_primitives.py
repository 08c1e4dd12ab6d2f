import numpy as np
import pytest

from oracles import naive_conv2d, naive_linear, naive_partial_conv, naive_pool2d

from firedet.nn import (BN_EPS, BatchNorm, Conv2dSpec, concat_channels, conv2d,
                        global_avg_pool, linear, partial_conv,
                        pool2d, train_mode, upsample_nearest)
from firedet.rng import Rng
from firedet.tensor import Parameter, from_array, tsum, using_dtype


def arr(rng: Rng, shape, lo=-1.0, hi=1.0):
    return np.asarray(rng.uniform64(int(np.prod(shape)), lo, hi)).reshape(shape)


def identity_kernel(channels: int):
    """Depthwise 3x3 weights that reproduce their input (center tap = 1)."""
    w = np.zeros((channels, 1, 3, 3))
    w[:, 0, 1, 1] = 1.0
    return from_array(w)


# ---------------------------------------------------------------------------
# Fuzz vs naive loop oracles (>=100 shapes each, 64-bit, 1e-6)

def conv_cases(seed, count):
    rng = Rng(seed)
    cases = []
    while len(cases) < count:
        n = 1 + int(rng.integers(1, 0, 2)[0])
        groups = [1, 1, 2, 4][int(rng.integers(1, 0, 4)[0])]
        cin_g = 1 + int(rng.integers(1, 0, 3)[0])
        cout_g = 1 + int(rng.integers(1, 0, 3)[0])
        cin, cout = cin_g * groups, cout_g * groups
        k = [1, 3, 5][int(rng.integers(1, 0, 3)[0])]
        stride = 1 + int(rng.integers(1, 0, 2)[0])
        padding = int(rng.integers(1, 0, 3)[0])
        dilation = 1 + int(rng.integers(1, 0, 2)[0])
        h = 3 + int(rng.integers(1, 0, 5)[0])
        w = 3 + int(rng.integers(1, 0, 5)[0])
        span = dilation * (k - 1) + 1
        if h + 2 * padding < span or w + 2 * padding < span:
            continue
        has_bias = bool(rng.integers(1, 0, 2)[0])
        cases.append((n, cin, cout, k, stride, padding, dilation, groups, h, w, has_bias))
    return cases


def test_conv2d_matches_naive_loops_fuzz():
    rng = Rng(99)
    with using_dtype(np.float64):
        cases = conv_cases(12, 110)
        for case in cases:
            n, cin, cout, k, stride, padding, dilation, groups, h, w, has_bias = case
            x = arr(rng, (n, cin, h, w))
            wt = arr(rng, (cout, cin // groups, k, k))
            b = arr(rng, (1, cout, 1, 1)) if has_bias else None
            spec = Conv2dSpec(cin, cout, kernel=k, stride=stride, padding=padding,
                              dilation=dilation, groups=groups, has_bias=has_bias)
            got = conv2d(from_array(x), spec, from_array(wt),
                         None if b is None else from_array(b)).data
            want = naive_conv2d(x, wt, None if b is None else b.reshape(cout),
                                stride, padding, dilation, groups)
            assert got.shape == want.shape, case
            assert np.abs(got - want).max() < 1e-6, case


def test_pool2d_matches_naive_loops_fuzz():
    rng = Rng(31)
    with using_dtype(np.float64):
        done = 0
        while done < 100:
            n = 1 + int(rng.integers(1, 0, 2)[0])
            c = 1 + int(rng.integers(1, 0, 4)[0])
            h = 2 + int(rng.integers(1, 0, 7)[0])
            w = 2 + int(rng.integers(1, 0, 7)[0])
            kernel = [2, 2, 3, 5][int(rng.integers(1, 0, 4)[0])]
            stride = 1 + int(rng.integers(1, 0, 2)[0])
            padding = int(rng.integers(1, 0, (kernel // 2) + 1)[0])
            if h + 2 * padding < kernel or w + 2 * padding < kernel:
                continue
            kind = "max" if rng.integers(1, 0, 2)[0] else "avg"
            x = arr(rng, (n, c, h, w))
            got = pool2d(from_array(x), kind, kernel=kernel, stride=stride,
                         padding=padding).data
            want = naive_pool2d(x, kind, kernel, stride, padding)
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-6
            done += 1


def test_linear_matches_naive_loops_fuzz():
    rng = Rng(47)
    with using_dtype(np.float64):
        for _ in range(100):
            n = 1 + int(rng.integers(1, 0, 4)[0])
            cin = 1 + int(rng.integers(1, 0, 12)[0])
            cout = 1 + int(rng.integers(1, 0, 12)[0])
            x = arr(rng, (n, cin, 1, 1))
            wt = arr(rng, (cout, cin, 1, 1))
            got = linear(from_array(x), from_array(wt)).data
            want = naive_linear(x, wt)
            assert np.abs(got - want).max() < 1e-6


def test_partial_conv_matches_naive_fuzz():
    rng = Rng(53)
    with using_dtype(np.float64):
        for _ in range(100):
            n = 1 + int(rng.integers(1, 0, 2)[0])
            c = 4 * (1 + int(rng.integers(1, 0, 4)[0]))
            h = 3 + int(rng.integers(1, 0, 5)[0])
            w = 3 + int(rng.integers(1, 0, 5)[0])
            x = arr(rng, (n, c, h, w))
            wt = arr(rng, (c // 4, 1, 3, 3))
            got = partial_conv(from_array(x), from_array(wt)).data
            want = naive_partial_conv(x, wt)
            assert np.abs(got - want).max() < 1e-6


def test_conv_shape_rule_fuzz_1000():
    rng = Rng(8)
    checked = 0
    while checked < 1000:
        k = [1, 3, 5, 7][int(rng.integers(1, 0, 4)[0])]
        stride = 1 + int(rng.integers(1, 0, 3)[0])
        padding = int(rng.integers(1, 0, 4)[0])
        dilation = 1 + int(rng.integers(1, 0, 3)[0])
        h = 1 + int(rng.integers(1, 0, 40)[0])
        w = 1 + int(rng.integers(1, 0, 40)[0])
        span = dilation * (k - 1) + 1
        if h + 2 * padding < span or w + 2 * padding < span:
            continue
        spec = Conv2dSpec(4, 4, kernel=k, stride=stride, padding=padding,
                          dilation=dilation)
        ho, wo = spec.out_hw(h, w)
        assert ho == (h + 2 * padding - span) // stride + 1
        assert wo == (w + 2 * padding - span) // stride + 1
        assert ho >= 1 and wo >= 1
        checked += 1


# ---------------------------------------------------------------------------
# Hand cases

def test_conv2d_identity_kernel():
    x = from_array(np.arange(2 * 3 * 4 * 4, dtype=np.float32).reshape(2, 3, 4, 4))
    w = identity_kernel(3)
    spec = Conv2dSpec(3, 3, kernel=3, padding=1, groups=3, has_bias=False)
    out = conv2d(x, spec, w)
    assert np.array_equal(out.data, x.data)


def test_conv2d_pointwise_is_channel_matrix():
    x = np.zeros((1, 2, 2, 2), dtype=np.float64)
    x[0, 0] = 1.0
    x[0, 1] = 2.0
    w = np.array([[[[1.0]], [[10.0]]],
                  [[[100.0]], [[1000.0]]]])
    spec = Conv2dSpec(2, 2, kernel=1, has_bias=False)
    with using_dtype(np.float64):
        out = conv2d(from_array(x), spec, from_array(w)).data
    assert np.allclose(out[0, 0], 21.0)
    assert np.allclose(out[0, 1], 2100.0)


def test_batch_norm_train_normalizes_and_updates_running_stats():
    with using_dtype(np.float64):
        bn = BatchNorm(2)
        rng = Rng(3)
        x = arr(rng, (4, 2, 3, 3), -2.0, 5.0)
        with train_mode():
            out = bn(from_array(x)).data
        for c in range(2):
            mean_c = x[:, c].mean()
            var_c = x[:, c].var()  # biased
            assert abs(out[:, c].mean()) < 1e-10
            # normalizing by sqrt(var + eps) leaves variance var/(var + eps)
            assert out[:, c].var() == pytest.approx(var_c / (var_c + BN_EPS), abs=1e-12)
            assert bn.running_mean.reshape(-1)[c] == pytest.approx(0.1 * mean_c)
            assert bn.running_var.reshape(-1)[c] == pytest.approx(0.9 + 0.1 * var_c)


def test_batch_norm_eval_uses_running_stats():
    with using_dtype(np.float64):
        bn = BatchNorm(1)
        bn.running_mean[...] = 2.0
        bn.running_var[...] = 4.0
        x = from_array(np.full((1, 1, 1, 1), 6.0))
        # (6 - 2) / sqrt(4 + eps) ~= 2
        assert bn(x).item() == pytest.approx(2.0, rel=1e-5)


def test_max_pool_hand_grid():
    x = from_array(np.array([[1, 2, 5, 3],
                             [4, 0, 1, 2],
                             [7, 8, 2, 1],
                             [0, 3, 4, 9]], dtype=np.float32).reshape(1, 1, 4, 4))
    out = pool2d(x, "max")
    assert out.data.reshape(2, 2).tolist() == [[4.0, 5.0], [8.0, 9.0]]
    avg = pool2d(x, "avg")
    assert avg.data.reshape(2, 2).tolist() == [[1.75, 2.75], [4.5, 4.0]]


def test_max_pool_tie_gradient_goes_to_first():
    x = Parameter(np.full((1, 1, 2, 2), 3.0))
    tsum(pool2d(x, "max")).backward()
    assert x.grad.reshape(-1).tolist() == [1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("kernel, stride, padding", [
    (2, 2, 2),   # whole windows of padding: -inf (max) or 0 (avg)
    (3, 1, 2),
    (2, 0, 0),   # stride 0
    (2, -1, 0),
    (0, 1, 0),   # empty windows
    (-1, 1, 0),
    (3, 1, -1),  # negative padding
])
@pytest.mark.parametrize("kind", ["max", "avg"])
def test_pool2d_rejects_bad_window_settings(kind, kernel, stride, padding):
    x = from_array(np.ones((1, 1, 6, 6)))
    with pytest.raises(ValueError, match="kernel"):
        pool2d(x, kind, kernel, stride, padding)


def test_upsample_nearest_replicates():
    x = from_array(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32).reshape(1, 1, 2, 2))
    out = upsample_nearest(x)
    assert out.data.reshape(4, 4).tolist() == [
        [1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]
    xp = Parameter(np.ones((1, 1, 2, 2)))
    tsum(upsample_nearest(xp)).backward()
    assert np.allclose(xp.grad, 4.0)


def test_global_avg_pool():
    x = from_array(np.arange(8.0, dtype=np.float32).reshape(1, 2, 2, 2))
    out = global_avg_pool(x)
    assert out.shape == (1, 2, 1, 1)
    assert out.data.reshape(-1).tolist() == [1.5, 5.5]


def test_concat_channels_order_and_backward_split():
    a = Parameter(np.ones((1, 2, 2, 2)))
    b = Parameter(np.full((1, 3, 2, 2), 2.0))
    out = concat_channels([a, b])
    assert out.shape == (1, 5, 2, 2)
    assert np.allclose(out.data[:, :2], 1.0) and np.allclose(out.data[:, 2:], 2.0)
    tsum(out * 3.0).backward()
    assert np.allclose(a.grad, 3.0) and np.allclose(b.grad, 3.0)


def test_partial_conv_identity_kernel_property():
    rng = Rng(6)
    x = arr(rng, (1, 8, 5, 5)).astype(np.float32)
    w = identity_kernel(2)
    out = partial_conv(from_array(x), w)
    assert np.array_equal(out.data, x)
