"""Attention and calibration gates: closed forms, invariants, composition."""

import numpy as np
import pytest

from firedet.attention import (CasAttention, ChannelCalibrate, ChannelGate,
                               SpatialCalibrate, SpatialGate, gate_hidden)
from firedet.nn import conv2d
from firedet.rng import Rng
from firedet.tensor import from_array, slice4, using_dtype


def arr(rng, shape, lo=-1.0, hi=1.0):
    return np.asarray(rng.uniform64(int(np.prod(shape)), lo, hi)).reshape(shape)


def test_gate_hidden_is_quarter_rounded_up():
    assert [gate_hidden(c) for c in (1, 2, 3, 4, 5, 8, 9, 16)] == [1, 1, 1, 1, 2, 2, 3, 4]


@pytest.mark.parametrize("shape", [(1, 4, 5, 5), (2, 8, 6, 4), (3, 6, 3, 7)])
def test_all_gates_preserve_shape(shape):
    rng = Rng(0)
    x = from_array(arr(rng, shape).astype(np.float32))
    c = shape[1]
    for gate in (SpatialGate(c, rng), ChannelGate(c, rng),
                 SpatialCalibrate(rng), ChannelCalibrate(c, rng)):
        assert gate(x).shape == shape
    assert CasAttention(c, rng)(x).shape == shape


def test_gates_scale_by_factors_strictly_inside_unit_interval():
    rng = Rng(1)
    x_np = arr(rng, (2, 4, 6, 6), 0.5, 1.5)  # bounded away from zero
    x = from_array(x_np)
    for gate in (SpatialGate(4, rng), ChannelGate(4, rng),
                 SpatialCalibrate(rng), ChannelCalibrate(4, rng)):
        ratio = gate(x).data / x_np
        assert np.all(ratio > 0.0) and np.all(ratio < 1.0)


def test_channel_gate_closed_form():
    with using_dtype(np.float64):
        rng = Rng(2)
        cg = ChannelGate(4, rng)
        x_np = arr(rng, (2, 4, 3, 5))
        out = cg(from_array(x_np)).data

        w1 = cg.fc1.weight.data.reshape(1, 4)   # hidden = ceil(4/4) = 1
        w2 = cg.fc2.weight.data.reshape(4, 1)
        squeezed = x_np.mean(axis=(2, 3))                      # (N, 4)
        hidden = np.maximum(squeezed @ w1.T, 0.0)              # (N, 1)
        gate = 1.0 / (1.0 + np.exp(-(hidden @ w2.T)))          # (N, 4)
        expected = x_np * gate[:, :, None, None]
        assert np.allclose(out, expected, atol=1e-14)


def test_channel_gate_broadcasts_one_factor_per_channel():
    rng = Rng(3)
    x_np = arr(rng, (2, 6, 4, 4), 0.5, 1.5)
    out = ChannelGate(6, rng)(from_array(x_np)).data
    ratio = out / x_np
    for n in range(2):
        for c in range(6):
            vals = ratio[n, c]
            assert np.allclose(vals, vals[0, 0], atol=1e-6)


def test_spatial_gate_zero_projection_halves_input_exactly():
    rng = Rng(4)
    sg = SpatialGate(4, rng)
    sg.pw_weight.data[...] = 0.0  # gate logits 0 -> sigmoid = 1/2 everywhere
    x_np = arr(rng, (1, 4, 5, 5)).astype(np.float32)
    out = sg(from_array(x_np)).data
    assert np.array_equal(out, 0.5 * x_np)


def test_spatial_calibrate_zero_weight_halves_input_exactly():
    rng = Rng(5)
    sa = SpatialCalibrate(rng)
    sa.weight.data[...] = 0.0
    x_np = arr(rng, (2, 4, 6, 6)).astype(np.float32)
    out = sa(from_array(x_np)).data
    assert np.array_equal(out, 0.5 * x_np)


def test_spatial_calibrate_mask_is_shared_across_channels():
    rng = Rng(6)
    sa = SpatialCalibrate(rng)
    x_np = arr(rng, (1, 5, 6, 6), 0.5, 1.5)
    ratio = sa(from_array(x_np)).data / x_np
    # one (H, W) mask broadcast over channels
    for c in range(1, 5):
        assert np.allclose(ratio[0, c], ratio[0, 0], atol=1e-6)


def _manual_cas(cas: CasAttention, x):
    c = cas.channels
    qkv = conv2d(x, cas.qkv_spec, cas.qkv_weight)
    q = slice4(qkv, c=slice(0, c))
    k = slice4(qkv, c=slice(c, 2 * c))
    v = slice4(qkv, c=slice(2 * c, 3 * c))
    q_hat = cas.cg_q(cas.sg_q(q))
    k_hat = cas.cg_k(cas.sg_k(k))
    return q_hat, k_hat, v


def test_cas_attention_equals_manual_composition_bitwise():
    rng = Rng(7)
    cas = CasAttention(8, rng)
    x = from_array(arr(rng, (2, 8, 5, 5)).astype(np.float32))
    out = cas(x).data
    q_hat, k_hat, v = _manual_cas(cas, x)
    manual = conv2d((q_hat + k_hat) * v, cas.out_spec, cas.out_weight).data
    assert np.array_equal(out, manual)


def test_cas_attention_linear_in_v_with_gates_frozen():
    rng = Rng(8)
    cas = CasAttention(4, rng)
    x = from_array(arr(rng, (1, 4, 6, 6)).astype(np.float32))
    q_hat, k_hat, v = _manual_cas(cas, x)
    base = conv2d((q_hat + k_hat) * v, cas.out_spec, cas.out_weight).data
    doubled = conv2d((q_hat + k_hat) * (v * 2.0), cas.out_spec, cas.out_weight).data
    assert np.array_equal(doubled, 2.0 * base)  # doubling is exact in binary fp


def test_channel_calibrate_has_independent_weights():
    rng = Rng(12)
    ca = ChannelCalibrate(8, rng)
    cg = ChannelGate(8, rng)
    assert isinstance(ca, ChannelGate)
    assert not np.array_equal(ca.fc1.weight.data, cg.fc1.weight.data)
