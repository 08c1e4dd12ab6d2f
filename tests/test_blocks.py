"""Composite blocks: shapes, parameter-count formulas, fusion invariants."""

import numpy as np
import pytest

from oracles import air_param_count, cas_param_count, dpdf_param_count

from firedet.attention import CasAttention
from firedet.blocks import AirBlock, Bottleneck, Cbs, ConvBn, CspBlock, DpdfBlock, Sppf
from firedet.rng import Rng
from firedet.tensor import from_array, tsum, using_dtype


def arr(rng, shape, lo=-1.0, hi=1.0):
    return np.asarray(rng.uniform64(int(np.prod(shape)), lo, hi)) \
        .reshape(shape).astype(np.float32)


def n_params(module):
    return sum(p.size for p in module.parameters())


# -- shapes -------------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(1, 4, 6, 6), (2, 8, 5, 7), (1, 12, 3, 3)])
def test_air_block_preserves_shape(shape):
    rng = Rng(0)
    x = from_array(arr(rng, shape))
    assert AirBlock(shape[1], rng)(x).shape == shape


@pytest.mark.parametrize("c_in,c_out,h,w", [(8, 8, 6, 6), (8, 16, 4, 10), (4, 12, 2, 2)])
def test_dpdf_block_halves_spatial_extents_exactly(c_in, c_out, h, w):
    rng = Rng(1)
    x = from_array(arr(rng, (2, c_in, h, w)))
    out = DpdfBlock(c_in, c_out, rng)(x)
    assert out.shape == (2, c_out, h // 2, w // 2)


def test_dpdf_block_rejects_odd_extents_and_bad_widths():
    rng = Rng(2)
    blk = DpdfBlock(8, 8, rng)
    with pytest.raises(ValueError):
        blk(from_array(arr(rng, (1, 8, 5, 6))))
    with pytest.raises(ValueError):
        blk(from_array(arr(rng, (1, 8, 6, 7))))
    with pytest.raises(ValueError):
        DpdfBlock(6, 8, rng)  # channels not divisible by 4


@pytest.mark.parametrize("stride,h_out", [(1, 7), (2, 4)])
def test_cbs_output_extent_follows_conv_rule(stride, h_out):
    rng = Rng(3)
    x = from_array(arr(rng, (1, 3, 7, 7)))
    out = Cbs(3, 5, 3, rng, stride=stride)(x)
    assert out.shape == (1, 5, h_out, h_out)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_csp_block_shape_and_rejects_odd_width(n):
    rng = Rng(4)
    x = from_array(arr(rng, (2, 8, 6, 6)))
    assert CspBlock(8, 10, n=n, rng=rng)(x).shape == (2, 10, 6, 6)
    with pytest.raises(ValueError):
        CspBlock(8, 7, n=1, rng=rng)


def test_sppf_shape_preserved_spatially():
    rng = Rng(5)
    x = from_array(arr(rng, (1, 8, 7, 9)))
    assert Sppf(8, 6, rng)(x).shape == (1, 6, 7, 9)


# -- parameter-count formulas vs the real modules ------------------------------------


@pytest.mark.parametrize("c", [4, 6, 8, 12, 16, 32])
def test_cas_param_count_matches_module(c):
    assert n_params(CasAttention(c, Rng(0))) == cas_param_count(c)


@pytest.mark.parametrize("c", [4, 8, 12, 16, 32, 64])
def test_air_param_count_matches_module(c):
    assert n_params(AirBlock(c, Rng(0))) == air_param_count(c)


@pytest.mark.parametrize("c_in,c_out", [(4, 4), (8, 8), (8, 16), (16, 8), (32, 64)])
def test_dpdf_param_count_matches_module(c_in, c_out):
    assert n_params(DpdfBlock(c_in, c_out, Rng(0))) == dpdf_param_count(c_in, c_out)


def test_param_counts_exclude_running_statistics():
    blk = Cbs(4, 6, 3, Rng(0))
    # conv 4*6*9, bn gamma+beta 2*6; running stats are buffers, not parameters
    assert n_params(blk) == 4 * 6 * 9 + 2 * 6
    buffer_names = [name for name, _ in blk.named_buffers()]
    assert sorted(buffer_names) == ["bn.running_mean", "bn.running_var"]


# -- fusion and residual semantics -----------------------------------------------------


def test_dpdf_convex_fusion_bound_elementwise():
    rng = Rng(6)
    blk = DpdfBlock(8, 8, rng)
    x = from_array(arr(rng, (2, 8, 8, 8)))
    fused, path_max, path_avg = blk.fuse_paths(x)
    lo = np.minimum(path_max.data, path_avg.data)
    hi = np.maximum(path_max.data, path_avg.data)
    assert np.all(fused.data >= lo - 1e-6)
    assert np.all(fused.data <= hi + 1e-6)


def test_dpdf_alpha_saturation_selects_single_path():
    rng = Rng(7)
    x = from_array(arr(rng, (1, 8, 6, 6)))

    blk = DpdfBlock(8, 8, Rng(8))
    blk.alpha_raw.data[...] = 30.0  # sigmoid ~ 1
    fused, path_max, _ = blk.fuse_paths(x)
    assert np.allclose(fused.data, path_max.data, atol=1e-6)

    blk.alpha_raw.data[...] = -30.0  # sigmoid ~ 0
    fused, _, path_avg = blk.fuse_paths(x)
    assert np.allclose(fused.data, path_avg.data, atol=1e-6)


def test_dpdf_alpha_midpoint_is_exact_average():
    rng = Rng(9)
    blk = DpdfBlock(8, 8, rng)  # alpha_raw initialized to 0 -> alpha = 0.5
    x = from_array(arr(rng, (1, 8, 4, 4)))
    fused, path_max, path_avg = blk.fuse_paths(x)
    assert np.allclose(fused.data, 0.5 * path_max.data + 0.5 * path_avg.data,
                       atol=1e-7)


def test_dpdf_alpha_receives_gradient():
    with using_dtype(np.float64):
        rng = Rng(10)
        blk = DpdfBlock(8, 8, rng)
        x = from_array(arr(rng, (1, 8, 6, 6)).astype(np.float64))
        tsum(blk(x)).backward()
        assert blk.alpha_raw.grad is not None
        assert abs(float(blk.alpha_raw.grad.sum())) > 1e-12


def test_bottleneck_shortcut_adds_identity_exactly():
    x_np = arr(Rng(11), (1, 6, 5, 5))
    with_skip = Bottleneck(6, Rng(12), shortcut=True)
    without = Bottleneck(6, Rng(12), shortcut=False)
    x = from_array(x_np)
    assert np.array_equal(with_skip(x).data, without(x).data + x_np)


def test_air_residual_toggle_differs_by_identity_exactly():
    # A zeroed expand BatchNorm makes the branch exactly 0; the skip is what is left.
    x_np = arr(Rng(13), (1, 8, 6, 6))
    blk = AirBlock(8, Rng(14))
    blk.expand.bn.gamma.data[...] = 0.0
    blk.expand.bn.beta.data[...] = 0.0
    assert np.array_equal(blk(from_array(x_np)).data, x_np)


def test_conv_bn_has_no_activation():
    rng = Rng(15)
    blk = ConvBn(4, 4, 3, rng)
    out = blk(from_array(arr(rng, (2, 4, 6, 6)))).data
    assert (out < 0).any()  # a BN output without activation takes both signs
