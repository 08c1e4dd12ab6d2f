"""Finite-difference verification suites.

Three scopes: ``primitives`` sweeps every differentiable op on small shapes,
``blocks`` covers the composite blocks (attention, inverted-residual,
dual-pool fusion, CSP, SPPF) including every parameter, and ``model`` checks
a full toy network end to end, once on the sum of its maps and once through
the detection loss.  All checks run in 64-bit mode; each returns
(name, max_relative_error, tolerance) triples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import CasAttention, ChannelCalibrate, ChannelGate, SpatialCalibrate, SpatialGate
from .blocks import AirBlock, Cbs, CspBlock, DpdfBlock, Sppf
from .losses import GroundTruth, detection_loss
from .model import ModelConfig, build
from .nn import (BatchNorm, Conv2dSpec, Linear, PartialConv, concat_channels,
                 conv2d, global_avg_pool, pool2d, train_mode, upsample_nearest)
from .rng import Rng
from .tensor import (Parameter, atan, from_array, grad_check, maximum, minimum,
                     no_grad, slice4, tsum, using_dtype)

UNIT_TOL = 1e-5
MODEL_TOL = 1e-4
NULL_FLOOR = 1e-6  # largest |gradient| that _null_direction_guard probes
NULL_EPS = 1e-4  # its central-difference step along the probe direction
NULL_SEED = 99  # seed of its +-1 probe directions
MODEL_ELEMENTS = 1  # elements probed per parameter by the model checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.error < self.tolerance


def _param(rng: Rng, shape: tuple[int, ...], lo: float = -1.0, hi: float = 1.0) -> Parameter:
    data = np.asarray(rng.uniform64(int(np.prod(shape)), lo, hi)).reshape(shape)
    return Parameter(data.astype(np.float64))


def _check(name: str, fn, params, tol: float = UNIT_TOL,
           max_elements: int | None = None, eps: float = 1e-4,
           min_analytic: float = 0.0) -> CheckResult:
    err = grad_check(fn, params, eps=eps, max_elements_per_param=max_elements,
                     min_analytic=min_analytic)
    return CheckResult(name, err, tol)


def _null_direction_guard(fn, params) -> float:
    """Directional probe for parameters whose analytic gradient is ~zero.

    Normalization layers in train mode cancel some upstream directions
    exactly (for example a per-channel scale feeding a depthwise conv whose
    output is immediately renormalized), so those parameters legitimately
    receive zero gradient and elementwise finite differences only measure
    their own noise there.  This guard instead perturbs each such parameter
    along one random +-1 direction as a whole and compares the directional
    derivative against the analytic dot product: if a backward rule had
    silently dropped a genuinely nonzero gradient, the directional
    derivative would be of healthy magnitude and the mismatch obvious.
    Returns the worst absolute mismatch (0.0 when every parameter has a
    resolvable gradient somewhere).
    """
    for p in params:
        p.zero_grad()
    out = fn()
    out.backward()
    rng = Rng(NULL_SEED)
    worst = 0.0
    for p in params:
        a = np.zeros_like(p.data) if p.grad is None else p.grad
        if np.abs(a).max() >= NULL_FLOOR:
            continue
        u = np.asarray(rng.uniform64(p.data.size)).reshape(p.shape)
        d = np.where(u < 0.5, -1.0, 1.0)
        saved = p.data.copy()
        p.data[...] = saved + NULL_EPS * d
        with no_grad():
            hi = fn().item()
        p.data[...] = saved - NULL_EPS * d
        with no_grad():
            lo = fn().item()
        p.data[...] = saved
        numeric = (hi - lo) / (2.0 * NULL_EPS)
        worst = max(worst, abs(float((a * d).sum()) - numeric))
    return worst


def primitive_checks(seed: int = 0) -> list[CheckResult]:
    rng = Rng(seed)
    results = []
    with using_dtype(np.float64):
        x = _param(rng, (2, 3, 5, 4))
        y = _param(rng, (2, 3, 5, 4), 0.1, 1.0)
        chan = _param(rng, (1, 3, 1, 1), 0.1, 1.0)

        for name, f in [
            ("relu", lambda: tsum(x.relu())),
            ("sigmoid", lambda: tsum(x.sigmoid())),
            ("silu", lambda: tsum(x.silu())),
            ("softplus", lambda: tsum(x.softplus())),
            ("atan", lambda: tsum(atan(x))),
            ("neg", lambda: tsum(-x)),
            ("add", lambda: tsum(x + y)),
            ("sub", lambda: tsum(x - y)),
            ("mul", lambda: tsum(x * y)),
            ("div", lambda: tsum(x / y)),
            ("minimum", lambda: tsum(minimum(x, y))),
            ("maximum", lambda: tsum(maximum(x, y))),
            ("add_channel_broadcast", lambda: tsum(x + chan)),
            ("mul_channel_broadcast", lambda: tsum(x * chan)),
            ("mul_scalar", lambda: tsum(x * 0.7)),
            ("mean", lambda: x.mean()),
            ("sum_spatial", lambda: tsum(tsum(x, axes=(2, 3)) * chan)),
            ("slice4", lambda: tsum(slice4(x, c=slice(1, 3), h=slice(0, 4)) * 2.0)),
            ("concat_channels", lambda: tsum(concat_channels([x, y]) * 1.5)),
        ]:
            results.append(_check(name, f, [x, y, chan]))

        # convolution variants
        w_full = _param(rng, (4, 3, 3, 3), -0.5, 0.5)
        b_full = _param(rng, (1, 4, 1, 1), -0.5, 0.5)
        spec_full = Conv2dSpec(3, 4, kernel=3, stride=2, padding=1)
        results.append(_check(
            "conv2d_stride2_pad1_bias",
            lambda: tsum(conv2d(x, spec_full, w_full, b_full)), [x, w_full, b_full]))

        xg = _param(rng, (2, 4, 6, 6))
        w_grp = _param(rng, (6, 2, 3, 3), -0.5, 0.5)
        spec_grp = Conv2dSpec(4, 6, kernel=3, padding=2, dilation=2, groups=2, has_bias=False)
        results.append(_check(
            "conv2d_grouped_dilated",
            lambda: tsum(conv2d(xg, spec_grp, w_grp)), [xg, w_grp]))

        w_dw = _param(rng, (4, 1, 3, 3), -0.5, 0.5)
        spec_dw = Conv2dSpec(4, 4, kernel=3, padding=1, groups=4, has_bias=False)
        results.append(_check(
            "conv2d_depthwise",
            lambda: tsum(conv2d(xg, spec_dw, w_dw)), [xg, w_dw]))

        w_1x1 = _param(rng, (5, 4, 1, 1), -0.5, 0.5)
        spec_1x1 = Conv2dSpec(4, 5, kernel=1, has_bias=False)
        results.append(_check(
            "conv2d_pointwise",
            lambda: tsum(conv2d(xg, spec_1x1, w_1x1)), [xg, w_1x1]))

        # normalization (train and inference paths)
        bn = BatchNorm(4)
        bn.gamma.data = np.asarray(rng.uniform64(4, 0.5, 1.5)).reshape(bn.gamma.shape)
        bn.beta.data = np.asarray(rng.uniform64(4, -0.5, 0.5)).reshape(bn.beta.shape)
        xb = _param(rng, (3, 4, 4, 4))

        def f_bn_train():
            return tsum(_train_forward(bn, xb).silu())
        results.append(_check("batch_norm_train", f_bn_train, [xb, bn.gamma, bn.beta]))

        def f_bn_eval():
            return tsum(bn(xb).silu())
        results.append(_check("batch_norm_eval", f_bn_eval, [xb, bn.gamma, bn.beta]))

        # pooling / resampling
        xp = _param(rng, (2, 3, 6, 6))
        results.append(_check("max_pool2x2", lambda: tsum(pool2d(xp, "max") * 1.0), [xp]))
        results.append(_check("avg_pool2x2", lambda: tsum(pool2d(xp, "avg") * 1.0), [xp]))
        results.append(_check("max_pool_k5_s1_p2",
                              lambda: tsum(pool2d(xp, "max", kernel=5, stride=1, padding=2)), [xp]))
        results.append(_check("global_avg_pool", lambda: tsum(global_avg_pool(xp) * 3.0), [xp]))
        results.append(_check("upsample_nearest", lambda: tsum(upsample_nearest(xp) * 0.5), [xp]))

        # linear on (N,C,1,1)
        xv = _param(rng, (2, 6, 1, 1))
        lin = Linear(6, 3, rng)
        results.append(_check(
            "linear", lambda: tsum(lin(xv)), [xv, *lin.parameters()]))

        # partial conv (depthwise on the first quarter of channels)
        xq = _param(rng, (2, 8, 5, 5))
        pc = PartialConv(8, rng)
        results.append(_check(
            "partial_conv", lambda: tsum(pc(xq)), [xq, *pc.parameters()]))
    return results


def block_checks(seed: int = 0) -> list[CheckResult]:
    rng = Rng(seed)
    results = []
    with using_dtype(np.float64):
        x = _param(rng, (1, 8, 8, 8), -1.0, 1.0)

        sg = SpatialGate(8, rng)
        results.append(_check("spatial_gate", lambda: tsum(sg(x)), [x, *sg.parameters()]))

        cg = ChannelGate(8, rng)
        results.append(_check("channel_gate", lambda: tsum(cg(x)), [x, *cg.parameters()]))

        cas = CasAttention(8, rng)
        results.append(_check("cas_attention", lambda: tsum(cas(x)), [x, *cas.parameters()]))

        sa = SpatialCalibrate(rng)
        results.append(_check("spatial_calibrate", lambda: tsum(sa(x)), [x, *sa.parameters()]))

        ca = ChannelCalibrate(8, rng)
        results.append(_check("channel_calibrate", lambda: tsum(ca(x)), [x, *ca.parameters()]))

        def block_suite(name, module):
            """Three checks per block.

            1. ``name``: infer mode, every parameter element exhaustively
               (the normalization layers are fixed affine maps there, so
               every element's derivative is resolvable).
            2. ``name_train``: train mode, probing the largest resolvable
               gradient elements per parameter; exercises the batch-statistic
               backward through the block's real wiring.
            3. ``name_train_null``: directional probe of any parameter whose
               train-mode gradient is ~zero everywhere (see
               :func:`_null_direction_guard`).
            """
            params = [x, *module.parameters()]
            results.append(_check(name, lambda: tsum(module(x)), params))

            def f_train():
                return tsum(_train_forward(module, x))
            results.append(_check(f"{name}_train", f_train, params,
                                  max_elements=8, min_analytic=1e-6))
            results.append(CheckResult(f"{name}_train_null",
                                       _null_direction_guard(f_train, params),
                                       UNIT_TOL))

        block_suite("cbs", Cbs(8, 6, 3, rng, stride=1))
        block_suite("air_block", AirBlock(8, rng))

        dpdf = DpdfBlock(8, 8, rng)
        assert any(p is dpdf.alpha_raw for p in dpdf.parameters())
        block_suite("dpdf_block", dpdf)

        block_suite("dpdf_block_projected", DpdfBlock(8, 12, rng))
        block_suite("csp_block", CspBlock(8, 8, n=1, rng=rng))
        block_suite("sppf", Sppf(8, 8, rng))
    return results


def _train_forward(module, x):
    """``module(x)`` in train mode, with the running statistics it updates
    copied back in place, so repeated evaluations are pure."""
    saved = [(m, m.running_mean.copy(), m.running_var.copy())
             for _, m in module.named_modules() if isinstance(m, BatchNorm)]
    with train_mode():
        out = module(x)
    for bn_mod, rm, rv in saved:
        bn_mod.running_mean[...] = rm
        bn_mod.running_var[...] = rv
    return out


def model_check(seed: int = 0) -> list[CheckResult]:
    """End-to-end checks of two toy builds at 64x64, one element per parameter.

    ``model_sum_forward`` differentiates sum(forward) of one image;
    ``detection_loss_pipeline`` differentiates the detection loss of a
    two-image batch with three positives, its CIoU coefficients pinned.

    Both use a smaller step (1e-5) than the unit checks: perturbing an early
    parameter shifts every downstream activation, and a wider step makes it
    likely that some max-pool window crosses an argmax tie between the two
    evaluations, which contaminates the difference quotient with an O(1)
    slope change.  At 1e-5 the probe stays on one side of such ties while
    64-bit rounding noise remains negligible.
    """
    results = []
    with using_dtype(np.float64):
        cfg = ModelConfig(num_classes=1, input_size=64, width_mult=0.125)
        model = build(cfg, Rng(seed))
        x = np.asarray(Rng(seed + 1).uniform64(3 * 64 * 64),
                       dtype=np.float64).reshape(1, 3, 64, 64)

        def f_sum():
            maps = _train_forward(model, from_array(x))
            total = tsum(maps[0])
            for m in maps[1:]:
                total = total + tsum(m)
            return total
        results.append(_check("model_sum_forward", f_sum, list(model.parameters()),
                              tol=MODEL_TOL, max_elements=MODEL_ELEMENTS,
                              eps=1e-5))

        cfg = ModelConfig(num_classes=2, input_size=64, width_mult=0.125)
        gts = [GroundTruth(0, 1, (0.30, 0.40, 0.25, 0.25)),
               GroundTruth(0, 0, (0.80, 0.70, 0.20, 0.30)),
               GroundTruth(1, 1, (0.55, 0.55, 0.10, 0.10))]
        model = build(cfg, Rng(seed))
        x = np.asarray(Rng(seed + 1).uniform64(2 * 3 * 64 * 64),
                       dtype=np.float64).reshape(2, 3, 64, 64)
        cache: list = []

        def f_loss():
            maps = _train_forward(model, from_array(x))
            return detection_loss(maps, gts, cfg, alpha_cache=cache)[0]
        results.append(_check("detection_loss_pipeline", f_loss, list(model.parameters()),
                              tol=MODEL_TOL, max_elements=MODEL_ELEMENTS,
                              eps=1e-5))
    return results


SCOPES = {
    "primitives": primitive_checks,
    "blocks": block_checks,
    "model": model_check,
}


def run_scope(scope: str, seed: int = 0) -> list[CheckResult]:
    if scope not in SCOPES:
        raise ValueError(f"unknown gradcheck scope {scope!r}; choose from {sorted(SCOPES)}")
    return SCOPES[scope](seed)
