"""Analytic parameter, multiply-accumulate, and size accounting.

Parameter counts walk the model's registered parameters (batch-norm running
statistics are buffers and therefore excluded).  MAC counts run the forward
pass on an empty batch with the tally armed (:func:`firedet.nn.mac_counting`),
so the executable graph is its own cost model: convolutions contribute
k^2 * (Cin/groups) * Cout * Hout * Wout, affine maps contribute Cin * Cout,
and normalization/activations/pooling count as zero (dominant-term
convention).  GFLOPs = 2 * MACs / 1e9.  The tally is armed for the calling
thread only, so forward passes in other threads are not counted.
Both counts are grouped the same way: the tally is one dict from the weight
tensor that incurred MACs to their count, every parameter belongs to the
group named by the first two parts of its dotted name (``backbone.stages``,
``heads.0``), and each total is the sum of its groups.  Sizes are the
lengths of the archives :func:`firedet.weights.save_weights` writes at 32-
and 16-bit element precision.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from .tensor import Parameter, no_grad, zeros
from .nn import mac_counting
from .model import Model, ModelConfig, build
from .weights import save_weights


@dataclass(frozen=True)
class ProfileRow:
    name: str
    params: int
    macs: int


@dataclass(frozen=True)
class ProfileReport:
    rows: tuple[ProfileRow, ...]
    total_params: int
    total_macs: int
    size_f32: int
    size_f16: int
    input_size: int

    @property
    def gflops(self) -> float:
        return 2.0 * self.total_macs / 1e9

    def format_text(self) -> str:
        name_w = max([len(r.name) for r in self.rows] + [len("layer")])
        lines = [f"{'layer':<{name_w}}  {'params':>12}  {'MACs':>16}"]
        lines.append("-" * (name_w + 32))
        for r in self.rows:
            lines.append(f"{r.name:<{name_w}}  {r.params:>12,}  {r.macs:>16,}")
        lines.append("-" * (name_w + 32))
        lines.append(f"{'total':<{name_w}}  {self.total_params:>12,}  {self.total_macs:>16,}")
        lines.append("")
        lines.append(f"input size      : {self.input_size}x{self.input_size}")
        lines.append(f"GFLOPs (2*MACs) : {self.gflops:.3f}")
        lines.append(f"size f32        : {self.size_f32:,} bytes ({self.size_f32 / 1e6:.2f} MB)")
        lines.append(f"size f16        : {self.size_f16:,} bytes ({self.size_f16 / 1e6:.2f} MB)")
        lines.append("note: BN/activations/pooling counted as zero MACs; "
                     "sizes are exact archive bytes (running stats included).")
        return "\n".join(lines)


def _grouped_parameters(model: Model) -> Iterator[tuple[str, Parameter]]:
    """(depth-2 group name, parameter) pairs in registration order."""
    for name, p in model.named_parameters():
        yield ".".join(name.split(".")[:2]), p


def count_params(model: Model) -> tuple[dict[str, int], int]:
    """Per-group and total learnable element counts (depth-2 name grouping)."""
    groups: dict[str, int] = {}
    for key, p in _grouped_parameters(model):
        groups[key] = groups.get(key, 0) + p.size
    return groups, sum(groups.values())


def count_macs(model: Model, input_size: int | None = None) -> tuple[dict[str, int], int]:
    """Per-group and total MACs for a single image at the given input size, counted on an
    empty batch in infer mode (train-mode BatchNorm would average over no samples)."""
    size = model.config.resolve_input_size(input_size)
    with no_grad(), mac_counting() as tally:
        model(zeros((0, 3, size, size)))
    group_of = {p: key for key, p in _grouped_parameters(model)}
    groups: dict[str, int] = {}
    for weight, macs in tally.items():
        key = group_of[weight]
        groups[key] = groups.get(key, 0) + macs
    return groups, sum(groups.values())


def profile(model: Model, input_size: int | None = None) -> ProfileReport:
    """Full per-block and total accounting for one model."""
    size = model.config.resolve_input_size(input_size)
    param_groups, total_params = count_params(model)
    mac_groups, total_macs = count_macs(model, size)
    keys = sorted(set(param_groups) | set(mac_groups))
    rows = tuple(ProfileRow(k, param_groups.get(k, 0), mac_groups.get(k, 0)) for k in keys)
    return ProfileReport(
        rows=rows,
        total_params=total_params,
        total_macs=total_macs,
        size_f32=len(save_weights(model, "f32")),
        size_f16=len(save_weights(model, "f16")),
        input_size=size,
    )


VARIANTS = ("baseline", "air", "dpdf", "full")


def variant_config(base: ModelConfig, variant: str) -> ModelConfig:
    """The four ablation variants differ only in the two structural flags."""
    flags = {
        "baseline": (False, False),
        "air": (True, False),
        "dpdf": (False, True),
        "full": (True, True),
    }
    if variant not in flags:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    use_air, use_dpdf = flags[variant]
    return replace(base, use_air=use_air, use_dpdf=use_dpdf)


def ablation_report(base: ModelConfig, input_size: int | None = None) -> str:
    """Four-variant grid: params/GFLOPs/size plus reductions vs the baseline.

    The figures depend on names and shapes only, so the builds draw nothing."""
    stats: dict[str, ProfileReport] = {}
    for variant in VARIANTS:
        model = build(variant_config(base, variant))
        stats[variant] = profile(model, input_size)
    baseline = stats["baseline"]
    lines = [f"{'variant':<10}  {'params':>12}  {'GFLOPs':>8}  {'size f16 MB':>12}  "
             f"{'params vs base':>15}  {'GFLOPs vs base':>15}"]
    lines.append("-" * 84)
    for variant in VARIANTS:
        rep = stats[variant]
        dp = 100.0 * (1.0 - rep.total_params / baseline.total_params)
        dg = 100.0 * (1.0 - rep.total_macs / baseline.total_macs)
        lines.append(
            f"{variant:<10}  {rep.total_params:>12,}  {rep.gflops:>8.3f}  "
            f"{rep.size_f16 / 1e6:>12.2f}  {dp:>14.1f}%  {dg:>14.1f}%")
    lines.append("")
    ratio = stats["full"].total_params / baseline.total_params
    air_cut = 100.0 * (1.0 - stats["air"].total_params / baseline.total_params)
    lines.append(f"full/baseline parameter ratio : {ratio:.3f}")
    lines.append(f"attention-variant param cut   : {air_cut:.1f}%")
    return "\n".join(lines)
