#!/usr/bin/env python3
"""Architecture-budget search.

Enumerates candidate stage-depth vectors and head widths for the detector
skeleton, counts parameters for all four attention/downscale variants, and
marks the candidates whose budgets land inside the target bands (baseline
3.01M +-5%, attention-only 1.84M +-10%, downscale-only 2.52M +-10%, combined
1.45M +-10%, combined/baseline ratio in [0.44, 0.53], attention-only
reduction in [34%, 44%]).  Pass ``--macs`` to additionally profile MACs at
640x640 for the passing candidates (slower; runs a counting forward pass).

This is the search that selected ``blocks_per_stage=(1, 2, 2, 1)`` with the
default head width (the stride-8 feature width) committed in configs/.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from firedet.model import ModelConfig, build
from firedet.profiler import VARIANTS, count_params, profile, variant_config

PARAM_TARGETS = {"baseline": 3.01e6, "air": 1.84e6, "dpdf": 2.52e6, "full": 1.45e6}
PARAM_TOL = {"baseline": 0.05, "air": 0.10, "dpdf": 0.10, "full": 0.10}
GFLOP_TARGETS = {"baseline": 8.1, "air": 5.4, "dpdf": 6.9, "full": 4.6}
RATIO_BAND = (0.44, 0.53)
REDUCTION_BAND = (0.34, 0.44)

DEPTH_CANDIDATES = [
    (1, 1, 1, 1),
    (1, 2, 2, 1),
    (2, 2, 2, 2),
    (1, 2, 3, 1),
    (2, 4, 4, 2),
]
HEAD_CANDIDATES = [None, 48, 64, 96]


def params_for(base: ModelConfig, variant: str) -> int:
    model = build(variant_config(base, variant))
    return count_params(model)[1]


def evaluate(base: ModelConfig) -> tuple[dict[str, int], bool]:
    counts = {v: params_for(base, v) for v in VARIANTS}
    ok = all(
        abs(counts[v] - PARAM_TARGETS[v]) <= PARAM_TOL[v] * PARAM_TARGETS[v]
        for v in VARIANTS
    )
    ratio = counts["full"] / counts["baseline"]
    reduction = 1.0 - counts["air"] / counts["baseline"]
    ok = ok and RATIO_BAND[0] <= ratio <= RATIO_BAND[1]
    ok = ok and REDUCTION_BAND[0] <= reduction <= REDUCTION_BAND[1]
    return counts, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--macs", action="store_true",
                        help="profile MACs at 640 for passing candidates")
    args = parser.parse_args()

    base = ModelConfig(num_classes=1, input_size=640, width_mult=0.25)
    winners = []
    print(f"{'depths':>14} {'head':>6} "
          f"{'baseline':>10} {'air':>10} {'dpdf':>10} {'full':>10} "
          f"{'ratio':>6} {'cut':>6}  verdict")
    for depths in DEPTH_CANDIDATES:
        for head in HEAD_CANDIDATES:
            cand = replace(base, blocks_per_stage=depths, head_channels=head)
            counts, ok = evaluate(cand)
            ratio = counts["full"] / counts["baseline"]
            reduction = 1.0 - counts["air"] / counts["baseline"]
            verdict = "IN BAND" if ok else ""
            print(f"{str(depths):>14} {str(head):>6} "
                  f"{counts['baseline']:>10,} {counts['air']:>10,} "
                  f"{counts['dpdf']:>10,} {counts['full']:>10,} "
                  f"{ratio:>6.3f} {reduction:>6.1%}  {verdict}")
            if ok:
                winners.append(cand)

    if args.macs:
        for cand in winners:
            print(f"\nMACs at 640 for depths={cand.blocks_per_stage} "
                  f"head={cand.head_channels}:")
            for v in VARIANTS:
                model = build(variant_config(cand, v))
                report = profile(model, input_size=640)
                print(f"  {v:>8}: {report.total_params:>10,} params, "
                      f"{report.gflops:.3f} GFLOPs (target ~{GFLOP_TARGETS[v]})")
    return 0 if winners else 1


if __name__ == "__main__":
    sys.exit(main())
