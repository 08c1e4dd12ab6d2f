"""Command-line interface.

Verbs: ``infer``, ``profile``, ``gradcheck``, ``eval``, ``synth``,
``train-toy``.  Every command is deterministic; the four that draw random
values (``infer``, ``train-toy``, ``synth`` and ``gradcheck``) take
``--seed``.  No environment variables are consulted.

Exit codes: 0 success; 2 configuration error (bad flags, bad config file);
3 I/O error (missing/malformed image, weight, or record files); 4 check
failure (gradient check over tolerance, training divergence, detection
arithmetic that overflows or makes an invalid value).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import checks
from .blocks import fold_batchnorm
from .fileio import (FileFormatError, format_detection, image_to_input, letterbox,
                     load_config, read_detections, read_ground_truth, read_ppm)
from .metrics import DetRecord, map_range
from .model import ConfigError, Model, ModelConfig, build
from .profiler import VARIANTS, ablation_report, profile, variant_config
from .rng import Rng
from .synth import MIN_IMAGE_SIZE, generate_dataset
from .train import (LR, WEIGHT_DECAY, TrainingDiverged, detect_batch, evaluate_model,
                    load_dataset, train_toy)
from .weights import ArchiveError, load_weights, save_weights

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CHECK = 4

DEFAULT_SEED = 0


def _load_model(args, config: ModelConfig) -> Model:
    """The seeded init, or with ``--weights`` an undrawn model loaded from the archive."""
    if not getattr(args, "weights", None):
        return build(config, Rng(args.seed))
    try:
        data = Path(args.weights).read_bytes()
    except OSError as exc:
        raise FileFormatError(f"cannot read weights {args.weights}: {exc}") from None
    model = build(config)
    load_weights(data, model)
    return model


def _infer_one(model: Model, config: ModelConfig, path: str,
               score_threshold: float | None) -> list[DetRecord]:
    boxed, info = letterbox(read_ppm(path), config.input_size)
    return detect_batch(model, config, image_to_input(boxed), [Path(path).name],
                        infos=[info], score_threshold=score_threshold)


def cmd_infer(args) -> int:
    """Detect on each image, BatchNorm folded into the convs once before the thread pool."""
    if args.threads < 1:
        raise ConfigError("--threads must be at least 1")
    repeated = sorted(n for n, k in Counter(Path(p).name for p in args.images).items() if k > 1)
    if repeated:  # records are keyed by file name, so eval would merge the images
        raise ConfigError(f"images must have distinct file names, repeated: {', '.join(repeated)}")
    config = load_config(args.config)
    model = _load_model(args, config)
    fold_batchnorm(model)
    worker = lambda p: _infer_one(model, config, p, args.score_threshold)
    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            per_image = list(pool.map(worker, args.images))
    else:
        per_image = [worker(p) for p in args.images]
    text = format_detection([rec for recs in per_image for rec in recs])
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_profile(args) -> int:
    config = load_config(args.config)
    if args.variant is not None:
        config = variant_config(config, args.variant)
    if args.ablation:
        print(ablation_report(config, input_size=args.input))
        return EXIT_OK
    model = build(config)
    print(profile(model, input_size=args.input).format_text())
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = checks.run_scope(args.scope, seed=args.seed)
    ok = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.name:30s} max_rel_err={r.error:.3e}  (tol {r.tolerance:g})")
        ok = ok and r.passed
    print(f"{args.scope}: {sum(r.passed for r in results)}/{len(results)} checks passed")
    return EXIT_OK if ok else EXIT_CHECK


def cmd_eval(args) -> int:
    dets = read_detections(args.dets)
    gts = read_ground_truth(args.gts)
    result = map_range(dets, gts, conf_t=args.conf_threshold, pr_iou=args.iou_threshold)
    if result.zero_gt_warning:
        print("warning: no ground-truth records; all metrics are zero by convention",
              file=sys.stderr)
    print(f"precision={result.precision:.4f} recall={result.recall:.4f} "
          f"f1={result.f1:.4f} (conf>={args.conf_threshold}, IoU>={args.iou_threshold})")
    print(f"mAP50={result.map50:.4f} mAP75={result.map75:.4f} "
          f"mAP50-95={result.map50_95:.4f}")
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.n <= 0 or args.image_size < MIN_IMAGE_SIZE:
        raise ConfigError(f"--n must be positive and --image-size at least {MIN_IMAGE_SIZE}")
    records = generate_dataset(args.n, args.seed, args.out, image_size=args.image_size)
    print(f"wrote {args.n} images, {len(records)} boxes to {args.out}")
    return EXIT_OK


def cmd_train_toy(args) -> int:
    if args.steps < 1:
        raise ConfigError("--steps must be at least 1")
    config = load_config(args.config)
    model = _load_model(args, config)
    dataset = load_dataset(args.data, config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = train_toy(model, config, dataset, steps=args.steps, lr=args.lr,
                       weight_decay=args.weight_decay,
                       log=lambda step, v: print(f"step {step:4d}  loss {v:.6f}"))
    (out_dir / "weights.bin").write_bytes(save_weights(model, precision=args.precision))
    curve = "\n".join(json.dumps({"step": i + 1, "loss": round(v, 6)})
                      for i, v in enumerate(result.losses))
    (out_dir / "loss_curve.jsonl").write_text(curve + "\n", encoding="utf-8")
    ev = evaluate_model(model, config, dataset, score_threshold=args.score_threshold)
    print(f"final loss {result.losses[-1]:.6f} (step 1: {result.losses[0]:.6f})")
    print(f"train-set mAP50={ev.map50:.4f} mAP75={ev.map75:.4f} "
          f"mAP50-95={ev.map50_95:.4f}")
    return EXIT_OK


def _ranged(convert, ok, wanted: str):
    """An argparse type: ``convert(text)`` if ``ok`` holds for it, else "must be ``wanted``"."""
    def number(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
        return value
    return number


_threshold = _ranged(float, lambda v: 0.0 <= v <= 1.0, "a finite number in [0, 1]")  # False for NaN
_non_negative = _ranged(float, lambda v: math.isfinite(v) and v >= 0.0, "a finite number >= 0")
_input_size = _ranged(int, lambda v: v > 0 and v % 32 == 0, "a positive multiple of 32")
# Below 2**63, so that the derived seed ``seed + 1`` is an Rng seed too.
_seed = _ranged(int, lambda v: 0 <= v < 1 << 63, "an integer in [0, 2**63)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firedet",
        description="Efficient fire-detector engine: inference, profiling, "
                    "gradient checks, evaluation, synthetic data, toy training.",
        epilog="exit codes: 0 ok, 2 config error, 3 I/O error, 4 check failure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, weights=False):
        p.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                       help=f"deterministic seed in [0, 2**63) (default {DEFAULT_SEED})")
        if weights:
            p.add_argument("--weights", help="weight archive; omitted = seeded init")

    p = sub.add_parser("infer", help="run detection on PPM images")
    p.add_argument("images", nargs="+", help="input images (binary PPM, P6)")
    p.add_argument("--config", required=True, help="model config JSON")
    p.add_argument("--score-threshold", type=_threshold, default=None,
                   help="override the config score threshold")
    p.add_argument("--out", help="detections JSONL (default stdout)")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for per-image fan-out")
    common(p, weights=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("profile", help="parameter/MAC/size accounting")
    p.add_argument("--config", required=True)
    p.add_argument("--input", type=_input_size, default=None,
                   help="input size, a positive multiple of 32 (default: the config's)")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--variant", choices=VARIANTS, default=None,
                       help="override the attention/downscale variant")
    which.add_argument("--ablation", action="store_true",
                       help="print the four-variant comparison grid")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("gradcheck", help="finite-difference verification")
    p.add_argument("--scope", choices=sorted(checks.SCOPES), default="primitives")
    common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("eval", help="score detections against ground truth")
    p.add_argument("--dets", required=True, help="detections JSONL")
    p.add_argument("--gts", required=True, help="ground-truth JSONL")
    p.add_argument("--conf-threshold", type=_threshold, default=0.25)
    p.add_argument("--iou-threshold", type=_threshold, default=0.5)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate the seeded synthetic set")
    p.add_argument("--n", type=int, default=8, help="number of images")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--image-size", type=int, default=64,
                   help=f"image side in pixels, at least {MIN_IMAGE_SIZE} (default 64)")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-toy", help="full-batch training on synthetic data")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, help="directory from `synth`")
    p.add_argument("--steps", type=int, default=150)
    p.add_argument("--lr", type=_non_negative, default=LR,
                   help="learning rate, finite and >= 0; 0 changes no parameter")
    p.add_argument("--weight-decay", type=_non_negative, default=WEIGHT_DECAY,
                   help="decoupled weight decay, finite and >= 0")
    p.add_argument("--precision", choices=("f32", "f16"), default="f32",
                   help="weight archive precision")
    p.add_argument("--score-threshold", type=_threshold, default=0.001,
                   help="decode threshold for the post-training evaluation")
    p.add_argument("--out", required=True, help="output directory")
    common(p, weights=True)
    p.set_defaults(func=cmd_train_toy)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileFormatError, ArchiveError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except FloatingPointError as exc:  # the weights overflow the fold or the forward
        print(f"error: detection arithmetic failed: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
