"""Command-line interface.

Verbs: ``infer``, ``profile``, ``gradcheck``, ``eval``, ``synth``,
``train-toy``.  Every command is deterministic for a fixed seed; no
environment variables are consulted.

Exit codes: 0 success; 2 configuration error (bad flags, bad config file);
3 I/O error (missing/malformed image, weight, or record files); 4 check
failure (gradient check over tolerance, training divergence).
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import checks
from .fileio import (FileFormatError, format_detection, image_to_input, letterbox,
                     load_config, read_detections, read_ground_truth, read_ppm)
from .metrics import DetRecord, map_range
from .model import ConfigError, Model, ModelConfig, build
from .profiler import VARIANTS, ablation_report, profile, variant_config
from .rng import Rng
from .synth import generate_dataset
from .train import TrainingDiverged, detect_batch, evaluate_model, load_dataset, train_toy
from .weights import ArchiveError, load_weights, save_weights

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CHECK = 4

DEFAULT_SEED = 0


def _load_model(args, config: ModelConfig) -> Model:
    model = build(config, Rng(args.seed))
    if getattr(args, "weights", None):
        try:
            data = Path(args.weights).read_bytes()
        except OSError as exc:
            raise FileFormatError(f"cannot read weights {args.weights}: {exc}") from None
        load_weights(data, model)
    return model


def _infer_one(model: Model, config: ModelConfig, path: str,
               score_threshold: float | None) -> list[DetRecord]:
    boxed, info = letterbox(read_ppm(path), config.input_size)
    # Cast here, so that the float64 planes are freed before the forward pass.
    batch = image_to_input(boxed).astype(np.float32)
    return detect_batch(model, config, batch, [Path(path).name],
                        infos=[info], score_threshold=score_threshold)


def cmd_infer(args) -> int:
    config = load_config(args.config)
    model = _load_model(args, config)
    worker = lambda p: _infer_one(model, config, p, args.score_threshold)
    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            per_image = list(pool.map(worker, args.images))
    else:
        per_image = [worker(p) for p in args.images]
    lines = [format_detection(rec) for recs in per_image for rec in recs]
    text = "".join(line + "\n" for line in lines)
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
        print(ablation_report(config, input_size=args.input, seed=args.seed))
        return EXIT_OK
    model = build(config, Rng(args.seed))
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
    if args.n <= 0 or args.image_size < 16:
        print("config error: --n must be positive and --image-size at least 16",
              file=sys.stderr)
        return EXIT_CONFIG
    records = generate_dataset(args.n, args.seed, args.out, image_size=args.image_size)
    print(f"wrote {args.n} images, {len(records)} boxes to {args.out}")
    return EXIT_OK


def cmd_train_toy(args) -> int:
    if args.steps < 1:
        print("config error: --steps must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
    config = load_config(args.config)
    model = _load_model(args, config)
    dataset = load_dataset(args.data, config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = train_toy(model, config, dataset, steps=args.steps, lr=args.lr,
                           weight_decay=args.weight_decay,
                           log=lambda step, v: print(f"step {step:4d}  loss {v:.6f}"))
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK
    (out_dir / "weights.bin").write_bytes(save_weights(model, precision=args.precision))
    curve = "\n".join(json.dumps({"step": i + 1, "loss": round(v, 6)})
                      for i, v in enumerate(result.losses))
    (out_dir / "loss_curve.jsonl").write_text(curve + "\n", encoding="utf-8")
    ev = evaluate_model(model, config, dataset, score_threshold=args.score_threshold)
    print(f"final loss {result.losses[-1]:.6f} (step 1: {result.losses[0]:.6f})")
    print(f"train-set mAP50={ev.map50:.4f} mAP75={ev.map75:.4f} "
          f"mAP50-95={ev.map50_95:.4f}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firedet",
        description="Efficient fire-detector engine: inference, profiling, "
                    "gradient checks, evaluation, synthetic data, toy training.",
        epilog="exit codes: 0 ok, 2 config error, 3 I/O error, 4 check failure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, weights=False):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"deterministic seed (default {DEFAULT_SEED})")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for per-image fan-out")
        if weights:
            p.add_argument("--weights", help="weight archive; omitted = seeded init")

    p = sub.add_parser("infer", help="run detection on PPM images")
    p.add_argument("images", nargs="+", help="input images (binary PPM, P6)")
    p.add_argument("--config", required=True, help="model config JSON")
    p.add_argument("--score-threshold", type=float, default=None,
                   help="override the config score threshold")
    p.add_argument("--out", help="detections JSONL (default stdout)")
    common(p, weights=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("profile", help="parameter/MAC/size accounting")
    p.add_argument("--config", required=True)
    p.add_argument("--variant", choices=VARIANTS, default=None,
                   help="override the attention/downscale variant")
    p.add_argument("--input", type=int, default=None,
                   help="profile at this input size (default: config input_size)")
    p.add_argument("--ablation", action="store_true",
                   help="print the four-variant comparison grid")
    common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("gradcheck", help="finite-difference verification")
    p.add_argument("--scope", choices=sorted(checks.SCOPES), default="primitives")
    common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("eval", help="score detections against ground truth")
    p.add_argument("--dets", required=True, help="detections JSONL")
    p.add_argument("--gts", required=True, help="ground-truth JSONL")
    p.add_argument("--conf-threshold", type=float, default=0.25)
    p.add_argument("--iou-threshold", type=float, default=0.5)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate the seeded synthetic set")
    p.add_argument("--n", type=int, default=8, help="number of images")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--image-size", type=int, default=64)
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-toy", help="full-batch training on synthetic data")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, help="directory from `synth`")
    p.add_argument("--steps", type=int, default=150)
    p.add_argument("--lr", type=float, default=0.002)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--precision", choices=("f32", "f16"), default="f32",
                   help="weight archive precision")
    p.add_argument("--score-threshold", type=float, default=0.001,
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


if __name__ == "__main__":
    sys.exit(main())
