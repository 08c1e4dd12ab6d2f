"""Workload definitions and seeded input generation.

Every input a workload needs is written to files before anything is timed:
synthetic frames and ground truth with ``synth.generate_dataset``, weight
archives with ``model.build`` plus ``weights.save_weights``.  The program
under test only ever receives these files.

Each workload has two input sets:

- ``canary``: made from the fixed ``CANARY_SEED``.  Its outputs are compared
  with ``reference.json``, recorded once from the commit that introduced the
  benchmark, so a later change that computes something different fails.
- ``seeded``: made from ``--seed``.  Its outputs are checked for invariants
  (ranges, thresholds, suppression, determinism), since no reference can
  exist for an arbitrary seed.

The seed changes values, not the amount of work: every frame has
``FRAME_BOXES`` ground-truth boxes and every toy dataset ``TOY_POSITIVES``
assigned positives, the counts of the canary inputs.  Eval time grows with
the boxes of a frame (1.2 s with one box, 1.6 s with four at 320 px) and
loss and backward time with the positives: with free counts six seeds timed
in turn in one process took 151-171 ms per train step.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

CANARY_SEED = 7001

# One BLAS thread for every process that computes: on a 2-vCPU virtual
# machine on a shared host, two BLAS threads made the median 640 forward vary
# by 23% between five runs; with one thread the spread was 2-11%.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

FULL_CONFIG = "configs/full.json"
# The full variant at 256 px (identical weights; only input_size differs).
# At 640 px a dense frame's NMS alone took 22-32 s on a 2-vCPU Xeon VM, so a
# run could time one frame and ten runs spread by 15-23%.  At 256 px the
# 1,344-candidate NMS still dominates the frame and a run times about
# fourteen frames, against eight at 320 px, where within-run noise moved the
# median frame by 12% between runs.
DENSE_CONFIG = "perfbench/configs/full-256.json"
TOY_CONFIG = "configs/toy.json"

# detect-640 keeps this many candidates on every frame: each frame's
# threshold is placed halfway between its KEEP_TOP-th and next score, so
# every seed gives the same amount of post-processing work.
KEEP_TOP = 5
DENSE_THRESHOLD = 0.001
FRAME_PX = 480
FRAME_POOL = 4
TOY_IMAGES = 8
TOY_PX = 64
TOY_STEPS_PER_ROUND = 10
TOY_LR = 0.002
TOY_EVAL_THRESHOLD = 0.001
FRAME_BOXES = 4
TOY_POSITIVES = 19
# Inputs with the required count are drawn from the seeds seed,
# seed + SUBSEED_STEP, ...; about one in four frames and one in eight toy
# datasets qualify.
SUBSEED_STEP = 1_000_003
SUBSEED_TRIES = 400

WORKLOADS = {
    "detect-640": {"config": FULL_CONFIG, "kind": "frames"},
    "eval-256-dense": {"config": DENSE_CONFIG, "kind": "frames"},
    "train-toy-64": {"config": TOY_CONFIG, "kind": "train"},
}


def firedet_seed(seed: int) -> int:
    """``firedet.rng.Rng`` takes non-negative 64-bit seeds."""
    return seed % (1 << 63)


def _write_weights(config, seed: int, path: Path) -> None:
    from firedet.model import build
    from firedet.rng import Rng
    from firedet.weights import save_weights

    path.write_bytes(save_weights(build(config, Rng(firedet_seed(seed)))))


def _subseeds(seed: int):
    for k in range(SUBSEED_TRIES):
        yield firedet_seed(seed + k * SUBSEED_STEP)
    raise RuntimeError(f"no input with the required box count from seed {seed}")


def _write_frames(seed: int, out: Path, n: int) -> list[str]:
    """``n`` synthetic frames of ``FRAME_BOXES`` boxes each, plus one
    ground-truth file per frame.  Each frame is the single image of
    ``generate_dataset`` on the next sub-seed whose image has that many boxes."""
    from firedet.fileio import write_ground_truth
    from firedet.synth import generate_dataset

    out.mkdir(parents=True)
    names: list[str] = []
    for s in _subseeds(seed):
        trial = out / "trial"
        gts = generate_dataset(1, s, trial, image_size=FRAME_PX)
        if len(gts) == FRAME_BOXES:
            name = f"{len(names):03d}.ppm"
            (trial / gts[0].image).rename(out / name)
            write_ground_truth(out / f"{Path(name).stem}.gts.jsonl",
                               [replace(g, image=name) for g in gts])
            names.append(name)
        shutil.rmtree(trial)
        if len(names) == n:
            return names


def _write_toy_dataset(config, seed: int, out: Path) -> None:
    """``TOY_IMAGES`` images whose boxes give ``TOY_POSITIVES`` positives."""
    from firedet.losses import assign
    from firedet.synth import generate_dataset
    from firedet.train import load_dataset

    for s in _subseeds(seed):
        generate_dataset(TOY_IMAGES, s, out, image_size=TOY_PX)
        if len(assign(load_dataset(out, config).gts, config, TOY_IMAGES).positives) \
                == TOY_POSITIVES:
            return
        shutil.rmtree(out)


def top_tail_threshold(config, weights: Path, frame: Path, keep: int) -> float:
    """Score threshold that keeps ``keep`` candidates of ``frame``.

    Seeded-init scores all sit within a few thousandths of 0.5, and their
    spread depends on the weights, so no fixed threshold keeps a handful on
    every seed.  The threshold is halfway between the keep-th and the next
    highest score, which leaves the widest margin for float reassociation.
    """
    import numpy as np
    from firedet.fileio import image_to_input, letterbox, read_ppm
    from firedet.model import build, decode
    from firedet.rng import Rng
    from firedet.tensor import from_array, no_grad
    from firedet.weights import load_weights

    model = build(config, Rng(0))
    load_weights(weights.read_bytes(), model)
    boxed, _ = letterbox(read_ppm(frame), config.input_size)
    with no_grad():
        maps = model(from_array(np.asarray(image_to_input(boxed), dtype=np.float32)))
    scores = sorted((d.score for d in decode(maps, config, score_threshold=0.0)),
                    reverse=True)
    return (scores[keep - 1] + scores[keep]) / 2.0


def prepare(workload: str, seed: int, work: Path, reference: dict | None) -> dict:
    """Write every input of one run under ``work``; return the manifest.

    ``reference`` supplies the canary threshold of detect-640; when it is
    None (recording a new reference) the threshold is derived like the
    seeded one.
    """
    from firedet.fileio import load_config

    spec = WORKLOADS[workload]
    config_path = ROOT / spec["config"]
    config = load_config(config_path)
    if work.exists():
        shutil.rmtree(work)
    manifest = {"workload": workload, "seed": seed, "canary_seed": CANARY_SEED,
                "config": str(config_path)}
    for role, s in (("canary", CANARY_SEED), ("seeded", seed)):
        d = work / role
        d.mkdir(parents=True)
        weights = d / "weights.bin"
        _write_weights(config, s, weights)
        entry = {"weights": str(weights)}
        if spec["kind"] == "train":
            _write_toy_dataset(config, s, d / "data")
            entry["data"] = str(d / "data")
        else:
            n = 1 if role == "canary" else FRAME_POOL
            names = _write_frames(s, d / "frames", n)
            entry["frames"] = [str(d / "frames" / name) for name in names]
            entry["gts"] = [str(d / "frames" / f"{Path(name).stem}.gts.jsonl")
                            for name in names]
            if workload == "eval-256-dense":
                entry["thresholds"] = [DENSE_THRESHOLD] * n
            elif role == "canary" and reference is not None:
                entry["thresholds"] = [reference[workload]["threshold"]]
            else:
                entry["thresholds"] = [top_tail_threshold(config, weights, Path(f), KEEP_TOP)
                                       for f in entry["frames"]]
        manifest[role] = entry
    (work / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest
