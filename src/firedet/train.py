"""Toy-scale training: decoupled-weight-decay Adam over a full-batch loop.

The optimizer follows the standard Adam moment recursion (β1 = 0.9,
β2 = 0.999, ε = 1e-8, bias-corrected) with weight decay applied directly to
the parameters rather than folded into the gradient, and the whole update —
decay included — is scaled by the learning rate, so lr = 0 leaves the
parameters bit-identical.  The training set is consumed as one batch per
step, which removes data-order nondeterminism.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fileio import (FileFormatError, LetterboxInfo, image_to_input, letterbox,
                     letterbox_box, read_ground_truth, read_ppm, unletterbox_box)
from .losses import GroundTruth, detection_loss
from .metrics import DetRecord, EvalResult, GtRecord, map_range
from .model import Model, ModelConfig, decode, nms
from .nn import train_mode
from .tensor import Parameter, Tensor, from_array, no_grad


class TrainingDiverged(RuntimeError):
    """A step's loss or arithmetic became non-finite; carries the 1-based step number."""

    def __init__(self, step: int):
        super().__init__(f"loss became non-finite at step {step}")
        self.step = step


BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
LR = 0.002  # default learning rate of train_toy and the train-toy flag
WEIGHT_DECAY = 0.0  # default decoupled weight decay, likewise


class AdamW:
    def __init__(self, params: list[Parameter], lr: float, weight_decay: float):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            # In place through one scratch array, with the unfused form's bits:
            # p -= lr * ((m/bc1) / (sqrt(v/bc2) + eps) + weight_decay * p).
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            tmp = np.multiply(g, 1.0 - BETA1)
            m *= BETA1
            m += tmp
            v *= BETA2
            v += np.multiply(np.multiply(g, 1.0 - BETA2, out=tmp), g, out=tmp)
            update = m / bc1
            update /= np.add(np.sqrt(np.divide(v, bc2, out=tmp), out=tmp), ADAM_EPS, out=tmp)
            if self.weight_decay:  # 0 * p is ±0 for finite p; skipping it keeps the bits
                update += np.multiply(p.data, self.weight_decay, out=tmp)
            update *= self.lr
            p.data -= update


@dataclass(frozen=True)
class ToyDataset:
    """The full synthetic set, stacked into one batch."""

    batch: np.ndarray           # (N, 3, S, S) float32 in [0, 1], from image_to_input
    gts: list[GroundTruth]      # image_index into the batch, letterbox space
    gt_records: list[GtRecord]  # original file-keyed records, source space
    image_names: list[str]
    infos: list[LetterboxInfo]


def load_dataset(data_dir: str | Path, config: ModelConfig) -> ToyDataset:
    """Read every PPM under ``data_dir`` plus ``gts.jsonl``, whose class ids must
    be the config's; letterbox to the config input size when shapes differ."""
    data_dir = Path(data_dir)
    paths = sorted(data_dir.glob("*.ppm"))
    if not paths:
        raise FileFormatError(f"no .ppm images under {data_dir}")
    gt_path = data_dir / "gts.jsonl"
    if not gt_path.exists():
        raise FileFormatError(f"missing ground-truth file {gt_path}")
    gt_records = read_ground_truth(gt_path)
    index = {p.name: i for i, p in enumerate(paths)}
    planes = []
    infos = []
    for p in paths:
        img = read_ppm(p)
        boxed, info = letterbox(img, config.input_size)
        planes.append(image_to_input(boxed)[0])
        infos.append(info)
    gts = []
    for rec in gt_records:
        if rec.image not in index:
            raise FileFormatError(f"ground truth references unknown image {rec.image!r}")
        if rec.class_id >= config.num_classes:
            raise FileFormatError(f"{gt_path}: class_id {rec.class_id} outside {config.num_classes} classes")
        i = index[rec.image]
        gts.append(GroundTruth(i, rec.class_id, letterbox_box(rec.box, infos[i])))
    return ToyDataset(np.stack(planes), gts, gt_records,
                      [p.name for p in paths], infos)


@dataclass(frozen=True)
class TrainResult:
    losses: list[float]
    box_losses: list[float]
    cls_losses: list[float]


def train_toy(model: Model, config: ModelConfig, dataset: ToyDataset,
              steps: int, lr: float = LR, weight_decay: float = WEIGHT_DECAY,
              log=None) -> TrainResult:
    """Full-batch training loop.

    Each step's forward pass runs in :func:`firedet.nn.train_mode` (batch
    statistics, running-stat updates); the saved weights therefore carry
    converged running statistics for inference.  A step whose loss is
    non-finite, or whose arithmetic overflows, divides by zero or makes an
    invalid value, raises :class:`TrainingDiverged`."""
    opt = AdamW(list(model.parameters()), lr=lr, weight_decay=weight_decay)
    batch = from_array(dataset.batch)
    losses, box_losses, cls_losses = [], [], []
    for step in range(1, steps + 1):
        opt.zero_grad()
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                with train_mode():
                    maps = model(batch)
                total, box_term, cls_term = detection_loss(maps, dataset.gts, config)
                value = total.item()
                if not np.isfinite(value):
                    raise FloatingPointError
                total.backward()
                opt.step()
        except FloatingPointError:
            raise TrainingDiverged(step) from None
        losses.append(value)
        box_losses.append(box_term.item())
        cls_losses.append(cls_term.item())
        if log is not None:
            log(step, value)
    return TrainResult(losses, box_losses, cls_losses)


def detect_batch(model: Model, config: ModelConfig, batch: np.ndarray,
                 image_names: list[str], infos: list[LetterboxInfo],
                 score_threshold: float | None) -> list[DetRecord]:
    """Eval-mode forward + decode + per-image NMS over a stacked batch.

    The one inference path: ``firedet infer`` runs it with BatchNorm folded into the
    convs (:func:`firedet.blocks.fold_batchnorm`), ``train-toy``'s evaluation unfolded.
    Each image's kept boxes are mapped back into its source's normalized coordinates
    through ``infos`` in one array pass, and those lying wholly in the letterbox
    padding (zero width or height) dropped; only the records left are made in Python.
    Arithmetic that overflows, divides by zero or makes an invalid value
    raises ``FloatingPointError`` instead of yielding no detections."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        with no_grad():
            maps = model(from_array(batch))
        records = []
        for bi, name in enumerate(image_names):
            dets = nms(decode(maps, config, score_threshold=score_threshold,
                              batch_index=bi),
                       config.nms_iou_threshold)
            boxes = unletterbox_box(dets.box, infos[bi])
            shown = (boxes[:, 2] > 0.0) & (boxes[:, 3] > 0.0)
            records += [DetRecord(name, c, s, tuple(b)) for c, s, b in zip(
                dets.class_id[shown].tolist(), dets.score[shown].tolist(), boxes[shown].tolist())]
    return records


def evaluate_model(model: Model, config: ModelConfig, dataset: ToyDataset,
                   score_threshold: float) -> EvalResult:
    dets = detect_batch(model, config, dataset.batch, dataset.image_names,
                        infos=dataset.infos, score_threshold=score_threshold)
    return map_range(dets, dataset.gt_records, conf_t=score_threshold)
