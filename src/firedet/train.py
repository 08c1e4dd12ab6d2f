"""Toy-scale training: decoupled-weight-decay Adam over a full-batch loop.

The optimizer follows the standard Adam moment recursion (β1 = 0.9,
β2 = 0.999, bias-corrected) with weight decay applied directly to the
parameters rather than folded into the gradient, and the whole update —
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
from .nn import Module
from .tensor import Parameter, Tensor, from_array, no_grad


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the 1-based step number."""

    def __init__(self, step: int):
        super().__init__(f"loss became non-finite at step {step}")
        self.step = step


class AdamW:
    def __init__(self, params: list[Parameter], lr: float = 0.002,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= (self.lr * (update + self.weight_decay * p.data)).astype(p.data.dtype)


@dataclass(frozen=True)
class ToyDataset:
    """The full synthetic set, stacked into one batch."""

    batch: np.ndarray           # (N, 3, S, S) in [0, 1]
    gts: list[GroundTruth]      # image_index into the batch, letterbox space
    gt_records: list[GtRecord]  # original file-keyed records, source space
    image_names: list[str]
    infos: list[LetterboxInfo]


def load_dataset(data_dir: str | Path, config: ModelConfig) -> ToyDataset:
    """Read every PPM under ``data_dir`` plus ``gts.jsonl``; letterbox to the
    config input size when shapes differ."""
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
              steps: int, lr: float = 0.002, weight_decay: float = 0.0,
              log=None) -> TrainResult:
    """Full-batch training loop.  Raises TrainingDiverged on non-finite loss.

    Runs the network in training mode (batch statistics, running-stat
    updates); the saved weights therefore carry converged running statistics
    for inference."""
    opt = AdamW(list(model.parameters()), lr=lr, weight_decay=weight_decay)
    batch = from_array(np.asarray(dataset.batch, dtype=np.float32))
    losses, box_losses, cls_losses = [], [], []
    for step in range(1, steps + 1):
        opt.zero_grad()
        maps = model(batch, training=True)
        total, box_term, cls_term = detection_loss(maps, dataset.gts, config)
        value = total.item()
        if not np.isfinite(value):
            raise TrainingDiverged(step)
        total.backward()
        opt.step()
        losses.append(value)
        box_losses.append(box_term.item())
        cls_losses.append(cls_term.item())
        if log is not None:
            log(step, value)
    return TrainResult(losses, box_losses, cls_losses)


def detect_batch(model: Model, config: ModelConfig, batch: np.ndarray,
                 image_names: list[str],
                 infos: list[LetterboxInfo] | None = None,
                 score_threshold: float | None = None) -> list[DetRecord]:
    """Eval-mode forward + decode + per-image NMS over a stacked batch.

    The one inference path (``firedet infer`` too).  When ``infos`` is given,
    boxes are mapped back into each source image's normalized coordinates, and
    those lying wholly in the letterbox padding (zero width or height) dropped."""
    with no_grad():
        maps = model(from_array(np.asarray(batch, dtype=np.float32)))
    records = []
    for bi, name in enumerate(image_names):
        dets = nms(decode(maps, config, score_threshold=score_threshold,
                          batch_index=bi),
                   config.nms_iou_threshold)
        for d in dets:
            box = d.box if infos is None else unletterbox_box(d.box, infos[bi])
            if box[2] > 0.0 and box[3] > 0.0:
                records.append(DetRecord(name, d.class_id, d.score, box))
    return records


def evaluate_model(model: Model, config: ModelConfig, dataset: ToyDataset,
                   score_threshold: float = 0.001) -> EvalResult:
    dets = detect_batch(model, config, dataset.batch, dataset.image_names,
                        infos=dataset.infos, score_threshold=score_threshold)
    return map_range(dets, dataset.gt_records, conf_t=score_threshold)
