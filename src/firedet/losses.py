"""Training losses: complete-IoU box regression and binary cross-entropy.

The regression term works on center-format normalized boxes packed as
(1, 4, P, 1) tensors (channel axis = coordinate, H axis = box index): it is
IoU penalized by the squared center distance over the enclosing-box diagonal
and by an aspect-ratio consistency term.  The trade-off coefficient of the
aspect term is treated as a constant during differentiation (standard
practice; keeps the loss smooth); a caller that re-evaluates the loss, as a
finite-difference check does, pins it with an ``alpha_cache`` list.

Classification uses the numerically stable form of binary cross-entropy on
raw logits, max(z, 0) - z*t + log(1 + exp(-|z|)), whose gradient is
(sigmoid(z) - t) / count.

Target assignment is deliberately simple: each ground-truth box goes to one
scale by size bucket and to the single cell containing its center; when two
boxes land on the same cell the larger one wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    Tensor,
    atan,
    maximum,
    minimum,
    relu,
    scalar,
    slice4,
    tmean,
    unary,
)
from .tensor import _sigmoid_np  # stable scalar map shared with decode
from .model import STRIDES, ModelConfig, cell_box

MIN_EXTENT = 1e-9  # floor of every box width and height the CIoU terms divide by


def bce(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy of raw logits against targets in [0, 1]."""
    t = np.asarray(targets, dtype=logits.data.dtype)
    if t.shape != logits.shape:
        raise ValueError(f"targets shape {t.shape} != logits shape {logits.shape}")
    if t.size and (t.min() < 0.0 or t.max() > 1.0):
        raise ValueError("targets must lie in [0, 1]")
    z = logits.data
    elem = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    out = elem.mean(keepdims=True).reshape(1, 1, 1, 1)
    return unary(logits, out, lambda g: g.reshape(()) * (_sigmoid_np(z) - t) / z.size)


def _coord(boxes: Tensor, idx: int) -> Tensor:
    return slice4(boxes, c=slice(idx, idx + 1))


def ciou_loss(pred: Tensor, gt: Tensor, alpha_cache: list[np.ndarray] | None = None) -> Tensor:
    """1 - CIoU per box; pred and gt are (N, 4, P, 1) center-format boxes.

    Differentiable in pred; degenerate extents are clamped at
    ``MIN_EXTENT``.  Returns shape (N, 1, P, 1).

    The aspect term's trade-off coefficient alpha = v / ((1 - IoU) + v) is
    held constant during differentiation and computed from the current
    values, in the boxes' dtype.  An empty ``alpha_cache`` list keeps the
    first call's alpha and later calls with that list reuse it, which is what
    a finite-difference check must do to probe the same function the
    backward pass differentiates.
    """
    if pred.shape != gt.shape or pred.shape[1] != 4:
        raise ValueError(f"expected matching (N,4,P,1) boxes, got {pred.shape} and {gt.shape}")
    floor = scalar(MIN_EXTENT)
    px, py = _coord(pred, 0), _coord(pred, 1)
    pw, ph = maximum(_coord(pred, 2), floor), maximum(_coord(pred, 3), floor)
    gx, gy = _coord(gt, 0), _coord(gt, 1)
    gw, gh = maximum(_coord(gt, 2), floor), maximum(_coord(gt, 3), floor)

    px1, px2 = px - pw * 0.5, px + pw * 0.5
    py1, py2 = py - ph * 0.5, py + ph * 0.5
    gx1, gx2 = gx - gw * 0.5, gx + gw * 0.5
    gy1, gy2 = gy - gh * 0.5, gy + gh * 0.5

    inter_w = relu(minimum(px2, gx2) - maximum(px1, gx1))
    inter_h = relu(minimum(py2, gy2) - maximum(py1, gy1))
    inter = inter_w * inter_h
    # Areas come from the same corner differences as the intersection, so
    # identical boxes give union == inter bit-for-bit and CIoU exactly 1.
    area_p = (px2 - px1) * (py2 - py1)
    area_g = (gx2 - gx1) * (gy2 - gy1)
    union = area_p + area_g - inter
    iou = inter / union

    rho2 = (px - gx) * (px - gx) + (py - gy) * (py - gy)
    enc_w = maximum(px2, gx2) - minimum(px1, gx1)
    enc_h = maximum(py2, gy2) - minimum(py1, gy1)
    c2 = enc_w * enc_w + enc_h * enc_h
    distance = rho2 / c2

    dtheta = atan(gw / gh) - atan(pw / ph)
    v = dtheta * dtheta * (4.0 / math.pi ** 2)
    alpha = v.data / ((1.0 - iou.data) + v.data + 1e-12)
    if alpha_cache is not None:
        if not alpha_cache:
            alpha_cache.append(alpha)
        alpha = alpha_cache[0]

    ciou = iou - distance - Tensor(alpha) * v
    return 1.0 - ciou


# -- target assignment -------------------------------------------------------------


@dataclass(frozen=True)
class GroundTruth:
    """One training box: batch position, class, normalized center-format box."""

    image_index: int
    class_id: int
    box: tuple[float, float, float, float]

    @property
    def area(self) -> float:
        return self.box[2] * self.box[3]


# A row of :func:`assign`'s positives: a ground truth on its cell, ``box`` = (cx, cy, w, h).
POSITIVE = np.dtype([("image_index", np.int64), ("scale", np.int64), ("row", np.int64),
                     ("col", np.int64), ("class_id", np.int64), ("box", np.float64, (4,))])


@dataclass
class Targets:
    """Assignment result: per-scale one-hot class maps plus the positives' record array."""

    cls_maps: list[np.ndarray]  # scale -> (B, num_classes, h, w)
    positives: np.recarray


def scale_bucket(box: tuple[float, float, float, float], input_size: int) -> int:
    """Size bucket: pixel extent <= 64 -> stride 8; <= 128 -> 16; else 32."""
    extent = max(box[2], box[3]) * input_size
    if extent <= 64:
        return 0
    if extent <= 128:
        return 1
    return 2


def assign(gts: list[GroundTruth], config: ModelConfig, batch_size: int,
           input_size: int | None = None) -> Targets:
    """Map ground truths to (scale, cell) positives with one-hot class maps.

    The positives are :data:`POSITIVE` rows sorted by (image, scale, row,
    col), at most one per cell, which one :func:`cell_box` gathers.
    """
    size = config.resolve_input_size(input_size)
    grids = [(size // s, size // s) for s in STRIDES]
    chosen: dict[tuple[int, int, int, int], GroundTruth] = {}
    for gt in gts:
        if not 0 <= gt.image_index < batch_size:
            raise ValueError(f"image_index {gt.image_index} outside batch of {batch_size}")
        if not 0 <= gt.class_id < config.num_classes:
            raise ValueError(f"class_id {gt.class_id} outside {config.num_classes} classes")
        # A negative row or column would wrap to a cell on the far side of the grid.
        if not (0.0 <= gt.box[0] <= 1.0 and 0.0 <= gt.box[1] <= 1.0):
            raise ValueError(f"box centre ({gt.box[0]}, {gt.box[1]}) outside [0, 1]")
        s = scale_bucket(gt.box, size)
        gh, gw = grids[s]
        row = min(int(gt.box[1] * gh), gh - 1)
        col = min(int(gt.box[0] * gw), gw - 1)
        key = (gt.image_index, s, row, col)
        held = chosen.get(key)
        if held is None or gt.area > held.area:
            chosen[key] = gt
    rows = [(*cell, gt.class_id, gt.box) for cell, gt in sorted(chosen.items())]
    cls_maps = [np.zeros((batch_size, config.num_classes, gh, gw), dtype=np.float64)
                for gh, gw in grids]
    for b, s, row, col, class_id, _ in rows:
        cls_maps[s][b, class_id, row, col] = 1.0
    return Targets(cls_maps=cls_maps, positives=np.array(rows, dtype=POSITIVE).view(np.recarray))


# -- combined detection loss ----------------------------------------------------------


LAMBDA_BOX = 7.5
LAMBDA_CLS = 0.5


def detection_loss(maps: list[Tensor], gts: list[GroundTruth], config: ModelConfig,
                   alpha_cache: list[np.ndarray] | None = None,
                   ) -> tuple[Tensor, Tensor, Tensor]:
    """(total, box_term, cls_term) over a batch of raw maps.

    total = 7.5 * mean over positive cells of (1 - CIoU) of the decoded box
    against its ground truth, plus 0.5 * mean binary cross-entropy over every
    (cell, class) of every scale.  With zero positives the box term is zero;
    otherwise it is one graph per step, of one size whatever their number.

    The input size is read off the stride-8 map.  ``alpha_cache`` goes to
    :func:`ciou_loss`, which pins the positives' CIoU trade-off coefficients
    in it as one array.
    """
    batch = maps[0].shape[0]
    size = maps[0].shape[2] * STRIDES[0]
    targets = assign(gts, config, batch, size)

    total_cells = 0
    cls_term = scalar(0.0)
    for m, cls_map in zip(maps, targets.cls_maps):
        logits = slice4(m, c=slice(4, 4 + config.num_classes))
        n = logits.size
        cls_term = cls_term + bce(logits, cls_map) * float(n)
        total_cells += n
    cls_term = cls_term * (1.0 / total_cells)

    positives = targets.positives
    if len(positives):
        pred = cell_box(maps, positives)
        gt = Tensor(np.ascontiguousarray(positives.box.T, dtype=pred.dtype)[None, :, :, None])
        box_term = tmean(ciou_loss(pred, gt, alpha_cache))
    else:
        box_term = scalar(0.0)

    total = box_term * LAMBDA_BOX + cls_term * LAMBDA_CLS
    return total, box_term, cls_term
