"""Evaluation of detections: precision/recall/F1 and average precision.

Matching is greedy per image and class: detections are visited in descending
score order (ties broken by input order); each detection claims the
still-unmatched ground truth with the highest IoU at or above the threshold
(IoU ties go to the lowest ground-truth index).  Average precision uses
101-point interpolation: precision at recall r is the maximum precision
among all operating points whose recall is >= r, sampled at
r = 0.00, 0.01, ..., 1.00, and the AP is their mean.  mAP50-95 averages AP
over IoU thresholds 0.50:0.05:0.95; class scores are averaged over the
classes that appear in the ground truth.

Cost: a matching call computes one detection x ground-truth IoU matrix per
(image, class) group and then does at most one vector scan of it per match,
so a group with G ground truths costs at most G + 1 scans, however many
detections it holds.  AP reads the 101 interpolated precisions off one
reverse running maximum of the precision curve.  Neither changes the order
or the tie rules above, and every IoU and precision has the bits of a
per-detection evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boxes import cxcywh_to_xyxy, iou_matrix


@dataclass(frozen=True)
class DetRecord:
    """A scored detection attached to a named image."""

    image: str
    class_id: int
    score: float
    box: tuple[float, float, float, float]


@dataclass(frozen=True)
class GtRecord:
    """A ground-truth box attached to a named image."""

    image: str
    class_id: int
    box: tuple[float, float, float, float]


@dataclass(frozen=True)
class EvalResult:
    precision: float
    recall: float
    f1: float
    ap_per_threshold: dict[float, float] = field(default_factory=dict)
    map50: float = 0.0
    map75: float = 0.0
    map50_95: float = 0.0
    zero_gt_warning: bool = False


IOU_RANGE = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))


def _match_flags(dets: list[DetRecord], gts: list[GtRecord], iou_t: float) -> np.ndarray:
    """True-positive flag per detection, in descending-score order.

    Ties in score keep input order.  Matching is greedy within each
    (image, class) group.
    """
    flags = np.zeros(len(dets), dtype=bool)
    if not dets or not gts:
        return flags
    order = np.argsort(-np.array([d.score for d in dets], dtype=np.float64), kind="stable")
    det_corners = cxcywh_to_xyxy(np.array([d.box for d in dets], dtype=np.float64))[order]
    gt_corners = cxcywh_to_xyxy(np.array([g.box for g in gts], dtype=np.float64))
    gt_groups: dict[tuple[str, int], list[int]] = {}
    for gi, gt in enumerate(gts):
        gt_groups.setdefault((gt.image, gt.class_id), []).append(gi)
    det_groups: dict[tuple[str, int], list[int]] = {}
    for rank, di in enumerate(order.tolist()):
        key = (dets[di].image, dets[di].class_id)
        if key in gt_groups:
            det_groups.setdefault(key, []).append(rank)
    for key, ranks in det_groups.items():
        ious = iou_matrix(det_corners[ranks], gt_corners[gt_groups[key]])
        # A claimed ground truth's column becomes -1, below every IoU, so the
        # row maximum and argmax range over the unmatched ones only.
        start = 0
        for _ in range(ious.shape[1]):
            hit = ious[start:].max(axis=1) >= iou_t
            if not hit.any():
                break
            row = start + int(hit.argmax())
            ious[:, int(ious[row].argmax())] = -1.0
            flags[ranks[row]] = True
            start = row + 1
    return flags


def pr_f1(dets: list[DetRecord], gts: list[GtRecord], iou_t: float,
          conf_t: float) -> tuple[float, float, float]:
    """Precision, recall, F1 at one confidence cut; 0/0 ratios collapse to 0."""
    kept = [d for d in dets if d.score >= conf_t]
    flags = _match_flags(kept, gts, iou_t)
    tp = int(flags.sum())
    fp = len(kept) - tp
    fn = len(gts) - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


_RECALL_POINTS = np.arange(101) / 100.0


def _ap_from_flags(flags: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP from score-ordered TP flags."""
    if n_gt == 0:
        return 0.0
    if flags.size == 0:
        return 0.0
    tp_cum = np.cumsum(flags)
    fp_cum = np.cumsum(~flags)
    recall = tp_cum / n_gt
    precision = tp_cum / (tp_cum + fp_cum)
    # Recall never falls, so the points with recall >= r are a suffix that
    # starts at the first such index; past the end (r above the final
    # recall) the interpolated precision is 0.
    envelope = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    total = 0.0
    for p in envelope[np.searchsorted(recall, _RECALL_POINTS, side="left")].tolist():
        total += p
    return total / 101.0


def average_precision(dets: list[DetRecord], gts: list[GtRecord], iou_t: float) -> float:
    """Class-averaged 101-point AP at one IoU threshold.

    Classes are those present in the ground truth; detections of absent
    classes are ignored.  Zero ground truths overall gives 0.
    """
    classes = sorted({g.class_id for g in gts})
    if not classes:
        return 0.0
    aps = []
    for cls in classes:
        cls_dets = [d for d in dets if d.class_id == cls]
        cls_gts = [g for g in gts if g.class_id == cls]
        flags = _match_flags(cls_dets, cls_gts, iou_t)
        aps.append(_ap_from_flags(flags, len(cls_gts)))
    return float(np.mean(aps))


def map_range(dets: list[DetRecord], gts: list[GtRecord], conf_t: float = 0.25,
              pr_iou: float = 0.5) -> EvalResult:
    """Full evaluation: P/R/F1 at one operating point plus the AP family."""
    precision, recall, f1 = pr_f1(dets, gts, pr_iou, conf_t)
    ap_per_threshold = {t: average_precision(dets, gts, t) for t in IOU_RANGE}
    return EvalResult(
        precision=precision,
        recall=recall,
        f1=f1,
        ap_per_threshold=ap_per_threshold,
        map50=ap_per_threshold[0.5],
        map75=ap_per_threshold[0.75],
        map50_95=float(np.mean(list(ap_per_threshold.values()))),
        zero_gt_warning=not gts,
    )
