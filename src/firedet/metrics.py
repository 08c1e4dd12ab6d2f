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

Cost: an evaluation sorts the detections once, groups them by (image,
class) once and computes one detection x ground-truth IoU matrix per group.
Each IoU threshold then scans its own copy of that matrix, at most one
vector scan per match, so a group with G ground truths costs at most G + 1
scans per threshold, however many detections it holds.  ``map_range`` gets
P/R/F1 and all ten APs from that one pass.  AP reads the 101 interpolated
precisions off one reverse running maximum of the precision curve.  None of
this changes the order or the tie rules above, and every IoU and precision
has the bits of a per-detection evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    ap_per_threshold: dict[float, float]
    map50: float
    map75: float
    map50_95: float
    zero_gt_warning: bool


IOU_RANGE = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))


def _evaluate(dets: list[DetRecord], gts: list[GtRecord], conf_t: float, pr_iou: float,
              ap_ious: tuple[float, ...]) -> tuple[tuple[float, float, float], dict[float, float]]:
    """P/R/F1 at (``pr_iou``, ``conf_t``) and {t: AP at t} over ``ap_ious``, from one match.

    Each (image, class) group's IoU matrix is built once and copied for each
    threshold's greedy scan.  A detection's flag depends only on higher-scored
    ones, and the detections kept at ``conf_t`` are a prefix of the score
    order, so their flags are those of matching them alone.
    """
    order = np.argsort(-np.array([d.score for d in dets], dtype=np.float64), kind="stable")
    ranked = order.tolist()
    flags = np.zeros((1 + len(ap_ious), len(dets)), dtype=bool)  # row 0 is pr_iou's
    gt_groups: dict[tuple[str, int], list[int]] = {}
    for gi, gt in enumerate(gts):
        gt_groups.setdefault((gt.image, gt.class_id), []).append(gi)
    det_groups: dict[tuple[str, int], list[int]] = {}
    for rank, di in enumerate(ranked):
        key = (dets[di].image, dets[di].class_id)
        if key in gt_groups:
            det_groups.setdefault(key, []).append(rank)
    for key, ranks in det_groups.items():
        group_ious = iou_matrix(cxcywh_to_xyxy([dets[ranked[r]].box for r in ranks]),
                                cxcywh_to_xyxy([gts[gi].box for gi in gt_groups[key]]))
        for t, iou_t in enumerate((pr_iou, *ap_ious)):
            # A claimed ground truth's column becomes -1, below every IoU, so
            # the row maximum and argmax range over the unmatched ones only.
            ious = group_ious.copy()
            start = 0
            for _ in range(ious.shape[1]):
                hit = ious[start:].max(axis=1) >= iou_t
                if not hit.any():
                    break
                row = start + int(hit.argmax())
                ious[:, int(ious[row].argmax())] = -1.0
                flags[t, ranks[row]] = True
                start = row + 1
    kept = sum(d.score >= conf_t for d in dets)
    tp = int(flags[0, :kept].sum())
    fp = kept - tp
    fn = len(gts) - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    classes = np.array([d.class_id for d in dets], dtype=np.int64)[order]
    gt_classes = [g.class_id for g in gts]
    per_class = [(classes == c, gt_classes.count(c)) for c in sorted(set(gt_classes))]
    aps = {t: float(np.mean([_ap_from_flags(row[mask], n) for mask, n in per_class]))
           if per_class else 0.0 for t, row in zip(ap_ious, flags[1:])}
    return (precision, recall, f1), aps


def pr_f1(dets: list[DetRecord], gts: list[GtRecord], iou_t: float,
          conf_t: float) -> tuple[float, float, float]:
    """Precision, recall, F1 at one confidence cut; 0/0 ratios collapse to 0."""
    return _evaluate(dets, gts, conf_t, iou_t, ())[0]


_RECALL_POINTS = np.arange(101) / 100.0


def _ap_from_flags(flags: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP from score-ordered TP flags; ``n_gt`` > 0."""
    tp_cum = np.cumsum(flags)
    fp_cum = np.cumsum(~flags)
    recall = tp_cum / n_gt
    precision = tp_cum / (tp_cum + fp_cum)
    # Recall never falls, so the points with recall >= r are a suffix that
    # starts at the first such index; past the end (r above the final
    # recall, or no detections) the interpolated precision is 0.
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
    return _evaluate(dets, gts, 0.0, iou_t, (iou_t,))[1][iou_t]


def map_range(dets: list[DetRecord], gts: list[GtRecord], conf_t: float = 0.25,
              pr_iou: float = 0.5) -> EvalResult:
    """Full evaluation: P/R/F1 at one operating point plus the AP family."""
    (precision, recall, f1), ap_per_threshold = _evaluate(dets, gts, conf_t, pr_iou,
                                                          IOU_RANGE)
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
