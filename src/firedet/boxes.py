"""Plain-array box geometry shared by decoding, suppression, and metrics.

Boxes travel as (cx, cy, w, h) center format in normalized [0, 1] image
coordinates; the helpers here convert to corner format and compute
intersection-over-union without touching the autodiff graph.
"""

from __future__ import annotations

import numpy as np


def cxcywh_to_xyxy(boxes: np.ndarray) -> np.ndarray:
    """(..., 4) center-format boxes to corner format."""
    b = np.asarray(boxes, dtype=np.float64)
    half_w = b[..., 2] / 2.0
    half_h = b[..., 3] / 2.0
    return np.stack(
        [b[..., 0] - half_w, b[..., 1] - half_h, b[..., 0] + half_w, b[..., 1] + half_h],
        axis=-1,
    )


def iou_xyxy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise IoU of corner-format boxes with matching leading shape."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    iw = np.maximum(0.0, np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0]))
    ih = np.maximum(0.0, np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1]))
    inter = iw * ih
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    return np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU: a is (n, 4), b is (m, 4), both corner format; result (n, m)."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    return iou_xyxy(a[:, None, :], b[None, :, :])

