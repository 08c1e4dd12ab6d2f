"""Output checks.  Each returns a list of problems; an empty list is a pass.

Tolerances: the CLI prints scores and boxes rounded to 6 decimals and eval
figures to 4, and a kernel rewrite may reassociate float32 sums, which moves
a 640 forward's scores by about 1e-8 and its boxes by under 1e-6.  Each
detection value is compared to the reference within ``DET_ATOL`` (three units
of the printed last digit) and column sums within ``DET_ATOL * sqrt(n)``.
Scaling every conv2d output by 1.0005 moves the detect-640 canary's scores
by 5e-6 and their sum by 2.2e-5, so even that fails.  Loss curves are
compared within ``LOSS_RTOL``; the same scaling moves the first loss by
1.4e-4 of its value.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

DET_ATOL = 3e-6
EVAL_ATOL = 1.01e-4
LOSS_RTOL = 1e-4
METRIC_ATOL = 1e-6
ROUNDING = 5e-7          # half a unit of the 6th printed decimal
CORNER_SLACK = 1e-6      # a corner cx - w/2 adds the rounding of cx and of w
IOU_SLACK = 1e-4         # printed-box rounding moves the IoU of small boxes
FINGERPRINT_POINTS = 64

FIELDS = ("score", "cx", "cy", "w", "h")
EVAL_KEYS = ("precision", "recall", "f1", "map50", "map75", "map50_95")
_PRF = re.compile(r"precision=(\S+) recall=(\S+) f1=(\S+) ")
_MAP = re.compile(r"mAP50=(\S+) mAP75=(\S+) mAP50-95=(\S+)")


def fingerprint(records) -> dict:
    """Order-free summary of a detection list: count, column sums and sorted
    samples.  Perturbing every value by at most e moves each sorted sample by
    at most e, so the comparison tolerates reordering of near-equal scores."""
    n = len(records)
    cols = {"score": [r.score for r in records]}
    for j, f in enumerate(FIELDS[1:]):
        cols[f] = [r.box[j] for r in records]
    idx = sorted({int(round(x)) for x in np.linspace(0, n - 1, min(n, FINGERPRINT_POINTS))}) if n else []
    return {"count": n,
            "classes": sorted({r.class_id for r in records}),
            "sum": {f: float(np.sum(v)) for f, v in cols.items()},
            "sorted": {f: [float(np.sort(v)[i]) for i in idx] for f, v in cols.items()}}


def compare_fingerprint(got: dict, ref: dict) -> list[str]:
    if got["count"] != ref["count"] or got["classes"] != ref["classes"]:
        return [f"detections: {got['count']} of classes {got['classes']}, "
                f"reference {ref['count']} of {ref['classes']}"]
    problems = []
    for f in FIELDS:
        if abs(got["sum"][f] - ref["sum"][f]) > DET_ATOL * math.sqrt(ref["count"]):
            problems.append(f"sum of {f}: {got['sum'][f]!r} vs reference {ref['sum'][f]!r}")
        diff = max((abs(a - b) for a, b in zip(got["sorted"][f], ref["sorted"][f])), default=0.0)
        if diff > DET_ATOL:
            problems.append(f"sorted {f} differs from reference by {diff:.3g}")
    return problems


def read_records(path: str):
    from firedet.fileio import FileFormatError, read_detections
    try:
        return read_detections(path), []
    except (FileFormatError, OSError) as exc:
        return None, [f"{path}: {exc}"]


def check_frame(records, image: str, threshold: float, config) -> list[str]:
    """Ranges, threshold and suppression of one frame's detections."""
    problems = []
    for k, r in enumerate(records):
        cx, cy, w, h = r.box
        corners = (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
        if r.image != image:
            problems.append(f"record {k}: image {r.image!r}, expected {image!r}")
        if not 0 <= r.class_id < config.num_classes:
            problems.append(f"record {k}: class {r.class_id} out of range")
        if not threshold - ROUNDING <= r.score <= 1.0:
            problems.append(f"record {k}: score {r.score} outside [{threshold}, 1]")
        if not (all(0.0 <= v <= 1.0 for v in r.box) and w > 0 and h > 0
                and all(-CORNER_SLACK <= v <= 1 + CORNER_SLACK for v in corners)):
            problems.append(f"record {k}: box {r.box} out of range")
        if len(problems) > 5:
            return problems
    return problems + _suppression(records, config.nms_iou_threshold)


def _suppression(records, iou_threshold: float, chunk: int = 256) -> list[str]:
    """No two kept boxes of one image and class overlap at the NMS threshold."""
    from firedet.boxes import cxcywh_to_xyxy, iou_matrix
    groups: dict[tuple, list] = {}
    for r in records:
        groups.setdefault((r.image, r.class_id), []).append(r.box)
    for key, boxes in groups.items():
        xy = cxcywh_to_xyxy(np.asarray(boxes, dtype=np.float64))
        for start in range(0, len(xy), chunk):
            iou = iou_matrix(xy[start:start + chunk], xy)
            rows = np.arange(iou.shape[0])
            iou[rows, rows + start] = 0.0
            if iou.max(initial=0.0) >= iou_threshold + IOU_SLACK:
                return [f"{key}: kept boxes overlap at IoU {iou.max():.4f} "
                        f">= {iou_threshold}"]
    return []


def parse_eval(text: str) -> tuple[dict | None, list[str]]:
    prf, maps = _PRF.search(text), _MAP.search(text)
    if not prf or not maps:
        return None, [f"unparsable eval output {text[:200]!r}"]
    values = dict(zip(EVAL_KEYS, (float(v) for v in prf.groups() + maps.groups())))
    problems = [f"{k}={v} outside [0, 1]" for k, v in values.items() if not 0 <= v <= 1]
    p, r, f1 = values["precision"], values["recall"], values["f1"]
    if abs(f1 - (2 * p * r / (p + r) if p + r else 0.0)) > 3 * EVAL_ATOL:
        problems.append(f"f1={f1} inconsistent with precision={p} recall={r}")
    return values, problems


def compare_values(got: dict, ref: dict, atol: float) -> list[str]:
    return [f"{k}={got[k]!r}, reference {ref[k]!r}" for k in ref
            if abs(got[k] - ref[k]) > atol]


def check_round(data: dict, steps: int) -> list[str]:
    """A training round's loss curve and post-training evaluation."""
    losses = data.get("losses")
    if not losses or len(losses) != steps:
        return [f"loss curve has {0 if not losses else len(losses)} of {steps} steps"]
    problems = [f"non-finite loss at step {i + 1}" for i, v in enumerate(losses)
                if not math.isfinite(v)]
    ev = data.get("eval")
    if ev is None:
        return problems + ["no evaluation result"]
    return problems + [f"{k}={ev[k]} outside [0, 1]" for k in EVAL_KEYS if not 0 <= ev[k] <= 1]


def compare_round(data: dict, ref: dict) -> list[str]:
    problems = []
    for i, (a, b) in enumerate(zip(data["losses"], ref["losses"])):
        if abs(a - b) > LOSS_RTOL * abs(b):
            problems.append(f"loss at step {i + 1}: {a!r}, reference {b!r}")
    return problems + compare_values(data["eval"], ref["eval"], METRIC_ATOL)


def same_bytes(a: str, b: str) -> bool:
    return Path(a).read_bytes() == Path(b).read_bytes()
