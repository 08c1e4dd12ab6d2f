"""Independent reference implementations used as test oracles.

Everything here is written with plain Python loops (or the most literal
numpy transliteration of the definition) so that agreement with the vectorized
library code is meaningful.  Keep these slow and obvious.
"""

from __future__ import annotations

import json
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from firedet.attention import gate_hidden
from firedet.boxes import cxcywh_to_xyxy, iou_xyxy
from firedet.losses import MIN_EXTENT, ciou_loss
from firedet.model import CANDIDATE, STRIDES
from firedet.nn import BN_EPS, BN_MOMENTUM, concat_channels
from firedet.tensor import Tensor, scalar, slice4, softplus, tmean
from firedet.train import ADAM_EPS, BETA1, BETA2


def naive_conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None,
                 stride: int = 1, padding: int = 0, dilation: int = 1,
                 groups: int = 1) -> np.ndarray:
    n, cin, h, ww = x.shape
    cout, cin_g, k, _ = w.shape
    assert cin % groups == 0 and cout % groups == 0 and cin_g == cin // groups
    xp = np.zeros((n, cin, h + 2 * padding, ww + 2 * padding), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + ww] = x
    hp, wp = xp.shape[2], xp.shape[3]
    span = dilation * (k - 1) + 1
    ho = (hp - span) // stride + 1
    wo = (wp - span) // stride + 1
    out = np.zeros((n, cout, ho, wo), dtype=x.dtype)
    cpg_out = cout // groups
    for ni in range(n):
        for oc in range(cout):
            g = oc // cpg_out
            for oi in range(ho):
                for oj in range(wo):
                    acc = 0.0
                    for ic in range(cin_g):
                        for ki in range(k):
                            for kj in range(k):
                                acc += (xp[ni, g * cin_g + ic,
                                           oi * stride + ki * dilation,
                                           oj * stride + kj * dilation]
                                        * w[oc, ic, ki, kj])
                    out[ni, oc, oi, oj] = acc
    if b is not None:
        out = out + b.reshape(1, cout, 1, 1)
    return out


def naive_pool2d(x: np.ndarray, kind: str, kernel: int = 2, stride: int = 2,
                 padding: int = 0) -> np.ndarray:
    n, c, h, w = x.shape
    fill = -np.inf if kind == "max" else 0.0
    xp = np.full((n, c, h + 2 * padding, w + 2 * padding), fill, dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    ho = (xp.shape[2] - kernel) // stride + 1
    wo = (xp.shape[3] - kernel) // stride + 1
    out = np.zeros((n, c, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for oi in range(ho):
                for oj in range(wo):
                    win = xp[ni, ci, oi * stride:oi * stride + kernel,
                             oj * stride:oj * stride + kernel]
                    if kind == "max":
                        out[ni, ci, oi, oj] = win.max()
                    else:
                        out[ni, ci, oi, oj] = win.sum() / (kernel * kernel)
    return out


# ---------------------------------------------------------------------------
# Bit-level references: conv2d, pool2d and the stable sigmoid in their most
# direct vectorized forms (einsum, flattened-window argmax, both-branch
# where), AdamW's unfused step, and SplitMix64 in Python integers.  Training
# is sensitive to the last bit (Adam amplifies it), so the library must equal
# these byte for byte.  The conv weight gradient alone sums in another order
# than its einsum form, and is held to a rounding-error bound instead.

def grouped_windows(x: np.ndarray, k: int, stride: int, padding: int, dilation: int,
                    groups: int) -> np.ndarray:
    """The (N, G, C/G, Ho, Wo, k, k) windows of the zero-padded ``x`` a conv reads."""
    n, c, h, ww = x.shape
    s, p, d = stride, padding, dilation
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    eff = d * (k - 1) + 1
    ho = (h + 2 * p - eff) // s + 1
    wo = (ww + 2 * p - eff) // s + 1
    win = sliding_window_view(xp, (eff, eff), axis=(2, 3))[:, :, ::s, ::s, ::d, ::d]
    return win[:, :, :ho, :wo].reshape(n, groups, c // groups, ho, wo, k, k)


def einsum_conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None,
                  stride: int = 1, padding: int = 0, dilation: int = 1,
                  groups: int = 1) -> np.ndarray:
    """Strided window view contracted with ``einsum``; b has shape (1, O, 1, 1)."""
    cout, cig, k, _ = w.shape
    wing = grouped_windows(x, k, stride, padding, dilation, groups)
    wg = w.reshape(groups, cout // groups, cig, k, k)
    out = np.einsum("ngihwkl,goikl->ngohw", wing, wg, optimize=True)
    out = out.reshape(x.shape[0], cout, *out.shape[3:])
    return out + b if b is not None else out


def einsum_conv_weight_grad(x: np.ndarray, w: np.ndarray, grad: np.ndarray, stride: int,
                            padding: int, dilation: int, groups: int) -> np.ndarray:
    """Weight gradient of conv2d as it was written before the GEMM backward:
    the window view contracted with the output gradient by ``einsum``."""
    cout, _, k, _ = w.shape
    n, _, ho, wo = grad.shape
    wing = grouped_windows(x, k, stride, padding, dilation, groups)
    gg = grad.reshape(n, groups, cout // groups, ho, wo)
    return np.einsum("ngihwkl,ngohw->goikl", wing, gg, optimize=True).reshape(w.shape)


def argmax_pool2d(x: np.ndarray, kind: str, kernel: int = 2, stride: int = 2,
                  padding: int = 0) -> tuple[np.ndarray, np.ndarray | None]:
    """Pool by flattening each window; for max also each window's argmax."""
    n, c, h, w = x.shape
    k, s, p = kernel, stride, padding
    fill = -np.inf if kind == "max" else 0.0
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=fill) if p else x
    ho = (h + 2 * p - k) // s + 1
    wo = (w + 2 * p - k) // s + 1
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s][:, :, :ho, :wo]
    flat = win.reshape(n, c, ho, wo, k * k)
    if kind == "avg":
        return flat.mean(axis=-1), None
    idx = flat.argmax(axis=-1)
    return np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0], idx


def argmax_max_pool_grad(x: np.ndarray, grad: np.ndarray, kernel: int,
                         stride: int, padding: int) -> np.ndarray:
    """Input gradient of max pooling: each window's grad to its argmax."""
    n, c, h, w = x.shape
    k, s, p = kernel, stride, padding
    _, idx = argmax_pool2d(x, "max", k, s, p)
    ho, wo = idx.shape[2:]
    gxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    ni, ci, hi, wi = np.indices((n, c, ho, wo))
    np.add.at(gxp, (ni, ci, hi * s + idx // k, wi * s + idx % k), grad)
    return gxp[:, :, p: p + h, p: p + w]


def scatter_conv_input_grad(x: np.ndarray, w: np.ndarray, grad: np.ndarray, stride: int,
                            padding: int, dilation: int, groups: int) -> np.ndarray:
    """Input gradient of conv2d as it was written before ``nn._col2im``: the
    einsum's per-tap contributions added into the padded gradient one kernel
    offset at a time, row-major, then the padding cut off."""
    n, c, h, ww = x.shape
    cout, cig, k, _ = w.shape
    g, s, p, d = groups, stride, padding, dilation
    ho, wo = grad.shape[2:]
    gg = grad.reshape(n, g, cout // g, ho, wo)
    wg = w.reshape(g, cout // g, cig, k, k)
    contrib = np.einsum("ngohw,goikl->ngihwkl", gg, wg, optimize=True).reshape(n, c, ho, wo, k, k)
    gxp = np.zeros((n, c, h + 2 * p, ww + 2 * p), dtype=x.dtype)
    for ki in range(k):
        for kj in range(k):
            gxp[:, :, ki * d: ki * d + s * ho: s, kj * d: kj * d + s * wo: s] += contrib[..., ki, kj]
    return gxp[:, :, p: p + h, p: p + ww]


def slice_avg_pool_grad(x: np.ndarray, grad: np.ndarray, kernel: int, stride: int,
                        padding: int) -> np.ndarray:
    """Input gradient of average pooling as it was written before
    ``nn._col2im``: ``grad / k**2`` added into each window element's strided
    slice of the padded gradient, in row-major window order."""
    n, c, h, w = x.shape
    k, s, p = kernel, stride, padding
    ho, wo = grad.shape[2:]
    share = grad / (k * k)
    gxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    for j in range(k * k):
        ki, kj = divmod(j, k)
        gxp[:, :, ki: ki + s * ho: s, kj: kj + s * wo: s] += share
    return gxp[:, :, p: p + h, p: p + w]


def batchnorm_ref(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, running_mean: np.ndarray,
                  running_var: np.ndarray, grad: np.ndarray, training: bool):
    """Batch normalization as it was written with one forward per mode:
    (output, running mean, running var, x grad, gamma grad, beta grad).
    Train mode normalizes by the batch's mean and biased variance and moves
    the running statistics toward them; infer mode reads the running ones."""
    axes = (0, 2, 3)
    if training:
        mean = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x - mean) * inv_std
        running_mean = ((1.0 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mean).astype(running_mean.dtype)
        running_var = ((1.0 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var).astype(running_var.dtype)
        gh = grad * gamma
        mean_gh = gh.mean(axis=axes, keepdims=True)
        mean_gh_xhat = (gh * xhat).mean(axis=axes, keepdims=True)
        gx = inv_std * (gh - mean_gh - xhat * mean_gh_xhat)
    else:
        inv_std = 1.0 / np.sqrt(running_var + BN_EPS)
        xhat = (x - running_mean) * inv_std
        gx = grad * (gamma * inv_std)
    out = gamma * xhat + beta
    return (out, running_mean, running_var, gx,
            (grad * xhat).sum(axis=axes, keepdims=True), grad.sum(axis=axes, keepdims=True))


def adamw_step_ref(params: list[np.ndarray], grads: list[np.ndarray | None],
                   ms: list[np.ndarray], vs: list[np.ndarray], t: int, lr: float,
                   weight_decay: float) -> None:
    """Step ``t`` of AdamW as it was written before its in-place update:
    ``params`` and the moments ``ms``, ``vs`` move in place; a None
    gradient counts as zeros."""
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for p, g, m, v in zip(params, grads, ms, vs):
        g = g if g is not None else np.zeros_like(p)
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p -= (lr * (update + weight_decay * p)).astype(p.dtype)


def where_sigmoid(x: np.ndarray) -> np.ndarray:
    """Stable logistic function evaluating both branches."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def splitmix64_ref(seed: int, count: int) -> list[int]:
    """SplitMix64 outputs in Python integers, one step at a time."""
    mask = (1 << 64) - 1
    state, out = seed & mask, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def naive_linear(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    n, cin = x.shape[0], x.shape[1]
    cout = w.shape[0]
    out = np.zeros((n, cout, 1, 1), dtype=x.dtype)
    for ni in range(n):
        for oc in range(cout):
            acc = 0.0
            for ic in range(cin):
                acc += x[ni, ic, 0, 0] * w[oc, ic, 0, 0]
            out[ni, oc, 0, 0] = acc
    return out


def naive_partial_conv(x: np.ndarray, w: np.ndarray, r: int = 4) -> np.ndarray:
    cp = x.shape[1] // r
    out = x.copy()
    out[:, :cp] = naive_conv2d(x[:, :cp], w, None, stride=1, padding=1,
                               dilation=1, groups=cp)
    return out


# ---------------------------------------------------------------------------
# Box / metric references

def ciou_alpha_ref(pred_boxes: np.ndarray, gt_boxes: np.ndarray) -> np.ndarray:
    """CIoU trade-off coefficient v / ((1 - IoU) + v + 1e-12) in plain float64 NumPy.

    (N, 4, P, 1) center-format arrays; extents floored at ``MIN_EXTENT``.
    """
    p = np.asarray(pred_boxes, dtype=np.float64)
    g = np.asarray(gt_boxes, dtype=np.float64)
    pw, ph = np.maximum(p[:, 2:3], MIN_EXTENT), np.maximum(p[:, 3:4], MIN_EXTENT)
    gw, gh = np.maximum(g[:, 2:3], MIN_EXTENT), np.maximum(g[:, 3:4], MIN_EXTENT)
    px1, px2 = p[:, 0:1] - pw / 2, p[:, 0:1] + pw / 2
    py1, py2 = p[:, 1:2] - ph / 2, p[:, 1:2] + ph / 2
    gx1, gx2 = g[:, 0:1] - gw / 2, g[:, 0:1] + gw / 2
    gy1, gy2 = g[:, 1:2] - gh / 2, g[:, 1:2] + gh / 2
    inter = np.maximum(0.0, np.minimum(px2, gx2) - np.maximum(px1, gx1)) * \
        np.maximum(0.0, np.minimum(py2, gy2) - np.maximum(py1, gy1))
    union = (px2 - px1) * (py2 - py1) + (gx2 - gx1) * (gy2 - gy1) - inter
    iou = inter / union
    v = (4.0 / math.pi ** 2) * (np.arctan(gw / gh) - np.arctan(pw / ph)) ** 2
    return v / ((1.0 - iou) + v + 1e-12)


def ciou_value(pred_box, gt_box) -> float:
    """CIoU of two plain center-format boxes, through ``ciou_loss`` in float64."""
    p = Tensor(np.asarray(pred_box, dtype=np.float64).reshape(1, 4, 1, 1))
    g = Tensor(np.asarray(gt_box, dtype=np.float64).reshape(1, 4, 1, 1))
    return 1.0 - ciou_loss(p, g).item()


def cell_box_ref(raw: Tensor, batch: int, i: int, j: int, stride: int,
                 px_w: int, px_h: int) -> Tensor:
    """One cell's in-graph decoded box (1, 4, 1, 1): the scalar form of
    ``model.cell_box``, with Python-float constants coerced to the map dtype."""
    cell = slice4(raw, n=slice(batch, batch + 1), c=slice(0, 4),
                  h=slice(i, i + 1), w=slice(j, j + 1))
    dist = softplus(cell) * float(stride)
    left = slice4(dist, c=slice(0, 1))
    top = slice4(dist, c=slice(1, 2))
    right = slice4(dist, c=slice(2, 3))
    bottom = slice4(dist, c=slice(3, 4))
    cx_c = (j + 0.5) * stride
    cy_c = (i + 0.5) * stride
    cx = (right - left + 2.0 * cx_c) * (0.5 / px_w)
    cy = (bottom - top + 2.0 * cy_c) * (0.5 / px_h)
    bw = (left + right) * (1.0 / px_w)
    bh = (top + bottom) * (1.0 / px_h)
    return concat_channels([cx, cy, bw, bh])


def box_term_ref(maps: list[Tensor], positives, alpha_cache: dict | None = None) -> Tensor:
    """The detection loss's box term one positive at a time: a scalar
    :func:`cell_box_ref` and a (1, 4, 1, 1) ``ciou_loss`` per positive, joined
    with ``concat_channels`` and averaged; ``alpha_cache`` maps each positive
    index to its own ``ciou_loss`` cache list, pinning alpha per positive.
    Zero positives give a constant 0."""
    if not len(positives):
        return scalar(0.0)
    losses = []
    for k, pos in enumerate(positives):
        raw = maps[pos.scale]
        stride = STRIDES[pos.scale]
        pred = cell_box_ref(raw, int(pos.image_index), int(pos.row), int(pos.col), stride,
                            raw.shape[3] * stride, raw.shape[2] * stride)
        gt = Tensor(np.asarray(pos.box, dtype=pred.data.dtype).reshape(1, 4, 1, 1))
        cache = None if alpha_cache is None else alpha_cache.setdefault(k, [])
        losses.append(ciou_loss(pred, gt, cache))
    return tmean(concat_channels(losses))


def corners(box) -> tuple[float, float, float, float]:
    cx, cy, w, h = box
    return cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2


def iou_ref(box_a, box_b) -> float:
    ax1, ay1, ax2, ay2 = corners(box_a)
    bx1, by1, bx2, by2 = corners(box_b)
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union if union > 0 else 0.0


def candidates(rows) -> np.recarray:
    """(class_id, score, (cx, cy, w, h)) tuples as a ``decode``-style record array."""
    return np.array(list(rows), dtype=CANDIDATE).view(np.recarray)


def row_bits(dets) -> list[tuple[int, int, tuple[int, ...]]]:
    """Class, score bits and box bits of each row (a record array or a list
    of its rows), for exact comparison."""
    rows = np.array(dets, dtype=CANDIDATE)
    return list(zip(rows["class_id"].tolist(), rows["score"].view(np.uint64).tolist(),
                    map(tuple, rows["box"].view(np.uint64).tolist())))


def nms_ref(dets, iou_threshold: float):
    """Quadratic greedy NMS: per class, score-descending (ties: class, order)."""
    rows = [(int(d.class_id), float(d.score), tuple(map(float, d.box))) for d in dets]
    order = sorted(range(len(rows)), key=lambda i: (-rows[i][1], rows[i][0], i))
    kept = []
    for i in order:
        drop = False
        for j in kept:
            if rows[j][0] == rows[i][0] and iou_ref(rows[j][2], rows[i][2]) >= iou_threshold:
                drop = True
                break
        if not drop:
            kept.append(i)
    return [dets[i] for i in kept]


def nms_passes(dets, iou_threshold: float):
    """Greedy NMS with one vector pass per kept box over its class's survivors.

    The array form of :func:`nms_ref`: same order and keep rule, fast enough
    for thousands of candidates, and built on the library's own IoU so that
    it agrees with the library to the last bit.
    """
    if not len(dets):
        return []
    scores = np.array([d.score for d in dets], dtype=np.float64)
    classes = np.array([d.class_id for d in dets], dtype=np.int64)
    corners = cxcywh_to_xyxy(np.array([d.box for d in dets], dtype=np.float64))
    order = np.lexsort((np.arange(len(dets)), classes, -scores))
    keep = np.zeros(len(dets), dtype=bool)
    for cls in {d.class_id for d in dets}:
        alive = order[classes[order] == cls]
        xy = corners[alive]
        while alive.size:
            keep[alive[0]] = True
            survive = ~(iou_xyxy(xy[0], xy[1:]) >= iou_threshold)
            alive, xy = alive[1:][survive], xy[1:][survive]
    return [dets[i] for i in order if keep[i]]


def match_ref(dets, gts, iou_t: float):
    """Greedy matcher: detections by (-score, input order); each claims the
    unmatched same-image same-class GT with max IoU >= t (ties: lowest GT
    index).  Returns TP flags in that detection order."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    used = [False] * len(gts)
    flags = []
    for di in order:
        d = dets[di]
        best_iou, best_gi = -1.0, -1
        for gi, g in enumerate(gts):
            if used[gi] or g.image != d.image or g.class_id != d.class_id:
                continue
            v = iou_ref(d.box, g.box)
            if v > best_iou:
                best_iou, best_gi = v, gi
        if best_gi >= 0 and best_iou >= iou_t:
            used[best_gi] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


def ap_ref(dets, gts, iou_t: float) -> float:
    """101-point AP, per class then averaged over ground-truth classes."""
    classes = sorted({g.class_id for g in gts})
    if not classes:
        return 0.0
    aps = []
    for cls in classes:
        cdets = [d for d in dets if d.class_id == cls]
        cgts = [g for g in gts if g.class_id == cls]
        flags = match_ref(cdets, cgts, iou_t)
        if not cgts:
            aps.append(0.0)
            continue
        tp = fp = 0
        points = []  # (recall, precision) after each detection
        for f in flags:
            tp, fp = tp + int(f), fp + int(not f)
            points.append((tp / len(cgts), tp / (tp + fp)))
        total = 0.0
        for i in range(101):
            r = i / 100.0
            best = 0.0
            for (rec, prec) in points:
                if rec >= r and prec > best:
                    best = prec
            total += best
        aps.append(total / 101.0)
    return sum(aps) / len(aps)


def pr_ref(dets, gts, iou_t: float, conf_t: float):
    kept = [d for d in dets if d.score >= conf_t]
    flags = match_ref(kept, gts, iou_t)
    tp = sum(flags)
    fp = len(kept) - tp
    fn = len(gts) - tp
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def unletterbox_box_ref(box, info) -> tuple[float, float, float, float]:
    """One box at a time, in Python floats: the scalar form of
    ``fileio.unletterbox_box``, whose corner clamp maps NaN to 0."""
    cx, cy, w, h = box

    def to_source(v: float, pad: int, size: int) -> float:
        return min(1.0, max(0.0, (v * info.dst_size - pad) / info.scale / size))

    x1 = to_source(cx - w / 2, info.pad_x, info.src_w)
    y1 = to_source(cy - h / 2, info.pad_y, info.src_h)
    x2 = to_source(cx + w / 2, info.pad_x, info.src_w)
    y2 = to_source(cy + h / 2, info.pad_y, info.src_h)
    return ((x1 + x2) / 2, (y1 + y2) / 2, x2 - x1, y2 - y1)


def format_detection_ref(rec) -> str:
    """One detection's JSONL line (no newline) through ``json.dumps`` of its dict."""
    return json.dumps({
        "image": rec.image,
        "class_id": rec.class_id,
        "score": round(rec.score, 6),
        "box": [round(v, 6) for v in rec.box],
    }, separators=(", ", ": "))


def format_ground_truth_ref(rec) -> str:
    """One ground-truth JSONL line (no newline) through ``json.dumps`` of its dict."""
    return json.dumps({
        "image": rec.image,
        "class_id": rec.class_id,
        "box": [round(v, 6) for v in rec.box],
    }, separators=(", ", ": "))


def image_to_input_ref(image: np.ndarray) -> np.ndarray:
    """(H, W, 3) uint8 -> (1, 3, H, W) float64 in [0, 1], divided in float64."""
    return (image.astype(np.float64) / 255.0).transpose(2, 0, 1)[None]


def letterbox_ref(image: np.ndarray, dst_size: int) -> np.ndarray:
    """Nearest-neighbour letterbox, one pixel at a time: content pixel (i, j) reads
    source row ``min(int((i + 0.5) / scale), h - 1)`` and column likewise, the
    content is centred, and the border is gray 114."""
    h, w = image.shape[:2]
    scale = min(dst_size / w, dst_size / h)
    new_w, new_h = max(1, int(round(w * scale))), max(1, int(round(h * scale)))
    pad_x, pad_y = (dst_size - new_w) // 2, (dst_size - new_h) // 2
    src = image.tolist()
    out = [[[114, 114, 114] for _ in range(dst_size)] for _ in range(dst_size)]
    for i in range(new_h):
        row = src[min(int((i + 0.5) / scale), h - 1)]
        for j in range(new_w):
            out[pad_y + i][pad_x + j] = row[min(int((j + 0.5) / scale), w - 1)]
    return np.array(out, dtype=np.uint8)


def letterbox_box_ref(box, info) -> tuple[float, float, float, float]:
    """The unclamped letterbox mapping ``(v * src * scale + pad) / dst_size``."""
    cx, cy, w, h = box
    return ((cx * info.src_w * info.scale + info.pad_x) / info.dst_size,
            (cy * info.src_h * info.scale + info.pad_y) / info.dst_size,
            w * info.src_w * info.scale / info.dst_size,
            h * info.src_h * info.scale / info.dst_size)


def cas_param_count(c: int) -> int:
    """Parameters of the additive attention at width c (all convs bias-free)."""
    h = gate_hidden(c)
    qkv = c * 3 * c
    spatial = 2 * (9 * c + 9 * c * c)  # per gate: depthwise 3x3 + full 3x3
    channel = 2 * (c * h + h * c)
    out_dw = 9 * c
    return qkv + spatial + channel + out_dw


def air_param_count(c: int) -> int:
    """Closed-form parameter count of one shape-preserving bottleneck block."""
    r = math.ceil(c / 4)
    reduce = c * r + 2 * r
    dw = 9 * r + 2 * r
    expand = r * c + 2 * c
    return reduce + dw + cas_param_count(r) + expand


def dpdf_param_count(c_in: int, c_out: int) -> int:
    """Closed-form parameter count of one dual-pool downsampling block."""
    h = gate_hidden(c_in)
    pconv = 2 * 9 * (c_in // 4)
    sa = 2 * (2 * 49)
    ca = 2 * (c_in * h + h * c_in)
    alpha = 1
    project = c_in * c_out + 2 * c_out if c_out != c_in else 0
    return pconv + sa + ca + alpha + project
