"""The full detector graph: backbone, neck, head, decode, and suppression.

The network is a three-tier backbone-neck-head detector with feature maps at
strides 8/16/32.  Two structural flags select the four ablation variants:

- ``use_air``: backbone stages use attention-guided inverted-residual blocks
  instead of split-merge bottleneck stacks, and the neck's post-concat fusion
  blocks become single 1x1 Conv-BN-SiLU units (the attention variant moves
  capacity out of the neck).
- ``use_dpdf``: every stride-2 downsampling convolution (backbone stages and
  the neck's two bottom-up steps — not the stem) is replaced by the dual-pool
  fusion block.

Both flags off is the baseline skeleton the ablation table measures against;
both on is the full model.

The head is decoupled and anchor-free: per scale, two Conv-BN-SiLU stacks per
branch feed 1x1 convolutions producing 4 box regressors and ``num_classes``
class logits.  Decoding maps each cell's regressors through softplus to
left/top/right/bottom distances in stride units; class scores are sigmoid
probabilities (the class score doubles as objectness).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .rng import Rng
from .tensor import Tensor, _sigmoid_np, _softplus_np, make_node, slice4, softplus as t_softplus
from .nn import Conv2d, Conv2dSpec, Module, ModuleList, concat_channels, upsample_nearest
from .blocks import AirBlock, Cbs, CspBlock, DpdfBlock, Sppf
from .boxes import cxcywh_to_xyxy, iou_xyxy, xyxy_to_cxcywh


class ConfigError(ValueError):
    """A model or run configuration violates its contract."""


STRIDES = (8, 16, 32)

# A row of the record arrays :func:`decode` and :func:`nms` return: ``row.class_id``,
# ``row.score`` and ``row.box`` = (cx, cy, w, h), normalized to [0, 1].
CANDIDATE = np.dtype([("class_id", np.int64), ("score", np.float64), ("box", np.float64, (4,))])


@dataclass(frozen=True)
class ModelConfig:
    """Static description of one detector variant."""

    num_classes: int = 1
    input_size: int = 640
    width_mult: float = 0.25
    base_widths: tuple[int, ...] = (64, 128, 256, 512, 1024)
    blocks_per_stage: tuple[int, ...] = (1, 2, 2, 1)
    use_air: bool = False
    use_dpdf: bool = False
    include_sppf: bool = True  # committed configs carry the key; every variant has SPPF
    head_channels: int | None = None
    score_threshold: float = 0.25
    nms_iou_threshold: float = 0.45
    dropout_p: float = 0.0  # committed configs carry the key; the model has no dropout

    def __post_init__(self):
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.input_size <= 0 or self.input_size % 32:
            raise ConfigError(f"input_size must be a positive multiple of 32, got {self.input_size}")
        if len(self.base_widths) != 5:
            raise ConfigError(f"base_widths needs 5 entries, got {len(self.base_widths)}")
        if len(self.blocks_per_stage) != 4:
            raise ConfigError(f"blocks_per_stage needs 4 entries, got {len(self.blocks_per_stage)}")
        if any(n < 1 for n in self.blocks_per_stage):
            raise ConfigError(f"blocks_per_stage entries must be >= 1: {self.blocks_per_stage}")
        if not 0.0 <= self.score_threshold <= 1.0:
            raise ConfigError(f"score_threshold must be in [0, 1], got {self.score_threshold}")
        if not 0.0 <= self.nms_iou_threshold <= 1.0:
            raise ConfigError(f"nms_iou_threshold must be in [0, 1], got {self.nms_iou_threshold}")
        if self.dropout_p != 0:
            raise ConfigError(f"dropout_p must be 0 (no layer drops out), got {self.dropout_p}")
        if not self.include_sppf:
            raise ConfigError("include_sppf must be true (every variant ends its backbone in SPPF)")
        widths = self.scaled_widths()
        if any(w < 2 for w in widths):
            raise ConfigError(f"width_mult {self.width_mult} collapses widths to {widths}")
        if self.use_dpdf and any(w % 4 for w in widths):
            raise ConfigError(
                f"dual-pool downsampling needs widths divisible by 4, got {widths}")
        if self.head_channels is not None and self.head_channels < 1:
            raise ConfigError(f"head_channels must be positive, got {self.head_channels}")

    def scaled_widths(self) -> list[int]:
        return [int(round(b * self.width_mult)) for b in self.base_widths]

    def head_width(self) -> int:
        return self.head_channels if self.head_channels is not None else self.scaled_widths()[2]

    def resolve_input_size(self, input_size: int | None) -> int:
        """``input_size``, or this config's when it is None; it must be positive."""
        if input_size is None:
            return self.input_size
        if input_size <= 0:
            raise ValueError(f"input_size must be positive, got {input_size}")
        return input_size

    @staticmethod
    def from_dict(raw: dict) -> "ModelConfig":
        """Build a config from parsed JSON, rejecting unknown keys and values
        of the wrong JSON type for their field."""
        if not isinstance(raw, dict):
            raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
        known = {f.name: f for f in dataclasses.fields(ModelConfig)}
        unknown = sorted(set(raw) - set(known))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        kwargs = {}
        for key, value in raw.items():
            what, ok = _JSON_KINDS[known[key].type]
            if not ok(value):
                raise ConfigError(f"{key} must be {what}, got {json.dumps(value)}")
            kwargs[key] = tuple(value) if isinstance(value, list) else value
        return ModelConfig(**kwargs)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# The JSON value each ModelConfig field annotation accepts: (description, test).
_JSON_KINDS = {
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "int": ("an integer", _is_int),
    "int | None": ("an integer or null", lambda v: v is None or _is_int(v)),
    "float": ("a finite number", lambda v: _is_int(v) or isinstance(v, float) and math.isfinite(v)),
    "tuple[int, ...]": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
}


class Backbone(Module):
    """Stem plus four downsample-then-refine stages; exposes strides 8/16/32."""

    def __init__(self, cfg: ModelConfig, rng: Rng):
        super().__init__()
        w = cfg.scaled_widths()
        self.stem = Cbs(3, w[0], 3, rng, stride=2)
        downs, stages = [], []
        for i in range(4):
            cin, cout = w[i], w[i + 1]
            if cfg.use_dpdf:
                downs.append(DpdfBlock(cin, cout, rng))
            else:
                downs.append(Cbs(cin, cout, 3, rng, stride=2))
            n = cfg.blocks_per_stage[i]
            if cfg.use_air:
                stages.append(ModuleList([AirBlock(cout, rng) for _ in range(n)]))
            else:
                stages.append(ModuleList([CspBlock(cout, cout, n, rng)]))
        self.downs = ModuleList(downs)
        self.stages = ModuleList(stages)
        self.sppf = Sppf(w[4], w[4], rng)

    def forward(self, x: Tensor):
        x = self.stem(x)
        feats = []
        for i in range(4):
            x = self.downs[i](x)
            for blk in self.stages[i]:
                x = blk(x)
            if i >= 1:
                feats.append(x)
        c3, c4, c5 = feats
        return c3, c4, self.sppf(c5)


class Neck(Module):
    """Top-down then bottom-up feature pyramid over the three backbone scales."""

    def __init__(self, cfg: ModelConfig, rng: Rng):
        super().__init__()
        w = cfg.scaled_widths()
        c3, c4, c5 = w[2], w[3], w[4]

        def fusion(cin: int, cout: int) -> Module:
            if cfg.use_air:
                return Cbs(cin, cout, 1, rng)
            return CspBlock(cin, cout, 1, rng, shortcut=False)

        def down(c: int) -> Module:
            if cfg.use_dpdf:
                return DpdfBlock(c, c, rng)
            return Cbs(c, c, 3, rng, stride=2)

        self.fuse4 = fusion(c5 + c4, c4)
        self.fuse3 = fusion(c4 + c3, c3)
        self.down3 = down(c3)
        self.fuse4b = fusion(c3 + c4, c4)
        self.down4 = down(c4)
        self.fuse5b = fusion(c4 + c5, c5)

    def forward(self, c3: Tensor, c4: Tensor, c5: Tensor):
        t4 = self.fuse4(concat_channels([upsample_nearest(c5), c4]))
        p3 = self.fuse3(concat_channels([upsample_nearest(t4), c3]))
        p4 = self.fuse4b(concat_channels([self.down3(p3), t4]))
        p5 = self.fuse5b(concat_channels([self.down4(p4), c5]))
        return p3, p4, p5


class ScaleHead(Module):
    """Decoupled box/class head for one scale: two CBS stacks then 1x1 convs."""

    def __init__(self, in_channels: int, head_channels: int, num_classes: int, rng: Rng):
        super().__init__()
        hc = head_channels
        self.box_stem1 = Cbs(in_channels, hc, 3, rng)
        self.box_stem2 = Cbs(hc, hc, 3, rng)
        self.box_out = Conv2d(Conv2dSpec(hc, 4, kernel=1, has_bias=True), rng)
        self.cls_stem1 = Cbs(in_channels, hc, 3, rng)
        self.cls_stem2 = Cbs(hc, hc, 3, rng)
        self.cls_out = Conv2d(Conv2dSpec(hc, num_classes, kernel=1, has_bias=True), rng)

    def forward(self, x: Tensor) -> Tensor:
        box = self.box_out(self.box_stem2(self.box_stem1(x)))
        cls = self.cls_out(self.cls_stem2(self.cls_stem1(x)))
        return concat_channels([box, cls])


class Model(Module):
    """The assembled detector; forward returns raw maps at strides 8/16/32."""

    def __init__(self, config: ModelConfig, rng: Rng):
        super().__init__()
        self.config = config
        w = config.scaled_widths()
        self.backbone = Backbone(config, rng)
        self.neck = Neck(config, rng)
        hc = config.head_width()
        self.heads = ModuleList([
            ScaleHead(w[2], hc, config.num_classes, rng),
            ScaleHead(w[3], hc, config.num_classes, rng),
            ScaleHead(w[4], hc, config.num_classes, rng),
        ])

    def forward(self, x: Tensor):
        n, c, h, w = x.shape
        if c != 3:
            raise ConfigError(f"expected 3 input channels, got {c}")
        if h % 32 or w % 32:
            raise ConfigError(f"input H,W must be divisible by 32, got {h}x{w}")
        c3, c4, c5 = self.backbone(x)
        p3, p4, p5 = self.neck(c3, c4, c5)
        return [head(p) for head, p in zip(self.heads, (p3, p4, p5))]


def build(config: ModelConfig, rng: Rng | None = None) -> Model:
    """Construct a model with all parameters drawn deterministically from rng.

    ``rng=None`` means "allocate only; load an archive next": the weights
    that would be drawn are zeros and no draw is made, while names, shapes
    and the constant initial values (BatchNorm scales, biases) are the same
    as for a seeded build."""
    return Model(config, rng)


# -- decoding -------------------------------------------------------------------------


def decode(maps: list[Tensor], config: ModelConfig, score_threshold: float | None = None,
           batch_index: int = 0) -> np.recarray:
    """Raw maps for one image -> thresholded, clamped, normalized candidates.

    Each cell at scale stride s has center ((j + 0.5)s, (i + 0.5)s) in input
    pixels; the four regressors pass through softplus and scale by s to give
    left/top/right/bottom distances, whose corners are clipped to the frame.
    Scores are per-class sigmoids; every (cell, class) with score >=
    threshold becomes one :data:`CANDIDATE` row of the returned record
    array.  Row order is scale-major, then class, then row-major cell order.
    """
    thr = config.score_threshold if score_threshold is None else score_threshold
    chunks = []
    for m, stride in zip(maps, STRIDES):
        arr = np.asarray(m.data[batch_index], dtype=np.float64)
        gh, gw = arr.shape[1:]
        dist = stride * _softplus_np(arr[:4])
        scores = _sigmoid_np(arr[4:])
        cx, cy = (np.stack(np.meshgrid(np.arange(gw), np.arange(gh))) + 0.5) * stride
        corners = np.stack([cx - dist[0], cy - dist[1], cx + dist[2], cy + dist[3]], axis=-1)
        boxes = xyxy_to_cxcywh(np.clip(corners / (stride * np.array([gw, gh, gw, gh])), 0.0, 1.0))
        for cls in range(len(scores)):
            hit = scores[cls] >= thr
            chunks.append(np.rec.fromarrays([np.full(np.count_nonzero(hit), cls),
                                             scores[cls][hit], boxes[hit]], dtype=CANDIDATE))
    return np.concatenate(chunks).view(np.recarray)


def cell_box(maps: list[Tensor], positives: np.recarray) -> Tensor:
    """In-graph decoded boxes (1, 4, P, 1) = (cx, cy, w, h) normalized of the
    cells of ``positives`` (:data:`losses.POSITIVE` rows), in row order.

    The batched, differentiable twin of :func:`decode` before its clip, used by
    the regression loss: one gather, whose backward assigns into zero maps (so
    a cell may appear only once), then elementwise ops, so the graph has one
    size whatever P is."""
    ons = [positives.scale == s for s in range(len(maps))]
    picks = [(m, on, positives[on]) for m, on in zip(maps, ons) if on.any()]
    cells = np.empty((len(positives), 4), dtype=maps[0].dtype)
    for m, on, p in picks:
        cells[on] = m.data[p.image_index, :4, p.row, p.col]

    def gather_bwd(grad: np.ndarray) -> None:
        for m, on, p in picks:
            full_grad = np.zeros_like(m.data)
            full_grad[p.image_index, :4, p.row, p.col] = grad[0, :, on, 0]
            m.accumulate_grad(full_grad)

    def const(values: np.ndarray) -> Tensor:  # (k, P) -> (1, k, P, 1) in the map dtype
        return Tensor(values.astype(cells.dtype).reshape(1, -1, len(positives), 1))

    stride = np.asarray(STRIDES)[positives.scale]
    # Rows x then y: frame width and height in px, and twice the cell centre.
    px = np.asarray([[m.shape[3], m.shape[2]] for m in maps]).T[:, positives.scale] * stride
    centre = 2.0 * ((np.stack([positives.col, positives.row]) + 0.5) * stride)
    raw = make_node(np.ascontiguousarray(cells.T)[None, :, :, None], maps, gather_bwd)
    dist = t_softplus(raw) * const(stride)
    left_top, right_bottom = slice4(dist, c=slice(0, 2)), slice4(dist, c=slice(2, 4))
    return concat_channels([(right_bottom - left_top + const(centre)) * const(0.5 / px),
                            (left_top + right_bottom) * const(1.0 / px)])


# -- non-maximum suppression ------------------------------------------------------------


NMS_BLOCK = 256  # candidate ranks resolved together in one step of :func:`nms`


def nms(dets: np.recarray, iou_threshold: float) -> np.recarray:
    """Greedy per-class suppression over :data:`CANDIDATE` rows.

    Candidates are visited by descending score (ties: lower class_id, then
    input order); one is kept iff its IoU with every already-kept candidate
    of the same class is strictly below the threshold.  Returns the kept
    rows of ``dets`` in keep order, so scores are non-increasing within
    each class.

    Cost: one sort, then each class is resolved in blocks of
    :data:`NMS_BLOCK` ranks (:func:`_sweep`), so a frame where nothing is
    suppressed takes O(n / NMS_BLOCK) vector steps, not one per kept box.
    Only overlapping boxes are compared, which is exact at a positive
    threshold (IoU 0 suppresses nothing); at a threshold <= 0 every
    same-class pair of finite boxes conflicts, so each class keeps its first
    box.  Extra memory is O(NMS_BLOCK x kept boxes in a box's x-window).
    :func:`boxes.iou_xyxy` is bitwise symmetric, so the keep set equals that
    of testing each candidate against the kept boxes one at a time.
    """
    classes = dets.class_id
    corners = cxcywh_to_xyxy(dets.box)
    order = np.lexsort((np.arange(len(dets)), classes, -dets.score))
    keep = np.zeros(len(dets), dtype=bool)
    for cls in set(classes.tolist()):  # not np.unique: it imports numpy.ma
        ranked = order[classes[order] == cls]
        if iou_threshold <= 0:
            keep[ranked[0]] = True
        else:
            keep[ranked[_sweep(corners[ranked], iou_threshold)]] = True
    return dets[order[keep[order]]]


def _sweep(xy: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Keep mask of greedy NMS over the score-ranked corner boxes of one class.

    A block is first tested against the kept boxes of earlier blocks, whose
    fate is final, and then against itself: there a box suppresses another
    only if it is itself still free when its rank comes.  Needs
    ``iou_threshold > 0``, as only overlapping boxes are compared.
    """
    cols = np.ascontiguousarray(xy.T)  # rows x1, y1, x2, y2
    kept = np.zeros(len(xy), dtype=bool)
    index = np.empty(0, dtype=np.intp)  # kept ranks, ascending x1
    for start in range(0, len(xy), NMS_BLOCK):
        free = np.ones(min(NMS_BLOCK, len(xy) - start), dtype=bool)
        _, lost = _conflicts(xy, cols, index, start + np.arange(free.size), iou_threshold)
        free[lost - start] = False
        ranks = start + np.flatnonzero(free)
        by, lost = _conflicts(xy, cols, ranks[np.argsort(cols[0, ranks], kind="stable")],
                              ranks, iou_threshold)
        if by.size:
            conflict = np.zeros((free.size, free.size), dtype=bool)
            conflict[by - start, lost - start] = True
            for i in np.flatnonzero(conflict.any(axis=1)):  # rank order
                if free[i]:
                    free[conflict[i]] = False
        ranks = start + np.flatnonzero(free)
        kept[ranks] = True
        index = np.concatenate([index, ranks])
        index = index[np.argsort(cols[0, index], kind="stable")]
    return kept


def _conflicts(xy: np.ndarray, cols: np.ndarray, pool: np.ndarray, ranks: np.ndarray,
               iou_threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """(higher, lower) rank pairs, ``higher`` from ``pool`` and ``lower`` from
    ``ranks``, with IoU at or above the threshold.

    ``pool`` is sorted by x1.  For a box q, the pool boxes with x1 < x2_q
    form a prefix of it, and those before the first running maximum of x2
    above x1_q end at or left of x1_q: every pool box whose x-extent can
    overlap q lies between the two.  Within that window an IoU is computed
    only where the x- and y-ranges overlap.
    """
    x1, y1, x2, y2 = cols[:, pool]
    qx1, qy1, qx2, qy2 = cols[:, ranks]
    hi = np.searchsorted(x1, qx2, side="left")
    lo = np.searchsorted(np.maximum.accumulate(x2), qx1, side="right")
    span = np.maximum(hi - lo, 0)
    slot = np.arange(span.sum()) + np.repeat(lo - np.cumsum(span) + span, span)
    near = ((np.repeat(qx1, span) < x2[slot]) & (y1[slot] < np.repeat(qy2, span))
            & (np.repeat(qy1, span) < y2[slot]))
    lower, higher = np.repeat(ranks, span)[near], pool[slot[near]]
    pair = higher < lower
    lower, higher = lower[pair], higher[pair]
    hit = iou_xyxy(xy[higher], xy[lower]) >= iou_threshold
    return higher[hit], lower[hit]
