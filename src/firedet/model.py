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
from dataclasses import dataclass

import numpy as np

from .rng import Rng
from .tensor import Tensor, _sigmoid_np, _softplus_np, slice4, softplus as t_softplus
from .nn import Conv2d, Conv2dSpec, Module, ModuleList, concat_channels, upsample_nearest
from .blocks import AirBlock, Cbs, CspBlock, DpdfBlock, Sppf
from .boxes import cxcywh_to_xyxy, iou_xyxy


class ConfigError(ValueError):
    """A model or run configuration violates its contract."""


STRIDES = (8, 16, 32)


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
    include_sppf: bool = True
    head_channels: int | None = None
    score_threshold: float = 0.25
    nms_iou_threshold: float = 0.45
    dropout_p: float = 0.0

    def __post_init__(self):
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.input_size % 32:
            raise ConfigError(f"input_size must be divisible by 32, got {self.input_size}")
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
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
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

    @staticmethod
    def from_dict(raw: dict) -> "ModelConfig":
        """Build a config from parsed JSON, rejecting unknown keys."""
        if not isinstance(raw, dict):
            raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
        known = {f.name: f for f in dataclasses.fields(ModelConfig)}
        unknown = sorted(set(raw) - set(known))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        kwargs = {}
        for key, value in raw.items():
            if key in ("base_widths", "blocks_per_stage"):
                if not isinstance(value, list) or not all(isinstance(v, int) for v in value):
                    raise ConfigError(f"{key} must be a list of integers")
                kwargs[key] = tuple(value)
            else:
                kwargs[key] = value
        try:
            return ModelConfig(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["base_widths"] = list(self.base_widths)
        d["blocks_per_stage"] = list(self.blocks_per_stage)
        return d


@dataclass(frozen=True)
class Detection:
    """One decoded detection: normalized center-format box, class, confidence."""

    class_id: int
    score: float
    box: tuple[float, float, float, float]  # (cx, cy, w, h) in [0, 1]


class Backbone(Module):
    """Stem plus four downsample-then-refine stages; exposes strides 8/16/32."""

    def __init__(self, cfg: ModelConfig, rng: Rng):
        super().__init__()
        w = cfg.scaled_widths()
        self.use_air = cfg.use_air
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
                stages.append(ModuleList(
                    [AirBlock(cout, rng, dropout_p=cfg.dropout_p) for _ in range(n)]))
            else:
                stages.append(ModuleList([CspBlock(cout, cout, n, rng)]))
        self.downs = ModuleList(downs)
        self.stages = ModuleList(stages)
        self.sppf = Sppf(w[4], w[4], rng) if cfg.include_sppf else None

    def forward(self, x: Tensor, training: bool = False, rng: Rng | None = None):
        x = self.stem(x, training=training)
        feats = []
        for i in range(4):
            x = self.downs[i](x, training=training)
            for blk in self.stages[i]:
                if isinstance(blk, AirBlock):
                    x = blk(x, training=training, rng=rng)
                else:
                    x = blk(x, training=training)
            if i >= 1:
                feats.append(x)
        c3, c4, c5 = feats
        if self.sppf is not None:
            c5 = self.sppf(c5, training=training)
        return c3, c4, c5


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

    def forward(self, c3: Tensor, c4: Tensor, c5: Tensor, training: bool = False):
        t4 = self.fuse4(concat_channels([upsample_nearest(c5), c4]), training=training)
        p3 = self.fuse3(concat_channels([upsample_nearest(t4), c3]), training=training)
        p4 = self.fuse4b(concat_channels([self.down3(p3, training=training), t4]), training=training)
        p5 = self.fuse5b(concat_channels([self.down4(p4, training=training), c5]), training=training)
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

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        box = self.box_out(self.box_stem2(self.box_stem1(x, training=training), training=training))
        cls = self.cls_out(self.cls_stem2(self.cls_stem1(x, training=training), training=training))
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
        self.assign_parameter_names()
        self.assign_scope_names()

    def forward(self, x: Tensor, training: bool = False, rng: Rng | None = None):
        n, c, h, w = x.shape
        if c != 3:
            raise ConfigError(f"expected 3 input channels, got {c}")
        if h % 32 or w % 32:
            raise ConfigError(f"input H,W must be divisible by 32, got {h}x{w}")
        c3, c4, c5 = self.backbone(x, training=training, rng=rng)
        p3, p4, p5 = self.neck(c3, c4, c5, training=training)
        return [head(p, training=training) for head, p in zip(self.heads, (p3, p4, p5))]


def build(config: ModelConfig, rng: Rng) -> Model:
    """Construct a model with all parameters drawn deterministically from rng."""
    return Model(config, rng)


# -- decoding -------------------------------------------------------------------------


def decode(maps: list[Tensor], config: ModelConfig, score_threshold: float | None = None,
           batch_index: int = 0) -> list[Detection]:
    """Raw maps for one image -> thresholded, clamped, normalized detections.

    Each cell at scale stride s has center ((j + 0.5)s, (i + 0.5)s) in input
    pixels; the four regressors pass through softplus and scale by s to give
    left/top/right/bottom distances.  Scores are per-class sigmoids; every
    (cell, class) with score >= threshold becomes a Detection.  Output order
    is scale-major, then class, then row-major cell order.
    """
    thr = config.score_threshold if score_threshold is None else score_threshold
    dets: list[Detection] = []
    for m, stride in zip(maps, STRIDES):
        arr = np.asarray(m.data[batch_index], dtype=np.float64)
        nc = arr.shape[0] - 4
        gh, gw = arr.shape[1], arr.shape[2]
        px_w = gw * stride
        px_h = gh * stride
        dist = stride * _softplus_np(arr[:4])
        scores = _sigmoid_np(arr[4:])
        jj, ii = np.meshgrid(np.arange(gw), np.arange(gh))
        cx_c = (jj + 0.5) * stride
        cy_c = (ii + 0.5) * stride
        x1 = np.clip((cx_c - dist[0]) / px_w, 0.0, 1.0)
        y1 = np.clip((cy_c - dist[1]) / px_h, 0.0, 1.0)
        x2 = np.clip((cx_c + dist[2]) / px_w, 0.0, 1.0)
        y2 = np.clip((cy_c + dist[3]) / px_h, 0.0, 1.0)
        for cls in range(nc):
            keep_i, keep_j = np.nonzero(scores[cls] >= thr)
            for i, j in zip(keep_i, keep_j):
                bx1, by1, bx2, by2 = x1[i, j], y1[i, j], x2[i, j], y2[i, j]
                dets.append(Detection(
                    class_id=cls,
                    score=float(scores[cls, i, j]),
                    box=(float((bx1 + bx2) / 2), float((by1 + by2) / 2),
                         float(bx2 - bx1), float(by2 - by1)),
                ))
    return dets


def decode_batch(maps: list[Tensor], config: ModelConfig,
                 score_threshold: float | None = None) -> list[list[Detection]]:
    """Decode every batch element; index b of the result belongs to input b."""
    n = maps[0].shape[0]
    return [decode(maps, config, score_threshold, batch_index=b) for b in range(n)]


def cell_box(raw: Tensor, batch: int, i: int, j: int, stride: int,
             px_w: int, px_h: int) -> Tensor:
    """In-graph decoded box (1, 4, 1, 1) = (cx, cy, w, h) normalized.

    This is the differentiable twin of one :func:`decode` cell, used by the
    regression loss.
    """
    cell = slice4(raw, n=slice(batch, batch + 1), c=slice(0, 4),
                  h=slice(i, i + 1), w=slice(j, j + 1))
    dist = t_softplus(cell) * float(stride)
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


# -- non-maximum suppression ------------------------------------------------------------


def nms(dets: list[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy per-class suppression.

    Candidates are visited by descending score (ties: lower class_id, then
    input order); one is kept iff its IoU with every already-kept detection
    of the same class is strictly below the threshold.  Output order is keep
    order, so scores are non-increasing within each class.

    Cost: one sort, then one vector pass per kept box over its class's
    surviving candidates; memory is O(n), no n x n IoU matrix is formed.
    :func:`boxes.iou_xyxy` is bitwise symmetric, so the keep set equals that
    of testing each candidate against the kept boxes one at a time.
    """
    if not dets:
        return []
    scores = np.array([d.score for d in dets], dtype=np.float64)
    classes = np.array([d.class_id for d in dets], dtype=np.int64)
    corners = cxcywh_to_xyxy(np.array([d.box for d in dets], dtype=np.float64))
    order = np.lexsort((np.arange(len(dets)), classes, -scores))
    keep = np.zeros(len(dets), dtype=bool)
    for cls in {d.class_id for d in dets}:  # not np.unique: it imports numpy.ma
        alive = order[classes[order] == cls]
        xy = corners[alive]
        while alive.size:
            keep[alive[0]] = True
            survive = ~(iou_xyxy(xy[0], xy[1:]) >= iou_threshold)
            alive, xy = alive[1:][survive], xy[1:][survive]
    return [dets[i] for i in order if keep[i]]
