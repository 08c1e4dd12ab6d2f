"""In-memory span tracer installed around firedet's public functions.

Spans are recorded from outside the program: ``install`` replaces public
functions and ``forward``/``step``/``backward`` methods with wrappers, in
every firedet module that holds a reference to them.  Nothing inside
``src/`` changes.  A span carries its name, start, end and parent; spans are
kept in a list and written out once, when the worker exits.

Each timed operation of the benchmark is a root span named ``op.<kind>``.  A
span's self time is its duration minus the durations of its direct children
(children of one span never overlap: the program is single-threaded), so the
self times of all spans under a root add up to the root's duration exactly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

CONV_KINDS = ("stem", "pointwise", "dense", "dense_s2", "depthwise")

# (metric, unit) in output order.  Values are per primary op (frame or train
# step) and include the share of the eval ops and model preparation that the
# workload runs alongside them; ``gflops`` and ratios are not per op.
PER_LAYER = (
    [(f"nn.conv2d.{k}.{s}", u) for k in CONV_KINDS
     for s, u in (("calls", "count"), ("self_ms", "ms"), ("macs", "count"),
                  ("gflops", "GFLOP/s"))]
    + [("nn.pool2d.calls", "count"), ("nn.pool2d.self_ms", "ms"),
       ("nn.BatchNorm.self_ms", "ms")]
    + [(f"nn.{f}.self_ms", "ms")
       for f in ("concat_channels", "upsample_nearest", "partial_conv", "linear")]
    + [(f"tensor.{f}.{s}", u) for f in ("silu", "sigmoid", "softplus")
       for s, u in (("calls", "count"), ("self_ms", "ms"))]
    + [("tensor.Tensor.backward.self_ms", "ms"), ("tensor.make_node.calls", "count")]
    + [(f"blocks.{c}.self_ms", "ms")
       for c in ("Cbs", "AirBlock", "DpdfBlock", "CspBlock", "Sppf")]
    + [(f"attention.{c}.self_ms", "ms")
       for c in ("SpatialGate", "ChannelGate", "ChannelCalibrate", "SpatialCalibrate")]
    + [("model.build.ms", "ms"), ("model.forward.ms", "ms"), ("model.decode.ms", "ms"),
       ("model.decode.candidates", "count"), ("model.nms.ms", "ms"),
       ("model.nms.candidates", "count"), ("model.nms.kept", "count"),
       ("model.nms.keep_ratio", "ratio")]
    + [(f"fileio.{f}.ms", "ms")
       for f in ("load_config", "read_ppm", "letterbox", "image_to_input")]
    + [("fileio.unletterbox_box.calls", "count"), ("fileio.unletterbox_box.ms", "ms"),
       ("fileio.format_detection.calls", "count"), ("fileio.format_detection.ms", "ms"),
       ("fileio.read_detections.ms", "ms"), ("fileio.read_detections.records", "count")]
    + [("weights.load_weights.ms", "ms"), ("weights.load_weights.bytes", "bytes")]
    + [("losses.detection_loss.ms", "ms"), ("losses.assign.ms", "ms"),
       ("losses.assign.positives", "count"), ("losses.ciou_loss.calls", "count"),
       ("losses.bce.ms", "ms")]
    + [(f"train.step.{p}_ms", "ms") for p in ("forward", "loss", "backward", "optimizer")]
    + [("train.AdamW.step.ms", "ms")]
    + [("metrics.map_range.ms", "ms"), ("metrics.average_precision.calls", "count"),
       ("metrics.average_precision.ms", "ms"), ("metrics.pr_f1.ms", "ms")]
    + [("trace.overhead_pct", "%"), ("trace.spans", "count"),
       ("trace.attributed_pct", "%"), ("trace.forwards_mac_checked", "count")]
)


def conv_kind(spec) -> str:
    if spec.in_channels == 3:
        return "stem"
    if spec.groups > 1:
        return "depthwise"
    if spec.kernel == 1:
        return "pointwise"
    return "dense_s2" if spec.stride == 2 else "dense"


class Tracer:
    """Span recorder; ``on`` is False outside traced operations."""

    def __init__(self):
        self.on = False
        self.spans: list[list] = []  # [name, start, end, parent, info]
        self.stack: list[int] = []
        self.nodes = 0  # make_node calls that put a node on the tape

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, info=None):
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
                if info is not None:
                    self.spans[idx][4] = info(args, out)
            finally:
                self.close(idx)
            return out

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, info in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "info": info}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap firedet's public functions and methods with ``tracer`` spans."""
    from firedet import attention, blocks, cli, fileio, losses, metrics, model, nn, tensor, train, weights  # noqa: F401

    modules = [m for name, m in sys.modules.items()
               if name == "firedet" or name.startswith("firedet.")]

    def function(fn, name, info=None):
        wrapped = tracer.wrap(name, fn, info)
        for owner in modules + [tensor.Tensor]:
            for key, value in list(vars(owner).items()):
                if value is fn:
                    setattr(owner, key, wrapped)

    def method(cls, attr, name, info=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), info))

    def conv_info(args, out):
        x, spec = args[0], args[1]
        n, _, h, w = x.shape
        return {"kind": conv_kind(spec), "macs": spec.macs(h, w) * n}

    function(nn.conv2d, "nn.conv2d", conv_info)
    function(nn.linear, "nn.linear",
             lambda a, o: {"macs": a[0].shape[0] * a[0].shape[1] * a[1].shape[0]})
    function(nn.pool2d, "nn.pool2d")
    function(nn.concat_channels, "nn.concat_channels")
    function(nn.upsample_nearest, "nn.upsample_nearest")
    function(nn.partial_conv, "nn.partial_conv")
    method(nn.BatchNorm, "forward", "nn.BatchNorm")
    for f in ("silu", "sigmoid", "softplus"):
        function(getattr(tensor, f), f"tensor.{f}")
    method(tensor.Tensor, "backward", "tensor.Tensor.backward")

    make_node = tensor.make_node

    def counted_make_node(data, parents, bwd):
        out = make_node(data, parents, bwd)
        if tracer.on and out.requires_grad:
            tracer.nodes += 1
        return out

    for owner in modules:
        for key, value in list(vars(owner).items()):
            if value is make_node:
                setattr(owner, key, counted_make_node)

    # Subclasses first: ChannelCalibrate inherits ChannelGate.forward.
    for cls in (attention.ChannelCalibrate, attention.ChannelGate,
                attention.SpatialGate, attention.SpatialCalibrate):
        method(cls, "forward", f"attention.{cls.__name__}")
    for cls in (blocks.Cbs, blocks.AirBlock, blocks.DpdfBlock, blocks.CspBlock, blocks.Sppf):
        method(cls, "forward", f"blocks.{cls.__name__}")

    function(model.build, "model.build")
    method(model.Model, "forward", "model.forward",
           lambda a, o: {"shape": list(a[1].shape), "input_size": a[0].config.input_size})
    function(model.decode, "model.decode", lambda a, o: {"candidates": len(o)})
    function(model.nms, "model.nms", lambda a, o: {"candidates": len(a[0]), "kept": len(o)})

    for f in ("load_config", "read_ppm", "letterbox", "image_to_input",
              "unletterbox_box", "format_detection"):
        function(getattr(fileio, f), f"fileio.{f}")
    function(fileio.read_detections, "fileio.read_detections",
             lambda a, o: {"records": len(o)})
    function(weights.load_weights, "weights.load_weights", lambda a, o: {"bytes": len(a[0])})

    function(losses.detection_loss, "losses.detection_loss")
    function(losses.assign, "losses.assign", lambda a, o: {"positives": len(o.positives)})
    function(losses.ciou_loss, "losses.ciou_loss")
    function(losses.bce, "losses.bce")
    method(train.AdamW, "step", "train.AdamW.step")
    method(train.AdamW, "zero_grad", "train.AdamW.zero_grad")

    function(metrics.map_range, "metrics.map_range")
    function(metrics.average_precision, "metrics.average_precision")
    function(metrics.pr_f1, "metrics.pr_f1")


def aggregate(tracer: Tracer) -> dict:
    """Per-name totals over all recorded spans.

    Returns ``stats[name] = {"calls", "ms", "self_ms", "info": summed info}``,
    conv2d split by kind as ``nn.conv2d.<kind>``, plus ``roots`` (per root
    kind: count and total ms), ``step`` (inclusive ms of the step-split
    functions inside train steps) and ``attributed_ms`` (self time of all
    non-root spans) and ``nodes`` (tape nodes built).
    """
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    root = [0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            root[i] = root[parent]
        else:
            root[i] = i
    stats: dict[str, dict] = {}
    roots: dict[str, dict] = {}
    step = {"forward": 0.0, "loss": 0.0, "backward": 0.0, "optimizer": 0.0}
    step_part = {"model.forward": "forward", "losses.detection_loss": "loss",
                 "tensor.Tensor.backward": "backward", "train.AdamW.step": "optimizer",
                 "train.AdamW.zero_grad": "optimizer"}
    attributed = 0.0
    for i, (name, _, _, parent, info) in enumerate(spans):
        self_ms = 1e3 * (dur[i] - child[i])
        if parent < 0:
            r = roots.setdefault(name[len("op."):], {"count": 0, "ms": 0.0})
            r["count"] += 1
            r["ms"] += 1e3 * dur[i]
            continue
        attributed += self_ms
        key = f"nn.conv2d.{info['kind']}" if name == "nn.conv2d" else name
        st = stats.setdefault(key, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "info": {}})
        st["calls"] += 1
        st["ms"] += 1e3 * dur[i]
        st["self_ms"] += self_ms
        for k, v in (info or {}).items():
            if isinstance(v, int):
                st["info"][k] = st["info"].get(k, 0) + v
        if spans[root[i]][0] == "op.step" and name in step_part:
            step[step_part[name]] += 1e3 * dur[i]
    return {"stats": stats, "roots": roots, "step": step, "attributed_ms": attributed,
            "nodes": tracer.nodes}


def forward_macs(tracer: Tracer) -> list[tuple[dict, int]]:
    """(model.forward info, conv2d + linear MACs under that forward) per forward."""
    spans = tracer.spans
    owner = [-1] * len(spans)
    totals: dict[int, int] = {}
    for i, (name, _, _, parent, info) in enumerate(spans):
        if name == "model.forward":
            owner[i] = i
            totals[i] = 0
            continue
        owner[i] = owner[parent] if parent >= 0 else -1
        if name in ("nn.conv2d", "nn.linear") and owner[i] >= 0:
            totals[owner[i]] += info["macs"]
    return [(spans[i][4], macs) for i, macs in totals.items()]


def layer_metrics(agg: dict, primary: str, n_steps: int, overhead_pct: float,
                  n_forwards_checked: int) -> dict:
    """The PER_LAYER metrics, normalised per primary op."""
    stats, roots = agg["stats"], agg["roots"]
    n = roots.get(primary, {}).get("count", 0)
    if n == 0:
        raise RuntimeError(f"no traced {primary} ops")
    values: dict[str, float] = {}

    def st(name):
        return stats.get(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "info": {}})

    for metric, _ in PER_LAYER:
        parts = metric.split(".")
        stat = parts[-1]
        name = ".".join(parts[:-1])
        s = st(name)
        if metric == "tensor.make_node.calls":
            v = agg["nodes"] / n
        elif stat == "calls":
            v = s["calls"] / n
        elif stat in ("self_ms", "ms"):
            v = s[stat] / n
        elif stat == "gflops":
            v = 2.0 * s["info"].get("macs", 0) / (s["self_ms"] * 1e6) if s["self_ms"] else 0.0
        elif stat == "keep_ratio":
            cand = s["info"].get("candidates", 0)
            v = s["info"].get("kept", 0) / cand if cand else 0.0
        elif name == "train.step":
            v = agg["step"][stat[:-len("_ms")]] / n_steps if n_steps else 0.0
        elif metric == "trace.overhead_pct":
            v = overhead_pct
        elif metric == "trace.spans":
            v = sum(x["calls"] for x in stats.values()) / n
        elif metric == "trace.attributed_pct":
            total = sum(r["ms"] for r in roots.values())
            v = 100.0 * agg["attributed_ms"] / total
        elif metric == "trace.forwards_mac_checked":
            v = n_forwards_checked
        else:  # a summed span attribute: macs, candidates, kept, records, bytes, positives
            v = s["info"].get(stat, 0) / n
        values[metric] = v
    return values
