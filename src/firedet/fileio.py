"""File formats: binary PPM (P6) images, JSONL detection/ground-truth files,
JSON model configs, and letterbox geometry.

PPM P6 keeps image I/O dependency-free and bit-exact.  Each detection is one
JSON object per line with fields ``image``, ``class_id`` (an integer >= 0),
``score`` (finite) and ``box`` ([cx, cy, w, h], normalized: each in [0, 1],
w and h positive); ground-truth lines are identical minus ``score``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boxes import cxcywh_to_xyxy, xyxy_to_cxcywh
from .metrics import DetRecord, GtRecord
from .model import ConfigError, ModelConfig


class FileFormatError(ValueError):
    """Raised when an input file does not match its declared format."""


# ---------------------------------------------------------------------------
# PPM (P6, 8-bit)

def write_ppm(path: str | Path, image: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as binary PPM."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError(f"expected (H, W, 3) uint8 image, got {image.shape} {image.dtype}")
    h, w = image.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(image.tobytes())


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next whitespace-delimited token, skipping '#' comment lines."""
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise FileFormatError("unexpected end of PPM header")
    return data[start:pos], pos


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary PPM (P6, maxval 255) into an (H, W, 3) uint8 array."""
    data = Path(path).read_bytes()
    try:
        magic, pos = _read_token(data, 0)
        if magic != b"P6":
            raise FileFormatError(f"not a P6 PPM file: magic {magic!r}")
        wtok, pos = _read_token(data, pos)
        htok, pos = _read_token(data, pos)
        mtok, pos = _read_token(data, pos)
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    try:
        w, h, maxval = int(wtok), int(htok), int(mtok)
    except ValueError:
        raise FileFormatError(f"{path}: non-numeric PPM header fields") from None
    if maxval != 255:
        raise FileFormatError(f"{path}: only maxval 255 supported, got {maxval}")
    if w <= 0 or h <= 0:
        raise FileFormatError(f"{path}: invalid dimensions {w}x{h}")
    pos += 1  # exactly one whitespace byte separates header from raster
    need = w * h * 3
    raster = data[pos:pos + need]
    if len(raster) != need:
        raise FileFormatError(f"{path}: expected {need} raster bytes, got {len(raster)}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w, 3).copy()


# ---------------------------------------------------------------------------
# JSONL detections / ground truth

def _parse_box(obj: dict, path: str | Path, lineno: int) -> tuple[float, float, float, float]:
    box = obj.get("box")
    if (not isinstance(box, list) or len(box) != 4
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in box)):
        raise FileFormatError(f"{path}:{lineno}: 'box' must be [cx, cy, w, h]")
    cx, cy, w, h = (float(v) for v in box)
    # NaN fails every comparison, so this also rejects NaN and +-Infinity.
    if not (all(0.0 <= v <= 1.0 for v in (cx, cy, w, h)) and w > 0.0 and h > 0.0):
        raise FileFormatError(
            f"{path}:{lineno}: 'box' values must lie in [0, 1] with w, h > 0, got {box}")
    return cx, cy, w, h


def _iter_jsonl(path: str | Path):
    with open(path, "r", encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise FileFormatError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
                if not isinstance(obj, dict):
                    raise FileFormatError(f"{path}:{lineno}: expected a JSON object")
                yield lineno, obj
        except UnicodeDecodeError:
            raise FileFormatError(f"{path}: not UTF-8 text") from None


def _require(obj: dict, key: str, kinds, path, lineno):
    value = obj.get(key)
    if (not isinstance(value, kinds) or isinstance(value, bool)
            or (isinstance(value, float) and not math.isfinite(value))):
        raise FileFormatError(f"{path}:{lineno}: missing or invalid '{key}'")
    return value


def _class_id(obj: dict, path, lineno) -> int:
    value = _require(obj, "class_id", int, path, lineno)
    if value < 0:
        raise FileFormatError(f"{path}:{lineno}: 'class_id' must be non-negative, got {value}")
    return value


def read_detections(path: str | Path) -> list[DetRecord]:
    return [DetRecord(image=_require(obj, "image", str, path, lineno),
                      class_id=_class_id(obj, path, lineno),
                      score=float(_require(obj, "score", (int, float), path, lineno)),
                      box=_parse_box(obj, path, lineno))
            for lineno, obj in _iter_jsonl(path)]


def read_ground_truth(path: str | Path) -> list[GtRecord]:
    return [GtRecord(image=_require(obj, "image", str, path, lineno),
                     class_id=_class_id(obj, path, lineno),
                     box=_parse_box(obj, path, lineno))
            for lineno, obj in _iter_jsonl(path)]


def format_detection(records: list[DetRecord] | list[GtRecord]) -> str:
    """JSONL text of ``records`` in one pass, detections or ground truth (which has
    no ``"score"``): each line is ``json.dumps`` of the record's dict with separators
    ", " and ": " and numbers ``round(v, 6)``, written with ``str``, which prints an
    int coordinate as ``1`` as ``json.dumps`` does."""
    names = {name: json.dumps(name) for name in {rec.image for rec in records}}
    non_finite = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
    scored = bool(records) and isinstance(records[0], DetRecord)
    values = [(rec.score, *rec.box) for rec in records] if scored else [rec.box for rec in records]
    line = ('{{"image": {}, "class_id": {}, ' + ('"score": {}, ' if scored else "")
            + '"box": [{}, {}, {}, {}]}}\n')
    lines = []
    for rec, vals in zip(records, values):
        text = [non_finite.get(t, t) for t in [str(round(v, 6)) for v in vals]]
        lines.append(line.format(names[rec.image], rec.class_id, *text))
    return "".join(lines)


def write_ground_truth(path: str | Path, records: list[GtRecord]) -> None:
    Path(path).write_text(format_detection(records), encoding="utf-8")


# ---------------------------------------------------------------------------
# Model config (JSON with exactly the ModelConfig fields)

def load_config(path: str | Path) -> ModelConfig:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise FileFormatError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return ModelConfig.from_dict(obj)


# ---------------------------------------------------------------------------
# Letterbox geometry

PAD_VALUE = 114


@dataclass(frozen=True)
class LetterboxInfo:
    """Geometry of a letterbox resize: scale and top-left padding in pixels."""

    scale: float
    pad_x: int
    pad_y: int
    src_w: int
    src_h: int
    dst_size: int


def letterbox(image: np.ndarray, dst_size: int) -> tuple[np.ndarray, LetterboxInfo]:
    """Resize (H, W, 3) uint8 to (dst, dst, 3) preserving aspect ratio.

    Nearest-neighbor sampling; the unused border is filled with gray 114.
    """
    h, w = image.shape[:2]
    scale = min(dst_size / w, dst_size / h)
    new_w = max(1, int(round(w * scale)))
    new_h = max(1, int(round(h * scale)))
    cols = np.minimum((np.arange(new_w) + 0.5) / scale, w - 1).astype(np.int64)
    rows = np.minimum((np.arange(new_h) + 0.5) / scale, h - 1).astype(np.int64)
    resized = image.take(rows, axis=0).take(cols, axis=1)
    out = np.full((dst_size, dst_size, 3), PAD_VALUE, dtype=np.uint8)
    pad_x = (dst_size - new_w) // 2
    pad_y = (dst_size - new_h) // 2
    out[pad_y:pad_y + new_h, pad_x:pad_x + new_w] = resized
    return out, LetterboxInfo(scale, pad_x, pad_y, w, h, dst_size)


def letterbox_box(box: tuple[float, float, float, float],
                  info: LetterboxInfo) -> tuple[float, float, float, float]:
    """Map a normalized [cx, cy, w, h] box from source-image coordinates into
    the letterboxed image's normalized coordinates, each axis cut at the content
    extent ``min(src * scale, dst_size)`` (``src * scale`` may round past it)."""
    cx, cy, w, h = box
    ext_x, ext_y = (min(src * info.scale, info.dst_size) for src in (info.src_w, info.src_h))
    return ((min(cx * info.src_w * info.scale, ext_x) + info.pad_x) / info.dst_size,
            (min(cy * info.src_h * info.scale, ext_y) + info.pad_y) / info.dst_size,
            min(w * info.src_w * info.scale, ext_x) / info.dst_size,
            min(h * info.src_h * info.scale, ext_y) / info.dst_size)


def unletterbox_box(boxes: np.ndarray, info: LetterboxInfo) -> np.ndarray:
    """Map (..., 4) normalized [cx, cy, w, h] boxes from letterboxed space back
    to the source image's normalized coordinates, in one vector pass.  The
    corners are clamped to [0, 1] (a NaN corner to 0), so a box lying wholly
    in the padding comes back with zero width or height."""
    pad = np.array([info.pad_x, info.pad_y, info.pad_x, info.pad_y])
    size = np.array([info.src_w, info.src_h, info.src_w, info.src_h])
    v = (cxcywh_to_xyxy(boxes) * info.dst_size - pad) / info.scale / size
    v = np.where(v > 0.0, v, 0.0)  # not np.maximum: it keeps NaN and -0.0
    return xyxy_to_cxcywh(np.where(v < 1.0, v, 1.0))


def image_to_input(image: np.ndarray) -> np.ndarray:
    """(H, W, 3) uint8 -> (1, 3, H, W) float32 in [0, 1], the model's input.  For each of
    the 256 byte values the float32 quotient equals the float64 one rounded to float32."""
    return np.divide(image, np.float32(255.0), dtype=np.float32).transpose(2, 0, 1)[None]
