"""File formats: binary PPM (P6) images, JSONL detection/ground-truth files,
JSON model configs, and letterbox geometry.

PPM P6 keeps image I/O dependency-free and bit-exact.  Detections are one
JSON object per line with fields ``image``, ``class_id``, ``score`` (finite)
and ``box`` ([cx, cy, w, h], normalized: each in [0, 1], w and h positive);
ground-truth lines are identical minus ``score``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
            or not all(isinstance(v, (int, float)) for v in box)):
        raise FileFormatError(f"{path}:{lineno}: 'box' must be [cx, cy, w, h]")
    cx, cy, w, h = (float(v) for v in box)
    # NaN fails every comparison, so this also rejects NaN and +-Infinity.
    if not (all(0.0 <= v <= 1.0 for v in (cx, cy, w, h)) and w > 0.0 and h > 0.0):
        raise FileFormatError(
            f"{path}:{lineno}: 'box' values must lie in [0, 1] with w, h > 0, got {box}")
    return cx, cy, w, h


def _iter_jsonl(path: str | Path):
    with open(path, "r", encoding="utf-8") as f:
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


def _require(obj: dict, key: str, kinds, path, lineno):
    value = obj.get(key)
    if (not isinstance(value, kinds) or isinstance(value, bool)
            or (isinstance(value, float) and not math.isfinite(value))):
        raise FileFormatError(f"{path}:{lineno}: missing or invalid '{key}'")
    return value


def read_detections(path: str | Path) -> list[DetRecord]:
    records = []
    for lineno, obj in _iter_jsonl(path):
        records.append(DetRecord(
            image=_require(obj, "image", str, path, lineno),
            class_id=int(_require(obj, "class_id", int, path, lineno)),
            score=float(_require(obj, "score", (int, float), path, lineno)),
            box=_parse_box(obj, path, lineno),
        ))
    return records


def read_ground_truth(path: str | Path) -> list[GtRecord]:
    records = []
    for lineno, obj in _iter_jsonl(path):
        records.append(GtRecord(
            image=_require(obj, "image", str, path, lineno),
            class_id=int(_require(obj, "class_id", int, path, lineno)),
            box=_parse_box(obj, path, lineno),
        ))
    return records


def format_detection(rec: DetRecord) -> str:
    return json.dumps({
        "image": rec.image,
        "class_id": rec.class_id,
        "score": round(rec.score, 6),
        "box": [round(v, 6) for v in rec.box],
    }, separators=(", ", ": "))


def format_ground_truth(rec: GtRecord) -> str:
    return json.dumps({
        "image": rec.image,
        "class_id": rec.class_id,
        "box": [round(v, 6) for v in rec.box],
    }, separators=(", ", ": "))


def write_ground_truth(path: str | Path, records: list[GtRecord]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(format_ground_truth(rec) + "\n")


# ---------------------------------------------------------------------------
# Model config (JSON with exactly the ModelConfig fields)

def load_config(path: str | Path) -> ModelConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"cannot read config {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return ModelConfig.from_dict(obj)


def save_config(path: str | Path, config: ModelConfig) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2) + "\n", encoding="utf-8")


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
    resized = image[rows][:, cols]
    out = np.full((dst_size, dst_size, 3), PAD_VALUE, dtype=np.uint8)
    pad_x = (dst_size - new_w) // 2
    pad_y = (dst_size - new_h) // 2
    out[pad_y:pad_y + new_h, pad_x:pad_x + new_w] = resized
    return out, LetterboxInfo(scale, pad_x, pad_y, w, h, dst_size)


def letterbox_box(box: tuple[float, float, float, float],
                  info: LetterboxInfo) -> tuple[float, float, float, float]:
    """Map a normalized [cx, cy, w, h] box from source-image coordinates into
    the letterboxed image's normalized coordinates."""
    cx, cy, w, h = box
    return ((cx * info.src_w * info.scale + info.pad_x) / info.dst_size,
            (cy * info.src_h * info.scale + info.pad_y) / info.dst_size,
            w * info.src_w * info.scale / info.dst_size,
            h * info.src_h * info.scale / info.dst_size)


def unletterbox_box(box: tuple[float, float, float, float],
                    info: LetterboxInfo) -> tuple[float, float, float, float]:
    """Map a normalized [cx, cy, w, h] box from letterboxed space back to the
    source image's normalized coordinates.  The corners are clamped to [0, 1],
    so a box lying wholly in the padding comes back with zero width or height."""
    cx, cy, w, h = box

    def to_source(v: float, pad: int, size: int) -> float:
        return min(1.0, max(0.0, (v * info.dst_size - pad) / info.scale / size))

    x1 = to_source(cx - w / 2, info.pad_x, info.src_w)
    y1 = to_source(cy - h / 2, info.pad_y, info.src_h)
    x2 = to_source(cx + w / 2, info.pad_x, info.src_w)
    y2 = to_source(cy + h / 2, info.pad_y, info.src_h)
    return ((x1 + x2) / 2, (y1 + y2) / 2, x2 - x1, y2 - y1)


def image_to_input(image: np.ndarray) -> np.ndarray:
    """(H, W, 3) uint8 -> (1, 3, H, W) float in [0, 1]."""
    return (image.astype(np.float64) / 255.0).transpose(2, 0, 1)[None]
