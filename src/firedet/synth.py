"""Seeded synthetic detection data: warm elliptical blobs on a noise field.

Each image carries 1-4 axis-aligned bright ellipses whose channels obey
red > green > blue, over a dim uniform-noise background.  Ground truth is
the tight box of each ellipse.  Generation is a pure function of the seed;
every image is checked at generation time for the separating statistic
(mean red inside the boxes exceeds mean red outside).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .fileio import write_ground_truth, write_ppm
from .metrics import GtRecord
from .rng import Rng

MAX_BLOBS = 4
MIN_RADIUS = 4.0
MAX_RADIUS = 8.0
NOISE_LEVEL = 0.35
BLOB_GAP = 3.0  # minimum clearance between ellipse extents, pixels
EDGE_MARGIN = 2.0  # minimum clearance between an ellipse and the image border, pixels
# Smallest side that fits a blob of MAX_RADIUS with its margins on both sides.
MIN_IMAGE_SIZE = int(2 * (MAX_RADIUS + EDGE_MARGIN))


def _draw1(rng: Rng, lo: float, hi: float) -> float:
    return float(rng.uniform64(1, lo, hi)[0])


def _place_blobs(rng: Rng, size: int, cell: int) -> list[tuple[float, float, float, float]]:
    """Sample (cx, cy, rx, ry) for 1-4 blobs in distinct grid cells without
    overlap.  Rejection sampling; gives up on a blob after a bounded number
    of tries so the layout is always valid and generation always terminates."""
    want = 1 + int(rng.integers(1, 0, MAX_BLOBS)[0])
    blobs: list[tuple[float, float, float, float]] = []
    for _ in range(want):
        for _attempt in range(200):
            rx = _draw1(rng, MIN_RADIUS, MAX_RADIUS)
            ry = _draw1(rng, MIN_RADIUS, MAX_RADIUS)
            cx = _draw1(rng, rx + EDGE_MARGIN, size - EDGE_MARGIN - rx)
            cy = _draw1(rng, ry + EDGE_MARGIN, size - EDGE_MARGIN - ry)
            ok = True
            for (ox, oy, orx, ory) in blobs:
                same_cell = (int(cx / cell) == int(ox / cell)
                             and int(cy / cell) == int(oy / cell))
                reach = max(rx, ry) + max(orx, ory) + BLOB_GAP
                if same_cell or (cx - ox) ** 2 + (cy - oy) ** 2 < reach ** 2:
                    ok = False
                    break
            if ok:
                blobs.append((cx, cy, rx, ry))
                break
    return blobs


def _render(rng: Rng, size: int,
            blobs: list[tuple[float, float, float, float]]) -> np.ndarray:
    img = rng.uniform64(size * size * 3, 0.0, NOISE_LEVEL).reshape(size, size, 3)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    for (cx, cy, rx, ry) in blobs:
        base_r = _draw1(rng, 0.85, 1.0)
        g_frac = _draw1(rng, 0.35, 0.60)
        b_frac = _draw1(rng, 0.00, 0.20)
        d2 = ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2
        mask = d2 <= 1.0
        intensity = base_r * (1.0 - 0.35 * d2)
        img[..., 0][mask] = intensity[mask]
        img[..., 1][mask] = intensity[mask] * g_frac
        img[..., 2][mask] = intensity[mask] * b_frac
    return np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)


def _red_separation(image: np.ndarray, boxes_px: list[tuple[int, int, int, int]]) -> tuple[float, float]:
    inside = np.zeros(image.shape[:2], dtype=bool)
    for (x1, y1, x2, y2) in boxes_px:
        inside[y1:y2, x1:x2] = True
    red = image[..., 0].astype(np.float64)
    return float(red[inside].mean()), float(red[~inside].mean())


def generate_dataset(n_images: int, seed: int, out_dir: str | Path,
                     image_size: int = 64) -> list[GtRecord]:
    """Write ``n_images`` PPM images plus ``gts.jsonl`` into ``out_dir``.

    Returns the ground-truth records.  Deterministic per (n_images, seed,
    image_size); ``image_size`` must be at least ``MIN_IMAGE_SIZE``.
    """
    if n_images <= 0:
        raise ValueError("n_images must be positive")
    if image_size < MIN_IMAGE_SIZE:
        raise ValueError(f"image_size must be at least {MIN_IMAGE_SIZE}, got {image_size}")
    out = Path(out_dir)
    # Images are listed by directory: an older set's extras would train unlabelled.
    if (out / "gts.jsonl").exists() or any(out.glob("*.ppm")):
        raise FileExistsError(f"{out} already holds .ppm images or gts.jsonl")
    out.mkdir(parents=True, exist_ok=True)
    rng = Rng(seed)
    records: list[GtRecord] = []
    for i in range(n_images):
        name = f"{i:03d}.ppm"
        blobs = _place_blobs(rng, image_size, cell=8)
        image = _render(rng, image_size, blobs)
        boxes_px = []
        for (cx, cy, rx, ry) in blobs:
            x1 = max(0, int(np.floor(cx - rx)))
            y1 = max(0, int(np.floor(cy - ry)))
            x2 = min(image_size, int(np.ceil(cx + rx)) + 1)
            y2 = min(image_size, int(np.ceil(cy + ry)) + 1)
            boxes_px.append((x1, y1, x2, y2))
            records.append(GtRecord(
                image=name,
                class_id=0,
                box=(cx / image_size, cy / image_size,
                     2.0 * rx / image_size, 2.0 * ry / image_size),
            ))
        mean_in, mean_out = _red_separation(image, boxes_px)
        if mean_in <= mean_out:
            raise RuntimeError(
                f"generator self-check failed on {name}: "
                f"red inside {mean_in:.1f} <= outside {mean_out:.1f}")
        write_ppm(out / name, image)
    write_ground_truth(out / "gts.jsonl", records)
    return records
