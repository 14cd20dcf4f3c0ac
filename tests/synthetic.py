"""Deterministic synthetic fixtures: blob textures, similarity warps, noise.

Shared by the test modules so every derived expectation comes from one
seeded generator.
"""

from __future__ import annotations

import numpy as np

from arfex.image import RasterImage

DEFAULT_BACKGROUND = 110


def blob_texture(
    width: int = 256,
    height: int = 256,
    n_blobs: int = 20,
    seed: int = 0,
    background: int = DEFAULT_BACKGROUND,
    amplitude: tuple[float, float] = (50.0, 90.0),
    sigma: tuple[float, float] = (2.5, 7.0),
    margin: float = 0.18,
) -> RasterImage:
    """Gray texture of Gaussian bumps on a uniform background.

    Bumps are laid down in bright/dark pairs at a random separation and
    angle: an isolated symmetric bump has no dominant gradient direction
    (orientation assignment would be decided by noise), while a
    dipole-structured neighborhood gives every interest point a stable
    orientation and a distinctive descriptor.  Centers stay
    `margin` x min(width, height) away from the borders so similarity warps
    about the center keep all texture in frame.
    """
    rng = np.random.default_rng(seed)
    field = np.full((height, width), float(background))
    ys, xs = np.mgrid[0:height, 0:width]
    inner = margin * min(width, height)
    placed = 0
    sign = 1.0
    while placed < n_blobs:
        cx = rng.uniform(inner, width - 1 - inner)
        cy = rng.uniform(inner, height - 1 - inner)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        for k in range(2):
            if placed >= n_blobs:
                break
            s = rng.uniform(*sigma)
            amp = sign * rng.uniform(*amplitude)
            sign = -sign
            off = rng.uniform(1.6, 2.6) * s
            bx = cx + (k * off) * np.cos(phi)
            by = cy + (k * off) * np.sin(phi)
            field += amp * np.exp(-((xs - bx) ** 2 + (ys - by) ** 2) / (2 * s * s))
            placed += 1
    levels = np.clip(np.floor(field + 0.5), 0, 255).astype(np.uint8)
    return RasterImage.from_gray(levels)


def similarity_map(points: np.ndarray, width: int, height: int, angle_deg: float, scale: float) -> np.ndarray:
    """Forward map of `warp_similarity`: p' = c + scale * R(angle) (p - c)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    cx = (width - 1) / 2.0
    cy = (height - 1) / 2.0
    t = np.deg2rad(angle_deg)
    c, s = np.cos(t), np.sin(t)
    dx = pts[:, 0] - cx
    dy = pts[:, 1] - cy
    out = np.empty_like(pts)
    out[:, 0] = cx + scale * (c * dx - s * dy)
    out[:, 1] = cy + scale * (c * dy + s * dx)
    return out


def warp_similarity(
    img: RasterImage,
    angle_deg: float,
    scale: float,
    fill: int = DEFAULT_BACKGROUND,
) -> RasterImage:
    """Rotate + scale about the image center, bilinear, same canvas size.

    Forward mapping matches `similarity_map`; out-of-source samples take the
    fill value.
    """
    h, w = img.height, img.width
    cx = (w - 1) / 2.0
    cy = (h - 1) / 2.0
    t = np.deg2rad(angle_deg)
    c, s = np.cos(t), np.sin(t)
    ys, xs = np.mgrid[0:h, 0:w]
    # Inverse map: source = c + R(-angle) (dest - c) / scale
    dx = (xs - cx) / scale
    dy = (ys - cy) / scale
    sx = cx + c * dx + s * dy
    sy = cy + c * dy - s * dx
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx = sx - x0
    fy = sy - y0
    valid = (sx >= 0) & (sx <= w - 1) & (sy >= 0) & (sy <= h - 1)
    x0c = np.clip(x0, 0, w - 2)
    y0c = np.clip(y0, 0, h - 2)
    src = img.pixels.astype(np.float64)
    out = np.empty_like(src)
    for ch in range(3):
        plane = src[:, :, ch]
        v00 = plane[y0c, x0c]
        v01 = plane[y0c, x0c + 1]
        v10 = plane[y0c + 1, x0c]
        v11 = plane[y0c + 1, x0c + 1]
        interp = (
            v00 * (1 - fx) * (1 - fy)
            + v01 * fx * (1 - fy)
            + v10 * (1 - fx) * fy
            + v11 * fx * fy
        )
        out[:, :, ch] = np.where(valid, interp, float(fill))
    return RasterImage(np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8))


def add_noise(img: RasterImage, sigma_levels: float, seed: int = 0) -> RasterImage:
    """Additive Gaussian noise in 8-bit levels, clamped."""
    rng = np.random.default_rng(seed)
    noisy = img.pixels.astype(np.float64) + rng.normal(0.0, sigma_levels, img.pixels.shape)
    return RasterImage(np.clip(np.floor(noisy + 0.5), 0, 255).astype(np.uint8))


def noise_image(width: int, height: int, seed: int = 0) -> RasterImage:
    """Uniform per-pixel gray noise; recognizes as nothing."""
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
    return RasterImage.from_gray(levels)


def apply_gain_offset(img: RasterImage, gain: float, offset: float) -> RasterImage:
    """Photometric change: level -> clamp(gain * level + offset)."""
    v = img.pixels.astype(np.float64) * gain + offset
    return RasterImage(np.clip(np.floor(v + 0.5), 0, 255).astype(np.uint8))
