"""Synthetic handwritten-style digit images in the IDX format.

Generates 28x28 grayscale digits from jittered stroke templates so demos and
tests can run self-contained, without shipping a dataset. Images follow the
[0, 255] intensity convention used everywhere else in the package, and
:func:`generate_idx` writes them through :func:`gifield.data.write_idx_images`.
"""

from __future__ import annotations

import numpy as np

from . import data

SIDE = 28

# digit skeletons as polylines on the unit square, y pointing down
def _ring(cx: float, cy: float, rx: float, ry: float, n: int = 14) -> list[tuple[float, float]]:
    t = np.linspace(0.0, 2 * np.pi, n + 1)
    return list(zip(cx + rx * np.sin(t), cy - ry * np.cos(t)))


_GLYPHS: dict[int, list[list[tuple[float, float]]]] = {
    0: [_ring(0.5, 0.5, 0.3, 0.4)],
    1: [[(0.33, 0.28), (0.55, 0.1), (0.55, 0.9)]],
    2: [[(0.22, 0.3), (0.32, 0.12), (0.62, 0.1), (0.75, 0.3), (0.66, 0.52), (0.24, 0.9), (0.78, 0.9)]],
    3: [[(0.24, 0.16), (0.6, 0.1), (0.75, 0.28), (0.5, 0.46), (0.78, 0.66), (0.6, 0.9), (0.22, 0.84)]],
    4: [[(0.64, 0.1), (0.2, 0.62), (0.82, 0.62)], [(0.64, 0.3), (0.64, 0.9)]],
    5: [[(0.75, 0.1), (0.26, 0.12), (0.22, 0.46), (0.6, 0.42), (0.78, 0.64), (0.6, 0.9), (0.22, 0.84)]],
    6: [[(0.66, 0.1), (0.38, 0.3), (0.26, 0.58), (0.4, 0.88), (0.64, 0.84), (0.7, 0.6), (0.5, 0.46), (0.3, 0.56)]],
    7: [[(0.2, 0.12), (0.78, 0.12), (0.44, 0.9)]],
    8: [_ring(0.5, 0.29, 0.18, 0.17), _ring(0.5, 0.67, 0.23, 0.21)],
    9: [_ring(0.52, 0.32, 0.2, 0.2), [(0.72, 0.34), (0.66, 0.9)]],
}


def _segment_distance(gx: np.ndarray, gy: np.ndarray, p, q) -> np.ndarray:
    px, py = p
    qx, qy = q
    vx, vy = qx - px, qy - py
    vv = vx * vx + vy * vy
    if vv == 0.0:
        return np.hypot(gx - px, gy - py)
    t = np.clip(((gx - px) * vx + (gy - py) * vy) / vv, 0.0, 1.0)
    return np.hypot(gx - (px + t * vx), gy - (py + t * vy))


def _render(digit: int, rng: np.random.Generator) -> np.ndarray:
    scale = rng.uniform(0.72, 1.12)
    angle = rng.uniform(-0.3, 0.3)
    shear = rng.uniform(-0.22, 0.22)
    dx, dy = rng.uniform(-0.08, 0.08, size=2)
    peak = rng.uniform(200.0, 255.0)

    cos_a, sin_a = np.cos(angle), np.sin(angle)
    gy, gx = np.mgrid[0:SIDE, 0:SIDE].astype(np.float64)
    img = np.zeros((SIDE, SIDE))
    for stroke in _GLYPHS[digit]:
        sigma = rng.uniform(0.7, 1.45)
        pts = []
        for x, y in stroke:
            # wobble each vertex, then center, shear, rotate, scale, translate,
            # and map to pixels -- no two renderings share stroke geometry
            u, v = x - 0.5 + rng.uniform(-0.035, 0.035), y - 0.5 + rng.uniform(-0.035, 0.035)
            u += shear * v
            u, v = cos_a * u - sin_a * v, sin_a * u + cos_a * v
            pts.append(((u * scale + 0.5 + dx) * 22 + 3, (v * scale + 0.5 + dy) * 22 + 3))
        for p, q in zip(pts[:-1], pts[1:]):
            d = _segment_distance(gx, gy, p, q)
            shade = peak * rng.uniform(0.82, 1.0)
            img = np.maximum(img, shade * np.exp(-0.5 * (d / sigma) ** 2))
    return np.floor(np.clip(img, 0.0, 255.0) + 0.5)


def make_digit_images(count: int, seed: int) -> np.ndarray:
    """``count`` digit images, shape (count, 28, 28), values in [0, 255].

    Digits cycle 0..9; strokes get a per-image random affine jitter and
    stroke width, all drawn from one generator so the set is reproducible.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    return np.stack([_render(i % 10, rng) for i in range(count)])


def generate_idx(path, count: int, seed: int):
    """Render ``count`` synthetic digits and write them to ``path``; returns ``path``."""
    data.write_idx_images(path, make_digit_images(count, seed))
    return path
