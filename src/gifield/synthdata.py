"""Synthetic handwritten-style digit images in the IDX format.

Generates 28x28 grayscale digits from jittered stroke templates so demos and
tests can run self-contained, without shipping a dataset. Images follow the
[0, 255] intensity convention used everywhere else in the package, and
:func:`generate_idx` writes them through :func:`gifield.data.write_idx_images`.

A corpus is a function of ``(count, seed)`` alone, fixed by one stream of
uniform draws, ``default_rng(seed).random(total)``. Image ``i`` shows digit
``i % 10`` and takes the next draws of the stream, in this order: scale,
angle, shear, x shift, y shift and peak intensity; then, stroke by stroke,
the stroke width, two wobbles (x, y) per vertex and one shade per segment.
A draw ``u`` on ``[low, high)`` is ``low + (high - low) * u``, what
``Generator.uniform`` computes. So the first ``c`` images of a corpus are the
whole corpus of ``c`` images with the same seed.

Rendering works on all the images of one digit together, in blocks of at
most ``_BLOCK`` images, so each pixel work array holds at most ``_BLOCK``
images whatever the count. Each pixel goes through the same floating-point
operations, in the same order, as when its image is rendered alone.
"""

from __future__ import annotations

import numpy as np

from . import data

SIDE = 28
_BLOCK = 64  # images rendered together: a 64 x 28 x 28 work array is 392 KiB

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

# draws per image: 6 for the pose and peak, then 1 + 2 V + (V - 1) = 3 V per stroke of V vertices
_DRAWS = [6 + sum(3 * len(stroke) for stroke in _GLYPHS[digit]) for digit in range(10)]


def _segment_distance(gx: np.ndarray, gy: np.ndarray, p, q) -> np.ndarray:
    """Distance from each pixel ``(gx, gy)`` to the segment from ``p`` to ``q``.

    The end points may be per-image arrays of shape (n, 1, 1), which broadcast
    over the pixel grid. A segment of zero length gives the distance to its point.
    """
    px, py = p
    qx, qy = q
    vx, vy = qx - px, qy - py
    vv = vx * vx + vy * vy
    along = (gx - px) * vx + (gy - py) * vy
    # t stays 0 where vv == 0, and px + 0 * vx is px
    t = np.divide(along, vv, out=np.zeros_like(along), where=vv != 0.0)
    np.clip(t, 0.0, 1.0, out=t)
    return np.hypot(gx - (px + t * vx), gy - (py + t * vy))


def _render(digit: int, draws: np.ndarray) -> np.ndarray:
    """Images of ``digit``, one per row of ``draws`` (its uniform draws, in stream order)."""
    columns = iter(draws.T)

    def uniform(low: float, high: float) -> np.ndarray:
        return low + (high - low) * next(columns)[:, None, None]

    scale = uniform(0.72, 1.12)
    angle = uniform(-0.3, 0.3)
    shear = uniform(-0.22, 0.22)
    dx = uniform(-0.08, 0.08)
    dy = uniform(-0.08, 0.08)
    peak = uniform(200.0, 255.0)

    cos_a, sin_a = np.cos(angle), np.sin(angle)
    gy, gx = np.mgrid[0:SIDE, 0:SIDE].astype(np.float64)
    img = np.zeros((len(draws), SIDE, SIDE))
    for stroke in _GLYPHS[digit]:
        sigma = uniform(0.7, 1.45)
        pts = []
        for x, y in stroke:
            # wobble each vertex, then center, shear, rotate, scale, translate,
            # and map to pixels -- no two renderings share stroke geometry
            u, v = x - 0.5 + uniform(-0.035, 0.035), y - 0.5 + uniform(-0.035, 0.035)
            u += shear * v
            u, v = cos_a * u - sin_a * v, sin_a * u + cos_a * v
            pts.append(((u * scale + 0.5 + dx) * 22 + 3, (v * scale + 0.5 + dy) * 22 + 3))
        for p, q in zip(pts[:-1], pts[1:]):
            d = _segment_distance(gx, gy, p, q)
            shade = peak * uniform(0.82, 1.0)
            np.maximum(img, shade * np.exp(-0.5 * (d / sigma) ** 2), out=img)
    return np.floor(np.clip(img, 0.0, 255.0) + 0.5)


def make_digit_images(count: int, seed: int) -> np.ndarray:
    """``count`` digit images, shape (count, 28, 28), values in [0, 255].

    Digits cycle 0..9; strokes get a per-image random affine jitter and
    stroke width. Image ``i`` takes its draws from one stream,
    ``default_rng(seed).random(total)``, right after those of image ``i - 1``:
    6 pose draws (scale, angle, shear, x and y shift, peak), then per stroke
    its width, two wobbles per vertex and one shade per segment. So the set is
    reproducible, and ``make_digit_images(c, seed)`` is the first ``c`` images
    of ``make_digit_images(c2, seed)`` for any ``c2 > c``. All images of one
    digit are rendered together, ``_BLOCK`` at a time.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    sizes = np.array(_DRAWS)[np.arange(count) % 10]
    starts = np.cumsum(sizes) - sizes
    stream = np.random.default_rng(seed).random(int(sizes.sum()))
    images = np.empty((count, SIDE, SIDE))
    for digit in range(10):
        for first in range(digit, count, 10 * _BLOCK):
            block = np.arange(first, min(count, first + 10 * _BLOCK), 10)
            images[block] = _render(digit, stream[starts[block, None] + np.arange(_DRAWS[digit])])
    return images


def generate_idx(path, count: int, seed: int):
    """Render ``count`` synthetic digits and write them to ``path``; returns ``path``."""
    data.write_idx_images(path, make_digit_images(count, seed))
    return path
