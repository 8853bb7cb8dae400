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
images whatever the count. Each stroke segment is painted only inside one
window per image: the grid pixels within ``_REACH`` stroke widths
(R = sqrt(12.5) sigma) of the segment's bounding box. The windows of a block
share one size, the largest its images need, and a window that would
overhang the grid slides back onto it.

This keeps every byte of a full-grid rendering. Inside its window, each
pixel goes through the same floating-point operations, in the same order,
as when its image is rendered alone on the whole grid. Outside it, the pixel
lies more than R sigma from the segment, which adds at most
255 exp(-R**2 / 2) = 0.4923 to it, since no shade exceeds 255. A pixel's
byte is ``floor(clip(m) + 0.5)`` of the largest value ``m`` its segments give
it. Leaving out a value below 0.5 changes ``m`` only where that value was the
largest, and then ``m`` stays below 0.5 and the byte stays 0. So each pixel
gets the same operations wherever a segment can reach.
"""

from __future__ import annotations

import numpy as np

from . import data

SIDE = 28
_BLOCK = 64  # images rendered together: a 64 x 28 x 28 work array is 392 KiB
# a segment paints pixels within _REACH stroke widths of it: beyond, it adds at
# most 255 * exp(-_REACH**2 / 2) = 0.4923 to a pixel, which rounds to 0
_REACH = np.sqrt(12.5)

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

    Pixels and end points broadcast together. :func:`_render` passes each
    image's window, ``gx`` of shape (n, 1, w) and ``gy`` of shape (n, h, 1),
    with end points of shape (n, 1, 1), for distances of shape (n, h, w). A
    segment of zero length gives the distance to its point.
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


def _window(low: np.ndarray, high: np.ndarray) -> tuple[np.ndarray, int]:
    """Each image's first pixel on one axis, and one length for all images,
    so that each window holds the image's grid pixels in ``[low, high]``; a
    window that would overhang the grid slides back onto it."""
    first = np.clip(np.ceil(low), 0, SIDE).astype(np.intp)
    stop = np.clip(np.floor(high) + 1, 0, SIDE).astype(np.intp)
    length = int((stop - first).max())
    return np.minimum(first, SIDE - length), length


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
    img = np.zeros((len(draws), SIDE, SIDE))
    pixels = img.reshape(-1)
    image_start = np.arange(len(draws))[:, None, None] * (SIDE * SIDE)
    for stroke in _GLYPHS[digit]:
        sigma = uniform(0.7, 1.45)
        reach = _REACH * sigma
        pts = []
        for x, y in stroke:
            # wobble each vertex, then center, shear, rotate, scale, translate,
            # and map to pixels -- no two renderings share stroke geometry
            u, v = x - 0.5 + uniform(-0.035, 0.035), y - 0.5 + uniform(-0.035, 0.035)
            u += shear * v
            u, v = cos_a * u - sin_a * v, sin_a * u + cos_a * v
            pts.append(((u * scale + 0.5 + dx) * 22 + 3, (v * scale + 0.5 + dy) * 22 + 3))
        for p, q in zip(pts[:-1], pts[1:]):
            # the segment's box grown by its reach, on the grid: (n, 1, w) columns, (n, h, 1) rows
            x0, w = _window(np.minimum(p[0], q[0]) - reach, np.maximum(p[0], q[0]) + reach)
            y0, h = _window(np.minimum(p[1], q[1]) - reach, np.maximum(p[1], q[1]) + reach)
            cols = x0 + np.arange(w)
            rows = y0 + np.arange(h)[:, None]
            d = _segment_distance(cols.astype(np.float64), rows.astype(np.float64), p, q)
            shade = peak * uniform(0.82, 1.0)
            at = image_start + rows * SIDE + cols
            pixels[at] = np.maximum(pixels[at], shade * np.exp(-0.5 * (d / sigma) ** 2))
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
