"""Reconstruction-quality metrics (MSE, PSNR, global SSIM) and mutual coherence.

SSIM here is the single-window variant: one set of image-level moments
(population 1/mn normalization), no sliding window. Values will therefore not
match windowed SSIM implementations such as scikit-image's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DYNAMIC_RANGE = 255.0

# columns per Gram block in mutual_coherence; bounds its work buffer
_GRAM_BLOCK = 128


def _check_same_shape(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"image shapes differ: {x.shape} vs {y.shape}")
    return x, y


def mse(x, y, *, axis=None):
    """Mean squared pixel difference.

    With ``axis=None`` both images are scored as a whole and a float is
    returned. With an axis (``axis=0`` for images stored as columns) every
    image along the other axes is scored at once and an array comes back.
    """
    x, y = _check_same_shape(x, y)
    if axis is None:
        return float(np.mean((x - y) ** 2))
    return np.mean((x - y) ** 2, axis=axis)


def psnr(x, y, *, axis=None):
    """Peak signal-to-noise ratio in dB for a peak of ``DYNAMIC_RANGE`` (255).

    +inf when the images are identical. ``axis`` works as in :func:`mse`.
    """
    err = mse(x, y, axis=axis)
    if axis is None:
        if err == 0.0:
            return math.inf
        return 10.0 * math.log10(DYNAMIC_RANGE**2 / err)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(DYNAMIC_RANGE**2 / err)


def ssim(x, y, *, axis=None):
    """Structural similarity with a single window spanning the whole image.

    Uses population moments and the usual stabilizers c1 = (0.01*B)^2,
    c2 = (0.03*B)^2 with B = ``DYNAMIC_RANGE`` (255), so constant images
    compare cleanly (ssim(x, x) == 1). ``axis`` works as in :func:`mse`.
    """
    x, y = _check_same_shape(x, y)
    c1 = (0.01 * DYNAMIC_RANGE) ** 2
    c2 = (0.03 * DYNAMIC_RANGE) ** 2
    mu_x = np.mean(x, axis=axis, keepdims=True)
    mu_y = np.mean(y, axis=axis, keepdims=True)
    dx = x - mu_x
    dy = y - mu_y
    var_x = np.mean(dx * dx, axis=axis)
    var_y = np.mean(dy * dy, axis=axis)
    cov = np.mean(dx * dy, axis=axis)
    mu_x = np.squeeze(mu_x, axis=axis)
    mu_y = np.squeeze(mu_y, axis=axis)
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return float(num / den) if axis is None else num / den


def mutual_coherence(d: np.ndarray) -> float:
    """Largest normalized inner product between distinct columns of ``d``.

    Exact over all column pairs; always in [0, 1]. The columns are
    normalized once, and only the upper block triangle of their Gram is
    formed, ``_GRAM_BLOCK`` columns at a time into one reused buffer. The
    winning pair's cosine is then taken afresh from its two columns, so
    that a repeated (or negated) column gives exactly 1.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[1] < 2:
        raise ValueError("need a matrix with at least 2 columns")
    norms = np.linalg.norm(d, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("zero column in coherence computation")
    d = d / norms
    k = d.shape[1]
    buf = np.empty(k * min(k, _GRAM_BLOCK))
    best, pair = -1.0, (0, 1)
    for first in range(0, k, _GRAM_BLOCK):
        stop = min(first + _GRAM_BLOCK, k)
        width = stop - first
        # rows 0..stop of this column block hold every pair (i, j) with i <= j
        g = buf[: stop * width].reshape(stop, width)
        np.matmul(d[:, :stop].T, d[:, first:stop], out=g)
        np.abs(g, out=g)
        own = np.arange(width)
        g[first + own, own] = -1.0  # a column paired with itself never wins
        at = int(np.argmax(g))
        if g.flat[at] > best:
            best = float(g.flat[at])
            pair = (at // width, first + at % width)
    a, b = d[:, pair[0]], d[:, pair[1]]
    return min(abs(float(a @ b)) / math.sqrt(float(a @ a) * float(b @ b)), 1.0)


@dataclass(frozen=True)
class QualityReport:
    """Aggregate metrics over a set of reconstructed images.

    PSNR statistics exclude infinite values (exact reconstructions); if
    every value is infinite the mean is +inf and the std 0. Standard
    deviations are population (1/n) ones.
    """

    psnr_mean: float
    psnr_std: float
    ssim_mean: float
    ssim_std: float


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    return float(np.mean(values)), float(np.std(values))


def aggregate(mse_values, psnr_values, ssim_values) -> QualityReport:
    """Summarize per-image metric triples into a :class:`QualityReport`."""
    mses = np.asarray(mse_values, dtype=np.float64)
    psnrs = np.asarray(psnr_values, dtype=np.float64)
    ssims = np.asarray(ssim_values, dtype=np.float64)
    if mses.size == 0:
        raise ValueError("cannot aggregate an empty metric set")
    if not (mses.size == psnrs.size == ssims.size):
        raise ValueError("metric arrays must have equal length")
    finite = np.isfinite(psnrs)
    psnr_stats = _mean_std(psnrs[finite]) if finite.any() else (math.inf, 0.0)
    return QualityReport(*psnr_stats, *_mean_std(ssims))
