"""Reconstruction-quality metrics (MSE, PSNR, global SSIM) and mutual coherence.

SSIM here is the single-window variant: one set of image-level moments
(population 1/mn normalization), no sliding window. Values will therefore not
match windowed SSIM implementations such as scikit-image's.
"""

from __future__ import annotations

import math
import operator
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
    err = np.mean((x - y) ** 2, axis=axis)
    return float(err) if axis is None else err


def psnr(x, y, *, axis=None):
    """Peak signal-to-noise ratio in dB for a peak of ``DYNAMIC_RANGE`` (255).

    +inf when the images are identical. ``axis`` works as in :func:`mse`.
    """
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(np.divide(DYNAMIC_RANGE**2, mse(x, y, axis=axis)))
    return float(db) if axis is None else db


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


def mutual_coherence(d: np.ndarray, prefixes=None):
    """Largest normalized inner product between distinct columns of ``d``.

    Exact over all column pairs; always in [0, 1]. Without ``prefixes`` the
    coherence of the whole matrix comes back as a float. With a sequence of
    row counts, an array comes back: the coherence of ``d[:m]`` for each
    ``m``, in the order given, as :func:`mutual_coherence` of ``d[:m]`` would
    give it.

    Columns are first scaled by exact powers of two, so huge or tiny ones
    give their unit-scale value; a prefix whose squares still underflow is
    taken by a call on ``d[:m]``, scaled by its own maxima. Only the Gram's
    upper block triangle is formed, ``_GRAM_BLOCK`` columns at a time, each
    block in two buffers: it grows by the rows between sorted prefixes and is
    scaled by each prefix's inverse column norms to pick its best pair. The
    winner's cosine is taken afresh from its normalized columns: a repeated
    or negated one gives 1.0.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[1] < 2:
        raise ValueError("need a matrix with at least 2 columns")
    if not np.isfinite(d).all():
        raise ValueError("coherence needs a matrix of finite entries")
    _, exponents = np.frexp(np.maximum(d.max(axis=0), -d.min(axis=0)))
    given, d = d, np.ldexp(d, -exponents)
    rows, k = d.shape
    wanted = [rows] if prefixes is None else [operator.index(m) for m in prefixes]
    if not wanted:
        raise ValueError("need at least one row prefix")
    if not all(1 <= m <= rows for m in wanted):
        raise ValueError(f"row prefixes must lie in 1..{rows}, not {wanted}")
    steps = sorted(set(wanted))
    squares = d * d
    np.cumsum(squares, axis=0, out=squares)
    sums = squares[[m - 1 for m in steps]]  # squared column norms of each prefix
    del squares
    coherence = {}
    low = (sums < np.finfo(np.float64).tiny).any(axis=1)
    if low.any():
        # a prefix whose squares underflow at the whole column's scale takes its
        # own call, which scales by the prefix's maxima; a zero column has none
        nonzero = np.logical_or.accumulate(given != 0.0, axis=0)
        if not nonzero[[m - 1 for m in steps]].all():
            raise ValueError("zero column in coherence computation")
        coherence = {m: mutual_coherence(given[:m]) for m, redo in zip(steps, low) if redo}
        steps = [m for m in steps if m not in coherence]
        sums = sums[~low]
    inverse = 1.0 / np.sqrt(sums)
    best = np.full(len(steps), -1.0)
    pairs = [(0, 1)] * len(steps)
    gram_buf, scan_buf = np.empty((2, k * min(k, _GRAM_BLOCK)))
    for first in range(0, k, _GRAM_BLOCK):
        stop = min(first + _GRAM_BLOCK, k)
        width = stop - first
        # rows 0..stop of this column block hold every pair (i, j) with i <= j
        gram = gram_buf[: stop * width].reshape(stop, width)
        g = scan_buf[: stop * width].reshape(stop, width)
        gram.fill(0.0)
        own = np.arange(width)
        grown = 0
        for s, m in enumerate(steps):
            np.matmul(d[grown:m, :stop].T, d[grown:m, first:stop], out=g)
            gram += g
            grown = m
            np.multiply(gram, inverse[s, :stop, None], out=g)
            g *= inverse[s, first:stop]
            np.abs(g, out=g)
            g[first + own, own] = -1.0  # a column paired with itself never wins
            at = int(np.argmax(g))
            if g.flat[at] > best[s]:
                best[s] = g.flat[at]
                pairs[s] = (at // width, first + at % width)
    for s, m in enumerate(steps):
        # row-major, so that the norms and dot products round as they do for
        # the columns of ``d[:m] / np.linalg.norm(d[:m], axis=0)``
        cols = np.ascontiguousarray(d[:m, list(pairs[s])])
        a, b = (cols / np.linalg.norm(cols, axis=0)).T
        coherence[m] = min(abs(float(a @ b)) / math.sqrt(float(a @ a) * float(b @ b)), 1.0)
    if prefixes is None:
        return coherence[rows]
    return np.array([coherence[m] for m in wanted])


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
