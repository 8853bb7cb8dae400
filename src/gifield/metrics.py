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


def _images(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"image shapes differ: {x.shape} vs {y.shape}")
    if x.ndim not in (1, 2) or not len(x):
        raise ValueError(f"images of shape {x.shape}: need an N-vector or an N x L stack")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("image holds a non-finite pixel")
    return x, y


def mse(x, y):
    """Mean squared pixel difference: one score for two N-vector images, one per
    column for two N x L stacks, as :func:`gifield.measure` takes images (so a
    2-D image is flattened first). Any other shape, shapes that differ or a
    non-finite pixel is a ``ValueError``.
    """
    x, y = _images(x, y)
    return np.mean((x - y) ** 2, axis=0)


def psnr(x, y):
    """Peak signal-to-noise ratio in dB for a peak of ``DYNAMIC_RANGE`` (255).

    +inf when the images are identical. Takes images as :func:`mse` does.
    """
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(np.divide(DYNAMIC_RANGE**2, mse(x, y)))


def ssim(x, y):
    """Structural similarity with a single window spanning the whole image.

    Uses population moments and the usual stabilizers c1 = (0.01*B)^2,
    c2 = (0.03*B)^2 with B = ``DYNAMIC_RANGE`` (255), so constant images
    compare cleanly (ssim(x, x) == 1). Takes images as :func:`mse` does.
    """
    x, y = _images(x, y)
    c1 = (0.01 * DYNAMIC_RANGE) ** 2
    c2 = (0.03 * DYNAMIC_RANGE) ** 2
    mu_x = np.mean(x, axis=0)
    mu_y = np.mean(y, axis=0)
    dx = x - mu_x
    dy = y - mu_y
    var_x = np.mean(dx * dx, axis=0)
    var_y = np.mean(dy * dy, axis=0)
    cov = np.mean(dx * dy, axis=0)
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return num / den


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
    """PSNR and SSIM statistics over a set of reconstructed images.

    PSNR statistics exclude +inf values (exact reconstructions); if every
    value is +inf the mean is +inf and the std 0. Standard deviations are
    population (1/n) ones.
    """

    psnr_mean: float
    psnr_std: float
    ssim_mean: float
    ssim_std: float


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    return float(np.mean(values)), float(np.std(values))


def aggregate(psnr_values, ssim_values) -> QualityReport:
    """Summarize per-image PSNR and SSIM scores into a :class:`QualityReport`.

    A PSNR is finite or +inf (exact); a NaN or -inf PSNR, a non-finite SSIM,
    no scores or lengths that differ are a ``ValueError``.
    """
    psnrs = np.asarray(psnr_values, dtype=np.float64)
    ssims = np.asarray(ssim_values, dtype=np.float64)
    if psnrs.size == 0:
        raise ValueError("cannot aggregate an empty metric set")
    if psnrs.size != ssims.size:
        raise ValueError("metric arrays must have equal length")
    finite = np.isfinite(psnrs)
    if not (finite | (psnrs == math.inf)).all():
        raise ValueError("a PSNR is NaN or -inf; only +inf marks an exact reconstruction")
    if not np.isfinite(ssims).all():
        raise ValueError("an SSIM is not finite")
    psnr_stats = _mean_std(psnrs[finite]) if finite.any() else (math.inf, 0.0)
    return QualityReport(*psnr_stats, *_mean_std(ssims))
