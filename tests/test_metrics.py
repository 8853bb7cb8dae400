"""Metric oracles: hand-derived values, symmetry, and brute-force coherence."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gifield as gf
from gifield import synthdata


def test_mse_values():
    x = np.zeros(784)
    assert gf.mse(x, x) == 0.0
    assert gf.mse(x, np.full(784, 255.0)) == 65025.0
    y = x.copy()
    y[100] = 1.0
    assert np.isclose(gf.mse(x, y), 1.0 / 784, rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        gf.mse(x, np.zeros(10))


def test_psnr_values():
    x = np.zeros(784)
    assert gf.psnr(x, np.full(784, 255.0)) == 0.0
    assert gf.psnr(x, x) == math.inf
    y = x.copy()
    y[0] = 1.0
    # MSE = 1/784, so PSNR = 10*log10(255^2 * 784)
    expected = 10 * math.log10(65025 * 784)
    assert np.isclose(gf.psnr(x, y), expected, rtol=1e-12)
    assert abs(expected - 77.07) < 0.01


def test_metric_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(0, 255, size=100)
        y = rng.uniform(0, 255, size=100)
        assert gf.mse(x, y) == gf.mse(y, x)
        assert gf.psnr(x, y) == gf.psnr(y, x)
        assert np.isclose(gf.ssim(x, y), gf.ssim(y, x), rtol=1e-13)


def test_ssim_identity_exact():
    rng = np.random.default_rng(1)
    for x in (rng.uniform(0, 255, size=784), np.zeros(16), np.full(9, 200.0)):
        assert gf.ssim(x, x) == 1.0


def test_ssim_constant_images():
    x = np.zeros(784)
    y = np.full(784, 255.0)
    c1 = (0.01 * 255) ** 2
    expected = c1 / (255.0**2 + c1)
    assert np.isclose(gf.ssim(x, y), expected, rtol=1e-12)
    assert np.isclose(expected, 1.0e-4, rtol=2e-2)


def test_ssim_inverted_digit_negative():
    digit = synthdata.make_digit_images(3, seed=4)[2].ravel()
    inverted = 255.0 - digit
    assert gf.ssim(digit, inverted) < 0.0


def test_mutual_coherence_trivials():
    assert gf.mutual_coherence(np.eye(6)) == 0.0
    d = np.random.default_rng(2).standard_normal((10, 4))
    d[:, 3] = 2.5 * d[:, 0]  # duplicated (scaled) column
    assert np.isclose(gf.mutual_coherence(d), 1.0, rtol=0, atol=1e-12)
    pair = np.array([[1.0, 1.0 / math.sqrt(2)], [0.0, 1.0 / math.sqrt(2)]])
    assert np.isclose(gf.mutual_coherence(pair), 2 ** -0.5, rtol=1e-12)


def test_mutual_coherence_against_brute_force():
    rng = np.random.default_rng(3)
    for cols in (3, 8):
        d = rng.standard_normal((50, cols))
        best = 0.0
        for i in range(cols):
            for j in range(i + 1, cols):
                num = abs(float(d[:, i] @ d[:, j]))
                best = max(best, num / (np.linalg.norm(d[:, i]) * np.linalg.norm(d[:, j])))
        assert np.isclose(gf.mutual_coherence(d), best, rtol=0, atol=1e-12)


def test_mutual_coherence_invariances():
    rng = np.random.default_rng(4)
    d = rng.standard_normal((30, 12))
    mu = gf.mutual_coherence(d)
    assert 0.0 <= mu <= 1.0
    scaled = d * rng.uniform(0.1, 10.0, size=12)
    assert np.isclose(gf.mutual_coherence(scaled), mu, rtol=1e-12)
    perm = d[:, rng.permutation(12)]
    assert np.isclose(gf.mutual_coherence(perm), mu, rtol=1e-12)


@pytest.mark.parametrize(
    "scale",
    [2.0**530, 2.0**-565, np.array([2.0**530, 1.0, 2.0**-565, 1.0, 2.0**-300, 1.0])],
    ids=["squares-overflow", "squares-underflow", "per-column"],
)
def test_mutual_coherence_at_the_ends_of_the_float_range(scale):
    """Columns whose squares overflow or underflow give, bitwise, the value
    the matrix has at unit scale; a power of two moves no bit of it."""
    d = np.random.default_rng(8).standard_normal((5, 6))
    assert gf.mutual_coherence(d * scale) == gf.mutual_coherence(d)
    np.testing.assert_array_equal(
        gf.mutual_coherence(d * scale, [5, 2]), gf.mutual_coherence(d, [5, 2])
    )


def test_mutual_coherence_of_a_prefix_that_underflows():
    """A prefix whose squares underflow at its column's whole-length scale
    gives what the call on the prefix alone gives; a column that is truly
    zero in a prefix is still refused."""
    d = np.array([[1e-200, 1.0, 0.3], [1.0, 0.5, 0.2], [0.2, 0.1, 0.9]])
    assert gf.mutual_coherence(d[:1]) == 1.0
    np.testing.assert_array_equal(gf.mutual_coherence(d, [1, 3]), [1.0, gf.mutual_coherence(d)])
    np.testing.assert_array_equal(
        gf.mutual_coherence(d, [3, 2, 1]), [gf.mutual_coherence(d[:m]) for m in (3, 2, 1)]
    )
    d[0, 0] = 0.0
    with pytest.raises(ValueError, match="zero column in coherence computation"):
        gf.mutual_coherence(d, [1, 3])


def test_mutual_coherence_errors():
    with pytest.raises(ValueError, match="zero column in coherence computation"):
        d = np.ones((5, 3))
        d[:, 1] = 0.0
        gf.mutual_coherence(d)
    with pytest.raises(ValueError):
        gf.mutual_coherence(np.ones((5, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("prefixes", [None, [2, 5]])
def test_mutual_coherence_refuses_non_finite_entries(bad, prefixes):
    """A NaN would lose every argmax and an infinity every norm, and each
    would still give a plausible number; both are refused before any work."""
    d = np.random.default_rng(6).standard_normal((5, 6))
    d[3, 2] = bad
    args = () if prefixes is None else (prefixes,)
    with pytest.raises(ValueError, match="finite"):
        gf.mutual_coherence(d, *args)


def test_mutual_coherence_prefix_errors():
    d = np.random.default_rng(7).standard_normal((5, 4))
    for prefixes in ([0], [6], [3, 6], [-1, 2], []):
        with pytest.raises(ValueError, match="prefix"):
            gf.mutual_coherence(d, prefixes)
    # a column that is zero in the first two rows only: its short prefix is
    # refused, as a call on d[:2] alone is, while longer ones are not
    d[:2, 1] = 0.0
    assert gf.mutual_coherence(d, [5, 3]).shape == (2,)
    with pytest.raises(ValueError, match="zero column in coherence computation"):
        gf.mutual_coherence(d, [5, 2, 3])
    with pytest.raises(ValueError, match="zero column in coherence computation"):
        gf.mutual_coherence(d[:2])


def _dense_coherence(d):
    """Every cosine from the full Gram, in extended precision."""
    g = d.astype(np.longdouble).T @ d.astype(np.longdouble)
    norms = np.sqrt(np.diag(g))
    cosines = np.abs(g) / np.outer(norms, norms)
    np.fill_diagonal(cosines, 0.0)
    return float(cosines.max())


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    k=st.sampled_from([2, 127, 128, 129, 257]),
    m=st.integers(1, 50),
    columns=st.sampled_from(["iid", "clustered"]),
    repeat=st.sampled_from(["none", "copy", "negated"]),
    into_last=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=129, m=50, columns="iid", repeat="copy", into_last=True, seed=0)  # the last block, one column
@example(k=257, m=40, columns="iid", repeat="negated", into_last=False, seed=1)
@example(k=2, m=1, columns="iid", repeat="none", into_last=False, seed=2)
@example(k=257, m=50, columns="clustered", repeat="none", into_last=False, seed=3)
def test_mutual_coherence_matches_the_dense_gram(k, m, columns, repeat, into_last, seed):
    """The blocked upper-triangle Gram against every cosine of the full one,
    across block edges, for the whole matrix and for row prefixes in any
    order; a repeated column gives exactly 1. Clustered columns, a few base
    columns plus small noise as in a trained dictionary, keep one pair on top
    over many prefixes, so most of them are screened rather than scanned."""
    rng = np.random.default_rng(seed)
    if columns == "clustered":
        base = rng.standard_normal((m, 3))
        d = base[:, rng.integers(0, 3, size=k)] + 0.01 * rng.standard_normal((m, k))
    else:
        d = rng.standard_normal((m, k))
    d *= rng.uniform(0.1, 10.0, size=k)
    if repeat != "none":
        i, j = sorted(rng.choice(k, size=2, replace=False))
        if into_last:
            j = k - 1
            i = min(i, k - 2)
        d[:, j] = d[:, i] if repeat == "copy" else -d[:, i]
    mu = gf.mutual_coherence(d)
    if repeat != "none":
        assert mu == 1.0
    assert abs(mu - min(_dense_coherence(d), 1.0)) <= 1e-15

    # unsorted, possibly repeated, always holding 1 and the full row count
    prefixes = rng.permutation([1, m, *rng.integers(1, m + 1, size=rng.integers(4, 11))])
    mus = gf.mutual_coherence(d, prefixes)
    assert mus.shape == prefixes.shape
    assert np.array_equal(mus, [gf.mutual_coherence(d[:p]) for p in prefixes])
    for p, mu_p in zip(prefixes, mus):
        assert abs(mu_p - min(_dense_coherence(d[:p]), 1.0)) <= 1e-12
    if repeat != "none":
        assert np.all(mus == 1.0)


def test_mutual_coherence_rescans_a_prefix_the_bound_cannot_certify():
    """A pair far below the screen's floor at one prefix, which the next rows
    give nearly all their energy and turn almost parallel, wins at the next:
    the bound on the pairs left out decides, not the pairs kept."""
    rng = np.random.default_rng(11)
    a, m, k = 20, 24, 200
    d = rng.standard_normal((m, k))
    d[:a, 1] = d[:a, 0] + 0.1 * rng.standard_normal(a)  # the best pair at a
    i, j = 7, 150  # orthogonal at a, in different column blocks
    d[:a, j] -= d[:a, i] * (d[:a, i] @ d[:a, j]) / (d[:a, i] @ d[:a, i])
    d[a:] *= 0.01
    d[a:, i] = 100.0 * rng.standard_normal(m - a)
    d[a:, j] = d[a:, i] + 0.01 * rng.standard_normal(m - a)
    mus = gf.mutual_coherence(d, [a, m])
    assert np.array_equal(mus, [gf.mutual_coherence(d[:a]), gf.mutual_coherence(d)])
    assert abs(mus[1] - _dense_coherence(d)) <= 1e-12
    assert _dense_coherence(d[:a, [i, j]]) < 1e-12  # far below the floor at a
    assert mus[1] == gf.mutual_coherence(d[:, [i, j]]) > mus[0]  # and the best pair at m


def test_mutual_coherence_prefixes_match_single_calls_on_a_seeded_fuzz():
    """3000 small matrices, every third one two near-parallel column
    clusters, each with up to 6 row prefixes: every screened or scanned
    prefix gives its single call's value. Clusters put left-out pairs near
    the screen's bound, where a certification margin that is too loose
    shows."""
    short = []
    n_values = 0
    for seed in range(3000):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(4, 40), rng.integers(3, 40)
        if seed % 3 == 0:
            base = rng.standard_normal((rows, 2))
            d = base[:, rng.integers(0, 2, size=cols)] + 0.05 * rng.standard_normal((rows, cols))
        else:
            d = rng.standard_normal((rows, cols))
        prefixes = np.unique(rng.integers(2, rows + 1, size=6))
        mus = gf.mutual_coherence(d, prefixes)
        n_values += mus.size
        short += [(seed, m, mu) for m, mu in zip(prefixes, mus)
                  if abs(mu - gf.mutual_coherence(d[:m])) > 1e-12]
    assert n_values > 15000
    assert not short, f"(seed, prefix, value) off their single calls: {short}"


@pytest.mark.parametrize("prefixes", [[40, 400], None, range(8, 401, 8)], ids=["gap", "single", "grid"])
def test_mutual_coherence_certifies_a_wide_prefix_gap_in_small_gathers(prefixes):
    """Certifying prefix 400 from a screen at 40 adds 360 rows to about 8000
    kept pairs; the rows gathered per slice are bounded, and a call holds one
    block Gram at a time, whatever its prefixes, so its traced peak stays near
    its inputs (3.1 MiB for 400 x 1024) and their squares."""
    rng = np.random.default_rng(0)
    base = rng.standard_normal((400, 64))
    d = np.repeat(base, 16, axis=1) + 0.05 * rng.standard_normal((400, 1024))  # 16-column clusters
    args = () if prefixes is None else (prefixes,)
    tracemalloc.start()
    try:
        mus = gf.mutual_coherence(d, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
    expected = [gf.mutual_coherence(d[:m]) for m in ([400] if prefixes is None else prefixes)]
    assert np.array_equal(np.atleast_1d(mus), expected)


@pytest.mark.parametrize("k", [2, 127, 128, 129, 257])
def test_mutual_coherence_orthonormal_is_zero(k):
    rng = np.random.default_rng(k)
    basis = np.eye(k)[:, rng.permutation(k)] * rng.choice([-1.0, 1.0], size=k)
    assert gf.mutual_coherence(basis) == 0.0
    assert gf.mutual_coherence(basis * rng.uniform(0.5, 2.0, size=k)) == 0.0


def test_metrics_along_axis_match_single_images():
    """An N x L stack scores each column as that column alone would score."""
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 255, size=(784, 12))
    y = x + rng.normal(0.0, 20.0, size=x.shape)
    y[:, 3] = x[:, 3]  # an exact reconstruction
    y[:, 5] = 255.0 - x[:, 5]
    x[:, 7] = y[:, 7] = 200.0  # constant and identical
    for metric in (gf.mse, gf.psnr, gf.ssim):
        batch = metric(x, y)
        assert batch.shape == (12,)
        singles = [metric(x[:, i], y[:, i]) for i in range(12)]
        assert all(isinstance(score, float) for score in singles)
        np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=0)
    for i in (3, 7):
        assert gf.mse(x, y)[i] == 0.0
        assert gf.psnr(x, y)[i] == math.inf
        assert gf.ssim(x, y)[i] == 1.0
    assert gf.ssim(x, y)[5] < 0.0
    with pytest.raises(ValueError, match="shapes differ"):
        gf.mse(x, y[:, :3])


@pytest.mark.parametrize("metric", [gf.mse, gf.psnr, gf.ssim], ids=["mse", "psnr", "ssim"])
@pytest.mark.parametrize("shape", [(), (0,), (0, 3), (28, 28, 1), (4, 3, 2)])
def test_metrics_refuse_an_image_that_is_neither_a_vector_nor_a_stack(metric, shape):
    """Only an N-vector or an N x L stack is an image, as for ``measure``; the
    refusal names the shape."""
    x = np.ones(shape)
    with pytest.raises(ValueError, match=re.escape(f"images of shape {shape}")):
        metric(x, x)


@pytest.mark.parametrize("metric", [gf.mse, gf.psnr, gf.ssim], ids=["mse", "psnr", "ssim"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_metrics_refuse_a_non_finite_pixel(metric, bad):
    """A NaN or an infinity would score as NaN or -inf dB; it is refused, in
    either argument, for one image and for a stack."""
    rng = np.random.default_rng(9)
    for shape in ((16,), (16, 3)):
        x = rng.uniform(0, 255, size=shape)
        y = x.copy()
        y.flat[5] = bad
        for pair in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="non-finite pixel"):
                metric(*pair)


def test_aggregate_basic():
    r = gf.aggregate([30.0], [0.9])
    assert r.psnr_std == 0.0 and r.psnr_mean == 30.0
    r = gf.aggregate([10.0, 20.0], [0.5, 0.7])
    assert r.psnr_mean == 15.0 and r.psnr_std == 5.0  # population std
    assert np.isclose(r.ssim_mean, 0.6)


def test_aggregate_infinite_psnr():
    r = gf.aggregate([math.inf, 10.0, 30.0], [1.0, 0.5, 0.2])
    assert r.psnr_mean == 20.0 and r.psnr_std == 10.0  # the exact image is left out
    assert np.isclose(r.ssim_mean, 1.7 / 3)  # but its SSIM counts
    r = gf.aggregate([math.inf], [1.0])
    assert r.psnr_mean == math.inf and r.psnr_std == 0.0


def test_aggregate_errors():
    with pytest.raises(ValueError):
        gf.aggregate([], [])
    with pytest.raises(ValueError):
        gf.aggregate([1.0, 2.0], [0.5])


@pytest.mark.parametrize(
    "psnrs, ssims, named",
    [
        ([math.nan], [0.5], "PSNR"),
        ([20.0, math.nan], [0.5, 0.5], "PSNR"),
        ([-math.inf, 20.0], [0.5, 0.5], "PSNR"),
        ([20.0], [math.nan], "SSIM"),
        ([20.0, math.inf], [0.5, math.inf], "SSIM"),
        ([20.0], [-math.inf], "SSIM"),
    ],
)
def test_aggregate_counts_only_positive_infinity_as_exact(psnrs, ssims, named):
    """+inf alone marks an exact reconstruction: a NaN or -inf PSNR, or a
    non-finite SSIM, is refused rather than left out of the means."""
    with pytest.raises(ValueError, match=named):
        gf.aggregate(psnrs, ssims)
