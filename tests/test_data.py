"""IDX parsing, subset selection, and matrix-file round-trips."""

import functools
import os
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gifield as gf
from gifield.data import IDX_IMAGE_MAGIC, atomic_write, write_idx_images
from gifield import synthdata

from conftest import random_dictionary, write_payload_only, write_unholdable_matrix


def _write_idx(path, images):
    images = np.asarray(images, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, *images.shape))
        fh.write(images.tobytes())
    return path


def test_idx_parse_counts_and_order(tmp_path):
    rng = np.random.default_rng(5)
    imgs = rng.integers(0, 256, size=(7, 9, 5), dtype=np.uint8)
    path = _write_idx(tmp_path / "odd.idx", imgs)
    ds = gf.load_idx_images(path)
    assert len(ds) == 7 and ds.height == 9 and ds.width == 5
    assert ds.pixels_per_image == 45
    np.testing.assert_array_equal(ds.images, imgs.reshape(7, 45).astype(float))
    assert ds.images.min() >= 0 and ds.images.max() <= 255


def test_write_idx_images_refuses_pixels_a_byte_cannot_hold(tmp_path, monkeypatch):
    """Integer pixels in [0, 255] keep their bytes; any other pixel is refused
    before a byte is written, and the file is replaced atomically."""
    imgs = np.random.default_rng(6).integers(0, 256, size=(3, 4, 5))
    path = tmp_path / "imgs.idx"
    write_idx_images(path, imgs.astype(float))
    before = path.read_bytes()
    assert before == _write_idx(tmp_path / "ref.idx", imgs.astype(np.uint8)).read_bytes()
    for pixel in (256.0, -1.0, 0.7, np.nan, np.inf, -np.inf):
        bad = imgs.astype(float)
        bad[1, 2, 3] = pixel
        for target in (path, tmp_path / "new.idx"):
            with pytest.raises(ValueError, match=r"integers in \[0, 255\]"):
                write_idx_images(target, bad)
    with pytest.raises(ValueError, match=re.escape("expected a (count, rows, cols) image stack")):
        write_idx_images(path, imgs[0].astype(float))  # one image, not a stack

    def refuse(*args):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        write_idx_images(path, np.zeros((1, 4, 5)))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["imgs.idx", "ref.idx"]


def test_idx_zero_image(tmp_path):
    path = _write_idx(tmp_path / "zero.idx", np.zeros((1, 28, 28), dtype=np.uint8))
    ds = gf.load_idx_images(path)
    assert len(ds) == 1
    assert not ds.images.any()


@pytest.mark.parametrize("shape", [(3000, 0, 0), (2, 0, 5), (2, 5, 0)])
def test_idx_images_without_pixels_are_corrupt(tmp_path, shape):
    path = tmp_path / "empty.idx"
    path.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, *shape))
    with pytest.raises(gf.CorruptionError, match=re.escape(str(path))):
        gf.load_idx_images(path)


# the headers below declare an empty payload, as a zero dimension makes it, but a
# shape numpy cannot hold: the nonzero dimensions of a float64 array must fit 2**63 bytes
@pytest.mark.parametrize("shape", [(0, 2**31, 2**31), (0, 2**32 - 1, 2**32 - 1)])
def test_idx_shape_numpy_cannot_hold_is_corrupt(tmp_path, shape):
    path = tmp_path / "huge.idx"
    path.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, *shape))
    with pytest.raises(gf.CorruptionError, match=re.escape(f"{path}: header declares 0 images")):
        gf.load_idx_images(path)


@pytest.mark.parametrize("reader", [gf.read_matrix, gf.read_matrix_meta, gf.load_dictionary])
@pytest.mark.parametrize("shape", [(0, 2**62), (2**63, 0)])
def test_matrix_shape_numpy_cannot_hold_is_corrupt(tmp_path, shape, reader):
    path = write_unholdable_matrix(tmp_path / "huge.gim", shape)
    with pytest.raises(gf.CorruptionError, match=re.escape(f"{path}: header declares a")):
        reader(path)


def test_idx_wrong_magic(tmp_path):
    path = tmp_path / "labels.idx"
    path.write_bytes(struct.pack(">IIII", 0x00000801, 4, 1, 1) + bytes(4))
    with pytest.raises(gf.FormatError):
        gf.load_idx_images(path)


def test_idx_truncated_payload(tmp_path):
    """A payload shorter or longer than its header declares is corrupt."""
    good = _write_idx(tmp_path / "good.idx", np.ones((3, 4, 4), dtype=np.uint8))
    data = good.read_bytes()
    bad = tmp_path / "bad.idx"
    bad.write_bytes(data[:-5])
    with pytest.raises(gf.CorruptionError):
        gf.load_idx_images(bad)
    long = tmp_path / "long.idx"
    long.write_bytes(data + bytes(7))
    with pytest.raises(gf.CorruptionError, match=re.escape(f"{long}: payload holds 55 bytes")):
        gf.load_idx_images(long)
    short = tmp_path / "short.idx"
    short.write_bytes(data[:10])  # header itself cut off
    with pytest.raises(gf.CorruptionError):
        gf.load_idx_images(short)


def test_random_subset_deterministic_and_distinct(tmp_path):
    ds = gf.load_idx_images(synthdata.generate_idx(tmp_path / "d.idx", 60, seed=0))
    a = gf.random_subset(ds, 20, seed=7)
    b = gf.random_subset(ds, 20, seed=7)
    np.testing.assert_array_equal(a.images, b.images)
    # distinct rows: no duplicate index should have been drawn
    assert len({row.tobytes() for row in a.images}) == 20
    c = gf.random_subset(ds, 20, seed=8)
    assert not np.array_equal(a.images, c.images)


def test_random_subset_full_and_overdraw(tmp_path):
    ds = gf.load_idx_images(synthdata.generate_idx(tmp_path / "d.idx", 10, seed=1))
    full = gf.random_subset(ds, 10, seed=3)
    # a full-size subset is a permutation of the dataset
    assert sorted(r.tobytes() for r in full.images) == sorted(r.tobytes() for r in ds.images)
    with pytest.raises(ValueError):
        gf.random_subset(ds, 11, seed=0)


def test_a_subset_source_names_its_count_and_seed(tmp_path):
    ds = gf.load_idx_images(synthdata.generate_idx(tmp_path / "d.idx", 10, seed=1))
    assert gf.random_subset(ds, 6, seed=4).source == f"{ds.source}#subset(count=6,seed=4)"


def test_matrix_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    for shape in [(2, 3), (1, 1), (17, 5), (64, 128)]:
        m = rng.standard_normal(shape) * rng.uniform(1e-8, 1e8)
        path = tmp_path / "m.gim"
        gf.write_matrix(path, m, meta={})
        back = gf.read_matrix(path)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, m)


def test_matrix_metadata_roundtrip(tmp_path):
    m = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "meta.gim"
    meta = {"role": "sampling", "seed": 3, "lift": 0.25}
    gf.write_matrix(path, m, meta=meta)
    assert gf.read_matrix_meta(path) == meta
    np.testing.assert_array_equal(gf.read_matrix(path), m)
    # every file carries a block: metadata that is no dict is refused before a byte is written
    before = path.read_bytes()
    for bad in (None, [("role", "sampling")], "sampling"):
        for target in (path, tmp_path / "new.gim"):
            with pytest.raises(ValueError, match="metadata must be a dict"):
                gf.write_matrix(target, m, meta=bad)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
    no_block = write_payload_only(tmp_path / "no_block.gim", m)
    for reader in (gf.read_matrix, gf.read_matrix_meta):
        with pytest.raises(gf.CorruptionError, match=re.escape(f"{no_block}: no metadata block")):
            reader(no_block)


def test_matrix_rejects_bad_payloads(tmp_path):
    m = np.ones((3, 4))
    path = tmp_path / "m.gim"
    gf.write_matrix(path, m, meta={})
    raw = path.read_bytes()

    truncated = tmp_path / "t.gim"
    truncated.write_bytes(raw[:24 + m.size * 8 - 8])  # the payload's last entry cut off
    with pytest.raises(gf.CorruptionError):
        gf.read_matrix(truncated)

    dangling = tmp_path / "dg.gim"
    dangling.write_bytes(raw + b"xx")
    with pytest.raises(gf.CorruptionError):
        gf.read_matrix(dangling)

    wrong_magic = tmp_path / "w.gim"
    wrong_magic.write_bytes(b"NOTMAGIC" + raw[8:])
    with pytest.raises(gf.FormatError):
        gf.read_matrix(wrong_magic)

    with pytest.raises(ValueError):
        gf.write_matrix(tmp_path / "nan.gim", np.array([[np.nan, 1.0]]), meta={})
    with pytest.raises(ValueError, match=re.escape("expected a 2-D matrix, got shape (3,)")):
        gf.write_matrix(tmp_path / "flat.gim", np.ones(3), meta={})


@pytest.mark.parametrize(
    "block, message",
    [(b'\xff"role": "dictionary"}', "unreadable metadata block"),  # bad UTF-8
     (b'x"role": "dictionary"}', "unreadable metadata block"),  # bad JSON
     (b"[1]", "metadata block is not a JSON object")],  # valid JSON, not an object
    ids=["utf8", "json", "not-object"],
)
def test_matrix_corrupt_metadata_raises_corruption_error(tmp_path, block, message):
    path = tmp_path / "m.gim"
    gf.write_matrix(path, np.ones((2, 2)), meta={"role": "dictionary"})
    raw = path.read_bytes()
    payload_end = 24 + 4 * 8  # header, payload
    assert raw[payload_end + 4:] == b'{"role": "dictionary"}'
    path.write_bytes(raw[:payload_end] + struct.pack("<I", len(block)) + block)
    with pytest.raises(gf.CorruptionError, match=message):
        gf.read_matrix_meta(path)


def test_bytes_after_the_metadata_block_are_corrupt(tmp_path):
    """A trailing space still leaves the block valid JSON, so only its
    declared length can tell the file is longer than it says."""
    path = tmp_path / "m.gim"
    gf.write_matrix(path, np.ones((2, 2)), meta={"role": "dictionary"})
    path.write_bytes(path.read_bytes() + b" ")
    for reader in (gf.read_matrix, gf.read_matrix_meta):
        with pytest.raises(gf.CorruptionError, match="metadata block length mismatch"):
            reader(path)


def _set_exponent_bits(raw: bytearray, offset: int) -> None:
    """Turn the little-endian float64 at ``offset`` into an inf or a NaN."""
    raw[offset + 7] |= 0x7F
    raw[offset + 6] |= 0xF0


@pytest.mark.parametrize("value", [1.0, 0.37], ids=["inf", "nan"])
def test_non_finite_payload_is_corruption(tmp_path, value):
    atoms = random_dictionary(16, 20, seed=3).atoms.copy()
    atoms[5, 7] = value
    path = tmp_path / "dict.gim"
    gf.write_matrix(path, atoms, meta={"role": "dictionary"})
    raw = bytearray(path.read_bytes())
    _set_exponent_bits(raw, 24 + 8 * (5 * 20 + 7))
    path.write_bytes(bytes(raw))
    with pytest.raises(gf.CorruptionError):
        gf.read_matrix(path)
    with pytest.raises(gf.CorruptionError):
        gf.read_matrix_meta(path)
    flipped = np.frombuffer(bytes(raw[24:24 + atoms.size * 8]), dtype="<f8").reshape(16, 20)
    assert not np.isfinite(flipped[5, 7])
    with pytest.raises(ValueError):
        gf.Dictionary(atoms=flipped.copy(), sparsity=4).validate()


@functools.cache
def _valid_file_bytes(kind: str) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f"
        if kind == "idx":
            rng = np.random.default_rng(12)
            _write_idx(path, rng.integers(0, 256, size=(3, 4, 5), dtype=np.uint8))
        else:
            m = 1.0 + np.arange(12.0).reshape(3, 4) / 16.0  # every entry in [1, 2)
            gf.write_matrix(path, m, meta={"role": "dictionary", "sparsity": 2})
        return path.read_bytes()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    reader=st.sampled_from(["load_idx_images", "read_matrix", "read_matrix_meta"]),
    truncate=st.booleans(),
    position=st.integers(0, 2**16),
    bit=st.integers(0, 7),
)
@example(reader="read_matrix", truncate=False, position=24 + 7, bit=6)  # first entry -> inf
@example(reader="read_matrix_meta", truncate=False, position=24 + 8 * 5 + 7, bit=6)
def test_damaged_files_raise_package_errors(reader, truncate, position, bit):
    """A truncated or bit-flipped file either reads as finite data or raises
    one of the package's own errors, never anything else."""
    raw = bytearray(_valid_file_bytes("idx" if reader == "load_idx_images" else "gim"))
    position %= len(raw)
    if truncate:
        del raw[position:]
    else:
        raw[position] ^= 1 << bit
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "damaged"
        path.write_bytes(bytes(raw))
        try:
            result = getattr(gf, reader)(path)
        except gf.GifieldError:
            return
    if reader == "load_idx_images":
        assert np.all(np.isfinite(result.images))
    elif reader == "read_matrix":
        assert np.all(np.isfinite(result))
    else:
        assert isinstance(result, dict)


def test_failed_write_keeps_the_earlier_file(tmp_path, monkeypatch):
    """A write that raises part-way, or at its final rename, leaves the earlier
    file as it was and no temporary file behind."""
    path = tmp_path / "m.gim"
    gf.write_matrix(path, np.eye(3), meta={"role": "dictionary"})
    before = path.read_bytes()

    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write(before[:20])
            raise RuntimeError("interrupted part-way")
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]

    def refuse(*args):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        gf.write_matrix(path, np.ones((5, 5)), meta={"role": "dictionary"})
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_dictionary_file_checksum_stable(tmp_path):
    psi = random_dictionary(49, 64, seed=0)
    path = tmp_path / "dict.gim"
    gf.write_matrix(path, psi.atoms, meta={"role": "dictionary", "sparsity": psi.sparsity})
    again = gf.load_dictionary(path)
    assert again.checksum == psi.checksum
    assert again.sparsity == psi.sparsity


def _traced_peak(call, *args):
    """The peak of memory traced while ``call(*args)`` runs, its result included."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_readers_hold_one_payload_copy(tmp_path):
    """The readers view the payload where the file's bytes hold it: ``read_matrix``
    holds those bytes and the copy it returns, ``read_matrix_meta`` the bytes alone."""
    psi = random_dictionary(784, 1024, seed=1)
    path = tmp_path / "dict.gim"
    gf.write_matrix(path, psi.atoms, meta={"role": "dictionary", "sparsity": psi.sparsity})
    payload = psi.atoms.nbytes  # about 6.1 MiB
    for reader, bound in ((gf.read_matrix, 2.2), (gf.read_matrix_meta, 1.3),
                          (gf.load_dictionary, 2.3)):
        assert _traced_peak(reader, path) <= bound * payload, reader.__name__
    # an IDX file: its bytes and the float64 images returned, 9 x its pixels
    imgs = np.random.default_rng(2).integers(0, 256, size=(2000, 28, 28), dtype=np.uint8)
    idx = _write_idx(tmp_path / "imgs.idx", imgs)
    assert _traced_peak(gf.load_idx_images, idx) <= 9.3 * imgs.nbytes


def test_write_idx_images_checks_a_block_at_a_time(tmp_path):
    """The pixel check holds a block of images, not float copies of the whole
    stack, and still finds a bad pixel in the last block."""
    imgs = np.random.default_rng(3).integers(0, 256, size=(2000, 28, 28)).astype(float)
    path = tmp_path / "imgs.idx"
    assert _traced_peak(write_idx_images, path, imgs) <= 4 * 2**20  # the stack is 12 MiB
    assert path.read_bytes()[16:] == imgs.astype(np.uint8).tobytes()
    imgs[1999, 27, 27] = 0.5
    with pytest.raises(ValueError, match=r"integers in \[0, 255\]"):
        write_idx_images(path, imgs)


@pytest.mark.parametrize("image", [255, 511])
@pytest.mark.parametrize("bad", [300.0, 0.5])
def test_write_idx_images_checks_every_image_of_a_block(tmp_path, image, bad):
    """The last image of each 256-image block is checked too."""
    imgs = np.zeros((512, 2, 3))
    imgs[image, 1, 2] = bad
    with pytest.raises(ValueError, match=r"integers in \[0, 255\]"):
        write_idx_images(tmp_path / "imgs.idx", imgs)
    assert not (tmp_path / "imgs.idx").exists()


def test_readers_return_arrays_of_their_own(tmp_path):
    """A read array owns its memory, so it does not pin the file's bytes."""
    path = tmp_path / "m.gim"
    gf.write_matrix(path, np.arange(12.0).reshape(3, 4), meta={})
    m = gf.read_matrix(path)
    assert m.flags.writeable and m.flags.owndata
    m[0, 0] = -1.0  # a writable copy: the next read sees the file, not this
    assert gf.read_matrix(path)[0, 0] == 0.0
    imgs = np.random.default_rng(4).integers(0, 256, size=(3, 4, 5), dtype=np.uint8)
    ds = gf.load_idx_images(_write_idx(tmp_path / "i.idx", imgs))
    assert ds.images.base is None and ds.images.flags.owndata


def test_writers_keep_c_order_for_any_layout(tmp_path):
    """Whatever the input's strides or byte order, the payload is the C-ordered
    array's bytes, and reads back equal."""
    m = np.random.default_rng(7).standard_normal((6, 4))
    for layout in (m.T, m[::2], m.astype(">f8")):
        path = tmp_path / "m.gim"
        gf.write_matrix(path, layout, meta={})
        want = np.ascontiguousarray(layout, dtype="<f8").tobytes()
        assert path.read_bytes()[24:24 + len(want)] == want
        np.testing.assert_array_equal(gf.read_matrix(path), layout)
    stack = np.random.default_rng(8).integers(0, 256, size=(4, 6, 5))
    for layout in (stack.transpose(0, 2, 1), stack[::2, :, ::2]):
        path = tmp_path / "i.idx"
        write_idx_images(path, layout.astype(float))
        assert path.read_bytes()[16:] == np.ascontiguousarray(layout, dtype=np.uint8).tobytes()
        back = gf.load_idx_images(path)
        np.testing.assert_array_equal(back.images, layout.reshape(len(layout), -1))


def test_empty_payloads_at_the_buffers_end(tmp_path):
    """A payload of no bytes is read at the offset where it ends."""
    path = tmp_path / "none.idx"
    path.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 0, 4, 5))
    ds = gf.load_idx_images(path)
    assert len(ds) == 0 and ds.images.shape == (0, 20) and (ds.height, ds.width) == (4, 5)
    for shape in ((0, 5), (5, 0)):
        path = tmp_path / "empty.gim"
        gf.write_matrix(path, np.zeros(shape), meta={"shape": list(shape)})
        assert gf.read_matrix(path).shape == shape
        assert gf.read_matrix_meta(path) == {"shape": list(shape)}


def test_as_columns_layout(tmp_path):
    ds = gf.load_idx_images(synthdata.generate_idx(tmp_path / "d.idx", 4, seed=9))
    cols = ds.as_columns()
    assert cols.shape == (784, 4)
    np.testing.assert_array_equal(cols[:, 2], ds.images[2])


def test_make_digit_images_refuses_no_images():
    with pytest.raises(ValueError, match="count must be >= 1"):
        synthdata.make_digit_images(0, seed=0)


def _reference_distance(gx, gy, p, q):
    """One image's pixel distances to the segment p-q, computed alone."""
    (px, py), (qx, qy) = p, q
    vx, vy = qx - px, qy - py
    vv = vx * vx + vy * vy
    if vv == 0.0:
        return np.hypot(gx - px, gy - py)
    t = np.clip(((gx - px) * vx + (gy - py) * vy) / vv, 0.0, 1.0)
    return np.hypot(gx - (px + t * vx), gy - (py + t * vy))


def _reference_digit(digit, rng):
    """One image at a time, each draw its own ``rng.uniform`` call."""
    scale = rng.uniform(0.72, 1.12)
    angle = rng.uniform(-0.3, 0.3)
    shear = rng.uniform(-0.22, 0.22)
    dx, dy = rng.uniform(-0.08, 0.08, size=2)
    peak = rng.uniform(200.0, 255.0)
    cos_a, sin_a = np.cos(angle), np.sin(angle)
    gy, gx = np.mgrid[0:28, 0:28].astype(np.float64)
    img = np.zeros((28, 28))
    for stroke in synthdata._GLYPHS[digit]:
        sigma = rng.uniform(0.7, 1.45)
        pts = []
        for x, y in stroke:
            u, v = x - 0.5 + rng.uniform(-0.035, 0.035), y - 0.5 + rng.uniform(-0.035, 0.035)
            u += shear * v
            u, v = cos_a * u - sin_a * v, sin_a * u + cos_a * v
            pts.append(((u * scale + 0.5 + dx) * 22 + 3, (v * scale + 0.5 + dy) * 22 + 3))
        for p, q in zip(pts[:-1], pts[1:]):
            d = _reference_distance(gx, gy, p, q)
            shade = peak * rng.uniform(0.82, 1.0)
            img = np.maximum(img, shade * np.exp(-0.5 * (d / sigma) ** 2))
    return np.floor(np.clip(img, 0.0, 255.0) + 0.5)


@pytest.mark.parametrize("count, seed, block", [(1, 0, None), (47, 5, 3)])
def test_block_rendering_matches_one_image_at_a_time(monkeypatch, count, seed, block):
    """Blocks of one digit give the bytes of a renderer that draws and paints
    each image alone; 47 images with blocks of 3 cover all ten digits and
    split each digit's images over several blocks."""
    if block is not None:
        monkeypatch.setattr(synthdata, "_BLOCK", block)
    rng = np.random.default_rng(seed)
    expected = np.stack([_reference_digit(i % 10, rng) for i in range(count)])
    got = synthdata.make_digit_images(count, seed)
    assert got.dtype == expected.dtype and got.shape == (count, 28, 28)
    assert got.tobytes() == expected.tobytes()


def test_full_blocks_match_one_image_at_a_time():
    """700 images fill whole blocks of 64, so each digit's 70 images span two
    blocks, the second with 6: the windows of a full block keep the bytes."""
    rng = np.random.default_rng(3)
    expected = np.stack([_reference_digit(i % 10, rng) for i in range(700)])
    assert synthdata.make_digit_images(700, seed=3).tobytes() == expected.tobytes()


class _GivenDraws:
    """Stands in for a ``Generator`` in ``_reference_digit``: ``uniform`` maps
    the next given draws onto [low, high) as ``Generator.uniform`` does."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def uniform(self, low, high, size=None):
        u = next(self._draws) if size is None else np.array([next(self._draws) for _ in range(size)])
        return low + (high - low) * u


# the draws Generator.random gives: multiples of 2**-53 in [0, 1)
_UNIT = st.integers(0, 2**53 - 1).map(lambda k: k * 2.0**-53)
_MOST_DRAWS = max(synthdata._DRAWS)
_BELOW_ONE = 1.0 - 2.0**-53


@pytest.mark.parametrize("digit", range(10))
@settings(derandomize=True, deadline=None, max_examples=30)
@given(rows=st.lists(st.lists(_UNIT, min_size=_MOST_DRAWS, max_size=_MOST_DRAWS), min_size=1, max_size=3))
@example(rows=[[0.0] * _MOST_DRAWS, [_BELOW_ONE] * _MOST_DRAWS])
def test_windowed_rendering_matches_the_full_grid_for_any_draws(digit, rows):
    """A block rendered from any draws in [0, 1) gives the bytes of the
    full-grid reference, with no floating-point error raised in the windows.
    All draws 0 or just below 1 give the smallest and largest scale and stroke
    width (sigma 1.45) and strokes pushed against the grid's edges, so the
    windows of one block differ in size."""
    draws = np.array(rows)[:, : synthdata._DRAWS[digit]]
    with np.errstate(all="raise"):
        got = synthdata._render(digit, draws)
    # the full grid takes pixels far from a stroke, whose exp underflows to 0
    expected = np.stack([_reference_digit(digit, _GivenDraws(row)) for row in draws])
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("digit", range(10))
def test_a_narrow_window_at_the_edge_slides_back_onto_the_grid(digit):
    """Two images pushed against the bottom right edge, one with the thinnest
    strokes and one with the widest: the block's windows take the wider
    reach, so the thin image's windows overhang the grid and slide back."""
    wide = np.full(synthdata._DRAWS[digit], _BELOW_ONE)
    thin = wide.copy()
    width_draws = 6 + np.cumsum([0] + [3 * len(stroke) for stroke in synthdata._GLYPHS[digit]])[:-1]
    thin[width_draws] = 0.0
    draws = np.stack([thin, wide])
    expected = np.stack([_reference_digit(digit, _GivenDraws(row)) for row in draws])
    assert synthdata._render(digit, draws).tobytes() == expected.tobytes()


def test_a_stroke_rounds_to_zero_beyond_its_reach():
    """A segment adds at most 255 * exp(-reach**2 / 2) to a pixel beyond
    _REACH stroke widths, which must round to 0 with room to spare, so that
    painting only within reach keeps every byte."""
    assert 255.0 * np.exp(-synthdata._REACH**2 / 2) < 0.5 - 0.005


def test_a_corpus_is_the_prefix_of_a_larger_one():
    whole = synthdata.make_digit_images(23, seed=6)
    for count in (1, 9, 10, 11, 22):
        assert synthdata.make_digit_images(count, seed=6).tobytes() == whole[:count].tobytes()


def test_a_zero_length_stroke_is_its_point():
    """A stroke segment from a point to itself gives each pixel's distance to
    that point, also in a block whose other image has a segment of nonzero
    length: each image gets its own distances, with no NaN and no divide
    warning (pytest runs with warnings as errors)."""
    gy, gx = np.mgrid[0:5, 0:5].astype(np.float64)
    d = synthdata._segment_distance(gx, gy, (1.5, 2.25), (1.5, 2.25))
    np.testing.assert_array_equal(d, np.hypot(gx - 1.5, gy - 2.25))

    p = (np.array([1.5, 0.5])[:, None, None], np.array([2.25, 3.0])[:, None, None])
    q = (np.array([1.5, 3.75])[:, None, None], np.array([2.25, 1.0])[:, None, None])
    with np.errstate(divide="raise", invalid="raise"):
        d = synthdata._segment_distance(gx, gy, p, q)
    assert d.shape == (2, 5, 5) and not np.isnan(d).any()
    for i in range(2):
        one = _reference_distance(gx, gy, (p[0][i, 0, 0], p[1][i, 0, 0]), (q[0][i, 0, 0], q[1][i, 0, 0]))
        np.testing.assert_array_equal(d[i], one)
