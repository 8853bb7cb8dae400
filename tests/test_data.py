"""IDX parsing, subset selection, and matrix-file round-trips."""

import functools
import os
import re
import struct
import tempfile
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
    for pixel in (256.0, -1.0, 0.7, np.nan):
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


def test_as_columns_layout(tmp_path):
    ds = gf.load_idx_images(synthdata.generate_idx(tmp_path / "d.idx", 4, seed=9))
    cols = ds.as_columns()
    assert cols.shape == (784, 4)
    np.testing.assert_array_equal(cols[:, 2], ds.images[2])


def test_make_digit_images_refuses_no_images():
    with pytest.raises(ValueError, match="count must be >= 1"):
        synthdata.make_digit_images(0, seed=0)


def test_a_zero_length_stroke_is_its_point():
    """A stroke segment from a point to itself gives each pixel's distance to that point."""
    gy, gx = np.mgrid[0:5, 0:5].astype(np.float64)
    d = synthdata._segment_distance(gx, gy, (1.5, 2.25), (1.5, 2.25))
    np.testing.assert_array_equal(d, np.hypot(gx - 1.5, gy - 2.25))
