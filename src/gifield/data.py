"""The package's binary file formats: IDX images and the matrix container.

Images are kept on their native [0, 255] intensity scale; every image is a
float64 row of a (count, height*width) array. The matrix file format is a
small custom binary container (magic ``GIMATRX1``) chosen for bit-exact
round-trips independent of any serialization library; every matrix file
carries a JSON metadata block. This module alone reads and writes both
layouts, and draws seeded subsets of a dataset.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CorruptionError, FormatError

IDX_IMAGE_MAGIC = 0x00000803

MATRIX_MAGIC = b"GIMATRX1"


@dataclass(frozen=True)
class Dataset:
    """An ordered stack of same-sized grayscale images.

    ``images`` has shape (count, height*width); each row is one image,
    row-major pixels, float64 in [0, 255]. ``source`` records where the
    pixels came from (path, content hash, and any subset selection) so a
    result table can be traced back to its exact inputs.
    """

    images: np.ndarray
    height: int
    width: int
    source: str

    def __post_init__(self):
        self.images.setflags(write=False)

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def pixels_per_image(self) -> int:
        return self.height * self.width

    def as_columns(self) -> np.ndarray:
        """Images as the columns of an (N, count) matrix."""
        return self.images.T


def _numpy_can_hold(*shape: int) -> bool:
    """Whether numpy can make a float64 array of ``shape``: the product of its
    nonzero dimensions, in bytes, must fit an ``intp``, even when another is 0."""
    return math.prod(n for n in shape if n) * 8 <= np.iinfo(np.intp).max


def load_idx_images(path) -> Dataset:
    """Read an IDX image file (the MNIST container format).

    Layout: big-endian u32 magic 0x00000803, image count, rows, cols,
    then count*rows*cols unsigned bytes, row-major.

    Raises:
        FormatError: the magic tag is not the IDX image magic.
        CorruptionError: the header declares images without pixels, or a
            shape numpy cannot hold, or the pixel payload is not exactly as
            long as the header declares.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise CorruptionError(f"{path}: too short for an IDX image header")
    magic, count, rows, cols = struct.unpack_from(">IIII", raw)
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(
            f"{path}: magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x} (IDX images)"
        )
    if not rows or not cols:
        raise CorruptionError(f"{path}: header declares images of {rows} x {cols} pixels")
    need = count * rows * cols
    if len(raw) - 16 != need:
        raise CorruptionError(
            f"{path}: payload holds {len(raw) - 16} bytes, header needs {need}"
        )
    if not _numpy_can_hold(count, rows * cols):
        raise CorruptionError(
            f"{path}: header declares {count} images of {rows} x {cols} pixels,"
            " a shape numpy cannot hold"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=16)  # a view of the file's bytes
    images = pixels.reshape(count, rows * cols).astype(np.float64)
    source = f"{path}#sha256={hashlib.sha256(raw).hexdigest()}"
    return Dataset(images=images, height=rows, width=cols, source=source)


def write_idx_images(path, images: np.ndarray) -> None:
    """Write an (count, rows, cols) stack as an IDX unsigned-byte image file.

    Every pixel must be an integer in [0, 255]; anything else is a
    ``ValueError`` before a byte is written. The file is replaced
    atomically (see :func:`atomic_write`).
    """
    images = np.asarray(images)
    if images.ndim != 3:
        raise ValueError("expected a (count, rows, cols) image stack")
    if not np.all((images >= 0) & (images <= 255) & (images == np.round(images))):
        raise ValueError("IDX pixels must be integers in [0, 255]")
    count, rows, cols = images.shape
    with atomic_write(path) as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, count, rows, cols))
        fh.write(np.ascontiguousarray(images, dtype=np.uint8))


def random_subset(ds: Dataset, count: int, seed: int) -> Dataset:
    """Select ``count`` distinct images uniformly at random (seeded)."""
    if count > len(ds):
        raise ValueError(f"subset of {count} from a dataset of {len(ds)}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(ds), size=count, replace=False)
    return Dataset(
        images=ds.images[idx],
        height=ds.height,
        width=ds.width,
        source=f"{ds.source}#subset(count={count},seed={seed})",
    )


@contextmanager
def atomic_write(path):
    """Binary handle whose bytes replace ``path`` only if the block completes.

    The bytes go to a temporary file beside ``path``, which ``os.replace``
    moves over it at the end, so a reader sees the old file or the whole new
    one, never a truncated one. If the block raises, the temporary file is
    deleted and ``path`` is left as it was. The directory of ``path`` and its
    parents are made first if missing, so a writer makes its own directory.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_matrix(path, m: np.ndarray, meta: dict) -> None:
    """Write a 2-D float64 matrix and its JSON metadata.

    Layout: 8-byte magic ``GIMATRX1``, u64-le rows, u64-le cols, rows*cols
    little-endian float64 (row-major), then a u32-le length-prefixed UTF-8
    JSON object holding ``meta``. Entries must be finite and ``meta`` a dict;
    anything else is a ``ValueError`` before a byte is written. The round-trip
    is bit-exact. The file is replaced atomically (see :func:`atomic_write`).
    """
    if not isinstance(meta, dict):
        raise ValueError(f"matrix metadata must be a dict, not {type(meta).__name__}")
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    encoded = json.dumps(meta, sort_keys=True).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<QQ", m.shape[0], m.shape[1]))
        fh.write(np.ascontiguousarray(m, dtype="<f8"))
        fh.write(struct.pack("<I", len(encoded)))
        fh.write(encoded)


def _parse_matrix_file(path) -> tuple[np.ndarray, dict]:
    """The payload as a read-only view of the file's bytes, and the metadata."""
    raw = Path(path).read_bytes()
    if len(raw) < 24 or raw[:8] != MATRIX_MAGIC:
        raise FormatError(f"{path}: missing {MATRIX_MAGIC!r} magic")
    rows, cols = struct.unpack_from("<QQ", raw, 8)
    need = rows * cols * 8
    if len(raw) - 24 < need:
        raise CorruptionError(
            f"{path}: payload holds {len(raw) - 24} bytes, {rows}x{cols} needs {need}"
        )
    if not _numpy_can_hold(rows, cols):
        raise CorruptionError(
            f"{path}: header declares a {rows}x{cols} matrix, a shape numpy cannot hold"
        )
    m = np.frombuffer(raw, dtype="<f8", count=rows * cols, offset=24).reshape(rows, cols)
    if not np.all(np.isfinite(m)):
        raise CorruptionError(f"{path}: payload holds a non-finite entry")
    end = 24 + need  # the metadata block: a u32 length, then that many bytes
    if len(raw) - end < 4:
        raise CorruptionError(f"{path}: no metadata block after the payload")
    (mlen,) = struct.unpack_from("<I", raw, end)
    if len(raw) - end != 4 + mlen:
        raise CorruptionError(f"{path}: metadata block length mismatch")
    try:
        meta = json.loads(raw[end + 4:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptionError(f"{path}: unreadable metadata block ({exc})") from exc
    if not isinstance(meta, dict):
        raise CorruptionError(f"{path}: metadata block is not a JSON object")
    return m, meta


def read_matrix(path) -> np.ndarray:
    """Read back a matrix written by :func:`write_matrix` (bit-exact).

    Raises ``CorruptionError`` if the payload holds a NaN or an infinity,
    which :func:`write_matrix` never writes, if no metadata block follows it,
    or if the header declares a shape numpy cannot hold.
    """
    return _parse_matrix_file(path)[0].copy()


def read_matrix_meta(path) -> dict:
    """Read the metadata block of a matrix file, which every such file holds."""
    return _parse_matrix_file(path)[1]
