"""Dataset ingestion (IDX images), subset selection, and portable matrix file I/O.

Images are kept on their native [0, 255] intensity scale; every image is a
float64 row of a (count, height*width) array. The matrix file format is a
small custom binary container (magic ``GIMATRX1``) chosen for bit-exact
round-trips independent of any serialization library.
"""

from __future__ import annotations

import hashlib
import json
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


def _sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_idx_images(path) -> Dataset:
    """Read an IDX image file (the MNIST container format).

    Layout: big-endian u32 magic 0x00000803, image count, rows, cols,
    then count*rows*cols unsigned bytes, row-major.

    Raises:
        FormatError: the magic tag is not the IDX image magic.
        CorruptionError: the pixel payload is shorter than the header declares.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise CorruptionError(f"{path}: too short for an IDX image header")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(
            f"{path}: magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x} (IDX images)"
        )
    need = count * rows * cols
    payload = raw[16:]
    if len(payload) < need:
        raise CorruptionError(
            f"{path}: payload holds {len(payload)} bytes, header needs {need}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8, count=need)
    images = pixels.reshape(count, rows * cols).astype(np.float64)
    source = f"{path}#sha256={_sha256_hex(raw)}"
    return Dataset(images=images, height=rows, width=cols, source=source)


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
    deleted and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_matrix(path, m: np.ndarray, meta: dict | None = None) -> None:
    """Write a 2-D float64 matrix with optional JSON metadata.

    Layout: 8-byte magic ``GIMATRX1``, u64-le rows, u64-le cols, rows*cols
    little-endian float64 (row-major), then an optional u32-le length-prefixed
    UTF-8 JSON block. Entries must be finite; the round-trip is bit-exact.
    The file is replaced atomically (see :func:`atomic_write`).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    encoded = None if meta is None else json.dumps(meta, sort_keys=True).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<QQ", m.shape[0], m.shape[1]))
        fh.write(np.ascontiguousarray(m, dtype="<f8").tobytes())
        if encoded is not None:
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)


def _parse_matrix_file(path) -> tuple[np.ndarray, dict | None]:
    raw = Path(path).read_bytes()
    if len(raw) < 24 or raw[:8] != MATRIX_MAGIC:
        raise FormatError(f"{path}: missing {MATRIX_MAGIC!r} magic")
    rows, cols = struct.unpack("<QQ", raw[8:24])
    need = rows * cols * 8
    body = raw[24:]
    if len(body) < need:
        raise CorruptionError(
            f"{path}: payload holds {len(body)} bytes, {rows}x{cols} needs {need}"
        )
    m = np.frombuffer(body[:need], dtype="<f8").reshape(rows, cols).copy()
    if not np.all(np.isfinite(m)):
        raise CorruptionError(f"{path}: payload holds a non-finite entry")
    tail = body[need:]
    meta = None
    if tail:
        if len(tail) < 4:
            raise CorruptionError(f"{path}: dangling bytes after payload")
        (mlen,) = struct.unpack("<I", tail[:4])
        if len(tail) != 4 + mlen:
            raise CorruptionError(f"{path}: metadata block length mismatch")
        try:
            meta = json.loads(tail[4:].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptionError(f"{path}: unreadable metadata block ({exc})") from exc
        if not isinstance(meta, dict):
            raise CorruptionError(f"{path}: metadata block is not a JSON object")
    return m, meta


def read_matrix(path) -> np.ndarray:
    """Read back a matrix written by :func:`write_matrix` (bit-exact).

    Raises ``CorruptionError`` if the payload holds a NaN or an infinity,
    which :func:`write_matrix` never writes.
    """
    return _parse_matrix_file(path)[0]


def read_matrix_meta(path) -> dict | None:
    """Read only the metadata block of a matrix file (None if absent)."""
    return _parse_matrix_file(path)[1]
