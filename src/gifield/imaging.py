"""Ghost-imaging detection simulation and sparse reconstruction.

The object arm is modeled as y = Phi x + n: each row of the sampling matrix
(a plain M x N array) is one illumination pattern, each entry of the readings
array y one bucket-detector reading. Reconstruction sparse-codes y against
the equivalent matrix D = Phi Psi and maps the coefficients back through the
dictionary.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary, SparseCode, omp


@dataclass(frozen=True)
class NoiseModel:
    """Detector noise descriptor; default is noiseless."""

    kind: str = "none"  # "none" | "awgn"
    snr_db: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "awgn"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "awgn" and (self.snr_db is None or not math.isfinite(self.snr_db)):
            raise ValueError(f"awgn noise needs a finite target SNR in dB, not {self.snr_db}")


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered image, its sparse code, and the fit diagnostics."""

    image: np.ndarray
    code: SparseCode
    residual_norm: float
    duration_sec: float

    def __post_init__(self):
        self.image.setflags(write=False)


def measure(
    phi: np.ndarray,
    x: np.ndarray,
    noise: NoiseModel | Sequence[NoiseModel] | None = None,
) -> np.ndarray:
    """Simulate detection: the readings y = Phi x (+ optional white Gaussian noise).

    ``phi`` is M x N with no negative entry — a physical light field cannot
    carry negative intensities, so lift it first (:func:`gifield.nn_lift`).
    ``x`` is one image (any shape with N pixels) or an N x L stack of images,
    one per column; a stack gives M x L readings from one product, column j
    for image j. ``noise`` is one model for every image or, for a stack, a
    sequence of L models, one per column. With ``kind="awgn"`` the noise on
    each image is scaled so that 10*log10(signal power / noise power) equals
    ``snr_db``, deterministically under that image's model seed. Returns M
    readings for one image, M x L for a stack, all finite.
    """
    if phi.ndim != 2:
        raise ValueError(f"sampling matrix must be 2-D, got shape {phi.shape}")
    if (phi < 0.0).any():
        raise ValueError("patterns have negative entries; lift them before display")
    n_pixels = phi.shape[1]
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != n_pixels:
        x = x.ravel()
        if x.size != n_pixels:
            raise ValueError(f"image length {x.size} != pattern length {n_pixels}")
    n_images = 1 if x.ndim == 1 else x.shape[1]
    if noise is None or isinstance(noise, NoiseModel):
        models = [noise or NoiseModel()] * n_images
    else:
        models = tuple(noise)
        if x.ndim == 1 or len(models) != n_images:
            raise ValueError(f"{len(models)} noise models for {n_images} image(s)")
    y = phi @ x
    columns = y.reshape(y.shape[0], n_images)  # a view: one column per image
    for j, model in enumerate(models):
        if model.kind == "awgn":
            _add_awgn(columns[:, j], model)
    if not np.isfinite(y).all():
        raise ValueError("measurement contains non-finite readings")
    return y


def _add_awgn(y: np.ndarray, noise: NoiseModel) -> None:
    """Add white Gaussian noise at the model's SNR to one image's readings, in place."""
    signal_power = float(y @ y) / y.size
    sigma = np.sqrt(signal_power * 10.0 ** (-noise.snr_db / 10.0))
    y += sigma * np.random.default_rng(noise.seed).standard_normal(y.size)


def reconstruct(
    y: np.ndarray,
    phi: np.ndarray,
    psi: Dictionary,
    t0: int | None = None,
) -> ReconstructionResult:
    """Recover the image behind the readings ``y`` by OMP in the dictionary.

    ``y`` holds one finite reading per row of ``phi``. Forms the equivalent
    matrix D = Phi Psi, solves for a code with at most ``t0`` atoms (default:
    the dictionary's training budget), and returns x_hat = Psi z_hat. Many
    images under one pattern stack code faster together, through
    ``sparse_code_columns``.
    """
    if phi.ndim != 2 or phi.shape[1] != psi.n_pixels:
        raise ValueError("pattern length does not match the dictionary's pixel count")
    if np.shape(y) != (phi.shape[0],):
        raise ValueError(f"readings of shape {np.shape(y)} for {phi.shape[0]} patterns")
    if not np.isfinite(y).all():
        raise ValueError("measurement contains non-finite readings")
    if t0 is None:
        t0 = psi.sparsity
    start = time.perf_counter()
    equivalent = phi @ psi.atoms
    code = omp(equivalent, y, t0)
    image = psi.atoms @ code.coefficients
    residual = float(np.linalg.norm(equivalent @ code.coefficients - y))
    return ReconstructionResult(
        image=image,
        code=code,
        residual_norm=residual,
        duration_sec=time.perf_counter() - start,
    )
