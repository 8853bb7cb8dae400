"""Ghost-imaging detection simulation and sparse reconstruction.

The object arm is modeled as y = Phi x + n: each row of the sampling matrix
(a plain M x N array) is one illumination pattern, each entry of the readings
array y one bucket-detector reading. Reconstruction sparse-codes y against
the equivalent matrix D = Phi Psi and maps the coefficients back through the
dictionary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary, omp


@dataclass(frozen=True)
class NoiseModel:
    """Detector noise descriptor; default is noiseless."""

    kind: str = "none"  # "none" | "awgn"
    snr_db: float | None = None  # awgn only
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "awgn"):
            raise ValueError(f"kind {self.kind!r} is not 'none' or 'awgn'")
        if self.kind != "awgn" and self.snr_db is not None:
            raise ValueError(f"snr_db {self.snr_db} needs kind 'awgn', not {self.kind!r}")
        if self.kind == "awgn" and (self.snr_db is None or not math.isfinite(self.snr_db)):
            raise ValueError(f"snr_db {self.snr_db}: awgn noise needs a finite target SNR in dB")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be >= 0")


def measure(phi: np.ndarray, x: np.ndarray, noise: NoiseModel = NoiseModel()) -> np.ndarray:
    """Simulate detection: the readings y = Phi x (+ optional white Gaussian noise).

    ``phi`` is a finite M x N matrix with no negative entry — a physical
    light field cannot carry negative intensities, so lift it first
    (:func:`gifield.nn_lift`). ``x`` is one finite image (any shape with N
    pixels) or an N x L stack of images, one per column; a stack gives
    M x L readings from one product, column j for image j. ``noise`` is
    one model for the whole call, noiseless by default. With
    ``kind="awgn"`` every reading gets its own standard normal from one
    draw in the readings' shape, seeded by the model: no two images share
    noise, and for the same L the draw for M rows is the first M rows of
    the draw for more. Each
    image's noise is scaled to ``snr_db`` against the variance of its
    readings across its 2 or more patterns, so a field's lift adds none.
    Returns M readings for one image, M x L for a stack, all finite.
    """
    if not isinstance(noise, NoiseModel):
        raise TypeError(f"noise must be one NoiseModel, not {type(noise).__name__}")
    if phi.ndim != 2:
        raise ValueError(f"sampling matrix must be 2-D, got shape {phi.shape}")
    if not np.isfinite(phi).all():
        raise ValueError("sampling matrix holds a non-finite entry")
    if (phi < 0.0).any():
        raise ValueError("patterns have negative entries; lift them before display")
    n_pixels = phi.shape[1]
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != n_pixels:
        x = x.ravel()
        if x.size != n_pixels:
            raise ValueError(f"image length {x.size} != pattern length {n_pixels}")
    if not np.isfinite(x).all():
        raise ValueError("image holds a non-finite pixel")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite readings are refused below
        y = phi @ x
        if noise.kind == "awgn":
            if len(y) < 2:
                raise ValueError("AWGN needs at least 2 patterns to scale its noise to")
            sigma = np.sqrt(np.var(y, axis=0) * 10.0 ** (-noise.snr_db / 10.0))
            y += sigma * np.random.default_rng(noise.seed).standard_normal(y.shape)
    if not np.isfinite(y).all():
        raise ValueError("measurement contains non-finite readings")
    return y


def reconstruct(
    y: np.ndarray,
    phi: np.ndarray,
    psi: Dictionary,
    t0: int | None = None,
) -> np.ndarray:
    """Recover the N-pixel image behind the readings ``y`` by OMP in the dictionary.

    ``y`` holds one finite reading per row of ``phi``. Forms the equivalent
    matrix D = Phi Psi, solves for a code z_hat with at most ``t0`` atoms
    (default: the dictionary's training budget), and returns
    x_hat = Psi z_hat. For the code itself call :func:`gifield.omp` on D.
    Many images under one pattern stack code faster together, through
    ``sparse_code_columns``.
    """
    if phi.ndim != 2 or phi.shape[1] != psi.n_pixels:
        raise ValueError("pattern length does not match the dictionary's pixel count")
    if np.shape(y) != (phi.shape[0],):
        raise ValueError(f"readings of shape {np.shape(y)} for {phi.shape[0]} patterns")
    if not np.isfinite(y).all():
        raise ValueError("measurement contains non-finite readings")
    return psi.atoms @ omp(phi @ psi.atoms, y, psi.sparsity if t0 is None else t0)
