"""Ghost-imaging detection simulation and sparse reconstruction.

The object arm is modeled as y = Phi x + n: each row of the sampling matrix
is one illumination pattern, each entry of y one bucket-detector reading.
Reconstruction sparse-codes y against the equivalent matrix D = Phi Psi and
maps the coefficients back through the dictionary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dictionary import Dictionary, SparseCode, omp
from .errors import ConsistencyError
from .fieldopt import SamplingMatrix


@dataclass(frozen=True)
class NoiseModel:
    """Detector noise descriptor; default is noiseless."""

    kind: str = "none"  # "none" | "awgn"
    snr_db: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "awgn"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "awgn" and self.snr_db is None:
            raise ValueError("awgn noise needs a target SNR in dB")


@dataclass(frozen=True)
class Measurement:
    """Bucket-detector readings for one object under one pattern stack."""

    values: np.ndarray
    provenance: str
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("measurement contains non-finite readings")
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered image, its sparse code, and the fit diagnostics."""

    image: np.ndarray
    code: SparseCode
    residual_norm: float
    duration_sec: float

    def __post_init__(self):
        self.image.setflags(write=False)


def measure(phi: SamplingMatrix, x: np.ndarray, noise: NoiseModel | None = None) -> Measurement:
    """Simulate detection: y = Phi x (+ optional white Gaussian noise).

    ``phi`` must be lifted — a physical light field cannot carry negative
    intensities. With ``kind="awgn"`` the noise is scaled so that
    10*log10(signal power / noise power) equals ``snr_db``, deterministically
    under the model's seed.
    """
    if not phi.lifted:
        raise ValueError("patterns must be lifted (non-negative) before display")
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size != phi.n_pixels:
        raise ValueError(f"image length {x.size} != pattern length {phi.n_pixels}")
    noise = noise or NoiseModel()
    y = phi.rows @ x
    if noise.kind == "awgn":
        signal_power = float(y @ y) / y.size
        sigma = np.sqrt(signal_power * 10.0 ** (-noise.snr_db / 10.0))
        y = y + sigma * np.random.default_rng(noise.seed).standard_normal(y.size)
    return Measurement(values=y, provenance=phi.provenance, noise=noise)


def reconstruct(
    y: Measurement,
    phi: SamplingMatrix,
    psi: Dictionary,
    t0: int | None = None,
    equivalent: np.ndarray | None = None,
) -> ReconstructionResult:
    """Recover the image behind ``y`` by OMP in the dictionary.

    Forms the equivalent matrix D = Phi Psi (or reuses a precomputed one),
    solves for a code with at most ``t0`` atoms (default: the dictionary's
    training budget), and returns x_hat = Psi z_hat. Many images under one
    pattern stack code faster together, through ``sparse_code_columns``.
    """
    if len(y) != phi.n_patterns:
        raise ValueError(f"{len(y)} readings for {phi.n_patterns} patterns")
    if phi.n_pixels != psi.n_pixels:
        raise ValueError("pattern length does not match the dictionary's pixel count")
    if t0 is None:
        t0 = psi.sparsity
    start = time.perf_counter()
    if equivalent is None:
        equivalent = phi.rows @ psi.atoms
    elif equivalent.shape != (phi.n_patterns, psi.n_atoms):
        raise ConsistencyError(
            f"equivalent matrix {equivalent.shape} does not match "
            f"({phi.n_patterns}, {psi.n_atoms})"
        )
    code = omp(equivalent, y.values, t0)
    image = psi.atoms @ code.coefficients
    residual = float(np.linalg.norm(equivalent @ code.coefficients - y.values))
    return ReconstructionResult(
        image=image,
        code=code,
        residual_norm=residual,
        duration_sec=time.perf_counter() - start,
    )


def sampling_ratio(m: int, n: int) -> float:
    """Measurements per pixel, M/N."""
    if n <= 0:
        raise ValueError("pixel count must be positive")
    return m / n
