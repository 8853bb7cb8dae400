"""Closed-form design of coherence-optimized sampling matrices.

Given a constrained dictionary Psi, the Frobenius surrogate of the
mutual-coherence objective is minimized in closed form by the
eigendecomposition of Psi Psi^T: the optimal M-row sampling matrix is the
first M rows of V^T with eigenvalues sorted descending. A sampling matrix is
a plain M x N float array, one illumination pattern per row. More rows are a
longer prefix of the same V^T (successive sampling), and a constant lift
makes the patterns physically displayable (non-negative), which
:func:`gifield.imaging.measure` requires. The lift is fixed per field, so to
show patterns successively, lift the ``rank``-row field once and display its
row prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary

_RANK_TOL = 1e-10


@dataclass(frozen=True)
class FieldOptState:
    """Eigenstructure of Psi Psi^T.

    ``eigenvectors`` holds V column-wise in descending-eigenvalue order with
    a fixed sign convention; ``rank`` counts the eigenvalues above the rank
    tolerance, which caps the rows a field can have.
    """

    eigenvectors: np.ndarray
    eigenvalues: np.ndarray
    rank: int

    def __post_init__(self):
        self.eigenvectors.setflags(write=False)
        self.eigenvalues.setflags(write=False)

    @property
    def n_pixels(self) -> int:
        return self.eigenvectors.shape[0]


def build_state(dictionary: Dictionary) -> FieldOptState:
    """Eigendecompose the dictionary's Gram (pixel side) for field design.

    Eigenvalues come back sorted descending and clamped at zero, eigenvector
    signs are fixed (largest-magnitude entry positive), and ties are broken
    by the pre-sort index so the result is deterministic.
    """
    psi = dictionary.atoms
    values, vectors = np.linalg.eigh(psi @ psi.T)
    order = np.argsort(-values, kind="stable")
    values = np.maximum(values[order], 0.0)
    vectors = vectors[:, order]
    flip = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])] < 0
    vectors[:, flip] *= -1.0

    rank = int(np.count_nonzero(values > _RANK_TOL * values[0]))
    return FieldOptState(eigenvectors=vectors, eigenvalues=values, rank=rank)


def optimize_sampling(state: FieldOptState, m: int) -> np.ndarray:
    """First ``m`` rows of V^T: the closed-form optimum of the design objective."""
    if m < 1:
        raise ValueError("need at least one sampling row")
    if m > state.rank:
        raise ValueError(f"{m} rows requested but the Gram rank is only {state.rank}")
    return state.eigenvectors[:, :m].T.copy()


def nn_lift(phi: np.ndarray) -> np.ndarray:
    """Add ``max(0, -min(phi))`` to every entry so the patterns are non-negative.

    The lift depends on the whole field: to show patterns successively, lift
    the largest field once and display its row prefixes.
    """
    return phi + max(0.0, -float(phi.min()))


def gaussian_sampling(m: int, n: int, seed: int) -> np.ndarray:
    """Baseline: i.i.d. standard-normal patterns."""
    if m < 1 or n < 1:
        raise ValueError("sampling matrix must have at least one row and column")
    return np.random.default_rng(seed).standard_normal((m, n))


def quantize_matrix(phi: np.ndarray, bits: int) -> np.ndarray:
    """Uniform quantization of [0, max] into 2**bits levels, round half up.

    Models a light modulator's finite precision. Idempotent: quantizing a
    quantized matrix returns it unchanged. An all-zero matrix passes through.
    """
    if not 1 <= bits <= 16:
        raise ValueError("bits must be in [1, 16]")
    if float(phi.min()) < 0.0:
        raise ValueError("quantization expects a lifted (non-negative) matrix")
    peak = float(phi.max())
    if peak == 0.0:
        return phi
    levels = float(2**bits - 1)
    return np.floor(phi * (levels / peak) + 0.5) * (peak / levels)


def design_objective(state: FieldOptState, phi: np.ndarray) -> float:
    """Frobenius design objective ||Lambda^2 - W W^T||_F^2 with W = Lambda V^T Phi^T.

    This is the surrogate whose minimizer over M orthonormal rows is
    :func:`optimize_sampling`; at that optimum the value equals the sum of
    the fourth powers of the discarded eigenvalues.
    """
    w = state.eigenvalues[:, None] * (state.eigenvectors.T @ np.asarray(phi, dtype=np.float64).T)
    diff = -(w @ w.T)
    diff[np.diag_indices_from(diff)] += state.eigenvalues**2
    return float(np.sum(diff * diff))
