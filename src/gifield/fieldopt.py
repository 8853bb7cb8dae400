"""Closed-form design of coherence-optimized sampling matrices.

Given a constrained dictionary Psi, the Frobenius surrogate of the
mutual-coherence objective is minimized in closed form by the
eigendecomposition of Psi Psi^T: the optimal M-row sampling matrix is the
first M rows of V^T with eigenvalues sorted descending. A sampling matrix is
a plain M x N float array, one illumination pattern per row. Extending it to
more rows is pure row augmentation (successive sampling), and a constant
lift makes the patterns physically displayable (non-negative), which
:func:`gifield.imaging.measure` requires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary
from .metrics import mutual_coherence

_RANK_TOL = 1e-10


@dataclass(frozen=True)
class FieldOptState:
    """Eigenstructure of Psi Psi^T plus the shared lifting constant.

    ``eigenvectors`` holds V column-wise in descending-eigenvalue order with
    a fixed sign convention; ``lift`` is computed once over the first
    ``rank`` columns so that lifted matrices keep the row-prefix property.
    """

    eigenvectors: np.ndarray
    eigenvalues: np.ndarray
    rank: int
    lift: float

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
    dictionary.validate()
    psi = dictionary.atoms
    gram = psi @ psi.T
    gram = (gram + gram.T) / 2.0
    values, vectors = np.linalg.eigh(gram)
    order = np.argsort(-values, kind="stable")
    values = np.maximum(values[order], 0.0)
    vectors = vectors[:, order]
    flip = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])] < 0
    vectors[:, flip] *= -1.0

    if values[0] <= 0.0:
        raise ValueError("dictionary Gram has rank 0")
    rank = int(np.count_nonzero(values > _RANK_TOL * values[0]))
    lift = max(0.0, -float(vectors[:, :rank].min()))
    return FieldOptState(
        eigenvectors=vectors,
        eigenvalues=values,
        rank=rank,
        lift=lift,
    )


def optimize_sampling(state: FieldOptState, m: int) -> np.ndarray:
    """First ``m`` rows of V^T: the closed-form optimum of the design objective."""
    if m < 1:
        raise ValueError("need at least one sampling row")
    if m > state.rank:
        raise ValueError(f"{m} rows requested but the Gram rank is only {state.rank}")
    return state.eigenvectors[:, :m].T.copy()


def extend_sampling(state: FieldOptState, phi: np.ndarray, m_new: int) -> np.ndarray:
    """Augment an optimized matrix with further rows of V^T.

    The first rows of the result are bit-identical to ``phi`` (successive
    sampling: patterns already displayed stay valid). ``phi`` must equal the
    first rows of V^T, as :func:`optimize_sampling` on the same state returns
    them; extend before :func:`nn_lift`, then lift the result.
    """
    m = phi.shape[0]
    if not np.array_equal(phi, state.eigenvectors[:, :m].T):
        raise ValueError("matrix was not produced from this state")
    if m_new < m:
        raise ValueError(f"cannot extend {m} rows down to {m_new}")
    if m_new == m:
        return phi
    if m_new > state.rank:
        raise ValueError(f"{m_new} rows requested but the Gram rank is only {state.rank}")
    return np.vstack([phi, state.eigenvectors[:, m:m_new].T])


def nn_lift(phi: np.ndarray, c: float) -> np.ndarray:
    """Add the constant ``c`` to every entry so patterns are non-negative."""
    needed = max(0.0, -float(phi.min()))
    if c < needed:
        raise ValueError(f"lift {c} leaves negative entries (need >= {needed})")
    return phi + c


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


def coherence_bound_check(d: np.ndarray, k: int) -> tuple[bool, float]:
    """Whether mu(D) < 1/(2k-1), the exact-recovery condition for k-sparse OMP."""
    if k < 1:
        raise ValueError("sparsity must be >= 1")
    mu = mutual_coherence(d)
    return mu < 1.0 / (2 * k - 1), mu


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
