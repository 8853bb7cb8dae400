"""Closed-form design of coherence-optimized sampling matrices.

Given a constrained dictionary Psi, the Frobenius surrogate of the
mutual-coherence objective is minimized in closed form by the
eigendecomposition of Psi Psi^T: the optimal M-row sampling matrix is the
first M rows of V^T with eigenvalues sorted descending. Extending a matrix
to more rows is pure row augmentation (successive sampling), and a constant
lift makes the patterns physically displayable (non-negative).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary
from .metrics import mutual_coherence

_RANK_TOL = 1e-10


@dataclass(frozen=True)
class SamplingMatrix:
    """Light-field pattern stack: one illumination pattern per row."""

    rows: np.ndarray
    lifted: bool

    def __post_init__(self):
        if self.rows.ndim != 2:
            raise ValueError("sampling matrix must be 2-D")
        if self.lifted and self.rows.size and float(self.rows.min()) < 0.0:
            raise ValueError("lifted sampling matrix has negative entries")
        self.rows.setflags(write=False)

    @property
    def n_patterns(self) -> int:
        return self.rows.shape[0]

    @property
    def n_pixels(self) -> int:
        return self.rows.shape[1]


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


def optimize_sampling(state: FieldOptState, m: int) -> SamplingMatrix:
    """First ``m`` rows of V^T: the closed-form optimum of the design objective."""
    if m < 1:
        raise ValueError("need at least one sampling row")
    if m > state.rank:
        raise ValueError(f"{m} rows requested but the Gram rank is only {state.rank}")
    return SamplingMatrix(rows=state.eigenvectors[:, :m].T.copy(), lifted=False)


def extend_sampling(state: FieldOptState, phi: SamplingMatrix, m_new: int) -> SamplingMatrix:
    """Augment an optimized matrix with further rows of V^T.

    The first rows of the result are bit-identical to ``phi`` (successive
    sampling: patterns already displayed stay valid). ``phi`` must be an
    unlifted product of :func:`optimize_sampling` on the same state.
    """
    m = phi.n_patterns
    if phi.lifted or not np.array_equal(phi.rows, state.eigenvectors[:, :m].T):
        raise ValueError("matrix was not produced from this state")
    if m_new < m:
        raise ValueError(f"cannot extend {m} rows down to {m_new}")
    if m_new == m:
        return phi
    if m_new > state.rank:
        raise ValueError(f"{m_new} rows requested but the Gram rank is only {state.rank}")
    rows = np.vstack([phi.rows, state.eigenvectors[:, m:m_new].T])
    return SamplingMatrix(rows=rows, lifted=False)


def nn_lift(phi: SamplingMatrix, c: float) -> SamplingMatrix:
    """Add the constant ``c`` to every entry so patterns are non-negative."""
    needed = max(0.0, -float(phi.rows.min()))
    if c < needed:
        raise ValueError(f"lift {c} leaves negative entries (need >= {needed})")
    return SamplingMatrix(rows=phi.rows + c, lifted=True)


def gaussian_sampling(m: int, n: int, seed: int) -> SamplingMatrix:
    """Baseline: i.i.d. standard-normal patterns."""
    if m < 1 or n < 1:
        raise ValueError("sampling matrix must have at least one row and column")
    rows = np.random.default_rng(seed).standard_normal((m, n))
    return SamplingMatrix(rows=rows, lifted=False)


def quantize_matrix(phi: SamplingMatrix, bits: int) -> SamplingMatrix:
    """Uniform quantization of [0, max] into 2**bits levels, round half up.

    Models a light modulator's finite precision. Idempotent: quantizing a
    quantized matrix returns it unchanged. An all-zero matrix passes through.
    """
    if not 1 <= bits <= 16:
        raise ValueError("bits must be in [1, 16]")
    if float(phi.rows.min()) < 0.0:
        raise ValueError("quantization expects a lifted (non-negative) matrix")
    peak = float(phi.rows.max())
    if peak == 0.0:
        return phi
    levels = float(2**bits - 1)
    rows = np.floor(phi.rows * (levels / peak) + 0.5) * (peak / levels)
    return SamplingMatrix(rows=rows, lifted=phi.lifted)


def coherence_bound_check(d: np.ndarray, k: int) -> tuple[bool, float]:
    """Whether mu(D) < 1/(2k-1), the exact-recovery condition for k-sparse OMP."""
    if k < 1:
        raise ValueError("sparsity must be >= 1")
    mu = mutual_coherence(d)
    return mu < 1.0 / (2 * k - 1), mu


def design_objective(state: FieldOptState, phi: SamplingMatrix | np.ndarray) -> float:
    """Frobenius design objective ||Lambda^2 - W W^T||_F^2 with W = Lambda V^T Phi^T.

    This is the surrogate whose minimizer over M orthonormal rows is
    :func:`optimize_sampling`; at that optimum the value equals the sum of
    the fourth powers of the discarded eigenvalues.
    """
    rows = phi.rows if isinstance(phi, SamplingMatrix) else np.asarray(phi, dtype=np.float64)
    w = state.eigenvalues[:, None] * (state.eigenvectors.T @ rows.T)
    diff = -(w @ w.T)
    diff[np.diag_indices_from(diff)] += state.eigenvalues**2
    return float(np.sum(diff * diff))
