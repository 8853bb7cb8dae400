"""Constrained overcomplete dictionary learning and greedy sparse coding.

The dictionary is an N x K atom matrix whose first atom is the constant
vector with entries N**-0.5 and whose remaining atoms are zero-mean,
all unit norm. Training is K-SVD style: alternate greedy sparse coding
(orthogonal matching pursuit) with per-atom rank-1 updates, re-projecting
each updated atom onto the constraint set.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

# signals the sparse coder moves in lockstep; bounds its work arrays
_OMP_BLOCK = 256


@dataclass(frozen=True)
class SparseCode:
    """Sparse coefficient vector plus its support (in selection order)."""

    coefficients: np.ndarray
    support: tuple[int, ...]

    def __post_init__(self):
        self.coefficients.setflags(write=False)

    @property
    def n_nonzero(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class Dictionary:
    """Learned sparsifying basis (atoms as columns) with its training budget."""

    atoms: np.ndarray
    sparsity: int

    def __post_init__(self):
        self.atoms.setflags(write=False)

    @property
    def n_pixels(self) -> int:
        return self.atoms.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[1]

    @property
    def checksum(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.atoms.shape).encode())
        h.update(np.ascontiguousarray(self.atoms).tobytes())
        return h.hexdigest()[:16]

    def validate(self) -> None:
        """Check the structural constraints; raises ValueError on violation."""
        if not np.all(np.isfinite(self.atoms)):
            raise ValueError("atoms hold a non-finite entry")
        n = self.n_pixels
        const = n**-0.5
        if np.max(np.abs(self.atoms[:, 0] - const)) > 1e-12:
            raise ValueError("first atom is not the constant vector")
        col_sums = np.abs(self.atoms[:, 1:].sum(axis=0))
        if col_sums.size and col_sums.max() > 1e-9:
            raise ValueError("an atom beyond the first is not zero-mean")
        norms = np.linalg.norm(self.atoms, axis=0)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ValueError("atoms are not unit norm")


@dataclass(frozen=True)
class TrainingConfig:
    """K-SVD training knobs."""

    atom_count: int
    sparsity: int
    sweeps: int
    seed: int = 0

    def __post_init__(self):
        if self.atom_count < 1:
            raise ValueError("atom_count must be >= 1")
        if self.sparsity < 1:
            raise ValueError("sparsity must be >= 1")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")


def omp(d: np.ndarray, y: np.ndarray, t0: int) -> SparseCode:
    """Orthogonal matching pursuit on one signal.

    Greedily picks the column most correlated with the residual
    (normalized by column norm), re-solves least squares on the selected
    support, and stops once ``t0`` atoms are used or the residual norm
    drops to 1e-6 * ||y||. This is the one-column case of
    :func:`sparse_code_columns`.

    Args:
        d: matrix whose columns are the candidate atoms.
        y: signal to approximate.
        t0: maximum number of selected columns.

    Returns:
        SparseCode over the columns of ``d``.
    """
    support, coeffs = _lockstep_omp(d, np.asarray(y, dtype=np.float64).reshape(-1, 1), t0)
    selected = support[0][support[0] >= 0]
    z = np.zeros(np.shape(d)[1])
    z[selected] = coeffs[0, : selected.size]
    return SparseCode(coefficients=z, support=tuple(int(j) for j in selected))


def sparse_code_columns(atoms: np.ndarray, x: np.ndarray, t0: int) -> np.ndarray:
    """OMP-code every column of ``x`` against the columns of ``atoms``.

    Selection, least-squares fits and the stopping rule are those of
    :func:`omp`, applied to all columns at once. Returns the K x L
    coefficient matrix.
    """
    support, coeffs = _lockstep_omp(atoms, x, t0)
    cols, slots = np.nonzero(support >= 0)
    z = np.zeros((np.shape(atoms)[1], support.shape[0]))
    z[support[cols, slots], cols] = coeffs[cols, slots]
    return z


def _lockstep_omp(d: np.ndarray, x: np.ndarray, t0: int) -> tuple[np.ndarray, np.ndarray]:
    """Batch OMP (Rubinstein, Zibulevsky & Elad, Technion TR CS-2008-08).

    All running columns of ``x`` hold the same number of atoms, so each step
    is one argmax over |correlation| / column norm (first index on ties), one
    batched solve of the support Gram systems and one correlation update,
    from the atom Gram D^T D when there are more signals than atoms, else as
    D^T r. Columns go in blocks of ``_OMP_BLOCK``. Returns (support, coeffs):
    L x budget atom indices in selection order and their coefficients, with
    -1 and 0 in unused slots.
    """
    d = np.asarray(d, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if d.ndim != 2 or x.ndim != 2 or d.shape[0] != x.shape[0]:
        raise ValueError(f"matrix {d.shape} incompatible with signals {x.shape}")
    if t0 < 1:
        raise ValueError("sparsity budget must be >= 1")
    norms = np.linalg.norm(d, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("zero column in sparse-coding matrix")

    dt = np.ascontiguousarray(d.T)
    gram = dt @ d if x.shape[1] > d.shape[1] else None
    support = np.full((x.shape[1], min(t0, d.shape[1])), -1)
    coeffs = np.zeros(support.shape)
    for first in range(0, x.shape[1], _OMP_BLOCK):
        y = x[:, first:first + _OMP_BLOCK].T  # one signal per row
        corr0 = y @ d
        energy = np.einsum("ln,ln->l", y, y)
        tol2 = 1e-12 * energy
        live = np.flatnonzero(energy > tol2)  # rows of y still running
        corr = corr0[live]
        for t in range(support.shape[1]):
            rows = np.arange(live.size)
            scores = np.abs(corr) / norms
            scores[rows[:, None], support[first + live, :t]] = -1.0
            best = np.argmax(scores, axis=1)
            moving = scores[rows, best] > 0.0
            live, best = live[moving], best[moving]
            if live.size == 0:
                break
            support[first + live, t] = best
            sel = support[first + live, : t + 1]
            rhs = corr0[live[:, None], sel]
            if gram is not None:
                sub = gram[sel[:, :, None], sel[:, None, :]]
            else:
                d_rows = dt[sel]
                sub = d_rows @ d_rows.transpose(0, 2, 1)
            try:
                c = np.linalg.solve(sub, rhs[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:  # a singular support Gram: least-norm fit
                c = (np.linalg.pinv(sub) @ rhs[:, :, None])[:, :, 0]
            coeffs[first + live, : t + 1] = c
            if gram is not None:
                corr = corr0[live]
                for i in range(t + 1):  # one Gram row per support slot keeps memory flat
                    corr -= c[:, i, None] * gram[sel[:, i]]
                err2 = energy[live] - np.einsum("li,li->l", c, rhs)
            else:
                r = y[live] - (c[:, None, :] @ d_rows)[:, 0]
                corr = r @ d
                err2 = np.einsum("ln,ln->l", r, r)
            going = err2 > tol2[live]
            live, corr = live[going], corr[going]
    return support, coeffs


def _random_zero_mean_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    v -= v.mean()
    nrm = np.linalg.norm(v)
    while nrm < 1e-12:  # vanishing after centering; redraw
        v = rng.standard_normal(n)
        v -= v.mean()
        nrm = np.linalg.norm(v)
    return v / nrm


def _orient(v: np.ndarray) -> np.ndarray:
    """Flip sign so the largest-magnitude entry is positive (determinism)."""
    if v[int(np.argmax(np.abs(v)))] < 0:
        return -v
    return v


def _constrain_atom(v: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Project onto the zero-mean unit sphere; random fallback if degenerate."""
    w = v - v.mean()
    nrm = np.linalg.norm(w)
    if nrm < 1e-12:
        return _orient(_random_zero_mean_unit(rng, v.size))
    return _orient(w / nrm)


def _init_atoms(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n, n_signals = x.shape
    atoms = np.empty((n, k))
    atoms[:, 0] = n**-0.5
    picks = rng.choice(n_signals, size=k - 1, replace=False) if k > 1 else []
    for col, pick in enumerate(picks, start=1):
        atoms[:, col] = _constrain_atom(x[:, pick], rng)
    return atoms


def _constrained_rank1(e: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The zero-mean unit atom that captures the most of ``e``: argmax ||psi^T e||.

    That is the top left singular vector of the column-centred ``P e``, with
    ``P = I - 11^T/N``, found from the smaller centred Gram: ``psi`` is
    ``P e w`` normalised, where ``w`` is the top eigenvector of ``e^T P e``
    when ``e`` has no more columns than rows, else ``e^T u`` for ``u`` the
    top eigenvector of ``P e e^T P``. A random zero-mean atom stands in when
    ``P e w`` vanishes next to ``e w``, that is, when the centred residual is
    gone.
    """
    n, count = e.shape
    if count <= n:
        sums = e.sum(axis=0)
        _, vecs = np.linalg.eigh(e.T @ e - np.outer(sums, sums) / n)
        w = vecs[:, -1]
    else:
        gram = e @ e.T
        means = gram.mean(axis=0)  # symmetric: row and column means agree
        gram -= means
        gram -= means[:, None]
        gram += means.mean()
        _, vecs = np.linalg.eigh(gram)
        w = vecs[:, -1] @ e
    v = e @ w
    scale = np.linalg.norm(v)
    return _constrain_atom(v / scale if scale > 0.0 else v, rng)


def _replace_dead_atoms(
    atoms: np.ndarray,
    usage_counts: np.ndarray,
    x: np.ndarray,
    residual: np.ndarray,
    rng: np.random.Generator,
) -> int:
    """Replace unused atoms (beyond the first) in place by the worst-coded columns of ``x``.

    ``residual`` is X - Psi Z. ``x`` needs a column per dead atom, which
    :func:`ksvd_train` ensures by asking for at least as many signals as
    atoms. Returns the number of atoms replaced.
    """
    dead = np.flatnonzero(usage_counts[1:] == 0) + 1
    if dead.size:
        worst_first = np.argsort(np.linalg.norm(residual, axis=0))[::-1]
        for k, col in zip(dead, worst_first):
            atoms[:, k] = _constrain_atom(x[:, col], rng)
    return dead.size


def ksvd_train(x: np.ndarray, cfg: TrainingConfig) -> tuple[Dictionary, np.ndarray]:
    """Learn a constrained dictionary from training signals.

    Args:
        x: N x L matrix, one training signal per column.
        cfg: training knobs (atom count, sparsity budget, sweep count, seed).

    Returns:
        (dictionary, objectives): the trained dictionary and the value of
        ||X - Psi Z||_F**2 recorded right after the sparse-coding half of
        each sweep.

    Each sweep codes all signals with budget ``cfg.sparsity``, then updates
    the atoms one at a time on the restricted residual ``E`` of the signals
    that use the atom (their residual with the atom's own term added back).
    The constant atom 0 stays as it is; only its coefficients are refit.
    Every other atom becomes the exact best zero-mean unit atom for ``E``,
    the top left singular vector of the column-centred ``E``, found from the
    smaller centred Gram of ``E``; its coefficients are then refit. No
    update can lose to the atom it replaces. After each sweep, every atom
    that no signal uses is replaced by one of the worst-coded signals.
    There must be at least as many signals as atoms.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError("training data must be an N x L matrix with L >= 1")
    if not np.all(np.isfinite(x)):
        raise ValueError("training data must be finite")
    if not np.any(x):
        raise ValueError("training matrix is all zero")
    n = x.shape[0]
    if cfg.atom_count < n:
        raise ValueError(f"atom count {cfg.atom_count} < signal dimension {n}")
    if x.shape[1] < cfg.atom_count:
        raise ValueError(f"{x.shape[1]} training signals < atom count {cfg.atom_count}")

    rng = np.random.default_rng(cfg.seed)
    atoms = _init_atoms(x, cfg.atom_count, rng)
    objectives = np.empty(cfg.sweeps)

    for sweep in range(cfg.sweeps):
        z = sparse_code_columns(atoms, x, cfg.sparsity)
        # np.nonzero walks z row by row, so each atom's signals are one slice
        owner, signal = np.nonzero(z)
        bounds = np.searchsorted(owner, np.arange(cfg.atom_count + 1))
        # one row per signal, so that an atom's signals are a cheap row gather
        residual = z.T @ atoms.T
        np.subtract(x.T, residual, out=residual)
        objectives[sweep] = float(np.sum(residual * residual))

        for k in range(cfg.atom_count):
            used = signal[bounds[k]:bounds[k + 1]]
            if used.size == 0:
                continue
            e = residual[used]
            e += z[k, used, None] * atoms[:, k]
            psi = atoms[:, 0] if k == 0 else _constrained_rank1(e.T, rng)
            coeffs = e @ psi
            z[k, used] = coeffs
            e -= coeffs[:, None] * psi
            residual[used] = e
            atoms[:, k] = psi

        if log.isEnabledFor(logging.DEBUG):
            updated = float(np.sum(residual * residual))
            log.debug("sweep %d: objective %r -> %r", sweep, float(objectives[sweep]), updated)

        n_dead = _replace_dead_atoms(atoms, np.count_nonzero(z, axis=1), x, residual.T, rng)
        if n_dead:
            log.debug("sweep %d: replaced %d dead atoms", sweep, n_dead)

    return Dictionary(atoms=atoms, sparsity=cfg.sparsity), objectives


def random_dictionary(n: int, k: int, seed: int) -> Dictionary:
    """Random dictionary satisfying the structural constraints (for studies)."""
    if k < n:
        raise ValueError("need at least as many atoms as pixels")
    rng = np.random.default_rng(seed)
    atoms = np.empty((n, k))
    atoms[:, 0] = n**-0.5
    for j in range(1, k):
        atoms[:, j] = _random_zero_mean_unit(rng, n)
    return Dictionary(atoms=atoms, sparsity=max(1, n // 8))
