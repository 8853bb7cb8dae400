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
import numbers
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

# signals the sparse coder moves in lockstep; bounds its work arrays
_OMP_BLOCK = 256


@dataclass(frozen=True)
class Dictionary:
    """Learned sparsifying basis (atoms as columns) with its training budget; checked when made."""

    atoms: np.ndarray
    sparsity: int

    def __post_init__(self):
        self.atoms.setflags(write=False)
        self.validate()

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
        """Check the budget and the structural constraints; raises ValueError on violation."""
        sparsity = self.sparsity
        if not isinstance(sparsity, numbers.Integral) or isinstance(sparsity, bool) or sparsity < 1:
            raise ValueError(f"sparsity {sparsity!r} is not an integer >= 1")
        if self.atoms.ndim != 2 or self.atoms.size == 0:
            raise ValueError(f"atoms of shape {self.atoms.shape} hold no constant first atom")
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
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be >= 0")


def omp(d: np.ndarray, y: np.ndarray, t0: int) -> np.ndarray:
    """OMP-code one signal ``y``: :func:`sparse_code_columns` on one column.

    Returns the code, one coefficient per column of ``d``, nonzero only on
    the selected columns.
    """
    return sparse_code_columns(d, np.asarray(y, dtype=np.float64).reshape(-1, 1), t0)[:, 0]


def sparse_code_columns(atoms: np.ndarray, x: np.ndarray, t0: int, rows=None) -> np.ndarray:
    """Orthogonal matching pursuit on every column of ``x`` against the columns of ``atoms``.

    Greedily picks the column most correlated with the residual
    (normalized by column norm) and refits least squares on the selected
    support. A signal stops once ``t0`` atoms are used, once its residual
    energy drops to 1e-12 ||y||^2, when no column correlates with its
    residual, or when the column it picked lies in the span of its support:
    that dependent column gets coefficient 0 and the fit stays as it was.
    ``rows``, one row count per column of ``x``, codes column l against
    ``atoms[:rows[l]]`` from its own first ``rows[l]`` entries; the entries
    past its count are ignored. Without it every column uses every row.
    Returns the K x L coefficient matrix.

    Raises:
        ValueError: ``atoms`` or the part of ``x`` coded holds a NaN or an
            infinity, or a row prefix of ``atoms`` coded against has a zero
            column; ``rows`` is not one integer in 1..N per column.
    """
    support, coeffs = _lockstep_omp(atoms, x, t0, rows)
    cols, slots = np.nonzero(support >= 0)
    z = np.zeros((np.shape(atoms)[1], support.shape[0]))
    z[support[cols, slots], cols] = coeffs[cols, slots]
    return z


def _row_counts(rows, n_signals: int, n_rows: int) -> np.ndarray:
    """``rows`` as one checked row count per signal, each in 1..``n_rows``."""
    counts = np.asarray(rows)
    if counts.shape != (n_signals,):
        raise ValueError(f"row counts of shape {counts.shape} for {n_signals} signals")
    if counts.dtype.kind not in "iu":
        raise ValueError(f"row counts of dtype {counts.dtype} are not integers")
    bad = counts[(counts < 1) | (counts > n_rows)]
    if bad.size:
        raise ValueError(f"row count {bad[0]} outside 1..{n_rows}")
    return counts.astype(np.intp)


def _lockstep_omp(
    d: np.ndarray, x: np.ndarray, t0: int, rows=None
) -> tuple[np.ndarray, np.ndarray]:
    """Batch OMP (Rubinstein, Zibulevsky & Elad, Technion TR CS-2008-08).

    All running columns of ``x`` hold the same number of atoms, so each step
    is one argmax over |correlation| / column norm (first index on ties,
    selected atoms masked), one batched Cholesky step (:func:`_grow_factors`)
    and one correlation update. With more signals than atoms the update comes
    from the atom Gram D^T D: a buffer keeps each signal's selected Gram rows,
    which give both the new Cholesky column and, in one batched matvec, the
    correlations alpha - G_I c. Otherwise a buffer keeps the selected atoms,
    which give the new column and the residual r, and the correlations are
    D^T r. A signal stops at the budget, once its residual energy drops to
    1e-12 ||y||^2, when no atom correlates with its residual, or on a
    dependent atom, one whose Cholesky pivot vanishes: that atom keeps
    coefficient 0 and the signal keeps the fit it had. Columns go in blocks
    of ``_OMP_BLOCK``; the buffers are allocated once per call.

    With ``rows`` (see :func:`sparse_code_columns`) one count for every
    column is the plain call on that row prefix. Mixed counts take the direct
    side on the first max(rows) rows: each column's entries past its count
    are zeroed, each atom it picks is zeroed past its count, and its
    correlations are divided by its own prefix norms, so r and D^T r are
    those of its own prefix.
    Returns (support, coeffs): L x budget atom indices in selection order and
    their coefficients, with -1 and 0 in unused slots.
    """
    d = np.asarray(d, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if d.ndim != 2 or x.ndim != 2 or d.shape[0] != x.shape[0]:
        raise ValueError(f"matrix {d.shape} incompatible with signals {x.shape}")
    if t0 < 1:
        raise ValueError("sparsity budget must be >= 1")
    if rows is not None:
        rows = _row_counts(rows, x.shape[1], d.shape[0])
        counts = np.flatnonzero(np.bincount(rows))  # the distinct counts, ascending
        top = counts[-1] if counts.size else d.shape[0]
        d = d[:top]
        if counts.size > 1:
            lane = np.arange(top)
            x = np.where(lane[:, None] < rows, x[:top], 0.0)
        else:  # one count for every column: the plain call on that prefix
            x, rows = x[:top], None
    if rows is None:
        # np.linalg.norm(d, axis=0) without its overhead
        norms = np.sqrt(np.add.reduce(d * d, axis=0))
    else:
        sums = d * d
        # row m - 1 sums the squares of d[:m] in the plain call's order
        np.cumsum(sums, axis=0, out=sums)
        norms = np.sqrt(sums[counts - 1])  # row i: the column norms of d[:counts[i]]
        del sums
        level = np.searchsorted(counts, rows)  # each column's row of norms
    if not (np.isfinite(norms).all() and np.isfinite(x).all()):
        raise ValueError("sparse coding needs finite atoms and signals")
    if np.count_nonzero(norms == 0.0):
        raise ValueError("zero column in sparse-coding matrix")

    n_atoms, n_signals = d.shape[1], x.shape[1]
    gram = d.T @ d if rows is None and n_signals > n_atoms else None
    support = np.full((n_signals, min(t0, n_atoms)), -1)
    coeffs = np.zeros(support.shape)
    budget, block = support.shape[1], min(_OMP_BLOCK, n_signals)
    # slot t holds each running signal's t-th atom: its Gram row, or the atom itself
    picked = np.empty((budget, block, n_atoms if gram is not None else d.shape[0]))
    corr = np.empty((block, n_atoms))
    index = np.arange(block)
    for first in range(0, n_signals, _OMP_BLOCK):
        y = x[:, first:first + _OMP_BLOCK].T  # one signal per row
        alpha = y @ d
        energy = np.einsum("ln,ln->l", y, y)
        n = energy.size
        # each running signal's column norms: the atoms' own, or one row per signal
        scale = norms if rows is None else norms[level[first:first + n]]
        # one row per running signal: its column of x, energy and correlations
        # with the atoms, and its Cholesky factors
        state = (first + index[:n], energy, alpha, np.zeros((n, budget, budget + 1)))
        going = energy > 0.0  # a zero signal stops before it starts
        for t in range(budget):
            cols, energy, alpha, chol = state
            # scored in place: both update paths rewrite corr[:n] at the end of the step
            np.abs(alpha if t == 0 else corr[:n], out=corr[:n])
            np.divide(corr[:n], scale, out=corr[:n])
            corr[index[:n, None], support[cols, :t]] = -1.0
            best = np.argmax(corr[:n], axis=1)
            going &= corr[index[:n], best] > 0.0
            if np.count_nonzero(going) < n:  # drop the signals that stopped
                kept = going.nonzero()[0]
                state, best, n = tuple(a[kept] for a in state), best[kept], kept.size
                cols, energy, alpha, chol = state
                picked[:t, :n] = picked[:t, kept]
                if rows is not None:
                    scale = scale[kept]
                if n == 0:
                    break
            support[cols, t] = best
            held = picked[: t + 1, :n].transpose(1, 0, 2)
            if gram is not None:
                np.take(gram, best, axis=0, out=picked[t, :n], mode="clip")
                col = picked[t, index[:n, None], support[cols, : t + 1]]
            else:
                picked[t, :n] = d[:, best].T
                if rows is not None:  # each atom as its signal sees it
                    picked[t, :n][lane >= rows[cols, None]] = 0.0
                col = (held @ picked[t, :n, :, None])[:, :, 0]
            c, fit, dependent = _grow_factors(chol, col, alpha[index[:n], best], t)
            coeffs[cols, : t + 1] = c
            if t + 1 == budget:
                break
            going = (energy - fit > 1e-12 * energy) & ~dependent  # residual energy left
            if gram is not None:
                np.matmul(c[:, None, :], held, out=corr[:n, None, :])
                np.subtract(alpha, corr[:n], out=corr[:n])
            else:
                residual = x[:, cols].T - (c[:, None, :] @ held)[:, 0]
                np.matmul(residual, d, out=corr[:n])
    return support, coeffs


def _grow_factors(
    chol: np.ndarray, col: np.ndarray, a_new: np.ndarray, t: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Add atom ``t`` to every running support: one batched Cholesky step.

    Row i of ``chol`` is row i of L^-1, for the support Gram G_I = L L^T, with
    entry i of the forward vector w = L^-1 alpha_I in its last column, one
    such matrix per signal; it grows in place. ``col`` is the new atom's row
    of the grown G_I, its diagonal entry last, and ``a_new`` its correlation
    with the signal. Returns the coefficients c = L^-T w, the captured energy
    ||w||^2, so the residual energy is ||y||^2 - ||w||^2, and which new atoms
    are dependent: a pivot within rounding of zero leaves the new row of
    L^-1 zero, so that atom's coefficient is 0 and c and ||w||^2 are those of
    the support without it.
    """
    v = chol[:, :t, :t] @ col[:, :t, None]  # L^-1 g, one column per signal
    vt = v.transpose(0, 2, 1)
    pivot2 = col[:, t] - (vt @ v)[:, 0, 0]
    dependent = pivot2 <= 1e-14 * col[:, t]  # a duplicate atom leaves a few ulps of G_jj
    pivot2[dependent] = np.inf  # so the new row of L^-1 comes out 0
    row = chol[:, t]  # (e_t, a_new) - v^T (L^-1, w), over the pivot
    row[:, t] = 1.0
    row[:, -1] = a_new
    row -= (vt @ chol[:, :t])[:, 0]
    row /= np.sqrt(pivot2)[:, None]
    fitted = (chol[:, None, : t + 1, -1] @ chol[:, : t + 1])[:, 0]  # w^T L^-1, then w . w
    return fitted[:, : t + 1], fitted[:, -1], dependent


def _constrain_atom(v: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Project onto the zero-mean unit sphere, largest-magnitude entry positive; a
    ``v`` that vanishes once centred gives way to centred normal draws from ``rng``."""
    v = v - v.mean()
    nrm = np.linalg.norm(v)
    while nrm < 1e-12:
        v = rng.standard_normal(v.size)
        v -= v.mean()
        nrm = np.linalg.norm(v)
    v = v / nrm
    return -v if v[int(np.argmax(np.abs(v)))] < 0 else v


def _init_atoms(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """The first K x N atom rows: the constant atom, then k - 1 distinct signals, constrained."""
    n, n_signals = x.shape
    rows = np.empty((k, n))
    rows[0] = n**-0.5
    picks = rng.choice(n_signals, size=k - 1, replace=False) if k > 1 else []
    for i, pick in enumerate(picks, start=1):
        rows[i] = _constrain_atom(x[:, pick], rng)
    return rows


def _constrained_rank1(e: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The zero-mean unit atom that captures the most of ``e``: argmax ||e psi||.

    ``e`` holds one residual per row, count x N, as the atom loop gathers it.
    The answer is the top right singular vector of the row-centred ``e P``,
    with ``P = I - 11^T/N``, found from the smaller centred Gram: ``psi`` is
    ``w e P`` normalised, where ``w`` is the top eigenvector of ``e P e^T``
    when ``e`` has no more rows than columns, else ``e u`` for ``u`` the top
    eigenvector of ``P e^T e P``. A random zero-mean atom stands in when
    ``w e P`` vanishes next to ``w e``, that is, when the centred residual is
    gone.
    """
    count, n = e.shape
    if count <= n:
        sums = e.sum(axis=1)
        _, vecs = np.linalg.eigh(e @ e.T - np.outer(sums, sums) / n)
        w = vecs[:, -1]
    else:
        gram = e.T @ e
        means = gram.mean(axis=0)  # symmetric: row and column means agree
        gram -= means
        gram -= means[:, None]
        gram += means.mean()
        _, vecs = np.linalg.eigh(gram)
        w = e @ vecs[:, -1]
    v = w @ e
    scale = np.linalg.norm(v)
    return _constrain_atom(v / scale if scale > 0.0 else v, rng)


def _replace_dead_atoms(
    rows: np.ndarray,
    usage_counts: np.ndarray,
    x: np.ndarray,
    residual: np.ndarray,
    rng: np.random.Generator,
) -> int:
    """Replace unused atom rows (beyond the first) in place by the worst-coded columns of ``x``.

    ``rows`` holds one atom per row and ``residual`` one signal's residual
    per row, (X - Psi Z)^T. ``x`` needs a column per dead atom, which
    :func:`ksvd_train` ensures by asking for at least as many signals as
    atoms. Returns the number of atoms replaced.
    """
    dead = np.flatnonzero(usage_counts[1:] == 0) + 1
    if dead.size:
        worst_first = np.argsort(np.linalg.norm(residual, axis=1))[::-1]
        for k, col in zip(dead, worst_first):
            rows[k] = _constrain_atom(x[:, col], rng)
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
    There must be at least as many signals as atoms, and a dictionary of
    more than one atom needs signals of at least 2 pixels.
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
    if n < 2 and cfg.atom_count > 1:
        raise ValueError(
            f"atom count {cfg.atom_count} > 1 needs signals of at least 2 pixels, not {n}"
        )
    if x.shape[1] < cfg.atom_count:
        raise ValueError(f"{x.shape[1]} training signals < atom count {cfg.atom_count}")

    rng = np.random.default_rng(cfg.seed)
    # atom-major until the end: atom k is the contiguous row rows[k], which the
    # atom loop reads and writes whole, where a column of N x K strides by K
    rows = _init_atoms(x, cfg.atom_count, rng)
    objectives = np.empty(cfg.sweeps)

    for sweep in range(cfg.sweeps):
        z = sparse_code_columns(rows.T, x, cfg.sparsity)
        # np.nonzero walks z row by row, so each atom's signals are one slice
        owner, signal = np.nonzero(z)
        bounds = np.searchsorted(owner, np.arange(cfg.atom_count + 1))
        # one row per signal, so that an atom's signals are a cheap row gather
        residual = z.T @ rows
        np.subtract(x.T, residual, out=residual)
        objectives[sweep] = float(np.sum(residual * residual))

        for k in range(cfg.atom_count):
            used = signal[bounds[k]:bounds[k + 1]]
            if used.size == 0:
                continue
            e = residual[used]
            e += z[k, used, None] * rows[k]
            psi = rows[0] if k == 0 else _constrained_rank1(e, rng)
            coeffs = e @ psi
            z[k, used] = coeffs
            e -= coeffs[:, None] * psi
            residual[used] = e
            rows[k] = psi

        if log.isEnabledFor(logging.DEBUG):
            updated = float(np.sum(residual * residual))
            log.debug("sweep %d: objective %r -> %r", sweep, float(objectives[sweep]), updated)

        n_dead = _replace_dead_atoms(rows, np.count_nonzero(z, axis=1), x, residual, rng)
        if n_dead:
            log.debug("sweep %d: replaced %d dead atoms", sweep, n_dead)
        del z, residual, owner, signal  # free them before the next sweep's coding pass

    return Dictionary(atoms=np.ascontiguousarray(rows.T), sparsity=cfg.sparsity), objectives
