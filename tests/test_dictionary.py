"""OMP oracles (exhaustive search), K-SVD behavior, and constraint projection."""

import logging
import os
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gifield as gf
from gifield import dictionary

from conftest import random_dictionary


def _unit_columns(n, k, seed):
    d = np.random.default_rng(seed).standard_normal((n, k))
    return d / np.linalg.norm(d, axis=0)


def _low_coherence_columns(n, k, target, seed, iters=500):
    """Unit columns with pairwise coherence below ``target``, by Gram clipping.

    Random 8x12 frames essentially never reach mu < 1/3 by luck, so we
    alternate clipping the off-diagonal Gram entries with a rank-n projection.
    """
    rng = np.random.default_rng(seed)
    d = _unit_columns(n, k, seed)
    for _ in range(iters):
        g = d.T @ d
        off = np.abs(g - np.diag(np.diag(g))).max()
        if off < target:
            return d
        clipped = np.clip(g, -0.95 * target, 0.95 * target)
        np.fill_diagonal(clipped, 1.0)
        w, v = np.linalg.eigh(clipped)
        d = (v[:, -n:] * np.sqrt(np.maximum(w[-n:], 0.0))).T
        d = d + 1e-12 * rng.standard_normal(d.shape)
        d /= np.linalg.norm(d, axis=0)
    raise AssertionError(f"coherence reduction stalled at {off}")


def _exhaustive_best_support(d, y, k):
    best, best_err = None, np.inf
    for s in combinations(range(d.shape[1]), k):
        z, *_ = np.linalg.lstsq(d[:, s], y, rcond=None)
        err = float(np.linalg.norm(y - d[:, s] @ z))
        if err < best_err - 1e-12:
            best, best_err = s, err
    return set(best), best_err


def test_omp_single_atom():
    d = _unit_columns(10, 8, seed=0)
    z = gf.omp(d, 3.0 * d[:, 5], t0=1)
    assert tuple(np.flatnonzero(z)) == (5,)
    assert np.isclose(z[5], 3.0, rtol=1e-12)


def test_omp_zero_signal():
    d = _unit_columns(10, 8, seed=1)
    z = gf.omp(d, np.zeros(10), t0=3)
    assert z.shape == (8,)
    assert not z.any()


def test_omp_budget_and_orthogonality():
    rng = np.random.default_rng(2)
    d = _unit_columns(24, 60, seed=2)
    for t0 in (1, 3, 7):
        y = rng.standard_normal(24)
        z = gf.omp(d, y, t0)
        assert np.count_nonzero(z) <= t0
        residual = y - d @ z
        # residual is orthogonal to everything already selected
        for j in np.flatnonzero(z):
            assert abs(d[:, j] @ residual) <= 1e-8 * np.linalg.norm(y)


def test_omp_zero_column_rejected():
    d = _unit_columns(10, 5, seed=3)
    d[:, 2] = 0.0
    with pytest.raises(ValueError, match="zero column in sparse-coding matrix"):
        gf.omp(d, np.ones(10), t0=2)


def test_sparse_code_columns_rejects_mismatched_rows_and_a_zero_budget():
    d = _unit_columns(10, 5, seed=3)
    with pytest.raises(ValueError, match=re.escape("matrix (10, 5) incompatible with signals (9, 3)")):
        gf.sparse_code_columns(d, np.ones((9, 3)), t0=2)
    with pytest.raises(ValueError, match="sparsity budget must be >= 1"):
        gf.sparse_code_columns(d, np.ones((10, 3)), t0=0)


def test_omp_exact_recovery_low_coherence_8x12():
    d = _low_coherence_columns(8, 12, target=1.0 / 3, seed=4)
    # verify the mu < 1/3 premise by exhaustive pair check
    mu = max(
        abs(float(d[:, i] @ d[:, j])) for i in range(12) for j in range(i + 1, 12)
    )
    assert mu < 1.0 / 3
    rng = np.random.default_rng(5)
    for trial in range(25):
        support = rng.choice(12, size=2, replace=False)
        z_true = np.zeros(12)
        z_true[support] = rng.uniform(0.5, 2.0, size=2) * rng.choice([-1, 1], size=2)
        y = d @ z_true
        z = gf.omp(d, y, t0=2)
        assert set(np.flatnonzero(z)) == set(support)
        np.testing.assert_allclose(z, z_true, atol=1e-8)
        exhaustive, err = _exhaustive_best_support(d, y, 2)
        assert exhaustive == set(np.flatnonzero(z)) and err < 1e-8


def _reference_omp(d, y, t0):
    """Plain OMP: a least-squares refit on the selected columns at every step."""
    norms = np.linalg.norm(d, axis=0)
    tol = 1e-6 * np.linalg.norm(y)
    support, coeffs, residual = [], np.zeros(0), y.copy()
    while len(support) < min(t0, d.shape[1]) and np.linalg.norm(residual) > tol:
        corr = np.abs(d.T @ residual) / norms
        corr[support] = -1.0
        j = int(np.argmax(corr))
        if corr[j] <= 0.0:
            break
        support.append(j)
        coeffs, *_ = np.linalg.lstsq(d[:, support], y, rcond=None)
        residual = y - d[:, support] @ coeffs
    z = np.zeros(d.shape[1])
    z[support] = coeffs
    return tuple(support), z


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    n=st.integers(4, 24),
    extra_atoms=st.integers(0, 30),
    more_signals_than_atoms=st.booleans(),
    n_signals=st.integers(1, 300),
    t0=st.integers(1, 6),
    unit_columns=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=10, extra_atoms=5, more_signals_than_atoms=False, n_signals=1, t0=3,
         unit_columns=False, seed=0)
@example(n=8, extra_atoms=2, more_signals_than_atoms=True, n_signals=290, t0=4,
         unit_columns=True, seed=1)
def test_batch_coder_matches_reference_omp(
    n, extra_atoms, more_signals_than_atoms, n_signals, t0, unit_columns, seed
):
    """Both faces of the coder against the reference, on either side of the
    Gram-or-direct choice (more signals than atoms, or not)."""
    k = n + extra_atoms
    n_signals = k + n_signals if more_signals_than_atoms else min(n_signals, k)
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, k))
    if unit_columns:
        d /= np.linalg.norm(d, axis=0)
    else:
        d *= rng.uniform(0.2, 3.0, size=k)
    signals = rng.standard_normal((n, n_signals))
    signals[:, 0] = 0.0
    if n_signals > 1:
        signals[:, 1] = 1.7 * d[:, 3]  # early stop on the residual tolerance
    if n_signals > 2:
        signals[:, 2] = d[:, :2] @ [2.0, -1.0]
    for col, rel in ((3, 1e-4), (4, 1e-8)):  # a residual either side of 1e-6 ||y||
        if col < n_signals:
            wobble = rng.standard_normal(n)
            wobble *= rel * np.linalg.norm(signals[:, 1]) / np.linalg.norm(wobble)
            signals[:, col] = signals[:, 1] + wobble

    z = gf.sparse_code_columns(d, signals, t0)
    assert z.shape == (k, n_signals)
    for i in range(n_signals):
        support, coeffs = _reference_omp(d, signals[:, i], t0)
        assert tuple(np.flatnonzero(z[:, i])) == tuple(sorted(support))
        np.testing.assert_allclose(z[:, i], coeffs, rtol=0, atol=1e-9)
        if i < 5:
            # the one-signal face, and the coder's selection order for that signal
            np.testing.assert_allclose(gf.omp(d, signals[:, i], t0), coeffs, rtol=0, atol=1e-9)
            order, _ = dictionary._lockstep_omp(d, signals[:, i:i + 1], t0)
            assert tuple(order[0][order[0] >= 0]) == support
    assert not z[:, 0].any()
    if n_signals > 1:
        assert tuple(np.flatnonzero(z[:, 1])) == (3,)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    n=st.integers(2, 12),
    count=st.integers(1, 30),
    columns=st.sampled_from(["zero_mean", "offset", "some_constant", "all_constant", "zero"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=9, count=1, columns="offset", seed=0)
@example(n=4, count=20, columns="offset", seed=1)
@example(n=6, count=6, columns="some_constant", seed=2)
@example(n=5, count=3, columns="all_constant", seed=3)
@example(n=5, count=12, columns="all_constant", seed=4)
def test_constrained_rank1_is_the_exact_optimum(n, count, columns, seed):
    """The atom update against an SVD of the column-centred residual, on both
    Gram sides (count <= n and count > n), and never below the former
    "SVD of E, then centre" candidate."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((n, count))
    if columns == "zero_mean":
        e -= e.mean(axis=0)
    elif columns == "offset":
        e += rng.uniform(-50.0, 50.0, size=count)
    elif columns == "some_constant":
        e[:, : count // 2 + 1] = rng.uniform(-5.0, 5.0, size=count // 2 + 1)
    elif columns == "all_constant":
        e = np.ones((n, 1)) * rng.uniform(-5.0, 5.0, size=count)
    else:
        e = np.zeros((n, count))

    psi = dictionary._constrained_rank1(e.T, np.random.default_rng(seed))  # one residual per row
    assert abs(psi.sum()) <= 1e-12
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
    if columns in ("all_constant", "zero"):
        return  # nothing left after centring: any zero-mean unit atom will do

    captured = np.linalg.norm(psi @ e)
    sigma1 = np.linalg.svd(e - e.mean(axis=0), compute_uv=False)[0]
    assert captured >= (1.0 - 1e-9) * sigma1
    u = np.linalg.svd(e)[0][:, 0]
    old = u - u.mean()
    if np.linalg.norm(old) > 1e-12:
        assert captured >= (1.0 - 1e-9) * np.linalg.norm(old @ e) / np.linalg.norm(old)


def test_training_config_validation():
    with pytest.raises(ValueError):
        gf.TrainingConfig(atom_count=0, sparsity=1, sweeps=1)
    with pytest.raises(ValueError):
        gf.TrainingConfig(atom_count=4, sparsity=0, sweeps=1)
    with pytest.raises(ValueError):
        gf.TrainingConfig(atom_count=4, sparsity=1, sweeps=0)


_CONST = np.full((4, 1), 0.5)


@pytest.mark.parametrize(
    "atoms, sparsity, message",
    [(np.empty((4, 0)), 1, "hold no constant first atom"),
     (_CONST, 0, "not an integer >= 1"), (_CONST, 2.7, "not an integer >= 1"),
     (_CONST, True, "not an integer >= 1"),
     (np.array([[0.5], [0.5], [0.5], [-0.5]]), 1, "first atom is not the constant vector"),
     (np.hstack([_CONST, [[1.0], [0.0], [0.0], [0.0]]]), 1, "not zero-mean"),
     (np.hstack([_CONST, [[1.0], [-1.0], [0.0], [0.0]]]), 1, "atoms are not unit norm")],
    ids=["no-atoms", "zero", "fraction", "bool", "not-constant", "not-zero-mean",
         "not-unit-norm"],
)
def test_dictionary_checks_itself_when_made(atoms, sparsity, message):
    with pytest.raises(ValueError, match=message):
        gf.Dictionary(atoms=atoms, sparsity=sparsity)
    assert gf.Dictionary(atoms=np.full((4, 1), 0.5), sparsity=np.int64(2)).n_atoms == 1


def test_ksvd_constant_training_data():
    n = 16
    x = np.full((n, 40), 5.0)  # every column is a multiple of atom 1
    psi, objectives = gf.ksvd_train(x, gf.TrainingConfig(atom_count=n, sparsity=2, sweeps=3, seed=0))
    psi.validate()
    z = gf.sparse_code_columns(psi.atoms, x, t0=2)
    assert float(np.sum((x - psi.atoms @ z) ** 2)) <= 1e-8
    assert objectives[-1] <= 1e-8


def test_ksvd_single_repeated_atom():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(12)
    a -= a.mean()
    a /= np.linalg.norm(a)
    x = np.tile(3.0 * a, (30, 1)).T
    psi, objectives = gf.ksvd_train(x, gf.TrainingConfig(atom_count=12, sparsity=1, sweeps=4, seed=1))
    psi.validate()
    assert np.abs(psi.atoms.T @ a).max() > 1.0 - 1e-9
    assert objectives[-1] <= 1e-6


def test_ksvd_objective_monotone_and_deterministic():
    rng = np.random.default_rng(8)
    planted = random_dictionary(16, 24, seed=8)
    codes = np.zeros((24, 300))
    for i in range(300):
        sel = rng.choice(24, size=3, replace=False)
        codes[sel, i] = rng.uniform(0.5, 2.0, size=3)
    x = planted.atoms @ codes + 0.01 * rng.standard_normal((16, 300))

    cfg = gf.TrainingConfig(atom_count=24, sparsity=3, sweeps=12, seed=2)
    psi1, obj1 = gf.ksvd_train(x, cfg)
    psi1.validate()
    assert obj1[-1] < obj1[0]
    for earlier, later in zip(obj1[:-1], obj1[1:]):
        assert later <= earlier * (1 + 1e-9)

    psi2, obj2 = gf.ksvd_train(x, cfg)
    np.testing.assert_array_equal(psi1.atoms, psi2.atoms)
    np.testing.assert_array_equal(obj1, obj2)


def test_ksvd_atoms_have_their_largest_entry_positive():
    """Every atom but the constant one has its largest-magnitude entry
    positive, whether drawn from a signal or from an eigenvector's sign."""
    x = np.random.default_rng(11).standard_normal((16, 120))
    psi, _ = gf.ksvd_train(x, gf.TrainingConfig(atom_count=24, sparsity=3, sweeps=3, seed=5))
    rows = psi.atoms[:, 1:].T
    assert (rows[np.arange(len(rows)), np.abs(rows).argmax(axis=1)] > 0.0).all()


def test_ksvd_rejects_bad_input():
    cfg = gf.TrainingConfig(atom_count=8, sparsity=1, sweeps=1)
    with pytest.raises(ValueError, match="training matrix is all zero"):
        gf.ksvd_train(np.zeros((8, 10)), cfg)
    with pytest.raises(ValueError, match="N x L matrix"):
        gf.ksvd_train(np.ones(8), cfg)
    with pytest.raises(ValueError):
        gf.ksvd_train(np.ones((16, 10)), cfg)  # K < N
    with pytest.raises(ValueError):
        gf.ksvd_train(np.full((8, 10), np.inf), cfg)
    with pytest.raises(ValueError, match="7 training signals < atom count 8"):
        gf.ksvd_train(np.random.default_rng(0).standard_normal((8, 7)), cfg)
    one_pixel = np.arange(1.0, 11.0).reshape(1, 10)  # a centred 1-pixel signal is always 0
    with pytest.raises(ValueError, match="atom count 2 > 1 needs signals of at least 2 pixels, not 1"):
        gf.ksvd_train(one_pixel, gf.TrainingConfig(atom_count=2, sparsity=1, sweeps=1))
    psi, _ = gf.ksvd_train(one_pixel, gf.TrainingConfig(atom_count=1, sparsity=1, sweeps=1))
    np.testing.assert_array_equal(psi.atoms, [[1.0]])  # the constant atom alone


def test_replace_unused_atoms():
    rng = np.random.default_rng(9)
    psi = random_dictionary(10, 14, seed=9)
    x = rng.standard_normal((10, 25))
    codes = gf.sparse_code_columns(psi.atoms, x, t0=2)
    usage = np.count_nonzero(codes, axis=1)

    if np.all(usage > 0):  # force a dead atom for the test
        codes[5, :] = 0.0
        usage = np.count_nonzero(codes, axis=1)
    residual = (x - psi.atoms @ codes).T  # one signal per row
    rows = np.array(psi.atoms.T)  # one atom per row
    n_dead = dictionary._replace_dead_atoms(rows, usage, x, residual, np.random.default_rng(0))
    assert n_dead == np.count_nonzero(usage[1:] == 0)
    gf.Dictionary(atoms=rows.T, sparsity=psi.sparsity).validate()
    worst = int(np.argmax(np.linalg.norm(residual, axis=1)))
    expected = x[:, worst] - x[:, worst].mean()
    expected /= np.linalg.norm(expected)
    dead = int(np.flatnonzero(usage == 0)[0])
    assert abs(abs(expected @ rows[dead]) - 1.0) < 1e-12


def test_ksvd_returns_c_contiguous_atoms_after_replacing_a_dead_atom(caplog):
    """Training keeps its atoms atom-major; callers get a C-contiguous N x K matrix."""
    x = np.full((16, 40), 5.0)  # the constant atom codes every signal, so every other atom dies
    with caplog.at_level(logging.DEBUG, logger="gifield.dictionary"):
        psi, _ = gf.ksvd_train(x, gf.TrainingConfig(atom_count=16, sparsity=2, sweeps=1, seed=0))
    assert any("replaced" in r.getMessage() for r in caplog.records)
    assert psi.atoms.shape == (16, 16)
    assert psi.atoms.flags.c_contiguous


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency: importing gifield loads no scipy module."""
    src = str(Path(gf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, gifield; print(*(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == []


def test_sparse_code_budget_per_column():
    psi = random_dictionary(12, 20, seed=10)
    x = np.random.default_rng(10).standard_normal((12, 50))
    z = gf.sparse_code_columns(psi.atoms, x, t0=3)
    assert int(np.count_nonzero(z, axis=0).max()) <= 3


def test_ksvd_atom_update_never_raises_the_objective(desk_training):
    """Within a sweep, the atom-update half never raises the objective left by
    the coding half (greedy re-coding, in contrast, may raise it between sweeps)."""
    _, objectives, messages = desk_training
    logged = [re.fullmatch(r"sweep (\d+): objective (\S+) -> (\S+)", m) for m in messages]
    logged = [m for m in logged if m]
    assert [int(m[1]) for m in logged] == list(range(len(objectives)))
    for m in logged:
        coded, updated = float(m[2]), float(m[3])
        assert coded == objectives[int(m[1])]  # logged at full precision
        assert updated <= coded, f"sweep {m[1]}: {coded!r} -> {updated!r}"


def test_desk_training_beats_dct_coding(desk_dictionary, data_dir):
    """The learned dictionary should sparse-code held-out digits better than
    a 2-D DCT basis with the same budget."""
    psi, _ = desk_dictionary
    test = gf.random_subset(gf.load_idx_images(data_dir / "test.idx"), 200, seed=1)
    x = test.as_columns()

    # the orthonormal DCT-II matrix: sqrt(2/n) cos(pi (2i + 1) k / 2n), row k = 0 over sqrt(2)
    k, i = np.ogrid[:28, :28]
    c = np.sqrt(2 / 28) * np.cos(np.pi * (2 * i + 1) * k / (2 * 28))
    c[0] /= np.sqrt(2)
    dct_atoms = np.kron(c.T, c.T)  # orthonormal 784x784 separable basis
    z_learned = gf.sparse_code_columns(psi.atoms, x, t0=psi.sparsity)
    z_dct = gf.sparse_code_columns(dct_atoms, x, t0=psi.sparsity)
    rms_learned = np.sqrt(np.mean((x - psi.atoms @ z_learned) ** 2))
    rms_dct = np.sqrt(np.mean((x - dct_atoms @ z_dct) ** 2))
    assert rms_learned < rms_dct


def test_omp_duplicate_columns_and_signal_outside_range():
    """Once the residual is orthogonal to every column, the correlations left are
    rounding noise; a duplicate column picked on noise is dependent on the
    support, so it gets coefficient 0 and ends its signal with the
    least-squares fit it had. Alone or in a batch, the signal gets one code."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal(6)
        d = np.column_stack([a, a, rng.standard_normal(6)])
        q, _ = np.linalg.qr(d[:, 1:])
        outside = rng.standard_normal(6)
        outside -= q @ (q.T @ outside)
        y = 2.0 * a + outside
        # one signal goes the direct way; four signals against three atoms take the Gram side
        alone = gf.omp(d, y, 3)
        tiled = gf.sparse_code_columns(d, np.tile(y[:, None], 4), 3)
        for z in (alone, gf.sparse_code_columns(d, y[:, None], 3)[:, 0], *tiled.T):
            assert np.all(np.isfinite(z))
            np.testing.assert_allclose(d @ z, 2.0 * a, atol=1e-9)
            assert z[1] == 0.0  # ties pick the first twin; the second, if picked, is dependent
            np.testing.assert_allclose(z, alone, atol=1e-9)


def test_coder_refuses_non_finite_input():
    d = _unit_columns(10, 8, seed=12)
    y = d[:, 1] + d[:, 4]
    with pytest.raises(ValueError, match="finite"):
        gf.omp(d, np.where(np.arange(10) == 3, np.nan, y), 3)
    x = np.tile(y[:, None], 3)
    x[5, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        gf.sparse_code_columns(d, x, 3)
    d[:, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        gf.omp(d, y, 3)


def _coded_alone(d, x, t0, rows):
    """Each column coded by its own call on its row prefix: the row counts' oracle."""
    return np.column_stack([gf.sparse_code_columns(d[:m], x[:m, [l]], t0)[:, 0]
                            for l, m in enumerate(rows)])


def _assert_codes_match(z, oracle):
    for got, want in zip(z.T, oracle.T):
        assert tuple(np.flatnonzero(got)) == tuple(np.flatnonzero(want))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_row_counts_code_each_column_against_its_own_prefix():
    """Mixed row counts give every column the support of a separate call on
    its prefix, and its coefficients to rounding."""
    rng = np.random.default_rng(13)
    d = rng.standard_normal((60, 120))
    rows = rng.integers(1, 61, size=70)
    x = np.where(np.arange(60)[:, None] < rows, rng.standard_normal((60, 70)), 0.0)
    z = gf.sparse_code_columns(d, x, 6, rows)
    _assert_codes_match(z, _coded_alone(d, x, 6, rows))
    assert np.count_nonzero(z, axis=0).max() == 6


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    n=st.integers(4, 16),
    k=st.integers(3, 6),
    n_signals=st.integers(3, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_counts_match_separate_calls_through_every_stop(n, k, n_signals, seed):
    """Random groupings of row counts in one block, with a zero signal and a
    near-duplicate atom, give the supports and fits of separate calls. Atom 1 is atom 0 plus 1e-9 e,
    for a unit e outside the other atoms' span in signal 1's prefix, and
    signal 1 is 2 atom 0 - 3 e: it picks atom 0, then atom 1 on a correlation
    far above rounding, a dependent atom. So the zero-signal, budget,
    tolerance and dependent-atom stops all run among mixed counts."""
    n = max(n, k + 1)
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, k))
    rows = rng.integers(1, n + 1, size=n_signals)
    m = rows[1] = rng.integers(k, n + 1)  # k - 1 atoms leave room outside their span
    q, _ = np.linalg.qr(d[:m, [0, *range(2, k)]])
    e = np.zeros(n)
    e[:m] = rng.standard_normal(m)
    e[:m] -= q @ (q.T @ e[:m])
    e /= np.linalg.norm(e)
    d[:, 1] = d[:, 0] + 1e-9 * e
    x = rng.standard_normal((n, n_signals))
    x[:, 0] = 0.0
    x[:, 1] = 2.0 * d[:, 0] - 3.0 * e
    x[:, 2] = d[:, 2]  # one atom: the residual tolerance ends it
    x[np.arange(n)[:, None] >= rows] = 0.0

    z, alone = gf.sparse_code_columns(d, x, k, rows), _coded_alone(d, x, k, rows)
    # a few rows against as many random atoms can be ill-conditioned, and the
    # coder solves the normal equations, so fits agree to rounding times cond^2
    assert [tuple(np.flatnonzero(c)) for c in z.T] == [tuple(np.flatnonzero(c)) for c in alone.T]
    for col, m in enumerate(rows):
        used = np.flatnonzero(alone[:, col])
        cond = np.linalg.cond(d[:m, used]) if used.size else 1.0
        moved = np.linalg.norm(d[:m] @ (z[:, col] - alone[:, col]))
        assert moved <= 1e-14 * cond**2 * np.linalg.norm(x[:m, col])
    assert not z[:, 0].any()
    support, coeffs = dictionary._lockstep_omp(d, x, k, rows)
    assert tuple(support[1, :2]) == (0, 1) and coeffs[1, 1] == 0.0  # atom 1 is dependent
    assert (support[1, 2:] == -1).all()


def test_one_row_count_or_none_is_the_plain_call():
    """One count for every column is the plain call on that prefix, and no
    counts the plain call, to the bit, on either side of the Gram choice."""
    rng = np.random.default_rng(14)
    d = rng.standard_normal((30, 50))
    for n_signals in (20, 80):
        x = rng.standard_normal((30, n_signals))
        plain = gf.sparse_code_columns(d, x, 5)
        assert np.array_equal(gf.sparse_code_columns(d, x, 5, None), plain)
        assert np.array_equal(gf.sparse_code_columns(d, x, 5, np.full(n_signals, 30)), plain)
        assert np.array_equal(gf.sparse_code_columns(d, x, 5, [17] * n_signals),
                              gf.sparse_code_columns(d[:17], x[:17], 5))


def test_entries_past_a_row_count_are_ignored():
    """A column is its first rows[l] entries: whatever lies past them, NaN
    included, codes as zeros would."""
    rng = np.random.default_rng(15)
    d = rng.standard_normal((20, 40))
    rows = np.array([5, 20, 12, 12, 1])
    x = np.where(np.arange(20)[:, None] < rows, rng.standard_normal((20, 5)), 0.0)
    noisy = np.where(np.arange(20)[:, None] < rows, x, rng.standard_normal((20, 5)))
    noisy[15, 0] = np.nan
    assert np.array_equal(gf.sparse_code_columns(d, noisy, 4, rows),
                          gf.sparse_code_columns(d, x, 4, rows))
    with pytest.raises(ValueError, match="finite"):
        gf.sparse_code_columns(d, noisy, 4, [20] * 5)


@pytest.mark.parametrize("rows, message", [
    ([3, 0, 4], "row count 0 outside 1..10"),
    ([3, 11, 4], "row count 11 outside 1..10"),
    ([3, 4], re.escape("row counts of shape (2,) for 3 signals")),
    ([[3, 4, 5]], re.escape("row counts of shape (1, 3) for 3 signals")),
    ([3.0, 4.0, 5.0], "row counts of dtype float64 are not integers"),
])
def test_row_counts_are_checked(rows, message):
    d = _unit_columns(10, 8, seed=16)
    with pytest.raises(ValueError, match=message):
        gf.sparse_code_columns(d, np.ones((10, 3)), 2, rows)


def test_a_prefix_with_a_zero_column_is_refused():
    """A column that is zero in the first rows of the atoms codes nothing there."""
    d = _unit_columns(10, 8, seed=17)
    d[:4, 3] = 0.0
    x = np.ones((10, 2))
    gf.sparse_code_columns(d, x, 2, [5, 10])
    with pytest.raises(ValueError, match="zero column in sparse-coding matrix"):
        gf.sparse_code_columns(d, x, 2, [4, 10])
