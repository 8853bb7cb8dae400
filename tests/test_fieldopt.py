"""Closed-form field optimization: eigenstructure, prefixes, lifting, quantization."""

import math

import numpy as np
import pytest

import gifield as gf

from conftest import random_dictionary


def _orthonormal_rows(m, n, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    return q.T


def _two_pixel_dictionary(copies_constant, copies_zero_mean):
    s = 2**-0.5
    const = np.array([s, s])
    zmean = np.array([s, -s])
    atoms = np.column_stack(
        [const] * copies_constant + [zmean] * copies_zero_mean
    )
    return gf.Dictionary(atoms=atoms, sparsity=1)


def test_build_state_orthonormal_gram():
    # Psi Psi^T = I exactly: the constant atom plus its zero-mean complement
    state = gf.build_state(_two_pixel_dictionary(1, 1))
    np.testing.assert_allclose(state.eigenvalues, [1.0, 1.0], atol=1e-12)
    assert state.rank == 2
    # reconstruction invariant
    v, lam = state.eigenvectors, state.eigenvalues
    np.testing.assert_allclose(v * lam @ v.T, np.eye(2), atol=1e-10)
    # sign convention: each eigenvector's largest-magnitude entry is positive
    for col in state.eigenvectors.T:
        assert col[int(np.argmax(np.abs(col)))] > 0


def test_build_state_known_eigenvalues():
    # the constant atom plus 4 copies of its zero-mean complement:
    # Psi Psi^T = c c^T + 4 z z^T has eigenvalues (4, 1), eigenvectors (z, c)
    state = gf.build_state(_two_pixel_dictionary(1, 4))
    np.testing.assert_allclose(state.eigenvalues, [4.0, 1.0], atol=1e-12)
    s = 2**-0.5
    np.testing.assert_allclose(state.eigenvectors[:, 0], [s, -s], atol=1e-12)
    np.testing.assert_allclose(state.eigenvectors[:, 1], [s, s], atol=1e-12)
    # the rank field's rows are (s, -s) and (s, s), so its lift is s
    full = gf.optimize_sampling(state, state.rank)
    lifted = gf.nn_lift(full)
    np.testing.assert_allclose(lifted - full, np.full((2, 2), s), rtol=0, atol=1e-12)
    assert lifted.min() == 0.0


def test_lifted_rank_field_prefixes_are_lifted_optimal_fields():
    # successive display: lift the rank-row field once, show its prefixes
    state = gf.build_state(random_dictionary(30, 50, seed=4))
    lifted = gf.nn_lift(gf.optimize_sampling(state, state.rank))
    c = -float(state.eigenvectors[:, :state.rank].min())
    assert c > 0.0
    for m in (1, 8, 20, state.rank):
        np.testing.assert_array_equal(lifted[:m], gf.optimize_sampling(state, m) + c)


def test_build_state_random_dictionary_invariants():
    psi = random_dictionary(40, 70, seed=0)
    state = gf.build_state(psi)
    gram = psi.atoms @ psi.atoms.T
    recon = (state.eigenvectors * state.eigenvalues) @ state.eigenvectors.T
    rel = np.linalg.norm(recon - gram) / np.linalg.norm(gram)
    assert rel <= 1e-8
    assert np.all(np.diff(state.eigenvalues) <= 1e-12)  # descending
    assert state.eigenvalues.min() >= 0.0


def test_optimize_sampling_slices_rows():
    # hand-built state with V = I: the optimum is literally the first rows
    state = gf.FieldOptState(
        eigenvectors=np.eye(3), eigenvalues=np.array([3.0, 2.0, 1.0]), rank=3,
    )
    phi = gf.optimize_sampling(state, 2)
    np.testing.assert_array_equal(phi, np.eye(3)[:2])
    with pytest.raises(ValueError, match="4 rows requested but the Gram rank is only 3"):
        gf.optimize_sampling(state, 4)
    with pytest.raises(ValueError):
        gf.optimize_sampling(state, 0)


def test_optimized_rows_orthonormal():
    state = gf.build_state(random_dictionary(48, 80, seed=1))
    phi = gf.optimize_sampling(state, 24)
    np.testing.assert_allclose(phi @ phi.T, np.eye(24), atol=1e-9)


def test_design_objective_certificate():
    """At the closed-form optimum the objective equals the discarded
    eigenvalue energy and no random orthonormal candidate beats it."""
    rng = np.random.default_rng(2)
    state = gf.build_state(random_dictionary(32, 48, seed=2))
    m = 16
    phi = gf.optimize_sampling(state, m)
    value = gf.design_objective(state, phi)
    expected = float(np.sum(state.eigenvalues[m:] ** 4))
    assert math.isclose(value, expected, rel_tol=1e-6)
    for _ in range(200):
        candidate = _orthonormal_rows(m, 32, rng)
        assert gf.design_objective(state, candidate) >= value - 1e-9
    # full-rank capture leaves only the (zero) tail
    full = gf.optimize_sampling(state, state.rank)
    tail = float(np.sum(state.eigenvalues[state.rank:] ** 4))
    assert math.isclose(gf.design_objective(state, full), tail, rel_tol=1e-6, abs_tol=1e-9)


def test_prefix_invariance():
    state = gf.build_state(random_dictionary(36, 60, seed=3))
    rng = np.random.default_rng(3)
    for _ in range(10):
        m1, m2 = sorted(rng.choice(np.arange(1, state.rank + 1), size=2, replace=False))
        big = gf.optimize_sampling(state, int(m2))
        small = gf.optimize_sampling(state, int(m1))
        assert np.array_equal(big[:m1], small)


def test_nn_lift_values():
    rows = np.array([[0.2, 0.05], [0.5, 0.1]])
    np.testing.assert_array_equal(gf.nn_lift(rows), rows)  # already positive: no lift

    phi = np.array([[-0.3, 0.4], [0.1, 0.2]])
    np.testing.assert_array_equal(gf.nn_lift(phi), phi + 0.3)
    for seed in range(5):
        raw = gf.gaussian_sampling(7, 11, seed=seed)
        assert gf.nn_lift(raw).min() == 0.0  # negative entries: lifted to exactly 0


def test_lifted_equivalent_differs_only_in_first_column():
    for seed in range(5):
        psi = random_dictionary(25, 40, seed=seed)
        state = gf.build_state(psi)
        phi = gf.optimize_sampling(state, 10)
        lifted = gf.nn_lift(phi)
        diff = lifted @ psi.atoms - phi @ psi.atoms
        assert np.abs(diff[:, 1:]).max() <= 1e-10
        # the first-column shift is c * sqrt(N) exactly (column sums: the
        # constant atom sums to sqrt(N), every other atom to zero)
        np.testing.assert_allclose(
            diff[:, 0], -float(phi.min()) * np.sqrt(25), rtol=1e-10, atol=1e-12
        )


def test_gaussian_sampling_statistics():
    a = gf.gaussian_sampling(100, 50, seed=12)
    b = gf.gaussian_sampling(100, 50, seed=12)
    np.testing.assert_array_equal(a, b)

    big = gf.gaussian_sampling(1000, 1000, seed=13)
    assert abs(big.mean()) < 0.01
    assert 0.99 < big.var() < 1.01
    lifted = gf.nn_lift(big)
    assert lifted.min() >= 0.0
    with pytest.raises(ValueError):
        gf.gaussian_sampling(0, 5, seed=0)


def test_quantize_matrix_grid():
    exact = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(gf.quantize_matrix(exact, 8), exact)

    half = np.array([[0.5, 1.0]])
    # 1-bit grid is {0, 1}: 0.5 rounds half-up to 1.0
    np.testing.assert_array_equal(gf.quantize_matrix(half, 1), [[1.0, 1.0]])


def test_quantize_matrix_idempotent_and_bounded():
    rng = np.random.default_rng(14)
    for bits in (1, 4, 8, 12):
        rows = rng.uniform(0.0, rng.uniform(0.5, 7.0), size=(13, 17))
        q1 = gf.quantize_matrix(rows, bits)
        q2 = gf.quantize_matrix(q1, bits)
        np.testing.assert_array_equal(q1, q2)
        bound = rows.max() / (2 * (2**bits - 1))
        assert np.abs(q1 - rows).max() <= bound * (1 + 1e-12)
        assert q1.min() >= 0.0  # still displayable


def test_quantize_matrix_edges():
    zero = np.zeros((3, 3))
    assert gf.quantize_matrix(zero, 8) is zero
    phi = np.ones((2, 2))
    for bad in (0, 17):
        with pytest.raises(ValueError):
            gf.quantize_matrix(phi, bad)
    negative = np.array([[-1.0, 1.0]])
    with pytest.raises(ValueError):
        gf.quantize_matrix(negative, 8)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lift_and_quantize_refuse_a_non_finite_field(bad):
    """A NaN survives ``max(0, -nan)`` and an infinity turns the quantization
    grid to NaN; both are refused, as ``measure`` refuses them."""
    phi = np.array([[0.5, 1.0], [0.25, 0.0]])
    phi[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        gf.nn_lift(phi)
    with pytest.raises(ValueError, match="non-finite"):
        gf.quantize_matrix(phi, 4)


def test_lift_and_quantize_take_any_array_like():
    """Nested lists are fields too, as ``measure`` takes them; their
    refusals stay."""
    np.testing.assert_array_equal(gf.nn_lift([[-1.0, 2.0]]), [[0.0, 3.0]])
    np.testing.assert_array_equal(gf.quantize_matrix([[0.5, 1.0]], 1), [[1.0, 1.0]])
    assert gf.quantize_matrix([[0, 3]], 4).dtype == np.float64
    with pytest.raises(ValueError, match="non-finite"):
        gf.nn_lift([[0.5, float("nan")]])
    with pytest.raises(ValueError, match="non-negative"):
        gf.quantize_matrix([[-1.0, 1.0]], 8)


def test_rank_deficient_dictionary():
    # atoms confined to a 2-D pixel subspace: rank caps the row budget
    s = 3**-0.5
    a = np.array([s, s, s])
    b = np.array([2**-0.5, -(2**-0.5), 0.0])
    atoms = np.column_stack([a, b, -b, b])
    state = gf.build_state(gf.Dictionary(atoms=atoms, sparsity=1))
    assert state.rank == 2
    with pytest.raises(ValueError, match="3 rows requested but the Gram rank is only 2"):
        gf.optimize_sampling(state, 3)


def test_desk_dictionary_rank_and_successive_prefix(desk_state):
    # digit strokes never reach the image corners, so the trained Gram is
    # rank-deficient; it must still cover the whole SR grid (M up to 400)
    assert 400 <= desk_state.rank <= 784
    assert desk_state.eigenvalues[desk_state.rank - 1] > 0.0
    a, b, c = (gf.optimize_sampling(desk_state, m) for m in (78, 156, 392))
    assert np.array_equal(b[:78], a)
    assert np.array_equal(c[:156], b)


def test_desk_coherence_comparison(desk_dictionary, desk_state):
    """Optimized fields should not exceed the lifted-Gaussian coherence on the
    zero-mean atom columns (averaged over 10 seeds), at the labeled ratios."""
    psi, _ = desk_dictionary
    for m in (78, 157, 400):
        lifted = gf.nn_lift(gf.optimize_sampling(desk_state, desk_state.rank))[:m]
        mu_opt = gf.mutual_coherence((lifted @ psi.atoms)[:, 1:])
        mu_gauss = []
        for s in range(10):
            raw = gf.gaussian_sampling(m, 784, seed=1000 + s)
            lg = gf.nn_lift(raw)
            mu_gauss.append(gf.mutual_coherence((lg @ psi.atoms)[:, 1:]))
        assert mu_opt <= np.mean(mu_gauss)
