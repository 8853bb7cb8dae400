"""Detection simulation and OMP reconstruction, including the recovery oracle."""

import re

import numpy as np
import pytest

import gifield as gf

from conftest import random_dictionary


def _setup(seed, n=36, k=60, m=18):
    psi = random_dictionary(n, k, seed=seed)
    state = gf.build_state(psi)
    phi = gf.nn_lift(gf.optimize_sampling(state, state.rank))[:m]
    return psi, phi


def test_measure_identity_and_zero():
    x = np.random.default_rng(0).uniform(0, 255, size=16)
    y = gf.measure(np.eye(16), x)
    np.testing.assert_array_equal(y, x)
    assert len(y) == 16
    y0 = gf.measure(np.eye(16), np.zeros(16))
    assert not y0.any()


def test_measure_linearity():
    rng = np.random.default_rng(1)
    psi, phi = _setup(seed=1)
    x1, x2 = rng.standard_normal((2, 36))
    lhs = gf.measure(phi, 2.0 * x1 - 3.0 * x2)
    rhs = 2.0 * gf.measure(phi, x1) - 3.0 * gf.measure(phi, x2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_measure_validation():
    psi, phi = _setup(seed=2)
    # an image is an N-vector or a column of an N x L stack: a wrong length, a
    # 6 x 6 grid, a 3-D stack and a scalar are refused by shape
    for shape in ((17,), (6, 6), (36, 2, 1), ()):
        with pytest.raises(ValueError, match=re.escape(f"images of shape {shape} ")):
            gf.measure(phi, np.zeros(shape))
    unlifted = gf.gaussian_sampling(4, 8, seed=0)
    with pytest.raises(ValueError):
        gf.measure(unlifted, np.zeros(8))
    with pytest.raises(ValueError):
        gf.measure(np.ones(8), np.zeros(8))  # not 2-D
    with pytest.raises(ValueError, match="non-finite"):
        gf.measure(np.eye(2), np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="non-finite"):
        gf.measure(np.eye(2), np.array([1.0, np.inf]))  # 0 * inf is checked, not computed
    with pytest.raises(ValueError, match="non-finite"):
        gf.measure(np.array([[1.0, 0.0], [np.inf, 1.0]]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        gf.NoiseModel(kind="poisson")
    with pytest.raises(ValueError):
        gf.NoiseModel(kind="awgn")  # missing SNR
    with pytest.raises(ValueError, match="needs kind 'awgn'"):
        gf.NoiseModel(kind="none", snr_db=10.0)  # an SNR that no noise would honour


def test_measure_refuses_readings_that_overflow():
    """Finite fields and images whose readings overflow are refused with the
    documented ValueError, not a floating-point warning, with or without noise."""
    phi = np.full((3, 4), 1e200)
    for x in (np.full(4, 1e200), np.full((4, 2), 1e200)):
        for noise in (gf.NoiseModel(), gf.NoiseModel(kind="awgn", snr_db=30.0)):
            with pytest.raises(ValueError, match="non-finite readings"):
                gf.measure(phi, x, noise)


def test_measure_checks_the_entries_not_their_history():
    # non-negative, never passed through nn_lift: displayable, so accepted
    phi = np.abs(gf.gaussian_sampling(4, 8, seed=0))
    np.testing.assert_allclose(gf.measure(phi, np.ones(8)), phi.sum(axis=1), rtol=1e-12)
    # one negative entry, however small, cannot be displayed
    phi[2, 5] = -1e-12
    with pytest.raises(ValueError, match="negative"):
        gf.measure(phi, np.ones(8))


def test_measure_awgn_snr_scale():
    psi, phi = _setup(seed=3)
    x = np.random.default_rng(3).uniform(0, 255, size=36)
    clean = gf.measure(phi, x)
    ratios = []
    for seed in range(100):
        noisy = gf.measure(phi, x, gf.NoiseModel(kind="awgn", snr_db=40.0, seed=seed))
        ratios.append(np.linalg.norm(noisy - clean) / np.linalg.norm(clean - clean.mean()))
    # 40 dB SNR against the readings' spread puts the relative perturbation near 1e-2
    assert 0.5e-2 < np.mean(ratios) < 2e-2
    again = gf.measure(phi, x, gf.NoiseModel(kind="awgn", snr_db=40.0, seed=5))
    once = gf.measure(phi, x, gf.NoiseModel(kind="awgn", snr_db=40.0, seed=5))
    np.testing.assert_array_equal(again, once)


def test_measure_awgn_ignores_a_constant_added_to_the_field():
    """Noise is scaled to the spread of an image's readings across the
    patterns, so a field's lift, or any constant added to it, adds none."""
    psi, phi = _setup(seed=11)
    x = np.random.default_rng(11).uniform(0, 255, size=(36, 5))
    model = gf.NoiseModel(kind="awgn", snr_db=40.0, seed=2)
    noise = gf.measure(phi, x, model) - gf.measure(phi, x)
    raised = phi + 3.0
    noise_raised = gf.measure(raised, x, model) - gf.measure(raised, x)
    np.testing.assert_allclose(noise_raised, noise, rtol=1e-6, atol=1e-9)
    # one pattern has no spread to scale noise to
    with pytest.raises(ValueError, match="2 patterns"):
        gf.measure(phi[:1], x, model)
    np.testing.assert_array_equal(gf.measure(phi[:1], x), phi[:1] @ x)


def test_measure_stack_matches_single_images():
    psi, phi = _setup(seed=9)
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 255, size=(36, 7))
    x[:, 2] = 0.0
    batch = gf.measure(phi, x)
    assert batch.shape == (18, 7)
    for i in range(7):
        single = gf.measure(phi, x[:, i])
        np.testing.assert_allclose(batch[:, i], single, rtol=1e-12, atol=1e-9)
    assert not batch[:, 2].any()


def test_measure_stack_awgn_one_model():
    """One model for a stack: each column at its own SNR, with noise of its own."""
    psi, phi = _setup(seed=10)
    x = np.random.default_rng(10).uniform(0, 255, size=(36, 6))
    x[:, 1] *= 50.0  # a far brighter image: its noise must scale with it
    model = gf.NoiseModel(kind="awgn", snr_db=30.0, seed=4)
    clean = gf.measure(phi, x)
    noisy = gf.measure(phi, x, model)
    noise = noisy - clean
    spread = clean - clean.mean(axis=0)
    for i in range(6):
        snr = 10 * np.log10(np.sum(spread[:, i] ** 2) / np.sum(noise[:, i] ** 2))
        assert 20.0 < snr < 40.0
    # the unit draws behind the noise differ from column to column
    unit = noise / np.sqrt(np.var(clean, axis=0) * 10.0 ** (-30.0 / 10.0))
    for i in range(6):
        for j in range(i):
            assert not np.allclose(unit[:, i], unit[:, j])
    np.testing.assert_array_equal(gf.measure(phi, x, model), noisy)  # reruns agree
    # an N x 1 stack is the single image
    np.testing.assert_allclose(
        gf.measure(phi, x[:, :1], model)[:, 0], gf.measure(phi, x[:, 0], model), rtol=1e-12
    )
    # for the same L, the draw for M rows is the first M rows of a larger draw
    _, tall = _setup(seed=10, m=30)
    unit_tall = gf.measure(tall, x, model) - gf.measure(tall, x)
    unit_tall /= np.sqrt(np.var(gf.measure(tall, x), axis=0) * 10.0 ** (-30.0 / 10.0))
    np.testing.assert_allclose(unit_tall[:18], unit, rtol=1e-9, atol=1e-9)
    for not_a_model in ([model] * 6, None):
        with pytest.raises(TypeError):
            gf.measure(phi, x, not_a_model)


def test_reconstruct_zero_measurement():
    psi, phi = _setup(seed=4)
    image = gf.reconstruct(gf.measure(phi, np.zeros(36)), phi, psi)
    assert image.shape == (36,)
    assert not image.any()


def test_reconstruct_one_sparse_exact():
    rng = np.random.default_rng(5)
    for seed in range(10):
        psi, phi = _setup(seed=seed, m=2 + seed % 5)
        equivalent = phi @ psi.atoms
        if not gf.mutual_coherence(equivalent) < 1.0:
            continue  # mu >= 1 would void the recovery guarantee
        j = int(rng.integers(1, psi.n_atoms))
        x = 100.0 * psi.atoms[:, j]
        image = gf.reconstruct(gf.measure(phi, x), phi, psi)
        assert np.linalg.norm(image - x) <= 1e-6 * np.linalg.norm(x)


def test_reconstruct_consistency():
    psi, phi = _setup(seed=6)
    x = np.random.default_rng(6).uniform(0, 255, size=36)
    y = gf.measure(phi, x)
    image = gf.reconstruct(y, phi, psi)
    # the image is exactly the dictionary applied to the OMP code, at the default budget
    code = gf.omp(phi @ psi.atoms, y, psi.sparsity)
    np.testing.assert_array_equal(image, psi.atoms @ code)


def test_reconstruct_validates_readings():
    psi, phi = _setup(seed=7)
    y = gf.measure(phi, np.random.default_rng(7).uniform(0, 255, size=36))
    y[3] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        gf.reconstruct(y, phi, psi)
    stack = gf.measure(phi, np.ones((36, 2)))  # M x 2: two images, not one
    with pytest.raises(ValueError, match="readings of shape"):
        gf.reconstruct(stack, phi, psi)
    with pytest.raises(ValueError, match="pattern length does not match"):
        gf.reconstruct(y[:3], phi[:3, :-1], psi)


def test_recovery_oracle_small_k():
    """Exact support recovery whenever mu(D) < 1/(2k-1), k in {1, 2, 3}."""
    rng = np.random.default_rng(8)
    sizes = {1: (32, 48), 2: (200, 40), 3: (420, 30)}
    for k, (n, cols) in sizes.items():
        done = 0
        attempt = 0
        while done < 8:
            attempt += 1
            assert attempt < 500
            d = rng.standard_normal((n, cols))
            d /= np.linalg.norm(d, axis=0)
            if not gf.mutual_coherence(d) < 1 / (2 * k - 1):
                continue
            support = rng.choice(cols, size=k, replace=False)
            z = np.zeros(cols)
            z[support] = rng.uniform(0.5, 2.0, size=k) * rng.choice([-1, 1], size=k)
            code = gf.omp(d, d @ z, t0=k)
            assert set(np.flatnonzero(code)) == set(support)
            np.testing.assert_allclose(code, z, atol=1e-8)
            done += 1

