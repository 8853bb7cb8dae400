"""The nine acceptance gates, one printed PASS/FAIL line per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` (or read the captured
output) to get the scorecard. Each criterion states its tolerance and, where
one applies, asserts its wall-clock budget.
"""

import itertools
import math
import time

import numpy as np

import gifield as gf
from gifield import synthdata

from conftest import random_dictionary, write_run_config


def _verdict(n: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'} — {desc}")
    assert ok, f"acceptance criterion {n} failed: {desc}"


def test_criterion_1_closed_form_optimality():
    """Objective at the closed-form matrix = eigenvalue tail; beats 1000 candidates."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_rel = 0.0
    candidates_beaten = True
    for i in range(20):
        state = gf.build_state(random_dictionary(64, 128, seed=1000 + i))
        m = int(rng.integers(4, 61))
        opt_obj = gf.design_objective(state, gf.optimize_sampling(state, m))
        tail = float(np.sum(state.eigenvalues[m:] ** 4))
        worst_rel = max(worst_rel, abs(opt_obj - tail) / tail)
        for _ in range(1000):
            q, _ = np.linalg.qr(rng.standard_normal((64, m)))
            if gf.design_objective(state, q.T) < opt_obj:
                candidates_beaten = False
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-6 and candidates_beaten and elapsed < 60.0
    _verdict(
        1,
        ok,
        f"closed-form objective = eigenvalue tail (worst rel err {worst_rel:.2e}, "
        f"tol 1e-06) and <= 1000 random orthonormal candidates x 20 dictionaries "
        f"in {elapsed:.1f} s (< 60 s)",
    )


def test_criterion_2_successive_sampling():
    """Growing the row count never rewrites already-optimized rows."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    pairs = 0
    prefix_exact = True
    for i in range(5):
        state = gf.build_state(random_dictionary(48, 96, seed=2000 + i))
        for _ in range(10):
            m_big = int(rng.integers(2, state.rank + 1))
            m_small = int(rng.integers(1, m_big))
            big = gf.optimize_sampling(state, m_big)
            prefix_exact &= np.array_equal(big[:m_small], gf.optimize_sampling(state, m_small))
            pairs += 1
    elapsed = time.perf_counter() - start
    ok = pairs == 50 and prefix_exact and elapsed < 10.0
    _verdict(
        2,
        ok,
        f"first-M rows bit-identical under growth to M' for {pairs}/50 random "
        f"(M, M') pairs in {elapsed:.1f} s (< 10 s)",
    )


def test_criterion_3_lifting_column_property():
    """Lifting shifts the equivalent matrix only in its first column."""
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_elsewhere = 0.0
    for i in range(20):
        psi = random_dictionary(49, 80, seed=3000 + i)
        state = gf.build_state(psi)
        m = int(rng.integers(1, state.rank + 1))
        phi = gf.optimize_sampling(state, m)
        lifted = gf.nn_lift(phi)
        diff = np.abs(lifted @ psi.atoms - phi @ psi.atoms)
        worst_elsewhere = max(worst_elsewhere, float(diff[:, 1:].max()))
    elapsed = time.perf_counter() - start
    ok = worst_elsewhere <= 1e-10 and elapsed < 10.0
    _verdict(
        3,
        ok,
        f"lifted vs unlifted equivalent matrices differ only in column 1 over 20 "
        f"constrained dictionaries (max elsewhere {worst_elsewhere:.2e}, tol 1e-10) "
        f"in {elapsed:.1f} s (< 10 s)",
    )


def _exhaustive_support(d: np.ndarray, y: np.ndarray, combos: np.ndarray) -> set:
    """Best k-support by least squares over every candidate (independent oracle)."""
    gram = d.T @ d
    b = d.T @ y
    g_sub = gram[combos[:, :, None], combos[:, None, :]]
    z = np.linalg.solve(g_sub, b[combos][:, :, None])[:, :, 0]
    gain = np.einsum("ij,ij->i", b[combos], z)  # ||y||^2 minus the residual energy
    return set(combos[int(np.argmax(gain))].tolist())


def test_criterion_4_omp_matches_exhaustive_search():
    """500 instances under the coherence bound: greedy = exhaustive, always."""
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    cases = ((1, 32, 48, 168), (2, 200, 40, 166), (3, 420, 30, 166))
    total = agree = 0
    for k, n, cols, count in cases:
        combos = np.array(list(itertools.combinations(range(cols), k)))
        done = 0
        attempt = 0
        while done < count:
            attempt += 1
            assert attempt < 30 * count, f"k={k}: coherence bound too hard to hit"
            d = rng.standard_normal((n, cols))
            d /= np.linalg.norm(d, axis=0)
            if not gf.mutual_coherence(d) < 1 / (2 * k - 1):
                continue
            support = rng.choice(cols, size=k, replace=False)
            z = np.zeros(cols)
            z[support] = rng.uniform(0.5, 2.0, size=k) * rng.choice([-1, 1], size=k)
            y = d @ z
            total += 1
            if set(np.flatnonzero(gf.omp(d, y, t0=k))) == _exhaustive_support(d, y, combos):
                agree += 1
            done += 1
    elapsed = time.perf_counter() - start
    ok = total == 500 and agree == 500 and elapsed < 120.0
    _verdict(
        4,
        ok,
        f"OMP support = exhaustive-search support in {agree}/{total} instances "
        f"with measured mu < 1/(2k-1), k in {{1,2,3}}, in {elapsed:.1f} s (< 120 s)",
    )


def test_criterion_5_desk_scale_ranking(desk_run, timings):
    """Optimized beats Gaussian by >= 1 dB at SR 0.10/0.20; SSIM ordered everywhere."""
    records, _ = desk_run
    by = {(r.method, r.sr): r.report for r in records}
    grid = sorted({r.sr for r in records})
    gap = {
        sr: by[("optimized", sr)].psnr_mean - by[("gaussian", sr)].psnr_mean
        for sr in grid
    }
    ssim_ordered = all(
        by[("optimized", sr)].ssim_mean >= by[("gaussian", sr)].ssim_mean for sr in grid
    )
    runtime = timings["train"] + timings["run_plain"]
    ok = gap[0.10] >= 1.0 and gap[0.20] >= 1.0 and ssim_ordered and runtime < 900.0
    _verdict(
        5,
        ok,
        f"desk-scale run (2000 train / 200 test): PSNR gap {gap[0.10]:+.2f} dB at "
        f"SR 0.10 and {gap[0.20]:+.2f} dB at SR 0.20 (>= +1.0 required), SSIM "
        f"ordering {'holds' if ssim_ordered else 'BROKEN'} at all {len(grid)} grid "
        f"points, pipeline {runtime:.0f} s (< 900 s)",
    )


def test_criterion_6_quantized_ordering(desk_run_q8):
    """8-bit pattern quantization keeps optimized > Gaussian PSNR at every SR."""
    records, _ = desk_run_q8
    by = {(r.method, r.sr): r.report for r in records}
    grid = sorted({r.sr for r in records})
    gaps = [
        by[("optimized", sr)].psnr_mean - by[("gaussian", sr)].psnr_mean for sr in grid
    ]
    ok = all(r.qbits == 8 for r in records) and all(g > 0 for g in gaps)
    _verdict(
        6,
        ok,
        "8-bit quantized run keeps the optimized > gaussian PSNR ordering at every "
        f"grid point (gaps {[round(g, 2) for g in gaps]} dB)",
    )


def test_criterion_7_metric_examples():
    """Every worked metric example, at its stated tolerance."""
    zeros = np.zeros(784)
    bright = np.full(784, 255.0)
    one_off = zeros.copy()
    one_off[100] = 1.0
    digit = synthdata.make_digit_images(1, seed=0)[0].ravel()
    rng = np.random.default_rng(707)
    d3 = rng.standard_normal((50, 3))
    brute = max(
        abs(float(d3[:, i] @ d3[:, j]))
        / (np.linalg.norm(d3[:, i]) * np.linalg.norm(d3[:, j]))
        for i in range(3)
        for j in range(i + 1, 3)
    )
    single = gf.aggregate([30.0], [0.9])
    pair = gf.aggregate([10.0, 20.0], [0.5, 0.7])
    dup = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    checks = {
        "mse identical = 0": gf.mse(zeros, zeros) == 0.0,
        "mse 0 vs 255 = 65025": gf.mse(zeros, bright) == 65025.0,
        "mse one pixel off = 1/784": gf.mse(zeros, one_off) == 1.0 / 784,
        "psnr 0 vs 255 = 0 dB": gf.psnr(zeros, bright) == 0.0,
        "psnr identical = +inf": gf.psnr(zeros, zeros) == math.inf,
        "psnr one pixel off = 10log10(65025*784)": math.isclose(
            gf.psnr(zeros, one_off), 10 * math.log10(65025 * 784), rel_tol=1e-12
        ),
        "ssim identical = 1 exactly": gf.ssim(digit, digit) == 1.0
        and gf.ssim(bright, bright) == 1.0,
        "ssim const 0 vs 255 = 6.5025/65031.5025": math.isclose(
            gf.ssim(zeros, bright), 6.5025 / 65031.5025, rel_tol=1e-12
        ),
        "ssim inverted digit < 0": gf.ssim(digit, 255.0 - digit) < 0.0,
        "mu identity = 0": gf.mutual_coherence(np.eye(8)) == 0.0,
        "mu duplicated column = 1": gf.mutual_coherence(dup) == 1.0,
        "mu matches brute force to 1e-12": abs(gf.mutual_coherence(d3) - brute)
        <= 1e-12,
        "aggregate single image": single.psnr_mean == 30.0 and single.psnr_std == 0.0,
        "aggregate 10/20 dB -> 15 +/- 5": pair.psnr_mean == 15.0
        and pair.psnr_std == 5.0,
    }
    failed = [name for name, passed in checks.items() if not passed]
    _verdict(
        7,
        not failed,
        f"all {len(checks)} worked metric examples exact"
        + (f" (failed: {failed})" if failed else ""),
    )


def test_criterion_8_dictionary_constraints(desk_dictionary, tiny_dict_file):
    """Trained atoms: constant first atom, zero-mean rest, unit norms."""
    desk_psi, _ = desk_dictionary
    tiny_atoms = gf.read_matrix(tiny_dict_file)
    results = []
    for atoms in (desk_psi.atoms, tiny_atoms):
        n = atoms.shape[0]
        results.append((
            float(np.abs(atoms[:, 0] - n**-0.5).max()),
            float(np.abs(atoms[:, 1:].mean(axis=0)).max()),
            float(np.abs(np.linalg.norm(atoms, axis=0) - 1.0).max()),
        ))
    ok = all(c <= 1e-12 and z <= 1e-9 and u <= 1e-9 for c, z, u in results)
    worst = tuple(f"{max(col):.1e}" for col in zip(*results))
    _verdict(
        8,
        ok,
        "trained dictionaries keep first-atom constancy <= 1e-12, zero means <= 1e-9, "
        f"unit norms <= 1e-9 (worst deviations {worst})",
    )


def test_criterion_9_determinism(tmp_path, data_dir, tiny_dict_file):
    """Identical configs, identical CSV bytes."""
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg_path = write_run_config(
            tmp_path / f"{name}.ini", data_dir, tiny_dict_file, out,
            train=data_dir / "tiny_train.idx", test=data_dir / "tiny_test.idx",
            train_count=200, test_count=8, sr="0.2,0.5", gaussian_seeds=2,
        )
        gf.run_experiment(gf.load_config(cfg_path))
        outs.append(out)
    a, b = outs
    same_per_image = (a / "per_image.csv").read_bytes() == (b / "per_image.csv").read_bytes()
    curve_names = sorted(p.name for p in a.glob("curve_*.csv"))
    same_curves = bool(curve_names) and all(
        (a / name).read_bytes() == (b / name).read_bytes() for name in curve_names
    )
    lines_a = (a / "results.csv").read_text(encoding="utf-8").splitlines()
    lines_b = (b / "results.csv").read_text(encoding="utf-8").splitlines()
    same_results = len(lines_a) == len(lines_b) and all(
        la.split(",")[:10] == lb.split(",")[:10] for la, lb in zip(lines_a, lines_b)
    )
    ok = same_per_image and same_curves and same_results
    _verdict(
        9,
        ok,
        "reruns byte-identical: per_image.csv, all curve files, and results.csv",
    )
