"""Design the light fields: closed-form optimization, successive sampling, lifting.

The whole optimization is one eigendecomposition of Psi Psi^T. The best M-row
sampling matrix (for the Frobenius coherence surrogate) is simply the top M
eigenvector rows, so:

  * more measurements = a longer prefix of the same rows, never re-optimize
    (shown below: the 20-row field is bit for bit the first 20 rows of the
    60-row one);
  * the design objective at the optimum equals the discarded eigenvalue
    tail sum_{j>M} lambda_j^4 (checked against 200 random candidates);
  * one constant lift makes every pattern non-negative, i.e. displayable,
    and only the first column of the equivalent matrix D = Phi Psi changes.
    The lift is fixed per field, so successive display lifts the rank-row
    field once and shows its row prefixes.

The demo only prints; ``gifield build-fields`` writes the field files.

Usage: python3 03_optimize_fields.py [--out DIR] [--m M]
"""

import argparse
from pathlib import Path

import numpy as np

import gifield as gf


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="gifield_demo")
    ap.add_argument("--m", type=int, default=60)
    args = ap.parse_args()
    out = Path(args.out)
    if not (out / "dictionary.gim").is_file():
        raise SystemExit("run 02_train_dictionary.py first")

    psi = gf.load_dictionary(out / "dictionary.gim")
    state = gf.build_state(psi)
    lam = state.eigenvalues
    full = gf.optimize_sampling(state, state.rank)
    lifted_full = gf.nn_lift(full)
    print(f"Gram rank {state.rank}/{psi.n_pixels}, eigenvalues "
          f"{lam[0]:.1f} .. {lam[state.rank - 1]:.2g}, "
          f"lift constant {lifted_full[0, 0] - full[0, 0]:.3f}")

    m = args.m
    phi = gf.optimize_sampling(state, m)
    obj = gf.design_objective(state, phi)
    tail = float(np.sum(lam[m:] ** 4))
    print(f"design objective at the closed form ({m} rows): {obj:.6g}")
    print(f"eigenvalue tail sum_(j>{m}) lambda^4:           {tail:.6g}")

    rng = np.random.default_rng(0)
    best_random = min(
        gf.design_objective(state, np.linalg.qr(rng.standard_normal((psi.n_pixels, m)))[0].T)
        for _ in range(200)
    )
    print(f"best of 200 random orthonormal designs:        {best_random:.6g}")

    assert np.array_equal(phi[:20], gf.optimize_sampling(state, 20))
    print(f"successive sampling: the 20-row field is the first 20 rows of the {m}-row field")

    lifted = lifted_full[:m]
    d_shift = np.abs(lifted @ psi.atoms - phi @ psi.atoms)
    print(f"after lifting, equivalent-matrix change: column 1 max {d_shift[:, 0].max():.3f}, "
          f"elsewhere max {d_shift[:, 1:].max():.2e}")

    gauss = gf.gaussian_sampling(m, psi.n_pixels, seed=0)
    gauss = gf.nn_lift(gauss)
    mu_opt = gf.mutual_coherence((lifted @ psi.atoms)[:, 1:])
    mu_gauss = gf.mutual_coherence((gauss @ psi.atoms)[:, 1:])
    print(f"equivalent-matrix coherence (zero-mean atoms): optimized {mu_opt:.4f} "
          f"vs gaussian {mu_gauss:.4f}")


if __name__ == "__main__":
    main()
