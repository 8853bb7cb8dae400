"""Design the light fields: closed-form optimization, extension, lifting.

The whole optimization is one eigendecomposition of Psi Psi^T. The best M-row
sampling matrix (for the Frobenius coherence surrogate) is simply the top M
eigenvector rows, so:

  * more measurements = append more rows, never re-optimize (shown below by
    extending 20 -> 60 rows and checking the prefix is bit-identical);
  * the design objective at the optimum equals the discarded eigenvalue
    tail sum_{j>M} lambda_j^4 (checked against 200 random candidates);
  * one constant lift makes every pattern non-negative, i.e. displayable,
    and only the first column of the equivalent matrix D = Phi Psi changes.

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

    meta = gf.read_matrix_meta(out / "dictionary.gim")
    psi = gf.Dictionary(atoms=gf.read_matrix(out / "dictionary.gim"),
                        sparsity=int(meta["sparsity"]))
    state = gf.build_state(psi)
    lam = state.eigenvalues
    print(f"Gram rank {state.rank}/{psi.n_pixels}, eigenvalues "
          f"{lam[0]:.1f} .. {lam[state.rank - 1]:.2g}, lift constant {state.lift:.3f}")

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

    small = gf.optimize_sampling(state, 20)
    grown = gf.extend_sampling(state, small, m)
    assert np.array_equal(grown[:20], small)
    print("successive sampling: rows 1..20 unchanged after extending to", m)

    lifted = gf.nn_lift(phi, state.lift)
    d_shift = np.abs(lifted @ psi.atoms - phi @ psi.atoms)
    print(f"after lifting, equivalent-matrix change: column 1 max {d_shift[:, 0].max():.3f}, "
          f"elsewhere max {d_shift[:, 1:].max():.2e}")

    gauss = gf.gaussian_sampling(m, psi.n_pixels, seed=0)
    gauss = gf.nn_lift(gauss, -float(gauss.min()))
    mu_opt = gf.mutual_coherence((lifted @ psi.atoms)[:, 1:])
    mu_gauss = gf.mutual_coherence((gauss @ psi.atoms)[:, 1:])
    print(f"equivalent-matrix coherence (zero-mean atoms): optimized {mu_opt:.4f} "
          f"vs gaussian {mu_gauss:.4f}")

    gf.write_matrix(out / f"field_optimized_m{m}.gim", lifted,
                    meta={"role": "sampling", "m": m, "lift": state.lift})
    print(f"saved {out / f'field_optimized_m{m}.gim'}")


if __name__ == "__main__":
    main()
