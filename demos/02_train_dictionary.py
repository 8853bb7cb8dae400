"""Train the constrained sparsifying dictionary and inspect what it learned.

The dictionary is learned by K-SVD under the sampling-friendly constraints:
atom 0 is pinned to the constant vector 1/sqrt(N) (it absorbs image mean),
every other atom is zero-mean and unit-norm. The training objective (total
squared coding residual after each sweep's coding half) falls over the run.
It need not fall at every sweep: the atom updates never raise it, but the
greedy OMP re-coding of the next sweep can lose to the refit codes it
replaces (the 30-sweep desk run at seed 0 rises at sweeps 15 and 29).

Run 01_make_dataset.py first (or this script will tell you to).

Usage: python3 02_train_dictionary.py [--out DIR] [--atoms K] [--sweeps S]
"""

import argparse
import time
from pathlib import Path

import numpy as np

import gifield as gf


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="gifield_demo")
    ap.add_argument("--atoms", type=int, default=1024)  # must be >= the pixel count
    ap.add_argument("--sparsity", type=int, default=8)
    ap.add_argument("--sweeps", type=int, default=6)
    ap.add_argument("--count", type=int, default=1200)  # must be >= --atoms
    args = ap.parse_args()
    out = Path(args.out)
    if not (out / "train.idx").is_file():
        raise SystemExit(f"no {out / 'train.idx'} - run 01_make_dataset.py first")

    ds = gf.random_subset(gf.load_idx_images(out / "train.idx"), args.count, seed=0)
    x = ds.as_columns()
    cfg = gf.TrainingConfig(
        atom_count=args.atoms, sparsity=args.sparsity, sweeps=args.sweeps, seed=0
    )
    print(f"training {x.shape[0]}x{args.atoms} dictionary on {args.count} images, "
          f"T0={args.sparsity}, {args.sweeps} sweeps...")
    start = time.perf_counter()
    psi, objectives = gf.ksvd_train(x, cfg)
    print(f"done in {time.perf_counter() - start:.1f} s")

    print("objective per sweep:", " ".join(f"{o:.3g}" for o in objectives))
    assert len(objectives) == 1 or objectives[-1] < objectives[0], "objective did not fall"

    psi.validate()  # constant atom 0, zero-mean rest, unit norms
    rms = np.sqrt(objectives[-1] / x.shape[1] / x.shape[0])
    print(f"constraints hold; final per-pixel RMS coding error: {rms:.2f} "
          f"(pixel range 0..255)")

    path = out / "dictionary.gim"
    gf.write_matrix(path, psi.atoms, meta={"role": "dictionary", "sparsity": psi.sparsity})
    print(f"saved {path} (checksum {psi.checksum})")


if __name__ == "__main__":
    main()
