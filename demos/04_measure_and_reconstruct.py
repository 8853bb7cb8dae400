"""Ghost-imaging round trip on one image: measure with each field, compare.

A bucket detector sees y = Phi x (one scalar per displayed pattern). With
M << N this is underdetermined; OMP recovers the T0-sparse code under the
trained dictionary. Side by side: optimized fields vs lifted Gaussian fields
at the same sampling ratio, with and without detector noise.

Usage: python3 04_measure_and_reconstruct.py [--out DIR] [--m M] [--image I]
"""

import argparse
import time
from pathlib import Path

import gifield as gf


def _ascii(img28):
    ramp = " .:-=+*#%@"
    return "\n".join(
        "".join(ramp[max(0, min(255, int(v))) * (len(ramp) - 1) // 255] for v in row)
        for row in img28.reshape(28, 28)[::2]
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="gifield_demo")
    ap.add_argument("--m", type=int, default=80)
    ap.add_argument("--image", type=int, default=3)
    args = ap.parse_args()
    out = Path(args.out)
    if not (out / "dictionary.gim").is_file() or not (out / "test.idx").is_file():
        raise SystemExit("run 01_make_dataset.py and 02_train_dictionary.py first")

    psi = gf.load_dictionary(out / "dictionary.gim")
    state = gf.build_state(psi)
    x = gf.load_idx_images(out / "test.idx").images[args.image]
    n = x.size
    print(f"image {args.image}, M={args.m} measurements of N={n} pixels "
          f"(SR={args.m / n:.3f})\n")

    fields = {
        "optimized": gf.nn_lift(gf.optimize_sampling(state, state.rank))[:args.m],
        "gaussian": gf.nn_lift(gf.gaussian_sampling(args.m, n, seed=1)),
    }

    for name, phi in fields.items():
        y = gf.measure(phi, x)
        start = time.perf_counter()
        x_hat = gf.reconstruct(y, phi, psi)
        elapsed = time.perf_counter() - start
        print(f"{name:>10}: PSNR {gf.psnr(x, x_hat):6.2f} dB, "
              f"SSIM {gf.ssim(x, x_hat):.4f}, {elapsed * 1e3:.1f} ms")

    noisy = gf.NoiseModel(kind="awgn", snr_db=30.0, seed=0)
    phi = fields["optimized"]
    x_hat = gf.reconstruct(gf.measure(phi, x, noisy), phi, psi)
    print(f"{'opt+noise':>10}: PSNR {gf.psnr(x, x_hat):6.2f} dB at 30 dB detector SNR\n")

    x_hat = gf.reconstruct(gf.measure(phi, x), phi, psi)
    print("ground truth / reconstruction (optimized fields):\n")
    for left, right in zip(_ascii(x).splitlines(), _ascii(x_hat).splitlines()):
        print(f"{left}   {right}")


if __name__ == "__main__":
    main()
