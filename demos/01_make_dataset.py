"""Generate the synthetic digit corpora used by the other demos.

The generator draws stroke-based digit glyphs with randomized affine jitter,
stroke width, and brightness, then rasterizes them to 28x28 grayscale and
writes standard IDX image files (the classic big-endian u8 format, magic
0x00000803), so anything that can read MNIST images can read these.

Usage: python3 01_make_dataset.py [--out DIR] [--train N] [--test N]
"""

import argparse
from pathlib import Path

import numpy as np

import gifield as gf
from gifield import synthdata


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="gifield_demo", help="artifact directory")
    ap.add_argument("--train", type=int, default=1200)
    ap.add_argument("--test", type=int, default=100)
    args = ap.parse_args()
    out = Path(args.out)

    synthdata.generate_idx(out / "train.idx", args.train, seed=0)
    synthdata.generate_idx(out / "test.idx", args.test, seed=99)

    train = gf.load_idx_images(out / "train.idx")
    print(f"wrote {out / 'train.idx'}: {len(train)} images, "
          f"{train.height}x{train.width}, pixel range "
          f"[{train.images.min():.0f}, {train.images.max():.0f}]")
    print(f"wrote {out / 'test.idx'}: {args.test} images")

    # a quick look at one glyph, because numbers alone are no fun
    img = train.images[0].reshape(28, 28)
    ramp = " .:-=+*#%@"
    for row in img[::2]:
        print("".join(ramp[int(v) * (len(ramp) - 1) // 255] for v in row))

    # per-digit class means differ, so the corpus is not degenerate
    means = [train.images[i::10].mean() for i in range(10)]
    print("per-class mean intensities:", np.round(means, 1))


if __name__ == "__main__":
    main()
