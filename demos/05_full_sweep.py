"""The full benchmark: sweep sampling ratios, both methods, CSV outputs.

This is what the ``gifield run`` command does, driven here through the API.
One config describes the whole experiment; the harness reuses the saved
dictionary, builds each field variant once (the optimized field, and one
Gaussian draw per seed) and gives every grid point that variant's row
prefix (Gaussian scores averaged over seeds), reconstructs every test image,
and writes results.csv, per_image.csv, and per-method curve files under
DIR/sweep. Every output is bit-reproducible. It ends with ``gifield report``
on the finished run: the results table and, per sampling ratio, the optimized
field's PSNR gain over the Gaussian draws (or "both exact").

Usage: python3 05_full_sweep.py [--out DIR] [--test N]
"""

import argparse
from pathlib import Path

import gifield as gf
from gifield import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="gifield_demo")
    ap.add_argument("--test", type=int, default=50)
    ap.add_argument("--sr", default="0.1,0.2,0.3")
    ap.add_argument("--qbits", type=int, default=0, help="8 to emulate an 8-bit modulator")
    args = ap.parse_args()
    out = Path(args.out)
    if not (out / "dictionary.gim").is_file():
        raise SystemExit("run 01_make_dataset.py and 02_train_dictionary.py first")

    cfg_path = out / "sweep.ini"
    cfg_path.write_text(
        f"""[data]
test = {out / 'test.idx'}
test_count = {args.test}

[dictionary]
path = {out / 'dictionary.gim'}

[fields]
sr = {args.sr}
methods = optimized,gaussian
gaussian_seeds = 2
qbits = {args.qbits}

[run]
out = {out / 'sweep'}
""",
        encoding="utf-8",
    )
    gf.run_experiment(gf.load_config(cfg_path))
    code = cli.main(["report", "--config", str(cfg_path)])
    if code:
        raise SystemExit(code)


if __name__ == "__main__":
    main()
