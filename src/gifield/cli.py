"""Command-line front end.

Subcommands mirror the workflow: ``train-dict`` learns the dictionary and saves
it to ``dictionary.path``, ``build-fields`` writes each light field variant to
``run.out`` once, whatever the grid, ``run`` the measure/reconstruct sweep, and
``report`` summarizes a finished run directory, named by ``--out`` or by the
``run.out`` of ``--config``. The harness does each command's work; this module
parses arguments and prints. Every setting comes from the config file; no
option overrides one. Exit codes: 0 success; 2 bad usage or bad input (a bad
config, dataset or dictionary file), which the package reports with its own
``GifieldError`` types; 1 any other failure.
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from pathlib import Path

from .errors import FormatError, GifieldError, ValidationError
from .harness import (
    DONE_MARKER,
    RESULTS_HEADER,
    load_config,
    run_experiment,
    train_dictionary,
    write_fields,
)

log = logging.getLogger(__name__)


def _cmd_train_dict(args) -> int:
    cfg = load_config(args.config)
    if not cfg.dictionary_path:
        raise ValidationError("train-dict needs dictionary.path to write to")
    out_path = Path(cfg.dictionary_path)
    dictionary = train_dictionary(cfg, out_path)
    print(f"dictionary: {dictionary.n_pixels}x{dictionary.n_atoms} -> {out_path}")
    return 0


def _cmd_build_fields(args) -> int:
    for path in write_fields(load_config(args.config)):
        print(f"wrote {path}")
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    records = run_experiment(cfg)
    print(f"{len(records)} records -> {cfg.out_dir}/results.csv")
    return 0


def _cmd_report(args) -> int:
    # an empty name would read the working directory, since Path("") is "."
    if args.config is None:
        out_dir, source = args.out, "--out"
    else:
        out_dir, source = load_config(args.config).out_dir, "config: run.out"
    if not out_dir:
        raise ValidationError(f"{source} directory is required")
    out = Path(out_dir)
    results = out / "results.csv"
    if not results.is_file():
        raise ValidationError(f"no results.csv under {out}")
    rows = _read_results(results)
    if not (out / DONE_MARKER).is_file():
        print("warning: run did not finish (_DONE marker missing)", file=sys.stderr)

    print(f"{'method':<10} {'sr':>6} {'M':>5} {'qbits':>5} {'psnr':>8} "
          f"{'ssim':>8} {'mu':>8} {'exact':>5}")
    for r in rows:
        print(f"{r['method']:<10} {r['sr']:>6.3f} {r['M']:>5.0f} {r['qbits']:>5.0f} "
              f"{r['psnr_mean']:>8.2f} {r['ssim_mean']:>8.4f} "
              f"{r['mu']:>8.4f} {r['n_exact']:>5.0f}")
    by_sr: dict[float, dict[str, float]] = {}
    for r in rows:
        by_sr.setdefault(r["sr"], {})[r["method"]] = r["psnr_mean"]
    for sr, methods in by_sr.items():
        if "optimized" in methods and "gaussian" in methods:
            gain = methods["optimized"] - methods["gaussian"]
            print(f"SR {sr:.3f}: optimized {gain:+.2f} dB vs gaussian")
    return 0


def _read_results(path: Path) -> list[dict]:
    """The rows of a ``results.csv``, numbers parsed; a malformed file is a ``FormatError``."""
    columns = RESULTS_HEADER.split(",")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            lines = [(reader.line_num, row) for row in reader if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: not a readable CSV file: {exc}") from exc
    if header != columns:
        missing = [name for name in columns if name not in header]
        raise FormatError(f"{path}: no {missing[0]!r} column" if missing
                          else f"{path}: header is not {RESULTS_HEADER!r}")
    if not lines:
        raise ValidationError(f"{path} has no records")
    rows = []
    for line, values in lines:
        if len(values) != len(columns):
            raise FormatError(f"{path} line {line}: {len(values)} fields, expected {len(columns)}")
        rows.append(row := dict(zip(columns, values)))
        for name in columns[1:]:
            try:
                row[name] = float(row[name])
            except ValueError as exc:
                raise FormatError(
                    f"{path} line {line}, column {name}: {row[name]!r} is not a number"
                ) from exc
    return rows


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gifield",
        description="Coherence-optimized light fields for compressive ghost imaging.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text in (
        ("train-dict", _cmd_train_dict, "learn the dictionary and save it"),
        ("build-fields", _cmd_build_fields, "write each light field variant once"),
        ("run", _cmd_run, "full measure/reconstruct sweep with CSV outputs"),
        ("report", _cmd_report, "summarize a finished run directory"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name == "report":
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--config", help="run config whose output dir to read")
            group.add_argument("--out", help="run directory to read")
        else:
            p.add_argument("--config", required=True, help="INI run description")
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.handler(args)
    except GifieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - map any other failure to exit 1
        log.debug("unhandled failure", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
