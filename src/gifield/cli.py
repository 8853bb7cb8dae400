"""Command-line front end.

Subcommands mirror the workflow: ``train-dict`` learns the dictionary and saves
it to ``dictionary.path``, ``build-fields`` writes each light field variant to
``run.out`` once, whatever the grid, ``run`` the measure/reconstruct sweep, and
``report`` summarizes the finished run in ``run.out``. Every command takes
``--config FILE`` alone: every setting comes from the config file, which
``main`` loads once, and the handler makes one harness call on it and prints.
Exit codes: 0 success; 2 bad usage or bad input (a bad config, dataset,
dictionary or ``results.csv`` file), which the package reports with its own
``GifieldError`` types; 1 any other failure.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys

from .errors import GifieldError
from .harness import load_config, read_results, run_experiment, train_dictionary, write_fields

log = logging.getLogger(__name__)


def _cmd_train_dict(cfg) -> int:
    dictionary = train_dictionary(cfg, cfg.dictionary_path)
    print(f"dictionary: {dictionary.n_pixels}x{dictionary.n_atoms} -> {cfg.dictionary_path}")
    return 0


def _cmd_build_fields(cfg) -> int:
    for path in write_fields(cfg):
        print(f"wrote {path}")
    return 0


def _cmd_run(cfg) -> int:
    records = run_experiment(cfg)
    print(f"{len(records)} records -> {cfg.out_dir}/results.csv")
    return 0


def _cmd_report(cfg) -> int:
    rows, finished = read_results(cfg)
    if not finished:
        print("warning: run did not finish (_DONE marker missing)", file=sys.stderr)
    # the header names, then each row: every column, text as it is and numbers as .4g
    for r in (dict(zip(rows[0], rows[0])), *rows):
        print(*(f"{v:>10}" if isinstance(v, str) else f"{v:>10.4g}" for v in r.values()))
    psnr = {(r["method"], r["sr"]): r["psnr_mean"] for r in rows}
    for sr in dict.fromkeys(sr for _, sr in psnr):
        optimized, gaussian = psnr.get(("optimized", sr)), psnr.get(("gaussian", sr))
        if optimized == gaussian == math.inf:
            print(f"SR {sr:.3f}: optimized and gaussian both exact")
        elif None not in (optimized, gaussian):
            print(f"SR {sr:.3f}: optimized {optimized - gaussian:+.2f} dB vs gaussian")
    return 0


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
        return args.handler(load_config(args.config))
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
