"""Desk-scale benchmark of gifield: ``train``, ``sweep`` and ``sweep_fine``.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload sweep --seed 0 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all          # every workload, one process each

The package is imported from ``src/`` of the checkout that holds this file.
Each run prints its metrics with units, the environment, any failed checks,
and as its last line one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones. See ``benchmarks/README.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("train", "sweep", "sweep_fine")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _print_metrics(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name:<10} {metric:<34} {m['value']:>16.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"{name:<10} {'failed_frac':<34} {frac:>16.6g} 1"
          f"  ({result['failed']} of {result['attempted']} operations)")


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("GI_THREADS", None)  # one Python thread: spans nest, load is comparable
    from gibench import runner, workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        report = runner.execute(workload, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = report["result"]
    _print_metrics(args.workload, result)
    print("samples " + json.dumps(report["samples"]))
    print("env " + json.dumps(runner.environment(ROOT, args.seed), sort_keys=True))
    for line in report["failures"]:
        print(f"FAILED {args.workload}: {line}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; the last line maps workload to result."""
    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print("\n".join(lines + [f"FAILED {name}: exit code {proc.returncode}"]))
            code = 1
            continue
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        code = code or int(not results[name]["correct"])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "gifield" / "__init__.py").is_file():
        print(f"error: no gifield package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
