"""Run the benchmark over several seeds and summarise each metric's spread.

Usage, from the root of a checkout:

    python3 benchmarks/spread.py --workloads train,sweep,sweep_fine --seeds 1-10 [--out FILE]

Each (workload, seed) runs ``benchmarks/run.py`` in its own process with the
``run_seconds`` of ``BENCHMARK.json``. For every metric it prints the median,
the quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(Q3 - Q1) / median, next to the metric's bound. A seed may repeat, as in
``--seeds 0,0,0,0,0``, to measure the spread between runs of one seed.
``--out`` writes the summary and the raw values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(raw: str) -> list[int]:
    if "-" in raw:
        lo, hi = raw.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in raw.split(",")]


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="train,sweep,sweep_fine")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    report = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in _seeds(args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in list(result["metrics"].items())[:8]),
                  flush=True)
        stats = {name: {**summarize(v), "values": v} for name, v in values.items()}
        report[workload] = {"failed": failed, "metrics": stats}
        for name, s in stats.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}" + ("  OVER 1/3" if s["spread"] > bound / 3 else "")
            print(f"{workload:<10} {name:<34} median {s['median']:<14.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
