"""One workload in one process: set up, time, check, and report.

Set-up runs ``shape.setup_reps`` times in a child process and ``setup_s``
is its median. The child only leaves files behind, so ``peak_rss_mb``, the
peak memory of this process, is that of the timed operations and not of
set-up. This process loads the files, then repeats the timed operation until
``seconds`` have passed, at least twice so that outputs can be compared
between runs; ``wall_s`` is the median. Each operation's output is checked,
and an operation that raises or fails a check counts in ``failed``.

With tracing on, operations alternate untraced and traced, starting
untraced. The per-layer numbers are means over the traced operations (means,
so that the layers' self times still add up), and ``trace.overhead_s`` is
the traced mean minus the untraced median of the same process.
"""

from __future__ import annotations

import ctypes
import glob
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

from . import trace

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "objective_final": "sumsq",
    "psnr_opt_db": "dB",
    "psnr_gain_db": "dB",
    "mu_opt": "1",
}


def _set_up(workload, traced: bool, work: Path) -> tuple[list[float], dict[str, float]]:
    """Every set-up of a run, timed: the times, and the ``setup.`` metrics if traced."""
    clock = time.perf_counter
    tracer = trace.Tracer() if traced else None
    times = []
    for _ in range(workload.shape.setup_reps):
        start = clock()
        with trace.installed(tracer) if traced else nullcontext():
            workload.setup(work)
        times.append(clock() - start)
    if not traced:
        return times, {}
    metrics = trace.summarize(tracer.take(), len(times), trace.SETUP_SPAN_METRICS, "setup.")
    metrics["setup.wall_s"] = statistics.fmean(times)
    return times, metrics


def _set_up_in_child(workload, traced: bool, work: Path) -> tuple[list[float], dict[str, float]]:
    """``_set_up`` in a fresh interpreter, so that its memory stays out of this process."""
    job = work / "setup.pickle"
    job.write_bytes(pickle.dumps((workload, traced, work)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    subprocess.run([sys.executable, "-m", "gibench.runner", str(job)], env=env, check=True)
    return pickle.loads(job.with_suffix(".out").read_bytes())


def execute(workload, seconds: float, traced: bool, work: Path) -> dict:
    """Run one workload in ``work``; return the result object plus run details."""
    clock = time.perf_counter
    tracer = trace.Tracer() if traced else None
    hooks = (lambda: trace.installed(tracer)) if traced else nullcontext

    setup_times, setup_metrics = _set_up_in_child(workload, traced, work)
    ctx = workload.load(work)

    plain, timed_traced, failures = [], [], []
    attempted = failed = 0
    out = None
    begin = clock()
    while attempted < 2 or clock() - begin < seconds:
        this_traced = traced and attempted % 2 == 1
        attempted += 1
        try:
            with hooks() if this_traced else nullcontext():
                start = clock()
                result = workload.run(ctx)
                elapsed = clock() - start
        except Exception as exc:  # a failed operation is counted and ends the run
            failed += 1
            failures.append(f"operation {attempted}: {type(exc).__name__}: {exc}")
            break
        (timed_traced if this_traced else plain).append(elapsed)
        problems = workload.check(ctx, result)
        if problems:
            failed += 1
            failures.extend(f"operation {attempted}: {p}" for p in problems)
        out = result
    if out is None or (traced and not timed_traced):
        raise RuntimeError("; ".join(failures) or "no operation completed")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        metrics = {**_per_layer(tracer.take(), timed_traced, plain), **setup_metrics}
        units = trace.per_layer_units()
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(plain),
            "peak_rss_mb": peak_rss_mb,
            **workload.quality(ctx, out),
        }
        units = END_TO_END
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        },
        "failures": failures,
        "samples": {"setup_s": setup_times, "wall_s": plain, "traced_wall_s": timed_traced},
    }


def _per_layer(op_spans, traced_times, plain_times) -> dict[str, float]:
    metrics = trace.summarize(op_spans, len(traced_times))
    traced_wall = statistics.fmean(traced_times)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(plain_times)
    metrics["trace.unattributed_s"] = traced_wall - sum(
        metrics[f"{layer}.self_s"] for layer in trace.LAYERS
    )
    metrics["trace.spans"] = len(op_spans) / len(traced_times)
    return metrics


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if numpy bundles one."""
    for path in glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*"):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit(root: Path) -> str:
    """Commit of a git checkout, read from ``.git`` without leaving ``root``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    """Machine and library facts to print beside the numbers."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS", "GI_THREADS")
                       if k in os.environ},
        "git_commit": _git_commit(root),
        "seed": seed,
    }


if __name__ == "__main__":  # the set-up child: python3 -m gibench.runner JOB
    _job = Path(sys.argv[1])
    _job.with_suffix(".out").write_bytes(pickle.dumps(_set_up(*pickle.loads(_job.read_bytes()))))
