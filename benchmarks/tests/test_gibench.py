"""Tests of the benchmark's own code: span arithmetic, metric names, smoke runs.

Run from the root of a checkout with ``python3 -m pytest -q benchmarks/tests``.
They sit outside the package's ``tests/`` so the tier-1 suite does not run them.
"""

import importlib
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import run  # noqa: E402
from gibench import runner, trace, workloads  # noqa: E402
from gibench.trace import Span, Tracer, self_times, summarize  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_times_of_nested_spans():
    spans = [
        Span("harness.run_experiment", 0.0, 10.0),
        Span("imaging.reconstruct", 1.0, 4.0, parent=0),
        Span("dictionary.omp", 2.0, 3.5, parent=1),
        Span("metrics.quality", 5.0, 6.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.5, 1.5, 1.0])
    m = summarize(spans, n_ops=2)
    assert m["harness.self_s"] == pytest.approx(3.0)
    assert m["imaging.reconstruct.s"] == pytest.approx(1.5)
    assert m["imaging.reconstruct.self_s"] == pytest.approx(0.75)
    assert m["dictionary.omp.calls"] == pytest.approx(0.5)
    assert sum(m[f"{layer}.self_s"] for layer in trace.LAYERS) == pytest.approx(5.0)


def test_tracer_links_parents_and_counts_work():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("dictionary.omp", lambda t0: t0, lambda a, k, r: {"selected": r, "budget": 4})
    outer = tracer.wrap("imaging.reconstruct", lambda: inner(1) + inner(3))
    assert outer() == 4
    spans = tracer.take()
    assert [s.name for s in spans] == ["imaging.reconstruct", "dictionary.omp", "dictionary.omp"]
    assert [s.parent for s in spans] == [None, 0, 0]
    assert self_times(spans) == [3.0, 1.0, 1.0]
    assert summarize(spans, 1)["dictionary.omp.fill"] == pytest.approx(0.5)
    assert tracer.spans == []


def test_installed_wraps_every_target_and_restores():
    slots = [(importlib.import_module(module), attr) for module, attr, _, _ in trace.TARGETS]
    originals = [getattr(module, attr) for module, attr in slots]
    with trace.installed(Tracer()):
        for (module, attr), original in zip(slots, originals):
            assert getattr(module, attr).__wrapped__ is original
    assert [getattr(module, attr) for module, attr in slots] == originals


def test_metric_names_and_limits():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e, per_layer = bench["end_to_end"], bench["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    names = [m["name"] for m in e2e + per_layer + bench["workloads"]]
    assert len(names) == len(set(names))
    for m in e2e + per_layer:
        assert NAME.fullmatch(m["name"]), m
        assert UNIT.fullmatch(m["unit"]), m
    assert {m["name"]: m["unit"] for m in e2e} == runner.END_TO_END
    assert {m["name"]: m["unit"] for m in per_layer} == trace.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in e2e}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_on_tiny_corpus(name, traced, tmp_path):
    report = runner.execute(workloads.WORKLOADS[name](3, workloads.TINY), 0, traced, tmp_path)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 2
    expected = trace.per_layer_units() if traced else runner.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    json.dumps(result)
    if traced:
        assert values["trace.spans"] >= 1
        assert abs(values["trace.unattributed_s"]) < 0.01 * values["trace.wall_s"] + 1e-3
    else:
        assert values["wall_s"] > 0 and values["setup_s"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_final_objective_is_the_next_sweeps_objective():
    x = np.random.default_rng(5).standard_normal((16, 200))
    from gifield import dictionary

    def train(sweeps):
        return dictionary.ksvd_train(x, dictionary.TrainingConfig(atom_count=32, sparsity=3, sweeps=sweeps, seed=7))

    psi, _ = train(1)
    _, objectives = train(2)
    assert workloads._final_objective(psi.atoms, x, 3) == pytest.approx(objectives[1], rel=1e-12)
