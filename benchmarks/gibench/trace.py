"""Spans around calls into gifield's public functions, and per-layer sums.

End-to-end numbers are measured with tracing off. A traced run replaces
module attributes of ``gifield`` -- the names that the caller looks up, such
as ``gifield.harness.reconstruct`` or ``gifield.imaging.omp`` -- with
wrappers that record one span per call: name, start, end, parent span and
optional work amounts. Nothing inside ``src/`` is edited; the wrappers are
removed when the traced block ends.

The package runs on one Python thread here (``GI_THREADS`` unset), so spans
nest strictly and a span's self time is its duration minus the durations of
its direct children. Each span belongs to the layer named before the first
dot of its name, and the layers' self times add up to the traced time.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("data", "synthdata", "dictionary", "fieldopt", "imaging", "metrics", "harness")


@dataclass
class Span:
    """One traced call; ``parent`` indexes the enclosing span, if any."""

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    work: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


class Tracer:
    """Keeps spans in memory; ``wrap`` makes a recording stand-in for a function."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock

    def wrap(self, name: str, fn, amounts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span.start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self._clock()
                self._open.pop()
            if amounts is not None:
                # counted outside the span: it is tracing cost, not the layer's work
                span.work = amounts(args, kwargs, result)
            return result

        return traced

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        if self._open:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _codes_fill(args, kwargs, z):
    t0 = min(_arg(args, kwargs, 2, "t0"), z.shape[0])
    return {"selected": int(np.count_nonzero(z)), "budget": z.shape[1] * t0}


def _code_fill(args, kwargs, code):
    t0 = min(_arg(args, kwargs, 2, "t0"), code.coefficients.size)
    return {"selected": code.n_nonzero, "budget": t0}


def _coherence_flop(args, kwargs, _):
    # the K x K Gram of the normalised M x K matrix: 2 M K^2, from shapes only
    m, k = np.shape(_arg(args, kwargs, 0, "d"))
    return {"flop": 2.0 * m * k * k}


def _file_bytes(args, kwargs, _):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _cells(args, kwargs, records):
    return {"cells": len(records)}


# (module, attribute the caller looks up, span name, work amounts)
TARGETS = (
    ("gifield.harness", "run_experiment", "harness.run_experiment", _cells),
    ("gifield.harness", "train_dictionary", "harness.train_dictionary", None),
    ("gifield.harness", "load_config", "harness.load_config", None),
    ("gifield.dictionary", "ksvd_train", "dictionary.ksvd", None),
    ("gifield.harness", "ksvd_train", "dictionary.ksvd", None),
    ("gifield.dictionary", "sparse_code_columns", "dictionary.sparse_code", _codes_fill),
    ("gifield.imaging", "omp", "dictionary.omp", _code_fill),
    ("gifield.harness", "reconstruct", "imaging.reconstruct", None),
    ("gifield.harness", "measure", "imaging.measure", None),
    ("gifield.harness", "mutual_coherence", "metrics.coherence", _coherence_flop),
    ("gifield.harness", "mse", "metrics.quality", None),
    ("gifield.harness", "psnr", "metrics.quality", None),
    ("gifield.harness", "ssim", "metrics.quality", None),
    ("gifield.harness", "aggregate", "metrics.quality", None),
    ("gifield.harness", "build_state", "fieldopt.build_state", None),
    ("gifield.harness", "optimize_sampling", "fieldopt.fields", None),
    ("gifield.harness", "gaussian_sampling", "fieldopt.fields", None),
    ("gifield.harness", "nn_lift", "fieldopt.fields", None),
    ("gifield.harness", "quantize_matrix", "fieldopt.fields", None),
    ("gifield.harness", "load_idx_images", "data.read", _file_bytes),
    ("gifield.harness", "read_matrix", "data.read", _file_bytes),
    ("gifield.harness", "read_matrix_meta", "data.read", _file_bytes),
    ("gifield.harness", "random_subset", "data.subset", None),
    ("gifield.harness", "write_matrix", "data.write", _file_bytes),
    ("gifield.data", "load_idx_images", "data.read", _file_bytes),
    ("gifield.data", "random_subset", "data.subset", None),
    ("gifield.synthdata", "generate_idx", "synthdata.generate", _file_bytes),
)


@contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Swap every target for its traced wrapper; restore the originals on exit."""
    saved = []
    try:
        for module_name, attr, name, amounts in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, amounts))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# (metric, span name, field, unit); "s" is inclusive time, "self_s" excludes
# child spans, "fill" is selected atoms over the sparsity budget
SPAN_METRICS = (
    ("dictionary.sparse_code.calls", "dictionary.sparse_code", "calls", "count"),
    ("dictionary.sparse_code.s", "dictionary.sparse_code", "s", "s"),
    ("dictionary.sparse_code.fill", "dictionary.sparse_code", "fill", "fraction"),
    ("dictionary.ksvd.self_s", "dictionary.ksvd", "self_s", "s"),
    ("dictionary.omp.calls", "dictionary.omp", "calls", "count"),
    ("dictionary.omp.s", "dictionary.omp", "s", "s"),
    ("dictionary.omp.fill", "dictionary.omp", "fill", "fraction"),
    ("imaging.reconstruct.calls", "imaging.reconstruct", "calls", "count"),
    ("imaging.reconstruct.s", "imaging.reconstruct", "s", "s"),
    ("imaging.reconstruct.self_s", "imaging.reconstruct", "self_s", "s"),
    ("imaging.measure.calls", "imaging.measure", "calls", "count"),
    ("imaging.measure.s", "imaging.measure", "s", "s"),
    ("metrics.coherence.calls", "metrics.coherence", "calls", "count"),
    ("metrics.coherence.s", "metrics.coherence", "s", "s"),
    ("metrics.coherence.gflop", "metrics.coherence", "gflop", "GFLOP-computed"),
    ("metrics.quality.calls", "metrics.quality", "calls", "count"),
    ("metrics.quality.s", "metrics.quality", "s", "s"),
    ("fieldopt.build_state.s", "fieldopt.build_state", "s", "s"),
    ("fieldopt.fields.calls", "fieldopt.fields", "calls", "count"),
    ("fieldopt.fields.s", "fieldopt.fields", "s", "s"),
    ("harness.cells", "harness.run_experiment", "cells", "count"),
    ("data.read.s", "data.read", "s", "s"),
    ("data.read.bytes", "data.read", "bytes", "bytes"),
    ("data.write.s", "data.write", "s", "s"),
    ("data.write.bytes", "data.write", "bytes", "bytes"),
    ("synthdata.generate.s", "synthdata.generate", "s", "s"),
)

# what set-up runs: corpus synthesis, file I/O and (for the sweeps) training
SETUP_SPAN_METRICS = tuple(
    row for row in SPAN_METRICS
    if row[1] in ("data.read", "data.write", "synthdata.generate",
                  "dictionary.sparse_code", "dictionary.ksvd")
)

TRACE_METRICS = (
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
    ("setup.wall_s", "s"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: unit for name, _, _, unit in SPAN_METRICS}
    units.update((f"{layer}.self_s", "s") for layer in LAYERS)
    units.update((f"setup.{name}", unit) for name, _, _, unit in SETUP_SPAN_METRICS)
    units.update((f"setup.{layer}.self_s", "s") for layer in LAYERS)
    units.update(TRACE_METRICS)
    return units


def summarize(spans: list[Span], n_ops: int, rows=SPAN_METRICS, prefix: str = "") -> dict[str, float]:
    """Per-operation span metrics and per-layer self times over ``n_ops`` operations."""
    own = self_times(spans)
    acc: dict[tuple[str, str], float] = {}
    for span, self_s in zip(spans, own):
        for key, value in (("calls", 1), ("s", span.duration), ("self_s", self_s),
                           ("layer_self_s", self_s), *span.work.items()):
            slot = (span.layer if key == "layer_self_s" else span.name, key)
            acc[slot] = acc.get(slot, 0.0) + value
    out = {}
    for metric, name, fld, _ in rows:
        if fld == "fill":
            budget = acc.get((name, "budget"), 0.0)
            out[prefix + metric] = acc.get((name, "selected"), 0.0) / budget if budget else 0.0
        elif fld == "gflop":
            out[prefix + metric] = acc.get((name, "flop"), 0.0) / 1e9 / n_ops
        else:
            out[prefix + metric] = acc.get((name, fld), 0.0) / n_ops
    for layer in LAYERS:
        out[f"{prefix}{layer}.self_s"] = acc.get((layer, "layer_self_s"), 0.0) / n_ops
    return out
