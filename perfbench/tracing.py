"""Spans around calls into kpod's layers, recorded from outside the package.

Each traced function is wrapped once, and the wrapper replaces every module
attribute that refers to the original. Calls that reach a function through
``from .kmeans import lloyd`` in ``kpod.mm`` are then timed as well as calls
made inside ``kpod.kmeans`` itself, which look the name up in their own module.

A span has a name, a start, an end and the span that was open when it began
(its parent). A span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# The public functions whose calls are traced, by the module (layer) that
# defines them.
TRACED = {
    "kmeans": ("assign_step", "update_step", "kmeans_objective", "kmeanspp_init", "lloyd"),
    "mm": ("kpod_fit",),
    "masked": ("fill_unobserved", "project_observed", "standardize"),
    "missingness": ("simulate_mixture", "ampute"),
    "baselines": ("mean_impute_cluster", "delete_cluster"),
    "evaluation": ("rand_index", "adjusted_rand_index"),
    "benchmark": ("run_benchmark",),
    "csv_io": ("read_masked_csv", "read_labels_csv", "write_masked_csv", "write_labels_csv"),
    "cli": ("cli",),
}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _note_assign(attrs, args, kwargs, result):
    n, p = _arg(args, kwargs, 0, "data").shape
    attrs["flops"] = 3 * n * _arg(args, kwargs, 1, "b").k * p


def _note_lloyd(attrs, args, kwargs, result):
    attrs["warm"] = kwargs.get("init") is not None
    attrs["converged"] = result.converged


def _note_fit(attrs, args, kwargs, result):
    attrs["rounds"] = result.mm_iterations


def _note_read(attrs, args, kwargs, result):
    attrs["bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))


def _note_write(attrs, args, kwargs, result):
    attrs["bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))


NOTES = {
    "kmeans.assign_step": _note_assign,
    "kmeans.lloyd": _note_lloyd,
    "mm.kpod_fit": _note_fit,
    "csv_io.read_masked_csv": _note_read,
    "csv_io.read_labels_csv": _note_read,
    "csv_io.write_masked_csv": _note_write,
    "csv_io.write_labels_csv": _note_write,
}


class Tracer:
    """Records spans in memory while installed; restores kpod when done."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _wrap(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if note is not None:
                note(span.attrs, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "kpod" or name.startswith("kpod."))]
        patched = []
        try:
            for layer, names in TRACED.items():
                home = importlib.import_module(f"kpod.{layer}")
                for fname in names:
                    original = getattr(home, fname)
                    wrapper = self._wrap(f"{layer}.{fname}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                patched.append((module, attr, value))
                                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer totals over every span of one traced section of ``wall`` seconds."""
    children = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.duration
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def total(*names):
        return sum((spans[i].duration for n in names for i in by_name.get(n, ())), 0.0)

    def self_time(*names):
        return sum((spans[i].duration - children[i] for n in names for i in by_name.get(n, ())), 0.0)

    def attr_sum(name, key):
        return sum(spans[i].attrs[key] for i in by_name.get(name, ()))

    assigns = by_name.get("kmeans.assign_step", ())
    fits = set(by_name.get("mm.kpod_fit", ()))
    cold = warm = 0
    for i in assigns:
        lloyd = spans[i].parent
        if lloyd is not None and spans[lloyd].parent in fits:
            if spans[lloyd].attrs["warm"]:
                warm += 1
            else:
                cold += 1
    warm_solves = [spans[i].attrs["converged"] for i in by_name.get("kmeans.lloyd", ())
                   if spans[i].parent in fits and spans[i].attrs["warm"]]
    rounds = attr_sum("mm.kpod_fit", "rounds")
    assign_s = total("kmeans.assign_step")
    flops = attr_sum("kmeans.assign_step", "flops")
    read_s = total("csv_io.read_masked_csv", "csv_io.read_labels_csv")
    write_s = total("csv_io.write_masked_csv", "csv_io.write_labels_csv")
    read_bytes = attr_sum("csv_io.read_masked_csv", "bytes") + attr_sum("csv_io.read_labels_csv", "bytes")
    write_bytes = attr_sum("csv_io.write_masked_csv", "bytes") + attr_sum("csv_io.write_labels_csv", "bytes")
    top_level = sum(span.duration for span in spans if span.parent is None)
    return {
        "kmeans.assign_s": assign_s,
        "kmeans.assign_flops": flops,
        "kmeans.assign_gflops": _ratio(flops / 1e9, assign_s),
        "kmeans.update_s": total("kmeans.update_step"),
        "kmeans.objective_s": total("kmeans.kmeans_objective"),
        "kmeans.seed_s": total("kmeans.kmeanspp_init"),
        "kmeans.lloyd_self_s": self_time("kmeans.lloyd"),
        "kmeans.sweeps": len(assigns),
        "mm.self_s": self_time("mm.kpod_fit"),
        "mm.rounds": rounds,
        "mm.cold_sweeps": cold,
        "mm.warm_sweeps_per_round": _ratio(warm, rounds),
        "mm.converged_ratio": _ratio(sum(warm_solves), len(warm_solves)),
        "masked.fill_s": total("masked.fill_unobserved"),
        "masked.project_s": total("masked.project_observed"),
        "masked.standardize_s": total("masked.standardize"),
        "missingness.ampute_s": total("missingness.ampute"),
        "missingness.simulate_s": total("missingness.simulate_mixture"),
        "baselines.mean_impute_s": total("baselines.mean_impute_cluster"),
        "baselines.delete_s": total("baselines.delete_cluster"),
        "evaluation.score_s": total("evaluation.rand_index", "evaluation.adjusted_rand_index"),
        "benchmark.self_s": self_time("benchmark.run_benchmark"),
        "csv_io.read_s": read_s,
        "csv_io.write_s": write_s,
        "csv_io.read_mb_per_s": _ratio(read_bytes / 1e6, read_s),
        "csv_io.write_mb_per_s": _ratio(write_bytes / 1e6, write_s),
        "cli.self_s": self_time("cli.cli"),
        "trace.untraced_s": wall - top_level,
        # Set by the workloads that measure them; zero where they do not apply.
        "benchmark.serial_runs_per_s": 0.0,
        "benchmark.parallel_efficiency": 0.0,
        "trace.overhead_s": 0.0,
        # Deterministic counts, printed for comparison across runs; not metrics.
        "csv_io.read_bytes": read_bytes,
        "csv_io.write_bytes": write_bytes,
    }
