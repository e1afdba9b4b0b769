"""Spans around dtmil's public functions, installed from outside the package.

dtmil's modules import each other's functions by name (``from .qp import
solve_box_qp``), so a wrapper on the defining module alone would miss most
calls.  ``Tracer.install`` replaces the function at every attribute of every
loaded dtmil module that refers to it, then checks that each call site in
``CALL_SITES`` was among them.  A function renamed or moved by a refactor makes
the traced run fail instead of reporting zero for its layer.

Spans are kept in memory.  A span records its name, start, end, parent span,
and the unit it belongs to, plus counts taken from the call's arguments and
result.  Self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import dtmil.cli  # noqa: F401  (not imported by the package itself; its call sites must be loaded)


def _qp_counts(args, result):
    return {"sweeps": result.iterations, "converged": int(result.converged)}


def _codeword_counts(args, result):
    return {"steps": args["hyper"].inner_iters}


def _fit_counts(args, result):
    _, report = result
    return {
        "outer_rounds": report.outer_iterations,
        "converged": int(report.converged),
        "final_dual": report.final_dual_value,
    }


def _accuracy_counts(args, result):
    return {"bags": len(args["bags"])}


def _saved_counts(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _loaded_counts(args, result):
    return {"bytes": os.path.getsize(args["path"]), "bags": len(result)}


# (defining module, function, span name, counts taken on return)
TRACED = (
    ("dtmil.qp", "solve_box_qp", "qp.solve", _qp_counts),
    ("dtmil.learn", "update_codeword", "learn.codeword", _codeword_counts),
    ("dtmil.learn", "fit_dtc", "learn.fit", _fit_counts),
    ("dtmil.learn", "train_source", "learn.train_source", None),
    ("dtmil.core", "embed_bag", "core.embed", None),
    ("dtmil.core", "score_source", "core.score", None),
    ("dtmil.core", "score_target", "core.score", None),
    ("dtmil.evaluate", "accuracy", "evaluate.accuracy", _accuracy_counts),
    ("dtmil.evaluate", "run_protocol", "evaluate.protocol", None),
    ("dtmil.data", "generate_synthetic", "data.synth", None),
    ("dtmil.data", "save_dataset", "data.save_dataset", _saved_counts),
    ("dtmil.data", "load_dataset", "data.load_dataset", _loaded_counts),
    ("dtmil.data", "load_model", "data.model_io", None),
    ("dtmil.data", "save_model", "data.model_io", None),
    ("dtmil.cli", "run_cli", "cli.command", None),
)

# Module attributes through which the workloads reach each traced function:
# the package namespace the harness calls, and every module that imports the
# function by name and calls it.
CALL_SITES = {
    "solve_box_qp": ("dtmil.learn",),
    "update_codeword": ("dtmil.learn",),
    "fit_dtc": ("dtmil", "dtmil.evaluate", "dtmil.cli"),
    "train_source": ("dtmil", "dtmil.evaluate", "dtmil.cli"),
    "embed_bag": ("dtmil.core", "dtmil.cli"),
    "score_source": ("dtmil.core", "dtmil.learn", "dtmil.evaluate"),
    "score_target": ("dtmil.evaluate",),
    "accuracy": ("dtmil", "dtmil.evaluate", "dtmil.cli"),
    "run_protocol": ("dtmil", "dtmil.cli"),
    "generate_synthetic": ("dtmil", "dtmil.cli"),
    "save_dataset": ("dtmil.cli",),
    "load_dataset": ("dtmil.cli",),
    "load_model": ("dtmil.cli", "dtmil.data"),
    "save_model": ("dtmil", "dtmil.cli"),
    "run_cli": ("dtmil.cli",),
}


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    unit: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while a unit is open; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._unit: int | None = None
        self._replaced: list[tuple] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self._unit, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def unit(self, unit_id: int):
        """Open the root span of one unit; spans inside it share ``unit_id``."""
        self._unit = unit_id
        span = self._open("unit")
        try:
            yield
        finally:
            self._close(span)
            self._unit = None

    def _wrap(self, fn, name: str, counts):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if self._unit is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span.counts = counts(signature.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a dtmil module refers to it.

        Raises RuntimeError if a traced function is missing or a listed call
        site does not refer to it.
        """
        modules = {name: mod for name, mod in sys.modules.items() if name == "dtmil" or name.startswith("dtmil.")}
        wrapped_sites = set()
        missing = []
        for module_name, func_name, span_name, counts in TRACED:
            original = getattr(importlib.import_module(module_name), func_name, None)
            if original is None:
                missing.append(f"{module_name}.{func_name} (no longer defined)")
                continue
            wrapper = self._wrap(original, span_name, counts)
            for mod_name, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._replaced.append((mod, attr, original))
                        wrapped_sites.add((func_name, mod_name))
        missing += sorted(
            f"{mod}.{func}" for func, mods in CALL_SITES.items() for mod in mods if (func, mod) not in wrapped_sites
        )
        if missing:
            self.uninstall()
            raise RuntimeError(f"call sites not wrapped: {', '.join(missing)}")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._replaced):
            setattr(mod, attr, original)
        self._replaced.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one unit from its spans (the root span included)."""
    child_time: dict[int, float] = {}
    by_id = {span.id: span for span in spans}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration

    def select(name):
        return [s for s in spans if s.name == name]

    def self_time(name):
        return sum(s.duration - child_time.get(s.id, 0.0) for s in select(name))

    def total_time(name):
        return sum(s.duration for s in select(name))

    def count_sum(name, key):
        return sum(s.counts.get(key, 0) for s in select(name))

    def frac(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    solves, fits = select("qp.solve"), select("learn.fit")
    outer_scores = [s for s in select("core.score") if by_id[s.parent].name != "core.score"]
    root = select("unit")[0]
    return {
        "qp.solves": len(solves),
        "qp.solve_s": self_time("qp.solve"),
        "qp.sweeps": count_sum("qp.solve", "sweeps"),
        "qp.converged_frac": frac(count_sum("qp.solve", "converged"), len(solves)),
        "learn.codeword_updates": len(select("learn.codeword")),
        "learn.descent_steps": count_sum("learn.codeword", "steps"),
        "learn.codeword_s": self_time("learn.codeword"),
        "learn.fits": len(fits),
        "learn.fit_s": total_time("learn.fit"),
        "learn.fit_self_s": self_time("learn.fit"),
        "learn.outer_rounds": count_sum("learn.fit", "outer_rounds"),
        "learn.fit_converged_frac": frac(count_sum("learn.fit", "converged"), len(fits)),
        "learn.final_dual": frac(count_sum("learn.fit", "final_dual"), len(fits)),
        "learn.train_source_calls": len(select("learn.train_source")),
        "learn.train_source_s": total_time("learn.train_source"),
        "core.embed_calls": len(select("core.embed")),
        "core.embed_s": self_time("core.embed"),
        "core.score_calls": len(outer_scores),
        "core.score_s": sum(s.duration for s in outer_scores),
        "evaluate.accuracy_calls": len(select("evaluate.accuracy")),
        "evaluate.bags_scored": count_sum("evaluate.accuracy", "bags"),
        "evaluate.accuracy_s": total_time("evaluate.accuracy"),
        "evaluate.protocol_self_s": self_time("evaluate.protocol"),
        "data.synth_s": total_time("data.synth"),
        "data.save_dataset_s": total_time("data.save_dataset"),
        "data.bytes_written": count_sum("data.save_dataset", "bytes"),
        "data.load_dataset_s": total_time("data.load_dataset"),
        "data.bytes_read": count_sum("data.load_dataset", "bytes"),
        "data.bags_loaded": count_sum("data.load_dataset", "bags"),
        "data.model_io_s": total_time("data.model_io"),
        "cli.commands": len(select("cli.command")),
        "cli.command_s": total_time("cli.command"),
        "cli.self_s": self_time("cli.command"),
        "trace.spans": len(spans),
        "trace.unattributed_frac": frac(self_time("unit"), root.duration),
    }


def mean_layer_metrics(spans: list[Span]) -> dict:
    """``layer_metrics`` of each unit, averaged over the units."""
    units: dict[int, list[Span]] = {}
    for span in spans:
        units.setdefault(span.unit, []).append(span)
    per_unit = [layer_metrics(unit_spans) for unit_spans in units.values()]
    return {key: statistics.fmean(m[key] for m in per_unit) for key in per_unit[0]}
