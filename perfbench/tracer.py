"""Timing wrappers around mqsp's public functions, installed from outside.

The benchmark never edits the package.  ``Tracer.install`` replaces each
traced function with a wrapper wherever callers look it up: the defining
module, the package namespace and every module that bound a copy at import
(``from .engine import synthesize`` in ``mqsp.oracle``, ``mqsp.cli``, ...).
Methods are wrapped on their class.  A name the package no longer defines is
skipped, so its metrics are absent instead of crashing the run.

Per traced name the tracer keeps calls, busy time (summed wall time inside
calls) and child time (the part of busy time spent in traced callees).
Every call except the hot, leaf ``LaurentPoly`` products is also kept as a
span ``(id, name, start, end, parent, instance)`` in memory and written out
at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter

# (metric prefix, defining module, attribute); functions are rebound
# wherever the same object is found in a loaded mqsp module.
FUNCTIONS = [
    ("oracle.random_sequence", "mqsp.oracle", "random_sequence"),
    ("su2.evaluate_sequence", "mqsp.su2", "evaluate_sequence"),
    ("engine.synthesize", "mqsp.engine", "synthesize"),
    ("engine.run_decision", "mqsp.engine", "run_decision"),
    ("engine.effective_degrees", "mqsp.engine", "effective_degrees"),
    ("engine.find_phase", "mqsp.engine", "find_phase"),
    ("engine.reduce_step", "mqsp.engine", "reduce_step"),
    ("engine.check_necessary", "mqsp.engine", "check_necessary"),
    ("documents.load_pair", "mqsp.documents", "load_pair"),
    ("documents.load_sequence", "mqsp.documents", "load_sequence"),
    ("documents.save", "mqsp.documents", "save_pair"),
    ("documents.save", "mqsp.documents", "save_sequence"),
]

# (metric prefix, module, class, method)
METHODS = [
    ("laurent.mul", "mqsp.laurent", "LaurentPoly", "__mul__"),
    ("laurent.mul", "mqsp.laurent", "LaurentPoly", "__rmul__"),
    ("su2.is_normalized", "mqsp.su2", "PQPair", "is_normalized"),
    ("su2.compare", "mqsp.su2", "PQPair", "approx_eq"),
    ("su2.compare", "mqsp.su2", "PQPair", "max_deviation"),
]

# Called so often that a span each would dominate memory; aggregated only.
UNRECORDED = {"laurent.mul"}

FILTER_FLAGS = (
    "symmetry_p",
    "symmetry_q",
    "degree_equality",
    "p_nonzero",
    "parity_ok",
    "normalization_ok",
)

REJECT_REASONS = (("phase", "REASON_PHASE"), ("degree", "REASON_DEGREE"), ("base", "REASON_BASE"))


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.busy = Counter()
        self.child = Counter()
        self.counts = Counter()
        self.spans: list[tuple] = []
        self.instance = None
        self._stack: list[list] = []  # [name, span id, child seconds]
        self._next_id = 0
        self._restore: list[tuple] = []
        self.installed: set[str] = set()

    # -- recording -----------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` as a traced call named ``name``; returns its result."""
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1] if stack else None
        frame = [name, span_id, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            elapsed = end - start
            self.calls[name] += 1
            self.busy[name] += elapsed
            self.child[name] += frame[2]
            if parent is not None:
                parent[2] += elapsed
            if name not in UNRECORDED:
                self.spans.append(
                    (span_id, name, start, end, parent[1] if parent else None, self.instance)
                )

    def _wrap(self, name, fn, observe=None):
        call = self.call

        def wrapper(*args, **kwargs):
            result = call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name that the loaded package still defines."""
        importlib.import_module("mqsp")
        for name, module_name, attr in FUNCTIONS:
            module = _import(module_name)
            original = getattr(module, attr, None) if module else None
            if original is None:
                continue
            wrapper = self._wrap(name, original, self._observer(name))
            self.installed.add(name)
            for loaded in [m for k, m in sys.modules.items() if k.split(".")[0] == "mqsp"]:
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._restore.append((loaded, key, original))
                        setattr(loaded, key, wrapper)
        for name, module_name, cls_name, attr in METHODS:
            module = _import(module_name)
            cls = getattr(module, cls_name, None) if module else None
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                continue
            self._restore.append((cls, attr, original))
            self.installed.add(name)
            setattr(cls, attr, self._wrap(name, original, self._observer(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _observer(self, name):
        counts = self.counts
        if name == "laurent.mul":
            def observe(args, result):
                a, b = args
                if type(b) is type(a):
                    counts["laurent.mul.term_pairs"] += len(a) * len(b)
        elif name == "su2.evaluate_sequence":
            def observe(args, result):
                counts["su2.evaluate_sequence.terms_out"] += len(result.p) + len(result.q)
        elif name == "engine.find_phase":
            def observe(args, result):
                counts["engine.find_phase.matches"] += result is not None
        elif name == "engine.run_decision":
            engine = sys.modules["mqsp.engine"]
            reasons = {getattr(engine, const, None): label for label, const in REJECT_REASONS}

            def observe(args, result):
                for step in result.steps:
                    kind = type(step).__name__
                    if kind == "PhaseReduction":
                        counts["engine.levels"] += 1
                    elif kind == "IdentityPad":
                        counts["engine.pads"] += 1
                    elif kind == "Reject":
                        label = reasons.get(getattr(step, "reason", None), "other")
                        counts[f"engine.reject.{label}"] += 1
        elif name == "engine.check_necessary":
            def observe(args, result):
                for flag in FILTER_FLAGS:
                    if getattr(result, flag, True) is False:
                        counts[f"engine.filter.{flag}.fail"] += 1
        elif name == "documents.load_pair":
            def observe(args, result):
                counts["documents.pair_bytes"] += os.path.getsize(args[0])
        elif name == "documents.save":
            def observe(args, result):
                if len(args) >= 2 and type(args[0]).__name__ == "PQPair":
                    counts["documents.pair_bytes"] += os.path.getsize(args[1])
        else:
            return None
        return observe

    # -- child processes -----------------------------------------------------------

    def export(self) -> dict:
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "child": dict(self.child),
            "counts": dict(self.counts),
            "spans": self.spans,
            "installed": sorted(self.installed),
        }

    def merge(self, data: dict) -> None:
        """Fold a child process's export in, under the innermost open call."""
        self.calls.update(data["calls"])
        self.busy.update(data["busy"])
        self.child.update(data["child"])
        self.counts.update(data["counts"])
        self.installed.update(data["installed"])
        frame = self._stack[-1] if self._stack else None
        base = self._next_id
        for span_id, name, start, end, parent, _ in data["spans"]:
            if parent is not None:
                parent += base
            elif frame is not None:
                frame[2] += end - start
                parent = frame[1]
            self.spans.append((base + span_id, name, start, end, parent, self.instance))
            self._next_id = max(self._next_id, base + span_id + 1)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "instance"],
                       "spans": self.spans}, handle)
            handle.write("\n")

    # -- metrics -----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of every traced name that was installed."""
        out: dict[str, tuple[float, str]] = {}
        calls, busy, child = self.calls, self.busy, self.child

        def timed(name, *, with_calls=True, with_self=False):
            out[f"{name}.busy_s"] = (busy[name], "s")
            if with_calls:
                out[f"{name}.calls"] = (calls[name], "count")
            if with_self:
                out[f"{name}.self_s"] = (busy[name] - child[name], "s")

        installed = self.installed
        for name in ("oracle.random_sequence", "su2.evaluate_sequence", "laurent.mul",
                     "engine.effective_degrees", "engine.find_phase", "engine.reduce_step",
                     "engine.check_necessary"):
            if name in installed:
                timed(name)
        if "engine.run_decision" in installed:
            timed("engine.run_decision", with_self=True)
        for name in ("su2.is_normalized", "su2.compare", "documents.load_pair",
                     "documents.load_sequence", "documents.save"):
            if name in installed:
                timed(name, with_calls=False)
        if "engine.synthesize" in installed:
            out["engine.synthesize.assembly_s"] = (
                busy["engine.synthesize"] - child["engine.synthesize"], "s")
        if "engine.check_necessary" in installed:
            # check_necessary is the only caller of is_normalized that any
            # workload reaches, so all of its busy time is the filter's.
            norm = busy["su2.is_normalized"]
            out["engine.check_necessary.normalization_s"] = (norm, "s")
            out["engine.check_necessary.other_s"] = (busy["engine.check_necessary"] - norm, "s")
            for flag in FILTER_FLAGS:
                key = f"engine.filter.{flag}.fail"
                out[key] = (self.counts[key], "count")
        if "engine.find_phase" in installed:
            matches = self.counts["engine.find_phase.matches"]
            out["engine.find_phase.matches"] = (matches, "count")
            out["engine.find_phase.match_ratio"] = (
                matches / calls["engine.find_phase"] if calls["engine.find_phase"] else 0.0,
                "ratio")
        if "engine.run_decision" in installed:
            for key in ("engine.levels", "engine.pads") + tuple(
                    f"engine.reject.{label}" for label, _ in REJECT_REASONS):
                out[key] = (self.counts[key], "count")
        if "laurent.mul" in installed:
            out["laurent.mul.term_pairs"] = (self.counts["laurent.mul.term_pairs"], "count")
        if "su2.evaluate_sequence" in installed:
            out["su2.evaluate_sequence.terms_out"] = (
                self.counts["su2.evaluate_sequence.terms_out"], "count")
        if {"documents.load_pair", "documents.save"} <= installed:
            out["documents.pair_bytes"] = (self.counts["documents.pair_bytes"], "bytes")
        return out


def _import(module_name: str):
    try:
        return importlib.import_module(module_name)
    except ImportError:
        return None
