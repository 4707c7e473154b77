"""Span tracing of phoscil's layers from outside the package, and its analysis.

``Tracer.install()`` replaces the public functions of ``params``,
``integrator``, ``gspt``, ``cycle`` and ``cli`` with wrappers that record
one span per call; ``uninstall()`` puts the originals back.  The ``model``
layer is the field objects that ``make_field*`` return: their calls are
far too many to record one by one (about half a million per fold-B job),
so the innermost open span sums them into one aggregate child span per
kind, carrying the call count and the busy seconds.

A span is a JSON object with ``id``, ``name`` (``<layer>.<what>``),
``start`` and ``end`` (``time.perf_counter``), ``parent`` (the id of the
span that caused it, or null), ``job`` and ``cpu`` (thread CPU seconds).
Aggregates carry ``calls`` and ``busy`` instead of ``cpu``; counted
return values (steps, events, ...) appear as extra keys.  The benchmark
worker adds one ``job`` span around every job, with ``traced`` telling
whether the wrappers were installed.

``layer_metrics()`` reads a written spans file.  A span's self time is
its duration minus the part of it that its children cover; a layer's
self time is the sum over its spans, in thread-seconds (the ``compare``
rows overlap on the thread pool).
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from contextlib import contextmanager

LAYERS = ("params", "model", "integrator", "gspt", "cycle", "cli")
#: span name -> the functions it times, as (module, attribute)
_FUNCTIONS = {
    "params.resolve": [("phoscil.params", "load_physical"),
                       ("phoscil.params", "derive_dimensionless"),
                       ("phoscil.params", "derive_eps_split")],
    "integrator.integrate": [("phoscil.integrator", "integrate")],
    "integrator.integrate_until_event": [("phoscil.integrator", "integrate_until_event")],
    "gspt.fold_passage_offset": [("phoscil.gspt", "fold_passage_offset")],
    "gspt.stability_scan": [("phoscil.gspt", "stability_scan")],
    "cycle.compare": [("phoscil.cycle", "compare")],
    "cycle.find_limit_cycle": [("phoscil.cycle", "find_limit_cycle")],
    "cli.main": [("phoscil.cli", "main")],
    "cli.write": [("phoscil._fmt", "write_csv"), ("phoscil._fmt", "write_json"),
                  ("phoscil.integrator", "export_trajectory")],
}
#: span name -> the methods it times, as (module, class, method)
_METHODS = {
    "cli.write": [("phoscil.gspt", "StabilityMap", "to_csv"),
                  ("phoscil.cycle", "CompareTable", "to_csv"),
                  ("phoscil.cycle", "CompareTable", "to_json")],
}
_FIELD_FACTORIES = ("make_field", "make_field_chart_A", "make_field_chart_B",
                    "make_field_reference")
#: span name -> counts taken from the call's return value
_COUNTS = {
    "integrator.integrate": lambda traj: {"steps": len(traj.t) - 1, "events": len(traj.events)},
    "cycle.find_limit_cycle": lambda rep: {"transient_periods": rep.n_transient_periods},
    "gspt.fold_passage_offset": lambda fs: {"passages": len(fs.entries)},
    "gspt.stability_scan": lambda sm: {"cells": int(sm.trace.size), "hopf_points": len(sm.hopf)},
}


class _Frame:
    __slots__ = ("record", "leaves")

    def __init__(self, record: dict):
        self.record = record
        self.leaves: dict[str, list] = {}  # kind -> [calls, busy, first start, last end]


class _TracedField:
    """A phoscil field whose calls (and Jacobian calls) are timed."""

    jac = None

    def __init__(self, field, tracer: "Tracer"):
        self._field = field
        self._tracer = tracer
        self.names = getattr(field, "names", ("y0", "y1"))
        if callable(getattr(field, "jac", None)):
            self.jac = self._jac

    def __call__(self, t, y):
        return self._tracer.leaf("model.f", self._field, t, y)

    def _jac(self, t, y):
        return self._tracer.leaf("model.jac", self._field.jac, t, y)


class Tracer:
    """Records spans in memory; ``write`` saves them as JSON lines."""

    def __init__(self):
        self.job: int | None = None
        self._records: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._undo: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _parent(self, stack: list[_Frame]) -> int | None:
        # a pool thread's first span belongs to the span that waits on the pool
        if stack:
            return stack[-1].record["id"]
        main = self._main_stack
        return main[-1].record["id"] if main else None

    @contextmanager
    def span(self, name: str):
        """Time the block as one span; yields its record, to which keys may be added."""
        stack = self._stack()
        record = {"id": next(self._ids), "name": name, "parent": self._parent(stack),
                  "job": self.job}
        frame = _Frame(record)
        stack.append(frame)
        cpu0 = time.thread_time()
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["cpu"] = time.thread_time() - cpu0
            stack.pop()
            self._records.append(record)
            for kind, (calls, busy, first, last) in frame.leaves.items():
                self._records.append({"id": next(self._ids), "name": kind, "start": first,
                                      "end": last, "parent": record["id"], "job": self.job,
                                      "calls": calls, "busy": busy})

    def leaf(self, kind: str, fn, *args):
        """Call ``fn`` and add its time to the innermost open span's aggregate."""
        start = time.perf_counter()
        out = fn(*args)
        end = time.perf_counter()
        stack = self._stack()
        if not stack:
            self._records.append({"id": next(self._ids), "name": kind, "start": start,
                                  "end": end, "parent": self._parent(stack), "job": self.job,
                                  "calls": 1, "busy": end - start})
            return out
        acc = stack[-1].leaves.get(kind)
        if acc is None:
            stack[-1].leaves[kind] = [1, end - start, start, end]
        else:
            acc[0] += 1
            acc[1] += end - start
            acc[3] = end
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for record in self._records:
                fh.write(json.dumps(record) + "\n")

    # --- installing the wrappers -------------------------------------------------

    def _wrap(self, name: str, fn):
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as info:
                result = fn(*args, **kwargs)
                if count is not None:
                    info.update(count(result))
            return result
        return traced

    def _wrap_factory(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TracedField(fn(*args, **kwargs), self)
        return traced

    def _replace_everywhere(self, original, wrapper) -> None:
        # modules bind each other's functions at import, so patch every binding
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "phoscil" and not mod_name.startswith("phoscil."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> "Tracer":
        for name, targets in _FUNCTIONS.items():
            for mod_name, attr in targets:
                original = getattr(importlib.import_module(mod_name), attr)
                self._replace_everywhere(original, self._wrap(name, original))
        for name, targets in _METHODS.items():
            for mod_name, cls_name, attr in targets:
                cls = getattr(importlib.import_module(mod_name), cls_name)
                self._undo.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, self._wrap(name, cls.__dict__[attr]))
        model = importlib.import_module("phoscil.model")
        for attr in _FIELD_FACTORIES:
            original = getattr(model, attr)
            self._replace_everywhere(original, self._wrap_factory(original))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# --- analysis of a spans file ------------------------------------------------------

def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _covered(span: dict, children: list[dict]) -> float:
    """Seconds of ``span`` covered by its children (aggregates by busy time)."""
    busy = sum(c["busy"] for c in children if "busy" in c)
    intervals = sorted((max(c["start"], span["start"]), min(c["end"], span["end"]))
                       for c in children if "busy" not in c)
    total, reach = 0.0, -float("inf")
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return busy + total


def _job_metrics(spans: list[dict], job: dict) -> dict[str, float]:
    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    by_name: dict[str, list[dict]] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        own = s["busy"] if "busy" in s else (
            s["end"] - s["start"] - _covered(s, children.get(s["id"], [])))
        layer = s["name"].split(".")[0]
        self_s[layer] = self_s.get(layer, 0.0) + max(own, 0.0)

    def total(name, key=None):
        return float(sum((s[key] if key else s["end"] - s["start"]) for s in by_name.get(name, [])))

    names = {s["id"]: s["name"] for s in spans}
    f_calls, jac_calls = total("model.f", "calls"), total("model.jac", "calls")
    steps = total("integrator.integrate", "steps")
    per_step = (lambda x: x / steps) if steps else (lambda x: 0.0)
    rows = by_name.get("cycle.find_limit_cycle", [])
    m = {
        "params.resolve_s": total("params.resolve"),
        "model.f_calls": f_calls,
        "model.jac_calls": jac_calls,
        "model.f_s": total("model.f", "busy"),
        "model.jac_s": total("model.jac", "busy"),
        "integrator.calls": float(len(by_name.get("integrator.integrate", []))),
        "integrator.steps": steps,
        "integrator.events": total("integrator.integrate", "events"),
        "integrator.step_us": per_step(self_s.get("integrator", 0.0) * 1e6),
        "integrator.f_per_step": per_step(f_calls),
        "integrator.jac_per_step": per_step(jac_calls),
        "cycle.compare_s": total("cycle.compare"),
        "cycle.rows_s": total("cycle.find_limit_cycle"),
        "cycle.row_wait_s": float(sum(s["end"] - s["start"] - s["cpu"] for s in rows)),
        "cycle.transient_periods": total("cycle.find_limit_cycle", "transient_periods"),
        "gspt.fold_passage_s": total("gspt.fold_passage_offset"),
        "gspt.passages": total("gspt.fold_passage_offset", "passages"),
        "gspt.scan_s": total("gspt.stability_scan"),
        "gspt.scan_cells": total("gspt.stability_scan", "cells"),
        "gspt.hopf_points": total("gspt.stability_scan", "hopf_points"),
        "cli.main_s": total("cli.main"),
        "cli.write_s": float(sum(s["end"] - s["start"] for s in by_name.get("cli.write", [])
                                 if names.get(s["parent"]) != "cli.write")),
        "cli.out_bytes": float(job["out_bytes"]),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return m


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics: the median over traced jobs of each job's value.

    Also the tracing overhead: the median traced ``job`` span minus the
    median untraced one.
    """
    jobs = [r for r in records if r["name"] == "job"]
    traced = [j for j in jobs if j["traced"]]
    untraced = [j for j in jobs if not j["traced"]]
    if not traced or not untraced:
        raise ValueError("the spans file needs traced and untraced job spans")
    per_job = [_job_metrics([r for r in records if r["job"] == j["job"] and r["name"] != "job"], j)
               for j in traced]
    metrics = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
    traced_s = statistics.median(j["end"] - j["start"] for j in traced)
    untraced_s = statistics.median(j["end"] - j["start"] for j in untraced)
    metrics.update({"trace.job_s": traced_s, "trace.untraced_job_s": untraced_s,
                    "trace.overhead_s": traced_s - untraced_s})
    return metrics
