"""Span recorder for the traced benchmark run.

The recorder wraps public functions of perpetua from outside the package:
every ``perpetua.*`` module attribute that holds a target function is rebound
to one wrapper (harness, passage and runner import by name, so patching the
defining module alone would miss their calls), and the targeted
``StepEngine`` / ``LevyTriplet`` methods are replaced on the class.
``traced()`` restores every original binding on exit.

A span records name, start, end, thread and parent.  A thread with no open
span of its own (a harness worker) takes the open check span as its parent,
so per-path work done on the pool is charged to the check that started it.
Spans stay in memory; ``write_spans`` saves them once the run is over.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Recorder",
    "TARGETS",
    "traced",
    "union_length",
    "self_times",
    "layer_metrics",
    "write_spans",
]

CHECKS = ("zero_one", "occupation", "overshoot", "invariance", "lln")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = float("nan")
    cpu_start: float | None = None  # process CPU clock, check spans only
    cpu_end: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from any thread; appends are atomic under the GIL."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._open_check: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, check: bool = False) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._open_check
        span = Span(
            id=next(self._ids),
            name=name,
            parent=None if parent is None else parent.id,
            thread=threading.get_ident(),
            start=0.0,
        )
        self.spans.append(span)
        stack.append(span)
        if check:
            self._open_check = span
            span.cpu_start = time.process_time()
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if span.cpu_start is not None:
            span.cpu_end = time.process_time()
            self._open_check = None
        self._stack().pop()


# ---------------------------------------------------------------------------
# what gets wrapped

def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _sample_path_attrs(args, kwargs, result):
    return {"steps": int(result.times.size - 1)}


def _draw_attrs(args, kwargs, result):
    # method wrapper: args[0] is the engine, args[2] the step count
    return {"steps": int(_arg(args, kwargs, 2, "n")), "jumps": int(result[2][1].size)}


def _local_time_field_attrs(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    return {"cells": int((path.values.size - 1) * result.x_grid.size)}


def _first_passage_attrs(args, kwargs, result):
    return {
        "dt": float(_arg(args, kwargs, 4, "dt", 1e-2)),
        "passage_time": result.passage_time,
    }


def _char_exponent_attrs(args, kwargs, result):
    # numpy is already loaded whenever the triplet layer runs
    return {"points": int(sys.modules["numpy"].size(_arg(args, kwargs, 1, "lam")))}


# (module, attribute or Class.method, span name, attribute extractor, check span)
TARGETS = (
    ("perpetua.config", "load_config", "config.load_config", None, False),
    ("perpetua.runner", "run_experiment", "runner.run_experiment", None, False),
    ("perpetua.runner", "write_report", "runner.write_report", None, False),
    ("perpetua.harness", "finiteness_probability", "harness.zero_one", None, True),
    ("perpetua.harness", "occupation_identity_check", "harness.occupation", None, True),
    ("perpetua.harness", "overshoot_stationarity_check", "harness.overshoot", None, True),
    ("perpetua.harness", "local_time_law_invariance_check", "harness.invariance", None, True),
    ("perpetua.harness", "lln_envelope_check", "harness.lln", None, True),
    ("perpetua.simulate", "sample_path", "simulate.sample_path", _sample_path_attrs, False),
    ("perpetua.simulate", "perpetual_estimate", "simulate.perpetual_estimate", None, False),
    ("perpetua.simulate", "local_time_field", "simulate.local_time_field",
     _local_time_field_attrs, False),
    ("perpetua.simulate", "StepEngine.__init__", "simulate.StepEngine.init", None, False),
    ("perpetua.simulate", "StepEngine.draw", "simulate.StepEngine.draw", _draw_attrs, False),
    ("perpetua.passage", "first_passage", "passage.first_passage", _first_passage_attrs, False),
    ("perpetua.passage", "overshoot_ensemble", "passage.overshoot_ensemble", None, False),
    ("perpetua.passage", "stationary_overshoot", "passage.stationary_overshoot", None, False),
    ("perpetua.analysis", "perpetual_verdict", "analysis.perpetual_verdict", None, False),
    ("perpetua.analysis", "local_time_criterion", "analysis.local_time_criterion", None, False),
    ("perpetua.analysis", "tail_integral_test", "analysis.tail_integral_test", None, False),
    ("perpetua.analysis", "potential_density", "analysis.potential_density", None, False),
    ("perpetua.analysis", "expectation_upper_bound", "analysis.expectation_upper_bound",
     None, False),
    ("perpetua.triplet", "LevyTriplet.char_exponent", "triplet.char_exponent",
     _char_exponent_attrs, False),
    ("perpetua.triplet", "LevyTriplet.validate", "triplet.validate", None, False),
    ("perpetua.rng", "derive_seed", "rng.derive_seed", None, False),
    ("perpetua.rng", "stream", "rng.stream", None, False),
)


def _wrap(recorder: Recorder, fn, name: str, extract, check: bool):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name, check)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if extract is not None:
            span.attrs = extract(args, kwargs, result)
        return result

    return wrapper


@contextlib.contextmanager
def traced(recorder: Recorder, targets=TARGETS):
    """Rebind every target to a span-recording wrapper; restore on exit."""
    saved: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, name, extract, check in targets:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                saved.append((cls, method, original))
                setattr(cls, method, _wrap(recorder, original, name, extract, check))
                continue
            original = getattr(module, attr)
            wrapper = _wrap(recorder, original, name, extract, check)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "perpetua" or mod_name.startswith("perpetua.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield recorder
    finally:
        for owner, key, original in reversed(saved):
            setattr(owner, key, original)


# ---------------------------------------------------------------------------
# reading spans

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals.

    Children running concurrently on several threads overlap; counting the
    union keeps self time non-negative and equal to the time no child ran.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children.get(s.id, ())]
        covered = union_length([(lo, hi) for lo, hi in kids if hi > lo])
        out[s.id] = s.duration - covered
    return out


def layer_metrics(spans: list[Span], wall_s: float, harness_threads: int) -> dict[str, float]:
    """Per-layer metrics of one traced section lasting wall_s seconds."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    own = self_times(spans)
    by_id = {s.id: s for s in spans}

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(*names):
        return sum(own[s.id] for n in names for s in by_name.get(n, ()))

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    def incl_frac(name):
        cover = union_length([(s.start, s.end) for s in by_name.get(name, ())])
        return cover / wall_s

    m: dict[str, float] = {}
    ltf = "simulate.local_time_field"
    ltf_time = union_length([(s.start, s.end) for s in by_name.get(ltf, ())])
    cells = total(ltf, "cells")
    m.update({
        f"{ltf}.calls": calls(ltf),
        f"{ltf}.cells": cells,
        f"{ltf}.self_s": self_s(ltf),
        f"{ltf}.cells_per_s": cells / ltf_time if ltf_time > 0 else 0.0,
        f"{ltf}.incl_frac": incl_frac(ltf),
    })

    fp = "passage.first_passage"
    drawn_by_passage: dict[int, int] = {}
    for s in by_name.get("simulate.StepEngine.draw", ()):
        if s.parent is not None and by_id[s.parent].name == fp:
            drawn_by_passage[s.parent] = drawn_by_passage.get(s.parent, 0) + s.attrs["steps"]
    drawn = used = 0.0
    not_reached = 0
    for s in by_name.get(fp, ()):
        n = drawn_by_passage.get(s.id, 0)
        drawn += n
        t = s.attrs.get("passage_time")
        if t is None:
            not_reached += 1
            used += n
        else:
            used += min(n, t / s.attrs["dt"])
    m.update({
        f"{fp}.calls": calls(fp),
        f"{fp}.self_s": self_s(fp),
        f"{fp}.steps_drawn": drawn,
        f"{fp}.step_yield": used / drawn if drawn else 0.0,
        f"{fp}.not_reached": not_reached,
        f"{fp}.incl_frac": incl_frac(fp),
    })

    for name in ("passage.overshoot_ensemble", "passage.stationary_overshoot",
                 "simulate.StepEngine.init", "simulate.perpetual_estimate",
                 "analysis.perpetual_verdict", "analysis.local_time_criterion",
                 "analysis.tail_integral_test", "analysis.potential_density",
                 "analysis.expectation_upper_bound"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["analysis.potential_density.incl_frac"] = incl_frac("analysis.potential_density")

    sp, dr, ce = "simulate.sample_path", "simulate.StepEngine.draw", "triplet.char_exponent"
    m.update({
        f"{sp}.calls": calls(sp),
        f"{sp}.steps": total(sp, "steps"),
        f"{sp}.self_s": self_s(sp),
        f"{dr}.calls": calls(dr),
        f"{dr}.steps": total(dr, "steps"),
        f"{dr}.jumps": total(dr, "jumps"),
        f"{dr}.self_s": self_s(dr),
        f"{ce}.calls": calls(ce),
        f"{ce}.points": total(ce, "points"),
        f"{ce}.self_s": self_s(ce),
        "triplet.validate.calls": calls("triplet.validate"),
    })

    for check in CHECKS:
        spans_c = by_name.get(f"harness.{check}", ())
        wall = sum(s.duration for s in spans_c)
        cpu = sum(s.cpu_end - s.cpu_start for s in spans_c)
        m[f"harness.{check}.s"] = wall
        m[f"harness.{check}.thread_util"] = cpu / (wall * harness_threads) if wall > 0 else 0.0

    m.update({
        "rng.derive_seed.calls": calls("rng.derive_seed"),
        "rng.stream.calls": calls("rng.stream"),
        "rng.self_s": self_s("rng.derive_seed", "rng.stream"),
        "runner.run_experiment.self_s": self_s("runner.run_experiment"),
        "runner.write_report.self_s": self_s("runner.write_report"),
        "config.load_config.s": sum(s.duration for s in by_name.get("config.load_config", ())),
    })
    return m


def write_spans(path, spans: list[Span]) -> None:
    """One JSON object per span, in open order."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({
                "id": s.id, "name": s.name, "parent": s.parent, "thread": s.thread,
                "start": s.start, "end": s.end, "attrs": s.attrs,
            }) + "\n")
