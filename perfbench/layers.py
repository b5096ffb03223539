"""Span recording around each layer's public entry points.

Used only by the traced run.  :class:`Instrumentation` swaps wrappers in
for the entry points listed below and restores the originals on exit; no
file of the program is edited.  Spans stay in memory (:class:`SpanLog`)
and are written out once, when the run ends.

Wrapped entry points, with the span name each records:

=============================================  =============================
``repro.compile_graph``                        ``compile``
``PassManager.run``                            ``graph_ir.passes``
each ``default_pipeline`` pass's ``run``       ``graph_ir.<pass>``
``select_matmul_params``                       ``templates.select``
``estimate_matmul_cost``                       counted, no span (hot path)
``lower_graph``                                ``lowering.lower_graph``
each Tensor IR pass's ``run``                  ``tensor_ir.<pass>``
the runtime executor constructors              ``runtime.executor_build``
``CompiledPartition.execute_with_stats``       ``runtime.execute``
``evaluate_graph``                             ``reference.evaluate``
=============================================  =============================

``execute`` delegates to ``execute_with_stats``, so wrapping the latter
sees every execution, including the serving layer's.  Each execute span
also carries its brgemm call count and matmul multiply-accumulates
(:attr:`SpanLog.macs_of`), and the first execution of each partition
keeps its :class:`ExecutionStats`.  Each reference span carries the
MACs of the graph it evaluated, so time per MAC compares the two.
Requests
(``InferenceSession.submit`` through Future completion) are recorded by
the serving workload itself with :meth:`SpanLog.record`.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

import repro
from common import matmul_macs
from repro.graph_ir.passes import PassManager, default_pipeline
from repro.graph_ir.reference import evaluate_graph
from repro.lowering.lower_graph import lower_graph
from repro.runtime.codegen import CodegenExecutor
from repro.runtime.executor import CompiledExecutor
from repro.runtime.partition import CompiledPartition
from repro.templates.cost_model import estimate_matmul_cost
from repro.templates.heuristics import select_matmul_params
from repro.tensor_ir.passes import (
    BufferReusePass,
    LoopMergePass,
    SimplifyPass,
    TensorShrinkPass,
)

TIR_PASSES = (SimplifyPass, LoopMergePass, TensorShrinkPass, BufferReusePass)

#: Marks a patched attribute the owner only inherited (restored by delattr).
_INHERITED = object()


def graph_pass_names() -> List[str]:
    return [p.name for p in default_pipeline()]


def tir_pass_names() -> List[str]:
    return [cls().name for cls in TIR_PASSES]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request",
                 "brgemm_calls", "macs")

    def __init__(self, id, name, start, parent, request=None):
        self.id = id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.request = request
        self.brgemm_calls = 0
        self.macs = 0

    @property
    def duration(self) -> float:
        return (self.end or self.start) - self.start


class SpanLog:
    """In-memory spans with per-thread parent tracking."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: Partitions ``compile_graph`` returned, in order.
        self.compiled: List[object] = []
        #: id(partition) -> (duration, ExecutionStats) of its first execute.
        self.first_exec: Dict[int, tuple] = {}
        #: MACs one execute does, given (partition, inputs); set by the
        #: workload, which knows the shapes.  None leaves them uncounted.
        self.macs_of: Callable[[object, dict], Optional[int]] = (
            lambda partition, inputs: None)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request=None) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else None
        span = Span(next(self._ids), name, time.perf_counter(), parent, request)
        stack.append(span)
        with self._lock:
            self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def record(self, name: str, start: float, end: float, request=None) -> Span:
        """A span measured elsewhere (e.g. across threads), with no parent."""
        span = Span(next(self._ids), name, start, None, request)
        span.end = end
        with self._lock:
            self.spans.append(span)
        return span

    def note_execute(self, partition, span: Span, inputs, stats) -> None:
        span.brgemm_calls = stats.brgemm_calls
        span.macs = self.macs_of(partition, inputs) or 0
        with self._lock:
            self.first_exec.setdefault(id(partition), (span.duration, stats))

    def in_compile(self) -> bool:
        stack = self._stack()
        return bool(stack) and stack[0].name == "compile"

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] += 1

    # -- analysis -------------------------------------------------------------

    def closed(self) -> List[Span]:
        return [s for s in self.spans if s.end is not None]

    def named(self, name: str, start: float = 0.0,
              end: float = float("inf")) -> List[Span]:
        """Closed spans called ``name`` that began in ``[start, end]``."""
        return [s for s in self.closed()
                if s.name == name and start <= s.start <= end]

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its children cover.

        Children of a span run on its thread, one after another, so their
        durations add without overlap.
        """
        child_time: Dict[int, float] = defaultdict(float)
        spans = self.closed()
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return {s.id: max(0.0, s.duration - child_time[s.id]) for s in spans}

    def descendants_of(self, names: Iterable[str]) -> List[Span]:
        """Spans nested (at any depth) under a span with one of ``names``."""
        by_id = {s.id: s for s in self.spans}
        roots = set(names)
        result = []
        for span in self.closed():
            parent = by_id.get(span.parent)
            while parent is not None:
                if parent.name in roots:
                    result.append(span)
                    break
                parent = by_id.get(parent.parent)
        return result

    def write(self, path: Path) -> None:
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "id": s.id,
                "request": s.request,
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows, "counts": self.counts}))


def layer_of(name: str) -> str:
    """The layer a span belongs to: its name up to the first dot."""
    return name.split(".")[0]


class Instrumentation:
    """Context manager installing span wrappers; restores on exit."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._undo: List[tuple] = []

    def __enter__(self) -> "Instrumentation":
        log = self.log
        self._patch_attr(PassManager, "run", self._spanned(
            PassManager.run, "graph_ir.passes"))
        for graph_pass in default_pipeline():
            cls = type(graph_pass)
            self._patch_attr(cls, "run", self._spanned(
                cls.run, f"graph_ir.{graph_pass.name}"))
        for cls in TIR_PASSES:
            self._patch_attr(cls, "run", self._spanned(
                cls.run, f"tensor_ir.{cls().name}"))
        for cls in (CompiledExecutor, CodegenExecutor):
            self._patch_attr(cls, "__init__", self._spanned(
                cls.__init__, "runtime.executor_build"))
        execute_with_stats = CompiledPartition.execute_with_stats

        @functools.wraps(execute_with_stats)
        def recorded_execute(partition, inputs, *args, **kwargs):
            span = log.begin("runtime.execute")
            try:
                outputs, stats = execute_with_stats(
                    partition, inputs, *args, **kwargs)
            finally:
                log.end(span)
            log.note_execute(partition, span, inputs, stats)
            return outputs, stats

        self._patch_attr(CompiledPartition, "execute_with_stats",
                         recorded_execute)
        compile_graph = self._spanned(repro.compile_graph, "compile")

        @functools.wraps(compile_graph)
        def recorded_compile(*args, **kwargs):
            partition = compile_graph(*args, **kwargs)
            log.compiled.append(partition)
            return partition

        self._replace_everywhere(repro.compile_graph, recorded_compile)
        self._patch_everywhere(select_matmul_params, "templates.select")
        self._patch_everywhere(lower_graph, "lowering.lower_graph")

        @functools.wraps(evaluate_graph)
        def recorded_evaluate(graph, *args, **kwargs):
            span = log.begin("reference.evaluate")
            try:
                return evaluate_graph(graph, *args, **kwargs)
            finally:
                log.end(span)
                span.macs = matmul_macs(graph)

        self._replace_everywhere(evaluate_graph, recorded_evaluate)

        @functools.wraps(estimate_matmul_cost)
        def counted_cost(*args, **kwargs):
            if log.in_compile():
                log.count("templates.cost_evals")
            return estimate_matmul_cost(*args, **kwargs)

        self._replace_everywhere(estimate_matmul_cost, counted_cost)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- patching -------------------------------------------------------------

    def _spanned(self, fn: Callable, name: str) -> Callable:
        log = self.log

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = log.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                log.end(span)

        return wrapper

    def _patch_attr(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, fn: Callable, name: str) -> None:
        self._replace_everywhere(fn, self._spanned(fn, name))

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind every module global of ``repro`` naming ``original``.

        Callers bind module-level functions at import
        (``from ..templates.heuristics import select_matmul_params``), so
        the wrapper must replace each of those names, wherever they live.
        """
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch_attr(module, attr, replacement)
