"""Span recording around calls into the program's layers, from outside.

The traced run installs wrappers over public functions and methods of
``repro`` (see :data:`LAYER_CALLS`); nothing under ``src/`` changes. Each
wrapped call records a :class:`Span` (name, start, end, parent span and,
for serve traffic, the request it belongs to). Spans are kept in memory
and written out when the run ends. A layer's self time is its spans'
durations minus the part of each interval that its child spans cover.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

_current_span: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)
#: Request id of the serve request whose task is running (set by the
#: open-loop load generator); spans opened in that task carry it.
current_request: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_request", default=None
)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    ok: bool
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store; appends are safe from executor threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        #: Query bytes -> ids of the open serve requests carrying them.
        self.inflight: dict[bytes, set[int]] = {}

    def open(self) -> tuple[int, int | None, contextvars.Token]:
        span_id = next(self._ids)
        parent = _current_span.get()
        return span_id, parent, _current_span.set(span_id)

    def close(self, opened, name, start, ok, attrs) -> None:
        span_id, parent, token = opened
        end = time.perf_counter()
        _current_span.reset(token)
        self.spans.append(
            Span(span_id, name, start, end, parent, current_request.get(), ok, attrs)
        )

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Context manager for the benchmark's own phase spans."""
        opened = self.open()
        start = time.perf_counter()
        ok = False
        try:
            yield
            ok = True
        finally:
            self.close(opened, name, start, ok, attrs)

    def wrap(self, name: str, fn, attrs_of=None):
        """A wrapper of ``fn`` that records one span per call."""
        recorder = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                opened = recorder.open()
                start = time.perf_counter()
                ok = False
                try:
                    result = await fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    attrs = attrs_of(args, kwargs) if attrs_of else {}
                    recorder.close(opened, name, start, ok, attrs)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = recorder.open()
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                attrs = attrs_of(args, kwargs) if attrs_of else {}
                recorder.close(opened, name, start, ok, attrs)

        return wrapper

    def wrap_iter(self, name: str, fn):
        """Wrap a method returning an iterator: one span per ``next()``."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                opened = recorder.open()
                start = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    recorder.close(opened, name, start, True, {"items": 0})
                    return
                recorder.close(opened, name, start, True, {"items": 1})
                yield item

        return wrapper

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span.span_id] = span.duration - covered
        return out

    def by_id(self) -> dict[int, Span]:
        return {span.span_id: span for span in self.spans}

    def write_jsonl(self, path: str, manifest: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"manifest": manifest}) + "\n")
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.span_id, "name": span.name,
                    "start": span.start, "end": span.end,
                    "parent": span.parent, "request": span.request,
                    "ok": span.ok, **({"attrs": span.attrs} if span.attrs else {}),
                }, default=str) + "\n")


def phase(recorder: SpanRecorder | None):
    """``recorder.span`` in traced runs, a no-op context otherwise."""
    if recorder is None:
        return lambda name, **attrs: contextlib.nullcontext()
    return recorder.span


def _rows(args, kwargs) -> dict:
    """Row count of the query/feature array passed to a wrapped call."""
    for value in list(args[1:]) + list(kwargs.values()):
        shape = getattr(value, "shape", None)
        if shape is not None and len(shape) >= 1:
            return {"rows": int(shape[0])}
    return {}


def _rows_first(args, kwargs) -> dict:
    """Like :func:`_rows` for plain functions (no ``self``)."""
    return _rows((None, *args), kwargs)


def _segments(args, kwargs) -> dict:
    """Rows of a mutable search, and the segments it had to scan."""
    return {**_rows(args, kwargs), "segments": int(args[0].num_segments)}


#: (module, attribute path, span name, kind, attrs extractor). ``kind`` is
#: "method" (patched on the class), "classmethod", "iter" (one span per
#: ``next``), or "function" (rebound in every loaded ``repro`` module that
#: imported it by name, so call sites that did ``from x import f`` see the
#: wrapper too).
LAYER_CALLS = [
    ("repro.data.loader", "DataLoader.__iter__", "data.loader.fetch", "iter", None),
    ("repro.core.model", "LightLT.forward", "core.model.forward", "method", None),
    ("repro.core.model", "LightLT.embed", "core.model.embed", "method", _rows),
    ("repro.core.model", "LightLT.encode", "core.model.encode", "method", _rows),
    ("repro.core.losses", "LightLTCriterion.forward", "core.losses.criterion", "method", None),
    ("repro.nn.tensor", "Tensor.backward", "nn.tensor.backward", "method", None),
    ("repro.nn.optim", "AdamW.step", "nn.optim.step", "method", None),
    ("repro.nn.optim", "AdamW.zero_grad", "nn.optim.zero_grad", "method", None),
    ("repro.core.trainer", "clip_gradients", "core.trainer.clip_gradients", "function", None),
    ("repro.core.warmstart", "warm_start_codebooks", "core.warmstart.codebooks", "function", None),
    ("repro.cluster.kmeans", "kmeans", "cluster.kmeans", "function", _rows_first),
    ("repro.retrieval.adc", "build_lookup_tables", "retrieval.adc.lut_build", "function", _rows_first),
    ("repro.retrieval.index", "QuantizedIndex.build", "retrieval.index.build", "classmethod", None),
    ("repro.retrieval.lut_cache", "LUTCache.tables", "retrieval.adc.lut_build", "method", _rows),
    ("repro.retrieval.engine", "QueryEngine.search_with_distances", "retrieval.engine.search", "method", _rows),
    ("repro.retrieval.ivf", "IVFIndex.build", "retrieval.ivf.build", "classmethod", None),
    ("repro.retrieval.ivf", "IVFIndex.search_with_distances", "retrieval.ivf.search", "method", _rows),
    ("repro.retrieval.mutable", "MutableIndex.add", "retrieval.mutable.add", "method", _rows),
    ("repro.retrieval.mutable", "MutableIndex.remove", "retrieval.mutable.remove", "method", None),
    ("repro.retrieval.mutable", "MutableIndex.compact", "retrieval.mutable.compact", "method", None),
    ("repro.retrieval.mutable", "MutableIndex.search_with_distances", "retrieval.mutable.search", "method", _segments),
    ("repro.serving.replica", "Replica.search", "serving.replica.search", "method", None),
    ("repro.serving.replica", "Replica.ping", "serving.replica.ping", "method", None),
    ("repro.serving.daemon", "ServingDaemon.submit", "serving.daemon.submit", "method", None),
    ("repro.serving.daemon", "ServingDaemon.mutate", "serving.daemon.mutate", "method", None),
]


class installed:
    """Context manager: install every layer wrapper, restore on exit."""

    def __init__(self, recorder: SpanRecorder, extra_attrs: dict | None = None):
        self.recorder = recorder
        #: span name -> attrs extractor overriding the table's (the serve
        #: workloads attach request ids to replica scans this way).
        self.extra_attrs = extra_attrs or {}
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> SpanRecorder:
        rec = self.recorder
        for module_name, path, name, kind, attrs_of in LAYER_CALLS:
            attrs_of = self.extra_attrs.get(name, attrs_of)
            module = importlib.import_module(module_name)
            if kind == "function":
                original = getattr(module, path)
                wrapper = rec.wrap(name, original, attrs_of)
                for loaded in list(sys.modules.values()):
                    if not getattr(loaded, "__name__", "").startswith("repro"):
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            self._set(loaded, attr, wrapper)
                continue
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if kind == "classmethod":
                wrapped = classmethod(rec.wrap(name, raw.__func__, attrs_of))
            elif kind == "iter":
                wrapped = rec.wrap_iter(name, raw)
            else:
                wrapped = rec.wrap(name, raw, attrs_of)
            self._set(cls, attr, wrapped)
        return rec

    def __exit__(self, *exc) -> bool:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False
