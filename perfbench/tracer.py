"""In-memory span tracer for the benchmark.

A span records its name, start, end and parent.  Spans come from two
places: ``Tracer.span`` around the benchmark's own phases, and wrappers that
``Tracer.wrap`` installs over public dspn functions in the namespace of the
module that calls them (``dspn.dynamic.forward`` is the binding
``rolling_forward`` looks up, ``dspn.structure.train_weights`` the one
``search`` looks up).  ``Tracer.restore`` puts every original back.  Nothing
under ``src/`` is changed.

A disabled tracer wraps nothing and its ``span`` is a no-op, so the untraced
run executes the library code unmodified.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# Every benchmark timing is CPU time of the benchmark process (user plus
# system, all threads).  dspn runs single-threaded here, so on an idle
# machine this equals wall time; unlike wall time it leaves out the time the
# process waits while other tenants of a shared host hold the CPU, and, on a
# guest whose kernel accounts steal time, the time the hypervisor takes.
clock = time.process_time


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: [name_id, start, end, parent]; parent -1 = root
        self.spans: list[list] = []
        self.meta: dict[int, object] = {}
        self._stack = [-1]
        self._originals: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([self._name_id(name), 0.0, 0.0, self._stack[-1]])
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        row = self.spans[idx]
        row[1] = clock()
        try:
            yield
        finally:
            row[2] = clock()
            self._stack.pop()

    def wrap(self, module_name: str, attr: str, name, meta=None) -> None:
        """Replace ``module.attr`` by a span-recording wrapper.

        ``name`` is a span name, or a callable of the call's positional
        arguments that returns one.  ``meta(args, kwargs, result)``, when
        given, returns a value kept for the span (a row count, an
        iteration cap)."""
        if not self.enabled:
            return
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        tracer = self
        fixed = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            idx = tracer._open(fixed or name(args))
            row = tracer.spans[idx]
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                tracer._stack.pop()
            if meta is not None:
                tracer.meta[idx] = meta(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        self._originals.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    # -- analysis ----------------------------------------------------------

    def name_of(self, idx: int) -> str:
        return self.names[self.spans[idx][0]]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct
        children.  Children of a synchronous call nest inside it, so this
        is the part of the interval no child span covers."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        selfs = self.self_times()
        agg: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (nid, start, end, _) in enumerate(self.spans):
            a = agg[self.names[nid]]
            a["calls"] += 1
            a["total_s"] += end - start
            a["self_s"] += selfs[i]
        return dict(agg)

    def write(self, path, extra: dict) -> None:
        """Write every span (and ``extra``) as one JSON document."""
        doc = dict(extra)
        doc["names"] = self.names
        doc["span_fields"] = ["name", "start_s", "end_s", "parent"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
