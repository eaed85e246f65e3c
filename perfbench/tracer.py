"""Outside-in tracing: wrap netmon functions at the names callers bind.

Nothing in netmon knows it is traced.  ``Tracer.span`` replaces a
module attribute such as ``netmon.cli.resolve_all`` with a wrapper that
records one span per call (name, start, end, parent, self time); a span's
self time is its duration minus the durations of the spans it caused.
``Tracer.count`` replaces an attribute with a wrapper that only counts
calls, for functions too hot to time one by one.  Counters are guarded
by a lock because ``resolve_all`` resolves from a thread pool.
``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from collections import Counter
from time import perf_counter
from typing import Callable, Optional

# (span id, name, start, end, parent span id or None, self seconds)
Span = tuple


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def _patch(self, target: str, make: Callable) -> None:
        module_name, attr = target.rsplit(".", 1)
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._originals.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    # ------------------------------------------------------------ counters

    def add(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def count(self, target: str, name: str) -> None:
        """Count calls made through ``target``."""
        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.add(name)
                return fn(*args, **kwargs)
            return counted
        self._patch(target, make)

    def count_instance_calls(self, target: str, name: str) -> None:
        """``target`` is a class; count calls made to its instances."""
        def make(cls):
            @functools.wraps(cls, updated=())
            def factory(*args, **kwargs):
                inner = cls(*args, **kwargs)

                def counted(*a, **kw):
                    self.add(name)
                    return inner(*a, **kw)
                return counted
            return factory
        self._patch(target, make)

    # --------------------------------------------------------------- spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(
        self,
        target: str,
        name: str,
        on_result: Optional[Callable[["Tracer", object], None]] = None,
    ) -> None:
        """Record a span per call through ``target``.

        ``on_result`` derives counters from the return value; its cost is
        kept out of both this span and its parent's self time.
        """
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stack = self._stack()
                parent = stack[-1] if stack else None
                # frame: [span id, seconds covered by child spans]
                frame = [next(self._ids), 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    self.spans.append((
                        frame[0], name, start, end,
                        parent[0] if parent else None, end - start - frame[1],
                    ))
                if on_result is not None:
                    on_result(self, result)
                if parent is not None:
                    parent[1] += perf_counter() - start
                return result
            return traced
        self._patch(target, make)

    # ------------------------------------------------------------- results

    def take(self) -> tuple[list[Span], Counter]:
        """Spans and counts recorded since the last call, then reset."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    @staticmethod
    def write(spans: list[Span], path) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w") as out:
            for sid, name, start, end, parent, self_s in spans:
                out.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "self": self_s,
                }) + "\n")
