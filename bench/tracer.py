"""In-memory spans around calls into valsel's public functions.

The tracer replaces a function where its caller looks it up (a module
global such as ``valsel.evaluate.pvs``, or a class attribute such as
``Dataset.with_instances``) and records one span per call: name, start,
end, parent span and thread. A span's self time is its duration minus
the durations of its child spans and minus the time of per-row calls
made inside it. Per-row calls (``predict``) are recorded as a count plus
summed time instead of one span each. Counting work the tracer does
after a wrapped call returns is charged to ``trace.bookkeeping``, so it
lands in no layer's self time.

Span names are ``<layer>.<function>``; the layer is the part before the
first dot. Spans stay in memory until ``write_jsonl`` is called.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager

BOOKKEEPING = "trace.bookkeeping"

NAME, START, END, PARENT, THREAD, EXCLUDED = range(6)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans, per-row call sums and counters of one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent, thread, excluded]
        self.each: dict[tuple[int | None, str], list] = {}  # (parent, name) -> [calls, s]
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        rec = [name, self.clock(), None, stack[-1] if stack else None, threading.get_ident(), 0.0]
        stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield len(self.spans) - 1
        finally:
            rec[END] = self.clock()
            stack.pop()

    def charge(self, name: str, seconds: float) -> None:
        """Record one per-row call of `name` inside the innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        entry = self.each.setdefault((parent, name), [0, 0.0])
        entry[0] += 1
        entry[1] += seconds
        if parent is not None:
            self.spans[parent][EXCLUDED] += seconds

    # -- wrapping ---------------------------------------------------------

    def _original(self, owner, attr: str):
        fn = vars(owner).get(attr)
        if not callable(fn):
            raise AttributeError(
                f"cannot trace {getattr(owner, '__name__', owner)}.{attr}: no such function"
            )
        return fn

    def _install(self, owner, attr: str, fn, traced) -> None:
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, functools.wraps(fn)(traced))

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record a span per call; count(args, kwargs, result) -> {counter: n}."""
        fn = self._original(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                t0 = self.clock()
                self.counters.update(count(args, kwargs, result))
                self.charge(BOOKKEEPING, self.clock() - t0)
            return result

        self._install(owner, attr, fn, traced)

    def wrap_each(self, owner, attr: str, name: str) -> None:
        """Record a per-row call: a count plus summed time, no span."""
        fn = self._original(owner, attr)

        def traced(*args, **kwargs):
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.charge(name, self.clock() - t0)

        self._install(owner, attr, fn, traced)

    def restore(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [rec[END] - rec[START] - rec[EXCLUDED] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] is not None:
                out[rec[PARENT]] -= rec[END] - rec[START]
        return out

    def subtree(self, root: int) -> list[int]:
        """Indices of root and every span below it."""
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][PARENT] in inside:
                inside.add(i)
        return sorted(inside)

    def summary(self, root: int) -> dict:
        """Per-name calls and inclusive seconds, per-layer self seconds, root self."""
        selfs = self.self_times()
        inside = self.subtree(root)
        calls: Counter = Counter()
        seconds: Counter = Counter()
        layers: Counter = Counter()
        for i in inside[1:]:
            rec = self.spans[i]
            calls[rec[NAME]] += 1
            seconds[rec[NAME]] += rec[END] - rec[START]
            layers[layer_of(rec[NAME])] += selfs[i]
        members = set(inside)
        for (parent, name), (n, s) in self.each.items():
            if parent in members:
                calls[name] += n
                seconds[name] += s
                layers[layer_of(name)] += s
        rec = self.spans[root]
        return {
            "calls": calls,
            "seconds": seconds,
            "layers": layers,
            "root_self": selfs[root],
            "run": rec[END] - rec[START],
        }

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": rec[NAME],
                            "start": rec[START],
                            "end": rec[END],
                            "parent": rec[PARENT],
                            "thread": rec[THREAD],
                        }
                    )
                    + "\n"
                )
            for (parent, name), (n, s) in self.each.items():
                fh.write(json.dumps({"name": name, "parent": parent, "calls": n, "seconds": s}) + "\n")
