"""Outside-in layer tracing: spans recorded around the program's public calls.

The traced run replaces public entry points of each layer (module
functions, class methods, or one object's bound methods) with wrappers
that record a span per call: name, thread, start, end, the enclosing
span on the same thread, and a few counts read from the arguments or
the result. Spans stay in memory and are written as Chrome-trace JSON
when the run ends. Nothing inside the program is edited; every patch is
undone by :meth:`Recorder.restore`.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    tid: int
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-aware span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, bool]] = []
        self._thread_names: dict[int, str] = {}

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counts=None, pre=None):
        """``fn`` recording a ``name`` span per call.

        ``counts(args, kwargs, result)`` returns a dict of counts stored
        on the span (only called when ``fn`` returned). With ``pre``, the
        value ``pre(args, kwargs)`` taken before the call is passed to
        ``counts`` as a fourth argument.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            thread = threading.current_thread()
            with self._lock:
                span = Span(
                    len(self.spans), name, thread.ident, 0.0,
                    parent=stack[-1].sid if stack else None,
                )
                self.spans.append(span)
                self._thread_names.setdefault(thread.ident, thread.name)
            before = pre(args, kwargs) if pre is not None else None
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counts is not None:
                extra = (before,) if pre is not None else ()
                span.attrs.update(counts(args, kwargs, result, *extra))
            return result

        return traced

    # -- patching ----------------------------------------------------------
    def patch(self, owner, attr: str, name: str, counts=None, pre=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`.

        ``owner`` is a module, a class, or an object whose bound method
        is shadowed by an instance attribute.
        """
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else None
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), counts, pre))
        self._patches.append((owner, attr, original, had_own))

    def patch_factory(self, owner, attr: str, name: str, counts=None) -> None:
        """Trace the callables ``owner.attr(...)`` returns (dispatchers such
        as ``engine.get_forward``)."""
        factory = getattr(owner, attr)

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs), counts)

        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else None
        setattr(owner, attr, traced_factory)
        self._patches.append((owner, attr, original, had_own))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus its direct children's durations."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.dur
        return {s.sid: s.dur - child[s.sid] for s in self.spans}

    def select(self, name: str) -> list[Span]:
        """Spans called ``name`` on the main (benchmark) thread."""
        main = threading.main_thread().ident
        return [s for s in self.spans if s.name == name and s.tid == main]

    def total(self, name: str) -> float:
        return sum(s.dur for s in self.select(name))

    def self_total(self, name: str, selfs: dict[int, float]) -> float:
        return sum(selfs[s.sid] for s in self.select(name))

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in self.select(name))

    def self_by_layer(self) -> dict[str, float]:
        """Main-thread self seconds per span name."""
        selfs = self.self_times()
        main = threading.main_thread().ident
        out: dict[str, float] = {}
        for s in self.spans:
            if s.tid == main:
                out[s.name] = out.get(s.name, 0.0) + selfs[s.sid]
        return out

    def write_chrome_trace(self, path: str) -> None:
        if not self.spans:
            return
        t0 = min(s.start for s in self.spans)
        events = [
            {
                "name": s.name, "ph": "X", "pid": 1, "tid": s.tid,
                "ts": (s.start - t0) * 1e6, "dur": s.dur * 1e6,
                "args": {"id": s.sid, "parent": s.parent, **s.attrs},
            }
            for s in self.spans
        ]
        events += [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": tname}}
            for tid, tname in self._thread_names.items()
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
