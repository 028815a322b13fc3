"""Span tracer that wraps neumannlab's public functions from outside.

Each wrapped callable records one span per call: name, thread, parent
span, start, end and an optional numeric payload.  Parents come from a
per-thread stack, so the multistart worker threads each get their own
nesting and a span's self time subtracts only the children that ran on
its own thread.  Spans are kept in memory and written out once, after
the run.

Targets are patched in the namespace where callers look them up (for
example ``neumannlab.solver.norms``, not ``neumannlab.domain_grid.norms``)
and restored by ``uninstall``.  A target that no longer exists is
recorded as absent instead of failing, so the benchmark keeps running
after a refactor removes a name.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# span layout: [name, thread, parent span, t0, t1, payload, child seconds]
NAME, THREAD, PARENT, T0, T1, PAYLOAD, CHILD_S = range(7)


def _payload(payload, args, out):
    if payload is None or out is None:
        return None
    try:
        return float(payload(args, out))
    except Exception:  # a payload that no longer fits the call must not break the run
        return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self.active = False
        self._local = threading.local()
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        span = [name, threading.get_ident(), stack[-1] if stack else None,
                time.perf_counter(), None, None, 0.0]
        self.spans.append(span)     # list.append is atomic under the GIL
        stack.append(span)
        return span

    def _close(self, span: list, payload=None) -> None:
        span[T1] = time.perf_counter()
        span[PAYLOAD] = payload
        self._stack().pop()
        if span[PARENT] is not None:
            # the parent is on this thread's stack, so no other thread writes it
            span[PARENT][CHILD_S] += span[T1] - span[T0]

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name: str, fn, payload=None, result=None):
        """Traced stand-in for ``fn``.

        ``payload(args, out)`` turns a call into a number stored on its
        span; ``result(out)`` may replace the return value (used to proxy
        the sparse LU so its ``solve`` is traced too).
        """

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out if result is None else result(out)
            finally:
                self._close(span, _payload(payload, args, out))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, owner, attr: str, name: str, **kw) -> None:
        """Replace ``owner.attr`` by a traced wrapper, or note it absent."""
        fn = None if owner is None else getattr(owner, attr, None)
        if fn is None:
            self.absent.append(name)
            return
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(name, fn, **kw))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- aggregation -----------------------------------------------------

    def summary(self) -> dict:
        """name -> {calls, s (inclusive), self_s, payload}; open spans are skipped."""
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "payload": 0.0})
        for span in self.spans:
            if span[T1] is None:
                continue
            row = out[span[NAME]]
            dur = span[T1] - span[T0]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - span[CHILD_S]
            if span[PAYLOAD] is not None:
                row["payload"] += span[PAYLOAD]
        return dict(out)

    def count_children(self, child_name: str, parent_name: str) -> int:
        """Spans named ``child_name`` whose direct parent is ``parent_name``."""
        return sum(
            1
            for span in self.spans
            if span[NAME] == child_name and span[PARENT] is not None
            and span[PARENT][NAME] == parent_name
        )

    def dump(self, path: str) -> None:
        ids = {id(span): idx for idx, span in enumerate(self.spans)}
        origin = self.spans[0][T0] if self.spans else 0.0
        with open(path, "w") as fh:
            for idx, span in enumerate(self.spans):
                parent = span[PARENT]
                fh.write(json.dumps({
                    "id": idx,
                    "name": span[NAME],
                    "thread": span[THREAD],
                    "parent": None if parent is None else ids[id(parent)],
                    "start_s": span[T0] - origin,
                    "end_s": None if span[T1] is None else span[T1] - origin,
                    "payload": span[PAYLOAD],
                }))
                fh.write("\n")
