"""In-memory span recorder for the traced benchmark run.

A span covers one call into a program layer: its name, start and end on the
``perf_counter`` clock, process CPU seconds at both ends, the thread that
made the call, the span that caused it and the round it belongs to.  Calls
made from worker threads (the adaptive task pool) have no open span on their
own thread; their parent is the span open on the main thread, which is the
call that started the pool.

Spans are appended under a lock because pool threads record concurrently,
and are kept in memory until the run writes them out.
"""

import functools
import itertools
import threading
import time
from collections import namedtuple

Span = namedtuple("Span", "id parent name thread start end cpu_start cpu_end round")


class Tracer:
    """Wraps module attributes in span recorders and accumulates counters."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = None
        self._patched = []
        self.spans = []
        self.counters = {}
        self.round = 0

    def begin_round(self, round_no):
        """Tag later spans with ``round_no`` and start the counters afresh."""
        with self._lock:
            self.round = round_no
            self.counters = {}

    def add(self, name, amount):
        """Add to a named counter; safe to call from any thread."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def note(self, name, value):
        """Set a named gauge, such as a grid size that every call shares."""
        with self._lock:
            self.counters[name] = value

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is self._main:
                self._main_stack = stack
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        main = self._main_stack
        if main is not None and main is not stack:
            try:
                return main[-1]
            except IndexError:  # the main thread closed its span meanwhile
                return None
        return None

    def span(self, name, fn, on_return=None):
        """Return ``fn`` wrapped so that every call records a span.

        ``on_return(args, kwargs, result)`` runs after a successful call and
        may add to counters.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu1 = time.process_time()
                stack.pop()
                record = Span(sid, parent, name, threading.get_ident(), t0, t1,
                              cpu0, cpu1, self.round)
                with self._lock:
                    self.spans.append(record)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr, wrapper):
        """Replace ``module.attr`` by ``wrapper(original)`` until ``restore``."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper(original))

    def wrap(self, module, attr, name, on_return=None):
        """Record a span named ``name`` around every call of ``module.attr``."""
        self.patch(module, attr, lambda fn: self.span(name, fn, on_return))

    def restore(self):
        """Put back every patched attribute, innermost patch last."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def spans_of(self, round_no):
        with self._lock:
            return [s for s in self.spans if s.round == round_no]


def total_seconds(spans):
    return sum((s.end - s.start for s in spans), 0.0)


def covered_seconds(spans):
    """Length of the union of the spans' intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s in sorted(spans, key=lambda s: s.start):
        if cur_end is None or s.start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s.start, s.end
        else:
            cur_end = max(cur_end, s.end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_seconds(span, all_spans):
    """Duration of ``span`` minus the part of it its child spans cover."""
    children = [s for s in all_spans if s.parent == span.id]
    return (span.end - span.start) - covered_seconds(children)
