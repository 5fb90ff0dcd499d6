"""Span tracer that observes fmfdet by wrapping its public functions.

Each wrapper is installed at the name its caller resolves (a module global
or a class attribute), records one span (name, start, end, parent, item)
and returns the wrapped call's result untouched. An item is one inference
frame or one optimizer step; the timed loop opens and closes items.
Counts that need a little arithmetic run in a ``trace.count`` span of their
own, so the tracer's cost is separated from the layer it observes.
"""
from __future__ import annotations

import contextlib
import time

OUTSIDE = -1  # item id of spans that belong to no frame or step


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, item]
        self.stack = []
        self.item = OUTSIDE
        self.next_item = 0
        self.items = {}      # item id -> [start, end]
        self.first_span = 0  # index of the first span of the open item
        self.counts = {}     # counter name -> total added inside items

    # -- items --------------------------------------------------------------

    def open_item(self, start=None):
        """Start a new frame or step; spans begun from now on belong to it."""
        self.item = self.next_item
        self.next_item += 1
        self.first_span = len(self.spans)
        self.items[self.item] = [time.perf_counter() if start is None else start, None]

    def close_item(self, end):
        if self.item != OUTSIDE:
            self.items[self.item][1] = end
        self.item = OUTSIDE

    def drop_open_item(self):
        """Forget an item that was opened but never closed."""
        if self.item != OUTSIDE:
            del self.items[self.item]
            for span in self.spans[self.first_span:]:
                if span[4] == self.item:
                    span[4] = OUTSIDE
        self.item = OUTSIDE

    def add(self, name, value):
        if self.item != OUTSIDE:
            self.counts[name] = self.counts.get(name, 0) + value

    # -- spans --------------------------------------------------------------

    def wrap(self, name, fn, count=None, on_return=None):
        """Return fn wrapped in a span.

        `count(args, kwargs, result)` runs in a separate ``trace.count`` span
        after the call; `on_return(end_time)` runs last and may close items.
        """
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                with self.span("trace.count"):
                    count(args, kwargs, result)
            if on_return is not None:
                on_return(time.perf_counter())
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.item]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    # -- results ------------------------------------------------------------

    def closed_items(self):
        return {i: (s, e) for i, (s, e) in self.items.items() if e is not None}

    def totals(self):
        """Self seconds and calls by span name, for spans of closed items and
        for spans outside any item, and top-level seconds by closed item."""
        closed = self.closed_items()
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inside, outside, top = {}, {}, {}
        for idx, (name, start, end, parent, item) in enumerate(self.spans):
            if item in closed:
                table = inside
                if parent < 0:
                    top[item] = top.get(item, 0.0) + end - start
            elif item == OUTSIDE:
                table = outside
            else:
                continue
            self_s, calls = table.get(name, (0.0, 0))
            table[name] = (self_s + (end - start) - child[idx], calls + 1)
        return inside, outside, top


@contextlib.contextmanager
def patched(targets):
    """Install replacements given as (owner, attribute, new value); restore
    the originals on exit, last installed first."""
    saved = []
    try:
        for owner, attr, value in targets:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
