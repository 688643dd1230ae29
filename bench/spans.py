"""In-memory spans around the benchmark's calls into dualtab.

A span is ``(name, start_ns, end_ns, parent, problem)``: ``parent`` is the
index of the enclosing span in the same list, or -1.  Spans are only kept
in memory while the traced run measures, and written out when it ends.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._problem = None

    def call(self, name, fn, *args):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self._problem)

    @contextlib.contextmanager
    def problem(self, pid):
        """The span of one problem; the calls inside it are its children."""
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        self._problem = pid
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self._problem = None
            self.spans[index] = ("problem", start, end, -1, pid)


def self_times(spans):
    """Total self time in ns per span name: each span's duration minus the
    part its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals = {}
    for (name, *_), ns in zip(spans, own):
        totals[name] = totals.get(name, 0) + ns
    return totals


def write(path, rounds):
    """One JSON line per span; ``rounds`` is a list of span lists."""
    with open(path, "w", encoding="utf-8") as fh:
        for number, spans in enumerate(rounds):
            for name, start, end, parent, problem in spans:
                fh.write(json.dumps({"round": number, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "parent": parent, "problem": problem}))
                fh.write("\n")
