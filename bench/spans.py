"""Span recording around calls into the package, from outside it.

The tracer replaces public functions and methods with wrappers that
append a span (name, operation id, start, end, parent span) to an
in-memory list.  Spans are written out once, when the run ends.  Work
counters that need a call's arguments or result are computed at the end
of each operation, outside every span, so that their cost lands in the
harness's own time instead of in a layer's self time.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

NAME, OP, START, END, PARENT = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._pending: list[tuple] = []
        self._patches: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, count=None, per_result: bool = False):
        """Replace owner.attr by a span-recording wrapper.

        count(counts, args, result) runs at the end of the operation; with
        per_result it runs once per distinct result object, so cached
        results returned again are not counted twice.
        """
        original = getattr(owner, attr)
        spans, stack, pending = self.spans, self._stack, self._pending

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, self.op, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if count is not None:
                pending.append((count, args, result, per_result))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def begin(self, op: int):
        self.op = op

    def end(self):
        """Close the current operation: run its deferred counters."""
        seen: set[int] = set()
        for count, args, result, per_result in self._pending:
            if per_result:
                if id(result) in seen:
                    continue
                seen.add(id(result))
            count(self.counts, args, result)
        self._pending.clear()

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "op", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Per-name self time (span time minus time covered by direct child
    spans) and per-name call counts."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, child in zip(spans, covered):
        self_s[span[NAME]] += span[END] - span[START] - child
        calls[span[NAME]] += 1
    return dict(self_s), dict(calls)
