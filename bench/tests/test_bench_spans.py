"""Span recording and self-time arithmetic of the benchmark tracer."""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    records = [
        ["root", 0, 0.0, 10.0, -1],
        ["a", 0, 1.0, 4.0, 0],
        ["b", 0, 5.0, 7.0, 0],
        ["a", 0, 5.5, 6.0, 2],
    ]
    self_s, calls = spans.self_times(records)
    assert self_s == pytest.approx({"root": 5.0, "a": 3.5, "b": 1.5})
    assert calls == {"root": 1, "a": 2, "b": 1}
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_recursive_spans_do_not_double_count():
    records = [["f", 0, 0.0, 4.0, -1], ["f", 0, 1.0, 3.0, 0], ["f", 0, 1.5, 2.0, 1]]
    self_s, calls = spans.self_times(records)
    assert self_s["f"] == pytest.approx(4.0)
    assert calls["f"] == 3


class Box:
    def __init__(self, value):
        self.value = value

    def __mul__(self, other):
        return Box(self.value * other.value)


def test_wrap_records_nesting_counts_and_restores():
    calls = []

    def outer(x):
        return ns.inner(x) * ns.inner(x)

    def inner(x):
        return Box(x)

    ns = SimpleNamespace(outer=outer, inner=inner)
    original_mul = Box.__mul__
    tracer = spans.Tracer()
    tracer.wrap(ns, "outer", "outer")
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(Box, "__mul__", "Box.__mul__",
                lambda c, args, result: calls.append(result.value) or c.__setitem__(
                    "products", c["products"] + 1))
    tracer.begin(7)
    assert ns.outer(3).value == 9
    assert calls == []  # counters wait for the end of the operation
    tracer.end()
    assert calls == [9] and tracer.counts["products"] == 1
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["outer", "inner", "inner", "Box.__mul__"]
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, 0, 0]
    assert {s[spans.OP] for s in tracer.spans} == {7}
    tracer.restore()
    assert ns.outer is outer and ns.inner is inner and Box.__mul__ is original_mul


def test_per_result_counter_runs_once_per_object():
    cached = Box(1)
    ns = SimpleNamespace(get=lambda: cached)
    tracer = spans.Tracer()
    tracer.wrap(ns, "get", "get", lambda c, args, result: c.__setitem__("n", c["n"] + 1),
                per_result=True)
    tracer.begin(0)
    for _ in range(3):
        ns.get()
    tracer.end()
    assert tracer.counts["n"] == 1
    assert len(tracer.spans) == 3
