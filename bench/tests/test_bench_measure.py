"""Percentile rule, failure counting and digests of the benchmark harness."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import measure  # noqa: E402


def test_p90_needs_ten_samples_beyond():
    values = list(range(100, 0, -1))
    assert measure.tail_percentile(values, 90) == 90
    assert sum(v > 90 for v in values) == 10
    with pytest.raises(ValueError):
        measure.tail_percentile(values[:99], 90)


def test_min_samples_matches_the_rule():
    n = measure.min_samples(90)
    assert n == 100
    measure.tail_percentile(range(n), 90)
    with pytest.raises(ValueError):
        measure.tail_percentile(range(n - 1), 90)
    assert measure.min_samples(50) == 20


@pytest.mark.parametrize("rc, stderr, timed_out, check, reason", [
    (0, "", False, None, None),
    (0, "", True, None, "timeout"),
    (1, "error[ValueError]: bad", False, None, "exit code 1"),
    (0, "Traceback (most recent call last):\n", False, None, "traceback on stderr"),
    (0, "", False, "wrong answer", "wrong answer"),
    (2, "", True, "wrong answer", "timeout"),
])
def test_failure_reason(rc, stderr, timed_out, check, reason):
    assert measure.failure_reason(rc, stderr, timed_out, check) == reason


def test_error_ratio_counts_every_kind_of_failure():
    outcomes = [(0, "", False, None), (0, "", True, None), (3, "", False, None),
                (0, "Traceback (most recent call last)", False, None),
                (0, "", False, "bad output"), (0, "warning", False, None)]
    failed = sum(measure.failure_reason(*o) is not None for o in outcomes)
    assert failed == 4
    assert measure.error_ratio(len(outcomes), failed) == pytest.approx(4 / 6)
    with pytest.raises(ValueError):
        measure.error_ratio(0, 0)


def test_digest_is_stable_and_respects_boundaries():
    assert measure.digest([b"ab", b"c"]) == measure.digest([b"ab", b"c"])
    assert measure.digest([b"ab", b"c"]) != measure.digest([b"a", b"bc"])
