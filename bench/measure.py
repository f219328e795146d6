"""Statistics, failure accounting and output digests for the benchmark."""

from __future__ import annotations

import hashlib
import math

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10

TRACEBACK_MARK = "Traceback (most recent call last)"


def tail_percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank q-th percentile (0 < q < 100) of values.

    Raises ValueError when fewer than min_beyond samples lie above the
    chosen rank, so a reported tail percentile always rests on enough
    samples beyond it.
    """
    if not 0 < q < 100:
        raise ValueError("q must lie strictly between 0 and 100")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) / 100)
    beyond = len(ordered) - rank
    if rank < 1 or beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need at least {min_beyond}")
    return ordered[rank - 1]


def min_samples(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count for which tail_percentile(q) is defined."""
    n = min_beyond + 1
    while n - math.ceil(q * n / 100) < min_beyond:
        n += 1
    return n


def failure_reason(returncode: int, stderr: str, timed_out: bool,
                   check_error: str | None) -> str | None:
    """Why an operation counts as failed, or None when it succeeded.

    An operation fails if it timed out, exited non-zero, printed a
    traceback on stderr, or failed its output check.
    """
    if timed_out:
        return "timeout"
    if returncode != 0:
        return f"exit code {returncode}"
    if TRACEBACK_MARK in stderr:
        return "traceback on stderr"
    return check_error


def error_ratio(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no operation was attempted")
    return failed / attempted


def digest(chunks) -> str:
    """sha256 over byte chunks, each length-prefixed so boundaries count."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()
