"""The benchmark's own arithmetic: percentiles, due-time latency, self time.

Kept free of any ``repro`` import so ``test_perfbench_arith.py`` can
check it without the program, and so every number the benchmark prints
is computed by one small, tested function.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from collections import defaultdict
from typing import Iterable, Sequence

#: A tail percentile is only trusted when at least this many samples lie
#: beyond it; with fewer it is set by a handful of requests.
MIN_BEYOND = 10

#: Tail percentiles tried from the highest down.
TAIL_CANDIDATES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (always an observed sample)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def _rank(n: int, q: float) -> int:
    # Rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991.
    return max(math.ceil(round(q / 100.0 * n, 9)), 1)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank strictly above the nearest-rank ``q``."""
    return n - _rank(n, q)


def supports_percentile(n: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """Whether ``n`` samples leave at least ``min_beyond`` beyond ``q``."""
    return n > 0 and samples_beyond(n, q) >= min_beyond


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float | None:
    """Highest candidate percentile that ``n`` samples support, or None."""
    for q in TAIL_CANDIDATES:
        if supports_percentile(n, q, min_beyond):
            return q
    return None


def due_latencies(
    due: Sequence[float], done: Sequence[float], ok: Sequence[bool] | None = None
) -> list[float]:
    """Open-loop latency: completion minus the time the request was *due*.

    Timing from the due time (not from the actual send) charges a stall
    to every request it delayed, not only to the one that stalled.  A
    failed request (``ok`` false) counts as infinitely late, so it misses
    every latency limit.
    """
    if len(due) != len(done) or (ok is not None and len(ok) != len(due)):
        raise ValueError("due, done and ok differ in length")
    if ok is None:
        ok = [True] * len(due)
    return [
        finish - start if succeeded else math.inf
        for start, finish, succeeded in zip(due, done, ok)
    ]


def covered_length(
    intervals: Iterable[tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(
    start: float, end: float, children: Iterable[tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered_length(children, start, end)


class LayerRecorder:
    """Call counts, busy time and self time of wrapped layer entry points.

    Each wrapped call is a span; its self time is its duration minus the
    time spent in wrapped calls it made (its child spans).  Calls are
    synchronous, so children never overlap.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.child_seconds: dict[str, float] = defaultdict(float)
        self.values: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, function, count=None):
        """``function`` timed under ``name``; ``count(result)`` adds to a value."""

        @functools.wraps(function)
        def timed(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            started = self.clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = self.clock() - started
                self._stack.pop()
                self.calls[name] += 1
                self.seconds[name] += elapsed
                self.child_seconds[name] += frame[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
            if count is not None:
                self.values[name] += count(result)
            return result

        return timed

    def patch(self, owner, attribute: str, name: str, count=None) -> None:
        """Replace ``owner.attribute`` by its timed wrapper until :meth:`restore`."""
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, count))

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def self_seconds(self, name: str) -> float:
        return self.seconds[name] - self.child_seconds[name]


def serve_span_layers(spans: list[dict]) -> dict[str, float]:
    """Per-stage serving times (ms) from router and replica span records.

    * ``router.hop``: each ``router.predict`` span minus its replica
      ``serve.predict`` child (forwarding, the replica's HTTP read, JSON
      parse and response encode, both local socket legs).
    * ``server.queue_wait``: ``serve.flush`` start minus ``serve.predict``
      start, for every request the flush served.
    * ``compiled.flush``: the flush span (the predictor on the batch).
    * ``server.other``: ``serve.predict`` minus queue wait and flush.
    """
    by_id = {span["span_id"]: span for span in spans}
    flushes = [span for span in spans if span["name"] == "serve.flush"]
    flush_of: dict[str, dict] = {}
    for flush in flushes:
        members = [flush["parent_id"], *flush.get("attributes", {}).get("linked_spans", [])]
        for member in members:
            flush_of[member] = flush
    hop, queue, other = [], [], []
    for predict in (span for span in spans if span["name"] == "serve.predict"):
        parent = by_id.get(predict["parent_id"])
        if parent is not None and parent["name"] == "router.predict":
            hop.append(self_time(
                parent["start_time"], parent["end_time"],
                [(predict["start_time"], predict["end_time"])],
            ))
        flush = flush_of.get(predict["span_id"])
        if flush is not None:
            wait = flush["start_time"] - predict["start_time"]
            queue.append(wait)
            flushed = flush["end_time"] - flush["start_time"]
            other.append(predict["end_time"] - predict["start_time"] - wait - flushed)
    flush_s = [flush["end_time"] - flush["start_time"] for flush in flushes]
    rows = [flush.get("attributes", {}).get("rows", 0) for flush in flushes]
    requests = [flush.get("attributes", {}).get("requests", 0) for flush in flushes]

    def ms(values: list[float], q: float) -> float:
        return percentile(values, q) * 1e3 if values else 0.0

    return {
        "router.hop_p50_ms": ms(hop, 50.0),
        "router.hop_p99_ms": ms(hop, 99.0),
        "server.queue_wait_p50_ms": ms(queue, 50.0),
        "server.queue_wait_p99_ms": ms(queue, 99.0),
        "compiled.flush_p50_ms": ms(flush_s, 50.0),
        "compiled.flush_p99_ms": ms(flush_s, 99.0),
        "server.other_p50_ms": ms(other, 50.0),
        "batcher.rows_per_flush": statistics.fmean(rows) if rows else 0.0,
        "batcher.requests_per_flush": statistics.fmean(requests) if requests else 0.0,
        "trace.requests": len(hop),
    }
