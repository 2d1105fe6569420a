"""Tests of the benchmark's own arithmetic (no program import needed).

Run with ``python -m pytest perfbench/test_perfbench_arith.py``.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import arith  # noqa: E402


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert arith.percentile(values, 50.0) == 50
    assert arith.percentile(values, 99.0) == 99
    assert arith.percentile(values, 100.0) == 100
    assert arith.percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        arith.percentile([], 50.0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert arith.samples_beyond(1000, 99.0) == 10
    assert arith.supports_percentile(1000, 99.0)
    assert not arith.supports_percentile(999, 99.0)
    assert arith.tail_percentile(10_000) == 99.9
    assert arith.tail_percentile(1000) == 99.0
    assert arith.tail_percentile(999) == 98.0
    assert arith.tail_percentile(499) == 95.0
    assert arith.tail_percentile(200) == 95.0
    assert arith.tail_percentile(19) is None


def test_latency_is_timed_from_the_due_time():
    # Three requests due 10 ms apart; the first stalls for 100 ms and,
    # with one connection in flight, the next two wait behind it.
    due = [0.00, 0.01, 0.02]
    sent = [0.00, 0.10, 0.11]
    done = [0.10, 0.11, 0.12]
    assert arith.due_latencies(due, done) == pytest.approx([0.10, 0.10, 0.10])
    # Timing from the send would hide the stall from the later requests.
    assert [d - s for s, d in zip(sent, done)] == pytest.approx([0.10, 0.01, 0.01])


def test_failed_request_misses_every_limit():
    latencies = arith.due_latencies([0.0, 0.0], [0.005, 0.001], ok=[True, False])
    assert latencies[0] == pytest.approx(0.005)
    assert latencies[1] == math.inf
    assert arith.percentile(latencies, 99.0) == math.inf


def test_self_time_is_span_minus_union_of_children():
    children = [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0), (20.0, 21.0)]
    # Children cover [1, 4] and [8, 10] of the span [0, 10].
    assert arith.covered_length(children, 0.0, 10.0) == pytest.approx(5.0)
    assert arith.self_time(0.0, 10.0, children) == pytest.approx(5.0)
    assert arith.self_time(0.0, 10.0, []) == pytest.approx(10.0)


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_recorder_self_time_excludes_wrapped_children():
    clock = _Clock()
    recorder = arith.LayerRecorder(clock=clock)

    def child():
        clock.now += 2.0

    wrapped_child = recorder.wrap("child", child)

    def parent():
        clock.now += 1.0
        wrapped_child()
        wrapped_child()
        clock.now += 3.0
        return [1, 2, 3]

    result = recorder.wrap("parent", parent, count=len)()
    assert result == [1, 2, 3]
    assert recorder.calls == {"child": 2, "parent": 1}
    assert recorder.seconds["parent"] == pytest.approx(8.0)
    assert recorder.self_seconds("parent") == pytest.approx(4.0)
    assert recorder.self_seconds("child") == pytest.approx(4.0)
    assert recorder.values["parent"] == 3


def test_recorder_patch_restores_the_original():
    class Owner:
        def method(self):
            return 5

    recorder = arith.LayerRecorder()
    original = Owner.method
    recorder.patch(Owner, "method", "owner.method")
    assert Owner().method() == 5
    recorder.restore()
    assert Owner.method is original
    assert recorder.calls["owner.method"] == 1


def _span(name, span_id, parent_id, start, end, **attributes):
    record = {"name": name, "span_id": span_id, "parent_id": parent_id,
              "start_time": start, "end_time": end}
    if attributes:
        record["attributes"] = attributes
    return record


def test_serve_span_layers_attribute_each_stage():
    spans = [
        _span("router.predict", "r1", None, 0.000, 0.020),
        _span("serve.predict", "p1", "r1", 0.005, 0.015),
        _span("router.predict", "r2", None, 0.001, 0.021),
        _span("serve.predict", "p2", "r2", 0.006, 0.016),
        # One flush served both requests, parented to the first.
        _span("serve.flush", "f1", "p1", 0.008, 0.012,
              rows=64, requests=2, linked_spans=["p2"]),
    ]
    layers = arith.serve_span_layers(spans)
    assert layers["router.hop_p50_ms"] == pytest.approx(10.0)
    assert layers["server.queue_wait_p50_ms"] == pytest.approx(2.0)  # p2 waited 2 ms
    assert layers["server.queue_wait_p99_ms"] == pytest.approx(3.0)  # p1 waited 3 ms
    assert layers["compiled.flush_p50_ms"] == pytest.approx(4.0)
    assert layers["server.other_p50_ms"] == pytest.approx(3.0)  # 10 - 3 - 4
    assert layers["batcher.rows_per_flush"] == 64
    assert layers["batcher.requests_per_flush"] == 2
    assert layers["trace.requests"] == 2
