"""Spans, self time and layer attribution."""

import pytest

from perfbench.trace import (
    NO_TRACE,
    Span,
    Tracer,
    layer_of,
    layer_self_seconds,
    self_seconds,
)


def span(id, parent, name, start, end, request=1):
    return Span(id=id, parent=parent, request=request, name=name,
                start=start, end=end)


def test_self_time_is_duration_minus_child_coverage():
    spans = [span(1, None, "bench.client.op", 0.0, 10.0),
             span(2, 1, "cohana.parser.parse", 1.0, 2.0),
             span(3, 1, "cohana.operators.execute_chunk", 2.0, 8.0),
             span(4, 3, "cohana.pipeline.merge", 3.0, 4.0)]
    own = self_seconds(spans)
    assert own == pytest.approx({1: 3.0, 2: 1.0, 3: 5.0, 4: 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    spans = [span(1, None, "a.b.c", 0.0, 10.0),
             span(2, 1, "x.y.z", 1.0, 6.0),
             span(3, 1, "x.y.w", 4.0, 8.0)]
    assert self_seconds(spans)[1] == pytest.approx(3.0)


def test_layer_attribution_follows_the_selected_requests():
    spans = [span(1, None, "bench.client.op", 0.0, 4.0, request=1),
             span(2, 1, "storage.sharded.append_shard", 0.0, 3.0, 1),
             span(3, None, "bench.client.op", 5.0, 6.0, request=2),
             span(4, 3, "cohana.parser.parse", 5.0, 6.0, 2)]
    layers = layer_self_seconds(spans, [spans[0]])
    assert layers == pytest.approx({"bench.client": 1.0,
                                    "storage.sharded": 3.0})
    assert layer_of("cohana.parser.parse") == "cohana.parser"


def test_tracer_nests_spans_and_numbers_requests():
    tracer = Tracer()
    with tracer.span("bench.client.op", cls="light") as root:
        with tracer.span("cohana.parser.parse"):
            pass
    with tracer.span("bench.client.op", cls="heavy") as second:
        pass
    child = tracer.named("cohana.parser.parse")[0]
    assert child.parent == root.id and child.request == root.request
    assert second.request != root.request
    assert tracer.named("bench.client.op", cls="heavy") == [second]
    assert root.end >= child.end >= child.start >= root.start


def test_no_trace_records_nothing_and_yields_no_span():
    with NO_TRACE.span("anything", rows=1) as nothing:
        assert nothing is None
    NO_TRACE.count("x")
    NO_TRACE.sample("y", 1.0)
    assert not NO_TRACE.enabled
