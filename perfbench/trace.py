"""Spans recorded by the benchmark around public ``repro`` calls.

The traced run wraps each call into a layer in :meth:`Tracer.span`.
A span has a name (``<layer>.<operation>``, the layer being the
``repro`` module that does the work), a start, an end, the span that
caused it and the id of the request it belongs to. Spans stay in
memory until the run ends. A layer's *self time* is its span's
duration minus the part of that interval its child spans cover.

End-to-end metrics are always measured with :data:`NO_TRACE`, whose
``span`` does nothing; the workloads then also call the engine's own
entry points instead of the decomposed path.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    """One timed call. Times are ``time.perf_counter`` seconds."""

    id: int
    parent: int | None
    request: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans, counts and samples of one traced run.

    Each thread keeps its own stack of open spans, so the reader and
    the writer of ``serve_under_ingest`` can both record.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._next_request = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; a span opened with no span open on this
        thread starts a new request."""
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
            if stack:
                request = stack[-1].request
            else:
                self._next_request += 1
                request = self._next_request
        span = Span(id=span_id, parent=stack[-1].id if stack else None,
                    request=request, name=name, start=0.0, attrs=attrs)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to the counter ``name``."""
        with self._lock:
            self.counts[name] += n

    def sample(self, name: str, value: float) -> None:
        """Record one measurement that is not a span (a wait the
        server reported, a byte count)."""
        with self._lock:
            self.samples[name].append(value)

    # -- reading --------------------------------------------------------------

    def named(self, name: str, **attrs) -> list[Span]:
        """Spans called ``name`` whose attrs include ``attrs``."""
        return [s for s in self.spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def mean_seconds(self, name: str, **attrs) -> float:
        """Mean duration of the spans :meth:`named` selects."""
        spans = self.named(name, **attrs)
        if not spans:
            raise KeyError(f"no span named {name!r} with {attrs}")
        return sum(s.seconds for s in spans) / len(spans)

    def as_json(self) -> dict:
        origin = min((s.start for s in self.spans), default=0.0)
        spans = []
        for s in sorted(self.spans, key=lambda s: s.start):
            row = asdict(s)
            row["start"] = s.start - origin
            row["end"] = s.end - origin
            spans.append(row)
        return {"spans": spans, "counts": dict(self.counts),
                "samples": dict(self.samples)}


class _NoTrace:
    """Tracing off: ``span`` costs one attribute lookup and a call."""

    enabled = False

    def span(self, name: str, **attrs):
        return nullcontext()

    def count(self, name: str, n: float = 1) -> None:
        pass

    def sample(self, name: str, value: float) -> None:
        pass


NO_TRACE = _NoTrace()


def layer_of(name: str) -> str:
    """``cohana.parser.parse`` → ``cohana.parser``."""
    return ".".join(name.split(".")[:2])


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union of the
    intervals its direct children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()),
                            key=lambda c: c.start):
            start = max(child.start, reach)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.id] = span.seconds - covered
    return out


def layer_self_seconds(spans: list[Span], roots: list[Span],
                       ) -> dict[str, float]:
    """Self time per layer over the requests that ``roots`` started."""
    wanted = {root.request for root in roots}
    selected = [s for s in spans if s.request in wanted]
    per_span = self_seconds(selected)
    totals: dict[str, float] = defaultdict(float)
    for span in selected:
        totals[layer_of(span.name)] += per_span[span.id]
    return dict(totals)
