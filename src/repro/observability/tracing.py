"""Structured span-based tracing over the engine's event stream.

The engine narrates a run as flat :class:`~repro.core.events.StageEvent`
objects; :class:`SpanTracer` folds that stream back into a *span tree*
— intervals with a start, an end, a status and a parent:

* one ``tick`` span per ``tick_start``/``tick_end`` pair of a
  streaming session, parenting the tick's run span,
* one ``run`` span per ``run_start``/``run_end`` pair,
* one ``stage`` span per stage, opened by ``stage_start`` and closed
  by the stage's terminal event, so its duration equals the
  ``RunReport`` record (stages cancelled before they started and
  cache replays get a span reaching back the terminal event's
  ``seconds``),
* one ``attempt`` span per execution attempt under its stage span
  (retries, timeouts and cancellations each close an attempt with
  the matching status), and one ``fallback`` span when a stage's
  fallback callable runs.

Spans are timestamped with ``time.perf_counter()`` (monotonic, so
``start <= end`` always holds and nesting is checkable) plus a wall
clock for human display, and carry the emitting thread id — which is
exactly the shape of the Chrome trace-event format, so
:meth:`SpanTracer.to_chrome_trace` exports a JSON document that
``chrome://tracing`` / Perfetto loads directly.

:class:`SpanTracer` is a :class:`~repro.core.events.CollectingTracer`
(the raw events stay available via ``events`` / ``kinds()`` /
``of_kind()``) and is thread-safe: events from concurrent stages are
folded under one lock.  To combine it with a
:class:`~repro.core.faults.FaultInjector`, attach it as a forward
target (``faults.forward_to(spans)``) so injected-fault events reach
both buffers; :class:`TeeTracer` composes arbitrary tracers.
"""

from __future__ import annotations

import contextlib
import json
import threading

from ..core.events import CollectingTracer, Tracer

__all__ = ["Span", "SpanTracer", "TeeTracer"]

#: Event kinds exported as chrome-trace *instant* markers in addition
#: to any span bookkeeping they trigger.
INSTANT_KINDS = ("cache_hit", "fault_injected", "stage_retry",
                 "stage_skip", "stage_fallback")

#: (attempt status, stage status when the event is terminal).
_FAILURE_STATUS = {"stage_error": ("error", "failed"),
                   "stage_timeout": ("timeout", "timed_out")}


class Span:
    """One traced interval: name, kind, status, parent and timing."""

    __slots__ = ("span_id", "parent_id", "name", "kind", "status",
                 "start", "end", "start_wall", "thread_id",
                 "attributes")

    def __init__(self, span_id, name, kind, start, start_wall,
                 thread_id, parent_id=None, **attributes):
        self.span_id = int(span_id)
        self.parent_id = parent_id
        self.name = str(name)
        self.kind = str(kind)
        self.status = None
        self.start = float(start)
        self.end = None
        self.start_wall = float(start_wall)
        self.thread_id = int(thread_id)
        self.attributes = dict(attributes)

    @property
    def duration(self):
        """Seconds from start to end (``None`` while open)."""
        if self.end is None:
            return None
        return self.end - self.start

    def close(self, status, end, **attributes):
        self.status = str(status)
        self.end = float(end)
        self.attributes.update(attributes)
        return self

    def as_dict(self):
        """Plain JSON-ready form (schema the golden-trace test pins)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "status": self.status,
            "start": self.start,
            "end": self.end,
            "start_wall": self.start_wall,
            "thread_id": self.thread_id,
            "attributes": dict(self.attributes),
        }

    def __repr__(self):
        dur = (f"{self.duration:.6f}s" if self.end is not None
               else "open")
        return (f"Span({self.kind}/{self.name} "
                f"[{self.status or 'open'}, {dur}])")


class SpanTracer(CollectingTracer):
    """Folds the engine's event stream into a span tree.

    Pass as ``tracer=`` to :meth:`DecisionPipeline.run`; afterwards
    :meth:`spans` holds the tree and :meth:`to_chrome_trace` /
    :meth:`export` render it for ``chrome://tracing``.
    """

    def __init__(self):
        super().__init__()
        self._span_lock = threading.RLock()  # noqa: RC034 -- process-local tracer; spans export as plain dicts
        self._spans = []
        self._next_id = 1
        self._instants = []  # (event, thread_id)
        self._run_span = None
        self._tick_span = None
        self._stage_spans = {}
        self._attempt_spans = {}

    # -- construction helpers (all called under _span_lock) -----------------

    def _new_span(self, name, kind, event, parent, **attributes):
        span = Span(self._next_id, name, kind, event.monotonic,
                    event.timestamp, threading.get_ident(),
                    parent_id=parent.span_id if parent else None,
                    **attributes)
        self._next_id += 1
        self._spans.append(span)
        return span

    def _close_attempt(self, stage, status, event, **attributes):
        span = self._attempt_spans.pop(stage, None)
        if span is not None:
            span.close(status, event.monotonic, **attributes)
        return span

    def _close_stage(self, stage, status, event, **attributes):
        span = self._stage_spans.pop(stage, None)
        if span is None:
            # No stage_start (a cache replay, or cancelled before it
            # started): reach back the terminal event's seconds.
            # end - seconds recovers the start stamp exactly
            # (Sterbenz), so the span lasts the engine's duration.
            span = self._new_span(stage, "stage", event,
                                  self._run_span, layer=event.layer)
            seconds = event.data.get("seconds", 0.0)
            span.start -= seconds
            span.start_wall -= seconds
        span.close(status, event.monotonic, **attributes)

    # -- the tracer protocol -------------------------------------------------

    def on_event(self, event):
        super().on_event(event)  # keep the raw buffer
        with self._span_lock:
            self._fold(event)
        if event.kind in INSTANT_KINDS:
            with self._span_lock:
                self._instants.append((event, threading.get_ident()))

    def _fold(self, event):
        kind, stage = event.kind, event.stage
        if kind == "tick_start":
            name = f"tick-{event.data.get('tick', '?')}"
            self._tick_span = self._new_span(name, "tick", event, None,
                                             **event.data)
        elif kind == "tick_end":
            span, self._tick_span = self._tick_span, None
            if span is not None:
                span.close(event.data.get("status", "ok"),
                           event.monotonic,
                           **{k: v for k, v in event.data.items()
                              if k != "status"})
        elif kind == "run_start":
            self._stage_spans.clear()
            self._attempt_spans.clear()
            self._run_span = self._new_span("run", "run", event,
                                            self._tick_span,
                                            **event.data)
        elif kind == "stage_start":
            self._stage_spans[stage] = self._new_span(
                stage, "stage", event, self._run_span,
                layer=event.layer)
        elif kind == "stage_attempt":
            self._attempt_spans[stage] = self._new_span(
                stage, "attempt", event, self._stage_spans.get(stage),
                attempt=event.data.get("attempt", 0))
        elif kind == "stage_retry":
            # The retry event's "attempt" is the *next* attempt number;
            # keep the closing span's own attempt index intact.
            data = {("next_attempt" if key == "attempt" else key): value
                    for key, value in event.data.items()}
            self._close_attempt(stage, "retry", event, **data)
        elif kind in _FAILURE_STATUS:
            attempt_status, stage_status = _FAILURE_STATUS[kind]
            self._close_attempt(stage, attempt_status, event,
                                **event.data)
            if "seconds" in event.data:  # final: the stage ends here
                self._close_stage(stage, stage_status, event,
                                  **event.data)
        elif kind == "stage_skip":
            self._close_stage(stage, "skipped", event)
        elif kind == "stage_fallback":
            self._attempt_spans[stage] = self._new_span(
                stage, "fallback", event, self._stage_spans.get(stage))
        elif kind == "stage_end":
            self._close_attempt(stage, "ok", event)
            self._close_stage(stage, event.data.get("status", "ok"),
                              event, **{k: v for k, v in
                                        event.data.items()
                                        if k != "status"})
        elif kind == "stage_cancelled":
            self._close_attempt(stage, "cancelled", event,
                                **event.data)
            self._close_stage(stage, "cancelled", event, **event.data)
        elif kind == "cache_hit":
            self._close_stage(stage, "cached", event, cached=True)
        elif kind == "run_end":
            for stage_name in list(self._attempt_spans):
                self._close_attempt(stage_name, "unclosed", event)
            for stage_name in list(self._stage_spans):
                self._close_stage(stage_name, "unclosed", event)
            if self._run_span is not None:
                self._run_span.close(self._run_status(), event.monotonic,
                                     **event.data)
                self._run_span = None

    def _run_status(self):
        statuses = {span.status for span in self._spans
                    if span.kind == "stage"
                    and span.parent_id == (self._run_span.span_id
                                           if self._run_span else None)}
        if statuses & {"failed", "timed_out"}:
            return "failed"
        if "cancelled" in statuses:
            return "cancelled"
        return "ok"

    # -- inspection ----------------------------------------------------------

    def spans(self, kind=None, name=None, status=None):
        """Spans in creation order, optionally filtered."""
        with self._span_lock:
            spans = list(self._spans)
        if kind is not None:
            spans = [s for s in spans if s.kind == kind]
        if name is not None:
            spans = [s for s in spans if s.name == name]
        if status is not None:
            spans = [s for s in spans if s.status == status]
        return spans

    def span(self, name, kind="stage"):
        """The first span with this name and kind."""
        for s in self.spans(kind=kind, name=name):
            return s
        raise KeyError(f"no {kind} span named {name!r}")

    # -- export --------------------------------------------------------------

    def to_chrome_trace(self):
        """The trace as a ``chrome://tracing`` JSON-ready dict.

        Spans become complete (``"ph": "X"``) events with microsecond
        timestamps relative to the first span; marker events
        (:data:`INSTANT_KINDS`) become instants (``"ph": "i"``).
        """
        with self._span_lock:
            spans = list(self._spans)
            instants = list(self._instants)
        times = [s.start for s in spans]
        times.extend(e.monotonic for e, _ in instants)
        base = min(times) if times else 0.0

        def micros(seconds):
            return round((seconds - base) * 1e6, 3)

        trace_events = [{
            "ph": "M", "name": "process_name", "pid": 0,
            "args": {"name": "repro.DecisionPipeline"},
        }]
        for s in spans:
            end = s.end if s.end is not None else s.start
            args = {"status": s.status, "span_id": s.span_id,
                    "parent_id": s.parent_id}
            args.update({k: _jsonable(v)
                         for k, v in s.attributes.items()})
            trace_events.append({
                "name": s.name, "cat": s.kind, "ph": "X",
                "ts": micros(s.start),
                "dur": round((end - s.start) * 1e6, 3),
                "pid": 0, "tid": s.thread_id, "args": args,
            })
        for event, tid in instants:
            trace_events.append({
                "name": event.kind, "cat": "event", "ph": "i",
                "ts": micros(event.monotonic), "s": "t",
                "pid": 0, "tid": tid,
                "args": {"stage": event.stage,
                         **{k: _jsonable(v)
                            for k, v in event.data.items()}},
            })
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def export(self, path):
        """Write the chrome trace JSON to ``path``; returns the path."""
        payload = json.dumps(self.to_chrome_trace(), indent=2,
                             sort_keys=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        return path


def _jsonable(value):
    """Coerce an attribute to something ``json.dumps`` accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


class TeeTracer(Tracer):
    """Fans one event stream out to several tracers.

    ``on_event`` forwards to every child, swallowing per-child
    errors; ``inject`` forwards to every child exposing it *without*
    swallowing — a raised fault must reach the scheduler.  Note that
    events a child generates internally (e.g. a
    :class:`FaultInjector`'s ``fault_injected``) land only in that
    child's own buffer; prefer ``CollectingTracer.forward_to`` when
    the composition is injector-plus-observer.
    """

    def __init__(self, *tracers):
        self.tracers = list(tracers)

    def on_event(self, event):
        for tracer in self.tracers:
            with contextlib.suppress(Exception):
                tracer.on_event(event)

    def inject(self, stage_name, attempt):
        for tracer in self.tracers:
            inject = getattr(tracer, "inject", None)
            if inject is not None:
                inject(stage_name, attempt)
