"""Spans for the traced benchmark run: recording, chrome-trace export
and a per-layer self-time rollup.

The benchmark records a span around each of its own calls into a layer
of the program.  Spans stay in memory and are written out when the run
ends.  Every span belongs to one *op* (a pipeline run, a tick, a served
request); the op's root span is opened by the generator thread, and a
span opened on another thread with no open span of its own (a stage
running on an executor worker) takes the current op's root as parent.

A span's *self time* is its duration minus the part of that interval
its child spans cover.  The root's self time is the part of the op no
layer span accounts for: the rollup reports it as the op's untimed
remainder.
"""

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()

#: Most events a chrome-trace file keeps (the rollup uses every span).
MAX_TRACE_EVENTS = 50_000


class SpanRecorder:
    """In-memory spans and per-op counts; a no-op while not ``enabled``.

    Spans are lists ``[name, layer, start, end, parent, op, lane]``
    indexed by position; ``parent`` and ``op`` are indexes (``None``
    parent for a root, whose ``op`` is itself).
    """

    def __init__(self, enabled=False):
        self.enabled = bool(enabled)
        self.spans = []
        self.counts = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, layer, parent, lane):
        with self._lock:
            index = len(self.spans)
            op = index if parent is None else self.spans[parent][5]
            self.spans.append([name, layer, None, None, parent, op, lane])
        return index

    @contextmanager
    def _record(self, name, layer, *, root):
        stack = self._stack()
        parent = None if root else (stack[-1] if stack else self._op)
        index = self._open(name, layer, parent, threading.get_ident())
        if root:
            self._op = index
        stack.append(index)
        start = time.perf_counter()
        try:
            yield index
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self._op = None
            self.spans[index][2] = start
            self.spans[index][3] = end

    def op(self, name, layer):
        """Context manager opening the root span of one op."""
        if not self.enabled:
            return _NULL
        return self._record(name, layer, root=True)

    def span(self, name, layer):
        """Context manager recording one call into ``layer``."""
        if not self.enabled:
            return _NULL
        return self._record(name, layer, root=False)

    def add(self, name, layer, start, end, parent=None, lane=0):
        """Record a span whose interval was measured elsewhere."""
        index = self._open(name, layer, parent, lane)
        self.spans[index][2] = start
        self.spans[index][3] = end
        return index

    def count(self, name, value, op=None):
        """Add ``value`` to count ``name`` of ``op`` (default: current)."""
        op = self._op if op is None else op
        if self.enabled and op is not None:
            self.counts[(op, name)] += value

    # -- analysis ------------------------------------------------------------

    def roots(self, name):
        """Indexes of the root spans called ``name``."""
        return [i for i, s in enumerate(self.spans)
                if s[4] is None and s[0] == name]

    def per_op(self, name, roots):
        """Summed duration (s) of the spans called ``name``, per root."""
        totals = dict.fromkeys(roots, 0.0)
        for span in self.spans:
            if span[0] == name and span[4] is not None and span[5] in totals:
                totals[span[5]] += span[3] - span[2]
        return [totals[root] for root in roots]

    def op_counts(self, name, roots):
        """Count ``name`` of each root."""
        return [self.counts.get((root, name), 0.0) for root in roots]

    def self_times(self):
        """Self time (seconds) of every span, by index."""
        children = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span[4] is not None:
                children[span[4]].append(index)
        result = []
        for index, (_, _, start, end, *_) in enumerate(self.spans):
            covered = _covered(
                [(max(self.spans[c][2], start), min(self.spans[c][3], end))
                 for c in children.get(index, ())])
            result.append((end - start) - covered)
        return result

    def rollup(self):
        """Per root name: mean op wall and where it went, by layer.

        Returns ``{root name: {"ops", "wall_ms", "layers_ms",
        "untimed_ms", "untimed_pct"}}``: ``layers_ms`` maps each layer
        to the mean over ops of its summed self time, and ``untimed``
        is the mean root self time (the part of an op no layer span
        covers), in ms and as a share of the mean wall.  Means make the
        parts add up: layers plus untimed equal the wall, except that
        concurrent stages of one op (the two model fits) add past it.
        """
        self_times = self.self_times()
        per_root = defaultdict(lambda: defaultdict(float))
        for index, span in enumerate(self.spans):
            layer = "_untimed" if index == span[5] else span[1]
            per_root[span[5]][layer] += self_times[index]
        by_name = defaultdict(list)
        for root, layers in per_root.items():
            by_name[self.spans[root][0]].append(
                (self.spans[root][3] - self.spans[root][2], layers))
        summary = {}
        for name, ops in sorted(by_name.items()):
            layer_names = {k for _, layers in ops for k in layers}
            means = {layer: 1e3 * sum(layers.get(layer, 0.0)
                                      for _, layers in ops) / len(ops)
                     for layer in layer_names}
            wall = 1e3 * sum(wall for wall, _ in ops) / len(ops)
            untimed = means.pop("_untimed")
            summary[name] = {
                "ops": len(ops), "wall_ms": wall,
                "layers_ms": dict(sorted(means.items())),
                "untimed_ms": untimed,
                "untimed_pct": 100 * untimed / wall if wall > 0 else 0.0,
            }
        return summary

    def write_chrome_trace(self, path):
        """Write the spans as a chrome://tracing / Perfetto JSON file."""
        kept = self.spans[:MAX_TRACE_EVENTS]
        origin = min((span[2] for span in kept), default=0.0)
        events = [{
            "name": name, "cat": layer, "ph": "X", "pid": 1,
            "tid": lane,
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
        } for name, layer, start, end, _, _, lane in kept]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "droppedEvents": len(self.spans) - len(kept)},
                      handle)


def _covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if current_end is not None and start <= current_end:
            current_end = max(current_end, end)
            continue
        if current_end is not None:
            total += current_end - current_start
        current_start, current_end = start, end
    if current_end is not None:
        total += current_end - current_start
    return total

