"""The embedded decision server: micro-batching + admission control.

:class:`DecisionServer` turns the library's batch query APIs into a
long-lived serving loop, the "decision making serving real queries"
end of the paper's Figure-1 paradigm:

* clients :meth:`~DecisionServer.submit` typed queries from any
  thread and get a :class:`concurrent.futures.Future` resolving to a
  :class:`ServeResult`;
* a single dispatcher thread collects concurrent requests into
  **micro-batches** (up to ``batch_window`` seconds / ``max_batch``
  requests) and coalesces them into one ``route_many`` /
  ``match_many`` call per group and one deduplicated
  ``dijkstra_array`` search per distinct source — so a burst of k
  identical queries costs one computation, not k;
* **admission control** keeps the server responsive under overload:
  the request queue is bounded, and when it is full the *lowest
  priority loses* — an arriving request evicts the lowest-priority
  queued request (``Overloaded(reason="shed_priority")``) when it
  outranks one, and is otherwise shed itself
  (``reason="queue_full"``); requests whose ``deadline=`` budget is
  already smaller than the estimated queue wait are shed up front
  with ``reason="doomed"`` instead of queueing work whose answer
  nobody can use;
* per-request ``deadline=`` budgets map to the run-deadline machinery
  of the engine: a request that expires while queued (or whose batch
  finishes too late) resolves as ``"deadline_exceeded"`` carrying a
  :class:`repro.core.RunDeadlineExceeded`.

Everything the server does is published through the process metrics
registry (``serve.requests_total{outcome}``, ``serve.queue_depth``,
``serve.batch_size``, ``serve.latency_seconds``,
``serve.queue_seconds``); see
``docs/SERVING.md`` for the full table and the SLO semantics.

Because one dispatcher thread executes all batches sequentially over
the (now thread-safe) shared caches, server answers are identical to
direct single-threaded calls of the underlying APIs — the equivalence
the serving tests and the E28 benchmark gate on.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any

from .requests import (
    DistanceQuery,
    MatchQuery,
    Overloaded,
    RouteQuery,
    ServeResult,
)

__all__ = ["DecisionServer"]

#: Bucket bounds for the ``serve.batch_size`` histogram (requests).
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Dispatcher wake-up period while idle (also the close() latency).
_POLL_SECONDS = 0.05

#: Sentinel shutting the dispatcher down after the queue drains.
_STOP = object()


@dataclass
class _Pending:
    """One admitted request travelling through the queue."""

    query: Any
    op: str
    future: Future
    enqueued_at: float
    deadline_at: float | None
    utility: Any = None
    priority: int = 0
    dispatched_at: float = field(default=0.0)

    def expired(self, now):
        return self.deadline_at is not None and now > self.deadline_at


class _RequestQueue:
    """Bounded FIFO with priority-aware eviction at capacity.

    Dispatch order stays strictly FIFO (priorities do not jump the
    line — batching equivalence depends on arrival order), but when
    the queue is full :meth:`offer` evicts the lowest-priority queued
    request if the arrival outranks it, so under overload the lowest
    priorities are shed first.  Mirrors the :class:`queue.Queue`
    surface the dispatcher uses (``get(timeout=)`` / ``get_nowait``
    raising :class:`queue.Empty`, unbounded :meth:`put` for the stop
    sentinel).
    """

    def __init__(self, maxsize):
        self.maxsize = int(maxsize)
        self._items = deque()
        self._not_empty = threading.Condition(threading.Lock())  # noqa: RC034 -- in-process request queue; never pickled

    def qsize(self):
        with self._not_empty:
            return len(self._items)

    def put(self, item):
        """Unbounded append (the ``_STOP`` sentinel only)."""
        with self._not_empty:
            self._items.append(item)
            self._not_empty.notify()

    def offer(self, pending):
        """Admit ``pending`` if there is room or something outranked.

        Returns ``(admitted, evicted)``: ``(True, None)`` for a plain
        append, ``(True, victim)`` when the lowest-priority queued
        request was evicted to make room (the caller must resolve the
        victim as shed), ``(False, None)`` when the queue is full of
        equal-or-higher priorities.
        """
        with self._not_empty:
            if len(self._items) < self.maxsize:
                self._items.append(pending)
                self._not_empty.notify()
                return True, None
            victim_index = None
            for index, item in enumerate(self._items):
                if item is _STOP:
                    continue
                # <= keeps the *latest* of the equally lowest queued,
                # so earlier same-priority arrivals keep their place.
                if victim_index is None or \
                        item.priority <= self._items[victim_index].priority:
                    victim_index = index
            if victim_index is None or \
                    self._items[victim_index].priority >= pending.priority:
                return False, None
            victim = self._items[victim_index]
            del self._items[victim_index]
            self._items.append(pending)
            self._not_empty.notify()
            return True, victim

    def get(self, timeout=None):
        with self._not_empty:
            if not self._items:
                self._not_empty.wait(timeout)
            if not self._items:
                raise queue.Empty
            return self._items.popleft()

    def get_nowait(self):
        with self._not_empty:
            if not self._items:
                raise queue.Empty
            return self._items.popleft()


class DecisionServer:
    """Long-lived embedded server over router / matcher / network.

    Parameters
    ----------
    router:
        A :class:`~repro.decision.StochasticRouter` serving
        :class:`RouteQuery` (optional).
    matcher:
        A :class:`~repro.governance.fusion.HmmMapMatcher` serving
        :class:`MatchQuery` (optional).
    network:
        A :class:`~repro.datatypes.RoadNetwork` serving
        :class:`DistanceQuery`; defaults to the router's / matcher's
        network.
    utility:
        Default utility for :class:`RouteQuery` requests that do not
        carry their own.
    max_queue:
        Bound on the request queue; a full queue sheds
        (``Overloaded(reason="queue_full")``).
    batch_window:
        Seconds the dispatcher waits to coalesce more requests after
        picking up the first of a batch.  ``0`` batches only what is
        already queued.
    max_batch:
        Hard cap on requests per micro-batch.
    prune:
        Forwarded to ``route_many`` (stochastic-dominance pruning).
    shed_doomed:
        Enable deadline-aware admission shedding (on by default).
    """

    def __init__(self, *, router=None, matcher=None, network=None,
                 utility=None, max_queue=256, batch_window=0.002,
                 max_batch=64, prune=True, shed_doomed=True):
        if router is None and matcher is None and network is None:
            raise ValueError(
                "need at least one of router=, matcher=, network=")
        self.router = router
        self.matcher = matcher
        self.network = network
        if self.network is None and router is not None:
            self.network = router.network
        if self.network is None and matcher is not None:
            self.network = matcher.network
        self.utility = utility
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_queue = int(max_queue)
        self.batch_window = float(batch_window)
        self.max_batch = int(max_batch)
        self.prune = bool(prune)
        self.shed_doomed = bool(shed_doomed)

        self._queue = _RequestQueue(self.max_queue)
        self._closed = False
        self._state_lock = threading.Lock()  # noqa: RC034 -- live server with worker threads; never pickled
        self._outcome_counts = {}
        self._submitted = 0
        self._batches = 0
        # EWMA of per-request service seconds, feeding the doomed-
        # shedding wait estimate; 0.0 until the first batch completes.
        self._ewma_service = 0.0
        self._dispatcher = threading.Thread(
            target=self._run, name="decision-server", daemon=True)
        self._dispatcher.start()

    # -- client API --------------------------------------------------------

    def submit(self, query, *, deadline=None):
        """Admit ``query``; returns a Future of :class:`ServeResult`.

        Never blocks and never raises for load reasons: admission
        failures resolve the future immediately with a typed
        :class:`Overloaded` result.  Raises only for caller errors
        (unknown query type, missing backend, closed server).
        """
        op = self._op_for(query)
        if self._closed:
            raise RuntimeError("server is closed")
        if deadline is not None and float(deadline) <= 0:
            raise ValueError("deadline must be positive or None")
        now = time.perf_counter()
        future = Future()
        pending = _Pending(
            query=query, op=op, future=future, enqueued_at=now,
            deadline_at=None if deadline is None
            else now + float(deadline),
            utility=getattr(query, "utility", None) or self.utility,
            priority=int(getattr(query, "priority", 0)),
        )
        if deadline is not None and self.shed_doomed:
            estimated_wait = self._queue.qsize() * self._ewma_service
            if estimated_wait > float(deadline):
                self._resolve(pending, Overloaded(
                    op=op, reason="doomed"), now)
                return future
        admitted, evicted = self._queue.offer(pending)
        if not admitted:
            self._resolve(pending, Overloaded(
                op=op, reason="queue_full"), now)
            return future
        if evicted is not None:
            self._resolve(evicted, Overloaded(
                op=evicted.op, reason="shed_priority"), now)
        with self._state_lock:
            self._submitted += 1
        self._gauge("serve.queue_depth").set(self._queue.qsize())
        return future

    def route(self, origin, destination, *, departure_minute=0.0,
              utility=None, deadline=None, priority=0):
        """Blocking :class:`RouteQuery` convenience."""
        return self.submit(
            RouteQuery(origin, destination, departure_minute,
                       utility, priority), deadline=deadline).result()

    def match(self, trajectory, *, deadline=None, priority=0):
        """Blocking :class:`MatchQuery` convenience."""
        return self.submit(MatchQuery(trajectory, priority),
                           deadline=deadline).result()

    def distances(self, source, *, cutoff=None, deadline=None,
                  priority=0):
        """Blocking :class:`DistanceQuery` convenience."""
        return self.submit(DistanceQuery(source, cutoff, priority),
                           deadline=deadline).result()

    def stats(self):
        """Serving counters: submissions, outcomes, queue, EWMA."""
        with self._state_lock:
            return {
                "submitted": self._submitted,
                "batches": self._batches,
                "outcomes": dict(self._outcome_counts),
                "queue_depth": self._queue.qsize(),
                "ewma_service_seconds": self._ewma_service,
                "closed": self._closed,
            }

    def close(self, *, drain=True):
        """Stop admitting; optionally serve what is already queued.

        With ``drain=False`` queued requests resolve as
        ``Overloaded(reason="queue_full")`` instead of being served.
        """
        if self._closed:
            return
        self._closed = True
        if not drain:
            while True:
                try:
                    pending = self._queue.get_nowait()
                except queue.Empty:
                    break
                self._resolve(pending, Overloaded(
                    op=pending.op, reason="queue_full"),
                    time.perf_counter())
        # The sentinel rides the same queue, so it is processed only
        # after everything admitted before close().
        self._queue.put(_STOP)
        self._dispatcher.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    # -- dispatch loop -----------------------------------------------------

    def _run(self):
        stop = False
        while not stop:
            try:
                first = self._queue.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                continue
            if first is _STOP:
                break
            batch = [first]
            window_end = time.perf_counter() + self.batch_window
            while len(batch) < self.max_batch:
                remaining = window_end - time.perf_counter()
                try:
                    item = (self._queue.get(timeout=remaining)
                            if remaining > 0
                            else self._queue.get_nowait())
                except queue.Empty:
                    break
                if item is _STOP:
                    stop = True
                    break
                batch.append(item)
            self._process(batch)
        self._gauge("serve.queue_depth").set(0)

    def _process(self, batch):
        dispatched_at = time.perf_counter()
        self._gauge("serve.queue_depth").set(self._queue.qsize())
        with self._state_lock:
            self._batches += 1
        live = []
        for pending in batch:
            pending.dispatched_at = dispatched_at
            if pending.expired(dispatched_at):
                self._resolve(pending, self._expired_result(pending),
                              dispatched_at)
            else:
                live.append(pending)
        if not live:
            return
        groups = self._group(live)
        for (op, _), members in groups.items():
            started = time.perf_counter()
            results = self._dispatch(op, members)
            wall = time.perf_counter() - started
            self._observe_batch(op, len(members), wall)
            finished = time.perf_counter()
            for pending, result in zip(members, results):
                result.op = pending.op
                result.service_seconds = wall
                result.batch_size = len(members)
                if result.ok and pending.expired(finished):
                    result = self._expired_result(pending)
                    result.service_seconds = wall
                    result.batch_size = len(members)
                self._resolve(pending, result, finished)

    def _group(self, live):
        """Stable grouping: op kind, and utility identity for routes."""
        groups = {}
        for pending in live:
            key = (pending.op,
                   id(pending.utility) if pending.op == "route"
                   else None)
            groups.setdefault(key, []).append(pending)
        return groups

    def _dispatch(self, op, members):
        """One batched backend call; one ServeResult per member."""
        try:
            if op == "route":
                return self._dispatch_routes(members)
            if op == "match":
                return self._dispatch_matches(members)
            return self._dispatch_distances(members)
        except Exception as error:  # systemic batch failure
            return [ServeResult(outcome="error", error=error)
                    for _ in members]

    def _dispatch_routes(self, members):
        utility = members[0].utility
        if self.router is None:
            raise ValueError("server has no router for RouteQuery")
        if utility is None:
            raise ValueError(
                "RouteQuery needs a utility (request or server default)")
        queries = [
            (p.query.origin, p.query.destination,
             p.query.departure_minute)
            for p in members
        ]
        values = self.router.route_many(queries, utility,
                                        prune=self.prune)
        return [ServeResult(value=value) for value in values]

    def _dispatch_matches(self, members):
        if self.matcher is None:
            raise ValueError("server has no matcher for MatchQuery")
        trajectories = [p.query.trajectory for p in members]
        try:
            matched = self.matcher.match_many(trajectories)
        except Exception:
            # One bad trajectory poisons a shared batch; isolate it by
            # re-matching individually (cheap: the distance LRU is hot).
            results = []
            for trajectory in trajectories:
                try:
                    results.append(
                        ServeResult(value=self.matcher.match(trajectory)))
                except Exception as error:
                    results.append(ServeResult(outcome="error",
                                               error=error))
            return results
        return [ServeResult(value=value) for value in matched]

    def _dispatch_distances(self, members):
        if self.network is None:
            raise ValueError("server has no network for DistanceQuery")
        rows = {}
        results = []
        for pending in members:
            key = (pending.query.source, pending.query.cutoff)
            try:
                if key not in rows:
                    rows[key] = self.network.dijkstra_array(
                        key[0], cutoff=key[1])
                results.append(ServeResult(value=rows[key]))
            except Exception as error:
                results.append(ServeResult(outcome="error",
                                           error=error))
        return results

    # -- bookkeeping -------------------------------------------------------

    @staticmethod
    def _op_for(query):
        if isinstance(query, RouteQuery):
            return "route"
        if isinstance(query, MatchQuery):
            return "match"
        if isinstance(query, DistanceQuery):
            return "distance"
        raise TypeError(
            f"unknown query type {type(query).__name__!r}; expected "
            "RouteQuery, MatchQuery or DistanceQuery")

    def _expired_result(self, pending):
        # Deferred: only an expired request needs the engine's errors.
        from ..core.stage import RunDeadlineExceeded

        budget = pending.deadline_at - pending.enqueued_at
        return ServeResult(
            op=pending.op, outcome="deadline_exceeded",
            error=RunDeadlineExceeded(
                f"request deadline ({budget:.3f}s) expired before a "
                f"{pending.op} result was produced"))

    def _resolve(self, pending, result, now):
        result.op = pending.op
        result.queue_seconds = max(
            0.0, (pending.dispatched_at or now) - pending.enqueued_at)
        latency = max(0.0, now - pending.enqueued_at)
        registry = self._registry()
        labels = {"outcome": result.outcome}
        if isinstance(result, Overloaded):
            labels["reason"] = result.reason
        registry.counter(
            "serve.requests_total",
            "DecisionServer requests by outcome").inc(1, **labels)
        registry.histogram(
            "serve.latency_seconds",
            "Submit-to-resolve latency by query kind").observe(
                latency, op=pending.op)
        registry.histogram(
            "serve.queue_seconds",
            "Time spent queued before dispatch").observe(
                result.queue_seconds, op=pending.op)
        with self._state_lock:
            self._outcome_counts[result.outcome] = \
                self._outcome_counts.get(result.outcome, 0) + 1
        pending.future.set_result(result)

    def _observe_batch(self, op, size, wall):
        registry = self._registry()
        registry.histogram(
            "serve.batch_size",
            "Coalesced requests per backend batch call",
            buckets=_BATCH_BUCKETS).observe(size, op=op)
        per_request = wall / max(size, 1)
        with self._state_lock:
            if self._ewma_service:
                self._ewma_service = (0.8 * self._ewma_service
                                      + 0.2 * per_request)
            else:
                self._ewma_service = per_request

    @staticmethod
    def _registry():
        from ..observability.metrics import get_registry

        return get_registry()

    def _gauge(self, name):
        return self._registry().gauge(
            name, "Requests waiting in the server queue")

    def __repr__(self):
        return (f"DecisionServer(queue={self._queue.qsize()}/"
                f"{self.max_queue}, window={self.batch_window}, "
                f"closed={self._closed})")
