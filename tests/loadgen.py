"""Closed-loop load generation against a :class:`DecisionServer`.

The harness behind the E28 serving benchmark and the serving tests: spin
up ``n_clients`` closed-loop clients (each submits its next request
only after the previous one resolves — the standard way to measure a
server at a bounded concurrency level), run for a fixed duration, and
fold every response into a :class:`LoadReport` with sustained qps,
client-observed latency percentiles and the shed rate.

Latency percentiles here are computed from the *raw* client-side
samples through the shared
:func:`repro.benchmarking.summarize_latencies` harness, so they are
exact; the server's own ``serve.latency_seconds`` histogram yields
the same shape through :meth:`Histogram.quantile` bucket estimation,
which the benchmark cross-checks.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.benchmarking.latency import summarize_latencies

__all__ = ["LoadReport", "closed_loop"]


@dataclass
class LoadReport:
    """Aggregate of one closed-loop run."""

    duration_seconds: float
    n_clients: int
    submitted: int
    outcomes: dict = field(default_factory=dict)
    qps: float = 0.0
    shed_rate: float = 0.0
    latency_p50: float = 0.0
    latency_p99: float = 0.0
    latency_mean: float = 0.0
    latency_max: float = 0.0

    def to_dict(self):
        """JSON-ready dict (what BENCH_e28.json embeds)."""
        return {
            "duration_seconds": self.duration_seconds,
            "n_clients": self.n_clients,
            "submitted": self.submitted,
            "outcomes": dict(self.outcomes),
            "qps": self.qps,
            "shed_rate": self.shed_rate,
            "latency_p50": self.latency_p50,
            "latency_p99": self.latency_p99,
            "latency_mean": self.latency_mean,
            "latency_max": self.latency_max,
        }


def closed_loop(server, make_query, *, n_clients=8, duration=1.0,
                deadline=None):
    """Run ``n_clients`` closed-loop clients for ``duration`` seconds.

    Parameters
    ----------
    server:
        The :class:`DecisionServer` under test.
    make_query:
        ``make_query(client_index, iteration)`` returns the next query
        object for that client — the workload definition.
    n_clients:
        Concurrent closed-loop clients (threads).
    duration:
        Seconds each client keeps issuing requests.
    deadline:
        Optional per-request deadline budget (seconds), forwarded to
        :meth:`DecisionServer.submit` — this is what arms both
        deadline-aware shedding and the ``deadline_exceeded`` outcome.

    Returns
    -------
    LoadReport
        ``qps`` counts *ok* responses over the measured wall clock;
        ``shed_rate`` is the overloaded fraction of submissions;
        latency fields summarize ok responses only.
    """
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1, got {n_clients}")
    barrier = threading.Barrier(n_clients + 1)
    lock = threading.Lock()
    latencies = []
    outcomes = {}
    submitted = [0]

    def client(index):
        barrier.wait()
        iteration = 0
        local_latencies = []
        local_outcomes = {}
        while time.perf_counter() < t_end:
            query = make_query(index, iteration)
            started = time.perf_counter()
            result = server.submit(query, deadline=deadline).result()
            elapsed = time.perf_counter() - started
            local_outcomes[result.outcome] = \
                local_outcomes.get(result.outcome, 0) + 1
            if result.ok:
                local_latencies.append(elapsed)
            iteration += 1
        with lock:
            latencies.extend(local_latencies)
            submitted[0] += iteration
            for outcome, count in local_outcomes.items():
                outcomes[outcome] = outcomes.get(outcome, 0) + count

    threads = [
        threading.Thread(target=client, args=(i,),
                         name=f"loadgen-{i}", daemon=True)
        for i in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    t_start = time.perf_counter()
    t_end = t_start + float(duration)
    barrier.wait()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t_start

    report = LoadReport(duration_seconds=wall, n_clients=n_clients,
                        submitted=submitted[0], outcomes=outcomes)
    ok = outcomes.get("ok", 0)
    shed = outcomes.get("overloaded", 0)
    report.qps = ok / wall if wall > 0 else 0.0
    report.shed_rate = shed / submitted[0] if submitted[0] else 0.0
    summary = summarize_latencies(latencies)
    report.latency_p50 = summary.p50
    report.latency_p99 = summary.p99
    report.latency_mean = summary.mean
    report.latency_max = summary.max
    return report
