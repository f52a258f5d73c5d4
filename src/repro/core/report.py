"""Structured reports for pipeline runs.

The paradigm of Figure 1 is a *process*; a run of it should leave an
audit trail — which governance steps ran, what the analytics produced,
what the decision was and why.  :class:`RunReport` is that trail: an
ordered list of stage records plus the engine's execution story — the
resolved DAG, per-stage status / retries / cache hits, and the three
timings that characterize a scheduled run:

* ``total_seconds`` — the sum of stage durations (sequential cost),
* ``wall_seconds`` — observed wall-clock time of the whole run,
* ``critical_path_seconds`` — the DAG's longest duration-weighted
  path, the lower bound with unlimited parallelism.

The report has no clock: a record's ``duration_seconds`` is the
scheduler's start→terminal interval for the stage (all attempts,
backoff and fallback), and the engine sets ``wall_seconds`` from the
``run_start`` and ``run_end`` stamps.
"""

from __future__ import annotations

from .dag import critical_path_seconds as _critical_path

__all__ = ["StageRecord", "RunReport"]

_STATUSES = ("ok", "failed", "skipped", "fallback", "timed_out",
             "cancelled")


class StageRecord:
    """One pipeline stage's outcome."""

    def __init__(self, layer, name, summary, duration_seconds,
                 details=None, *, status="ok", retries=0,
                 cache_hit=False, error=None):
        if status not in _STATUSES:
            raise ValueError(
                f"status must be one of {_STATUSES}, got {status!r}"
            )
        self.layer = str(layer)
        self.name = str(name)
        self.summary = str(summary)
        self.duration_seconds = float(duration_seconds)
        self.details = dict(details or {})
        self.status = status
        self.retries = int(retries)
        self.cache_hit = bool(cache_hit)
        self.error = error

    def __repr__(self):
        flags = ""
        if self.cache_hit:
            flags += " cached"
        if self.status != "ok":
            flags += f" {self.status}"
        return (
            f"StageRecord({self.layer}/{self.name}: {self.summary} "
            f"[{self.duration_seconds:.3f}s{flags}])"
        )


class RunReport:
    """Ordered record of one Data-Governance-Analytics-Decision run."""

    _LAYERS = ("data", "governance", "analytics", "decision")

    def __init__(self, title="pipeline run"):
        self.title = str(title)
        self.records = []
        self.dag = []
        self.deadline_seconds = None
        self.profiles = {}
        self.run_id = None
        self.wall_seconds = 0.0  # set by the engine at run end

    def add(self, layer, name, summary, duration_seconds, details=None,
            *, status="ok", retries=0, cache_hit=False, error=None):
        if layer not in self._LAYERS:
            raise ValueError(
                f"layer must be one of {self._LAYERS}, got {layer!r}"
            )
        record = StageRecord(layer, name, summary, duration_seconds,
                             details, status=status, retries=retries,
                             cache_hit=cache_hit, error=error)
        self.records.append(record)
        return record

    def set_dag(self, edges):
        """Record the resolved DAG as ``(stage, (dep, ...))`` pairs."""
        self.dag = [(str(name), tuple(deps)) for name, deps in edges]

    def set_deadline(self, seconds):
        """Record the run-level deadline budget (``None`` = none)."""
        self.deadline_seconds = (None if seconds is None
                                 else float(seconds))

    def set_profiles(self, profiles):
        """Attach per-stage profiling data (``run(profile=True)``).

        ``profiles`` maps stage name to the plain dict produced by
        :meth:`~repro.observability.RunProfiler.profiles`: wall/CPU
        seconds, queue wait and tracemalloc deltas.
        """
        self.profiles = {str(name): dict(data)
                         for name, data in dict(profiles).items()}

    def profile(self, name):
        """The named stage's profile dict (requires ``profile=True``)."""
        try:
            return self.profiles[name]
        except KeyError:
            raise KeyError(
                f"no profile for stage {name!r}; was the run made "
                "with profile=True?") from None

    @property
    def deadline_remaining_seconds(self):
        """Budget left when the run ended (``None`` without deadline)."""
        if self.deadline_seconds is None:
            return None
        return self.deadline_seconds - self.wall_seconds

    def stages(self, layer=None):
        """Records, optionally filtered to one layer."""
        if layer is None:
            return list(self.records)
        return [r for r in self.records if r.layer == layer]

    def record(self, name):
        """The record of the named stage (first match)."""
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(f"no record for stage {name!r}")

    def status_map(self):
        """``{stage name: status}`` over the recorded stages.

        The compact equivalence surface the executor-backend tests
        compare: two runs of the same pipeline agree iff their status
        maps (and final states) agree, regardless of record order,
        timings or backend.
        """
        return {r.name: r.status for r in self.records}

    # -- timings -------------------------------------------------------------

    @property
    def total_seconds(self):
        """Summed stage durations — what a sequential run would cost."""
        return sum(r.duration_seconds for r in self.records)

    @property
    def critical_path_seconds(self):
        """Longest duration-weighted path through the recorded DAG."""
        if not self.dag:
            return self.total_seconds
        index = {name: i for i, (name, _) in enumerate(self.dag)}
        durations = [0.0] * len(self.dag)
        for r in self.records:
            if r.name in index:
                durations[index[r.name]] = r.duration_seconds
        deps = [
            {index[d] for d in dep_names if d in index}
            for _, dep_names in self.dag
        ]
        return _critical_path(durations, deps)

    # -- engine counters -----------------------------------------------------

    @property
    def cache_hits(self):
        return sum(1 for r in self.records if r.cache_hit)

    @property
    def total_retries(self):
        return sum(r.retries for r in self.records)

    @property
    def timed_out_count(self):
        return sum(1 for r in self.records if r.status == "timed_out")

    @property
    def cancelled_count(self):
        return sum(1 for r in self.records if r.status == "cancelled")

    def render(self):
        """Human-readable multi-line summary."""
        lines = [f"=== {self.title} ==="]
        for layer in self._LAYERS:
            records = self.stages(layer)
            if not records:
                continue
            lines.append(f"[{layer}]")
            for record in records:
                flags = []
                if record.cache_hit:
                    flags.append("cached")
                if record.retries:
                    flags.append(f"{record.retries} retries")
                if record.status != "ok":
                    flags.append(record.status)
                suffix = f" [{', '.join(flags)}]" if flags else ""
                lines.append(
                    f"  {record.name}: {record.summary} "
                    f"({record.duration_seconds:.3f}s){suffix}"
                )
        lines.append(
            f"total stage time: {self.total_seconds:.3f}s | "
            f"wall clock: {self.wall_seconds:.3f}s | "
            f"critical path: {self.critical_path_seconds:.3f}s"
        )
        if self.deadline_seconds is not None:
            lines.append(
                f"deadline: {self.deadline_seconds:.3f}s | "
                f"remaining: {self.deadline_remaining_seconds:.3f}s"
            )
        if self.cache_hits or self.total_retries:
            lines.append(
                f"cache hits: {self.cache_hits} | "
                f"retries: {self.total_retries}"
            )
        if self.timed_out_count or self.cancelled_count:
            lines.append(
                f"timed out: {self.timed_out_count} | "
                f"cancelled: {self.cancelled_count}"
            )
        if self.profiles:
            lines.append("profile (wall / cpu / queue-wait / net alloc):")
            for name, p in self.profiles.items():
                lines.append(
                    f"  {name}: {p['wall_seconds']:.3f}s / "
                    f"{p['cpu_seconds']:.3f}s / "
                    f"{p['queue_wait_seconds']:.3f}s / "
                    f"{p['net_alloc_bytes'] / 1024:.1f} KiB "
                    f"(peak {p['peak_alloc_bytes'] / 1024:.1f} KiB)"
                )
        return "\n".join(lines)

    def __repr__(self):
        return f"RunReport(title={self.title!r}, stages={len(self.records)})"
