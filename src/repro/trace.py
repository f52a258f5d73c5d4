"""Trace-capture CLI: ``python -m repro.trace``.

Runs a Python script (or the built-in demo) with every
:class:`~repro.core.pipeline.DecisionPipeline` run instrumented, then
writes the collected span tree as ``chrome://tracing`` JSON — open it
in ``chrome://tracing`` or https://ui.perfetto.dev without touching
the script itself::

    python -m repro.trace -o trace.json examples/quickstart.py
    python -m repro.trace --demo -o trace.json --metrics metrics.json
    python -m repro.trace --profile myscript.py -- --my-script-flag

As with ``python -m cProfile``, options for this tool go *before*
the script path; everything after the script (optionally separated
by ``--``) is passed through to the script untouched.

How it works: for the duration of the target script,
``DecisionPipeline.run`` — and ``DecisionPipeline.stream`` plus each
session's ``tick``, so incremental streaming sessions show up as
``tick`` spans wrapping their runs — is wrapped so that

* a shared :class:`~repro.observability.SpanTracer` observes every
  run (composed with the script's own tracer via
  ``CollectingTracer.forward_to`` or :class:`TeeTracer`, so existing
  instrumentation keeps working),
* a fresh :class:`~repro.observability.MetricsRegistry` is installed
  as the process default, capturing engine and hot-path cache series,
* ``--profile`` turns on per-stage profiling (wall/CPU time, queue
  wait, and memory when ``tracemalloc`` is running) for runs that did
  not request it themselves.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import runpy
import sys

from .core.events import CollectingTracer
from .core.pipeline import DecisionPipeline
from .core.streaming import IncrementalSession
from .observability import MetricsRegistry, SpanTracer, TeeTracer
from .observability.metrics import use_registry

__all__ = ["TraceCapture", "main"]


class TraceCapture:
    """Instruments every ``DecisionPipeline.run`` inside a ``with``.

    >>> with TraceCapture(profile=True) as capture:   # doctest: +SKIP
    ...     my_script_main()
    >>> capture.spans.export("trace.json")            # doctest: +SKIP
    >>> capture.registry.snapshot()                   # doctest: +SKIP

    Attributes
    ----------
    spans:
        The shared :class:`SpanTracer` every run reports into.
    registry:
        The :class:`MetricsRegistry` installed as process default for
        the duration of the capture.
    reports:
        The :class:`~repro.core.report.RunReport` of every captured
        run, in completion order.
    """

    def __init__(self, *, profile=False):
        self.profile = bool(profile)
        self.spans = SpanTracer()
        self.registry = MetricsRegistry()
        self.reports = []
        self._original_run = None
        self._original_stream = None
        self._original_tick = None
        self._registry_context = None

    def _compose_tracer(self, kwargs):
        """Route the call's tracer (if any) through the span tracer."""
        tracer = kwargs.get("tracer")
        if tracer is None:
            kwargs["tracer"] = self.spans
        elif isinstance(tracer, CollectingTracer):
            # forward_to() keeps injector-generated events
            # (fault_injected) visible to the span tracer too.
            if all(t is not self.spans for t in tracer._forward):
                tracer.forward_to(self.spans)
        else:
            kwargs["tracer"] = TeeTracer(tracer, self.spans)
        return kwargs

    # -- context manager -----------------------------------------------------

    def __enter__(self):
        capture = self

        def traced_run(pipeline, *args, **kwargs):
            capture._compose_tracer(kwargs)
            if capture.profile:
                kwargs.setdefault("profile", True)
            state, report = capture._original_run(
                pipeline, *args, **kwargs)
            capture.reports.append(report)
            return state, report

        def traced_stream(pipeline, *args, **kwargs):
            capture._compose_tracer(kwargs)
            return capture._original_stream(pipeline, *args, **kwargs)

        def traced_tick(session, *args, **kwargs):
            state, report = capture._original_tick(
                session, *args, **kwargs)
            capture.reports.append(report)
            return state, report

        self._original_run = DecisionPipeline.run
        self._original_stream = DecisionPipeline.stream
        self._original_tick = IncrementalSession.tick
        DecisionPipeline.run = traced_run
        DecisionPipeline.stream = traced_stream
        IncrementalSession.tick = traced_tick
        self._registry_context = use_registry(self.registry)
        self._registry_context.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        DecisionPipeline.run = self._original_run
        DecisionPipeline.stream = self._original_stream
        IncrementalSession.tick = self._original_tick
        self._registry_context.__exit__(exc_type, exc, tb)
        return False


def _demo_collect(s):
    s["raw"] = [3.0, None, 5.0]
    return "ok"


def _demo_repair(s):
    s["clean"] = [v if v is not None else 4.0 for v in s["raw"]]
    return "ok"


def _demo_detect(s):
    raise ValueError("detector offline")


def _demo_act(s):
    raise RuntimeError("primary actuator down")


def _demo_hold(s):
    s["action"] = "hold"
    return "held position"


def _demo_window(s):
    s["window_sum"] = float(sum(s["feed"]))
    return "window"


def _demo_window_fold(s, tick):
    s["window_sum"] = s["window_sum"] + float(sum(s["feed"]))
    return "window (fold)"


def _demo_threshold(s):
    s["alert"] = s["window_sum"] > 10.0
    return "threshold"


def _run_demo():
    """A small self-contained pipeline with a scripted fault, so the
    demo trace shows a retry, a skip and a fallback — then a short
    streaming session, so it also shows tick spans with replayed
    (saved) stages and an incremental fold.  Stage functions are
    module-level (not lambdas) so the demo also runs under
    ``REPRO_EXECUTOR=process``."""
    from .core.faults import FaultInjector

    faults = FaultInjector().fail("repair", times=1)
    pipeline = DecisionPipeline("repro.trace demo")
    pipeline.add_data(
        "collect", _demo_collect, reads=(), writes=("raw",))
    pipeline.add_governance(
        "repair", _demo_repair,
        reads=("raw",), writes=("clean",), retries=1, backoff=0.0)
    # The last two stages fail on purpose (the demo trace should show
    # a skip and a fallback), so their declared contracts are never
    # exercised — that staleness is the point here.
    pipeline.add_analytics(  # noqa: RC003
        "detect", _demo_detect,
        reads=("clean",), writes=("scores",), on_error="skip")
    pipeline.add_decision(  # noqa: RC003
        "act", _demo_act,
        reads=("clean",), writes=("action",), on_error="fallback",
        fallback=_demo_hold)
    _, report = pipeline.run(tracer=faults, max_workers=1)
    print(report.render())

    stream = DecisionPipeline("repro.trace demo (stream)")
    stream.add_data(
        "collect", _demo_collect, reads=(), writes=("raw",))
    stream.add_governance(
        "repair", _demo_repair, reads=("raw",), writes=("clean",))
    stream.add_analytics(
        "window", _demo_window, reads=("feed",),
        writes=("window_sum",), incremental=_demo_window_fold)
    stream.add_decision(
        "threshold", _demo_threshold, reads=("window_sum",),
        writes=("alert",))
    session = stream.stream({"feed": [1.0, 2.0]}, max_workers=1)
    session.tick()
    for feed in ([3.0, 4.0], [5.0]):
        _, report = session.tick(changed={"feed": feed})
    print(report.render())


def _run_script(script, script_args):
    argv = [script, *script_args]
    previous_argv = sys.argv
    sys.argv = argv
    try:
        with contextlib.suppress(SystemExit):
            runpy.run_path(script, run_name="__main__")
    finally:
        sys.argv = previous_argv


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Run a script with every DecisionPipeline run "
                    "traced, then export chrome://tracing JSON.",
    )
    parser.add_argument(
        "script", nargs="?",
        help="Python script to run under tracing (mutually exclusive "
             "with --demo)")
    parser.add_argument(
        "script_args", nargs=argparse.REMAINDER,
        help="arguments passed through to the script")
    parser.add_argument(
        "-o", "--output", default="trace.json",
        help="chrome trace JSON output path (default: trace.json)")
    parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="also write the MetricsRegistry snapshot as JSON")
    parser.add_argument(
        "--profile", action="store_true",
        help="enable per-stage profiling on every captured run")
    parser.add_argument(
        "--demo", action="store_true",
        help="trace the built-in demo pipeline instead of a script")
    arguments = parser.parse_args(argv)

    if arguments.demo == (arguments.script is not None):
        parser.error("provide exactly one of SCRIPT or --demo")
    script_args = arguments.script_args
    if script_args and script_args[0] == "--":
        script_args = script_args[1:]

    with TraceCapture(profile=arguments.profile) as capture:
        if arguments.demo:
            _run_demo()
        else:
            _run_script(arguments.script, script_args)

    if not capture.reports:
        print("warning: no DecisionPipeline.run() calls were captured",
              file=sys.stderr)

    capture.spans.export(arguments.output)
    n_spans = len(capture.spans.spans())
    n_runs = len(capture.spans.spans(kind="run"))
    print(f"wrote {arguments.output}: {n_spans} spans "
          f"from {n_runs} run(s)")

    if arguments.metrics is not None:
        with open(arguments.metrics, "w", encoding="utf-8") as handle:
            json.dump(capture.registry.snapshot(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote {arguments.metrics}: "
              f"{len(capture.registry.names())} metric families")

    if arguments.profile and capture.reports:
        print()
        print("profile (wall / cpu / queue-wait):")
        for report in capture.reports:
            for name, profile in report.profiles.items():
                print(f"  {name}: "
                      f"{profile['wall_seconds']:.3f}s / "
                      f"{profile['cpu_seconds']:.3f}s / "
                      f"{profile['queue_wait_seconds']:.3f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
