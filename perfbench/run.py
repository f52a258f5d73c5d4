"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 perfbench/run.py --workload taxi-batch --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program under test is imported
from ``./src`` and nowhere else, and the metric names and units come
from ``./BENCHMARK.json``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer metrics of a traced run.  Diagnostics (environment,
host calibration, set-up samples; for a traced run also a chrome trace
and the per-layer self-time rollup) go to ``.perfbench_out/``.  See
``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

START = time.perf_counter()  # set-up time is counted from here

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("taxi-batch", "taxi-replan", "serve-route")
OUT_DIR = ".perfbench_out"
#: A calibration read is the median of this many timings of one chunk.
CALIBRATION_REPS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload; print metrics as JSON.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program(src):
    """Import ``repro`` from ``src``; False when it is not there."""
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return False
    sys.path.insert(0, src)
    import repro

    return os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__))) == src


def make_workload(name, seed, probe):
    from perfbench import serving, taxi

    factory = {
        "taxi-batch": taxi.TaxiBatch,
        "taxi-replan": taxi.TaxiReplan,
        "serve-route": serving.ServeRoute,
    }[name]
    return factory(seed, probe)


def child_setups(args, count):
    """Time ``count`` set-ups, each in a fresh interpreter, in turn."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def calibrate():
    """Median time (ms) of a fixed pure-Python chunk: a host-speed probe,
    recorded for diagnosis and never applied to a metric."""
    times = []
    for _ in range(CALIBRATION_REPS):
        began = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(1e3 * (time.perf_counter() - began))
    return sorted(times)[len(times) // 2]


def git_sha(root):
    """HEAD's commit; None outside a git checkout."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args, root):
    import numpy
    import scipy

    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cores": os.cpu_count(),
        "usable_cores": len(affinity(0)) if affinity else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(root),
    }


def measure(workload, probe, seconds, *, trace):
    """Step the workload until ``seconds`` of measured time are spent.

    Untraced, every step counts.  Traced, steps alternate untraced /
    traced, so both halves see the same host phases; the traced half
    feeds the per-layer metrics and the tracing-overhead figure.
    Returns ``{"latencies": (untraced, traced), "busy": (...),
    "step_ms", "attempted", "failed"}`` with latencies and busy time in
    seconds.
    """
    latencies = ([], [])
    step_ms = []
    busy = [0.0, 0.0]
    attempted = failed = steps = 0
    while busy[0] + busy[1] < seconds:
        traced = bool(trace and steps % 2)
        steps += 1
        probe.enabled = traced
        began = time.perf_counter()
        try:
            elapsed, samples, step_failed = workload.step()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            elapsed, samples, step_failed = (
                time.perf_counter() - began, [None], 1)
        finally:
            probe.enabled = False
        busy[traced] += elapsed
        step_ms.append(1e3 * elapsed)
        latencies[traced].extend(s for s in samples if s is not None)
        attempted += len(samples)
        failed += step_failed
    return {"latencies": latencies, "busy": busy, "step_ms": step_ms,
            "attempted": attempted, "failed": failed}


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(window, setups):
    from perfbench.measure import median, tail

    latencies = [1e3 * s for s in window["latencies"][0]]
    busy = window["busy"][0]
    return {
        "op_p50_ms": median(latencies),
        "op_p90_ms": tail(latencies, 0.90),
        "ops_per_s": len(latencies) / busy if busy else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.mean(s["setup_s"] for s in setups),
    }


def layer_metrics(workload, probe, window, setups, stem):
    """The traced run's per-layer metrics; writes the trace files."""
    from perfbench.measure import median

    untraced, traced = window["latencies"]
    metrics = workload.layer_metrics(median(untraced))
    rollup = probe.rollup()
    own = rollup.get(workload.op_name, {})
    metrics.update({
        "rollup.untimed_pct": own.get("untimed_pct", 0.0),
        "observability.bench_trace_overhead_pct": (
            100.0 * (median(traced) / median(untraced) - 1.0)
            if untraced and traced else 0.0),
    })
    for part in ("import_s", "world_s", "warmup_s"):
        metrics[f"coldstart.{part}"] = statistics.mean(
            sample[part] for sample in setups)
    probe.write_chrome_trace(stem + ".trace.json")
    with open(stem + ".rollup.json", "w") as handle:
        json.dump(rollup, handle, indent=2, sort_keys=True)
    return metrics


def report(spec, computed):
    """``{name: {"value", "unit"}}`` for every metric ``spec`` names.

    A metric a workload does not exercise reads 0; a computed name the
    spec does not list is an error.
    """
    names = {entry["name"]: entry["unit"] for entry in spec}
    unknown = set(computed) - set(names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: "
                       f"{sorted(unknown)}")
    return {name: {"value": float(computed.get(name, 0.0)), "unit": unit}
            for name, unit in names.items()}


def run(args, root, workload, probe, own_setup):
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    # ``setup_s`` is the mean of the workload's ``setup_samples`` set-ups:
    # this process's, then fresh interpreters one after another, half
    # before the measured window and half after, so that the samples span
    # host phases.  Set-up times fall in a fast and a slow mode; a median
    # of a few jumps between the modes, the mean moves with their mix.
    children = workload.setup_samples - 1
    setups = [own_setup] + child_setups(args, children // 2)
    env = environment(args, root)
    env["calibration_before_ms"] = calibrate()
    window = measure(workload, probe, args.seconds, trace=bool(args.trace))
    env["calibration_after_ms"] = calibrate()
    setups += child_setups(args, children - children // 2)
    gate_attempted, gate_failed = workload.check()
    attempted = window["attempted"] + gate_attempted
    failed = window["failed"] + gate_failed

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        computed = layer_metrics(workload, probe, window, setups, stem)
        metrics = report(spec["per_layer"], computed)
    else:
        metrics = report(spec["end_to_end"],
                         end_to_end_metrics(window, setups))
    env.update(setups=setups, attempted=attempted, failed=failed,
               gate_attempted=gate_attempted, gate_failed=gate_failed,
               ops=[len(lat) for lat in window["latencies"]],
               busy_s=window["busy"], step_ms=window["step_ms"],
               metrics=metrics)
    with open(stem + ".env.json", "w") as handle:
        json.dump(env, handle, indent=2, sort_keys=True)
    print(f"perfbench {args.workload} seed={args.seed}: "
          f"{attempted} ops, {failed} failed; calibration "
          f"{env['calibration_before_ms']:.2f} -> "
          f"{env['calibration_after_ms']:.2f} ms; details in "
          f"{stem}.env.json", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not import_program(src):
        print(f"perfbench: no program at {src}/repro; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    imported = time.perf_counter()
    sys.path.insert(0, os.path.dirname(HERE))
    from perfbench.spans import SpanRecorder

    probe = SpanRecorder()
    workload = make_workload(args.workload, args.seed, probe)
    try:
        built = time.perf_counter()
        workload.warm_up()
        ready = time.perf_counter()
        setup = {"import_s": imported - START, "world_s": built - imported,
                 "warmup_s": ready - built, "setup_s": ready - START}
        if args.setup_probe:
            print(json.dumps(setup))
            return 0
        return run(args, root, workload, probe, setup)
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
