"""The benchmark's copy of the autonomous-taxi scenario, and its two
workloads: ``taxi-batch`` and ``taxi-replan``.

:class:`TaxiScenario` repeats ``examples/traffic_routing.py`` stage by
stage, with the same public calls and the same 320-trip fleet, so that
a span can be recorded around every call into a layer.  The example
seeds its four generators with 1, 2, 3 and 4; the copy seeds them with
``k + seed - 1``, so workload seed 1 is the example itself.
:func:`run_example` runs the example's own pipeline under the same
shift, which is how the ``taxi-batch`` gate checks the copy.

``TaxiScenario(..., replan=True)`` is the incremental variant behind
``taxi-replan``: the model fits also read ``window`` (newly observed
trips) and routing, risk profiles and the skyline read ``departure``;
an :class:`~repro.IncrementalSession` supplies both on every tick.
"""

import importlib.util
import os
import time
from types import SimpleNamespace

import numpy as np

from repro import DecisionPipeline, RoadNetwork
from repro.datasets import TrafficSimulator, TrajectoryGenerator
from repro.decision import (
    DeadlineUtility,
    EcoDrivingPlanner,
    RiskAverseUtility,
    RiskNeutralUtility,
    SkylineRouter,
    StochasticRouter,
)
from repro.governance.fusion import HmmMapMatcher
from repro.governance.uncertainty import EdgeCentricModel, PathCentricModel

from .measure import digest, median

DEPARTURE = 8 * 60  # morning rush, as in the example
EXAMPLE = os.path.join("examples", "traffic_routing.py")

#: taxi-replan's observation pool: windows, and trips per window.  A
#: fixed window size keeps every tick's cost alike.
POOL_WINDOWS = 32
WINDOW_TRIPS = 40


class TaxiScenario:
    """The taxi pipeline's stages, with a span around each layer call."""

    def __init__(self, seed, probe, *, replan=False):
        self.offset = int(seed) - 1
        self.probe = probe
        self.replan = bool(replan)

    def rng(self, k):
        """The generator the example seeds with ``k``."""
        return np.random.default_rng(k + self.offset)

    def world(self):
        """The road network and traffic simulator the fleet drives in."""
        network = RoadNetwork.grid(6, 6)
        simulator = TrafficSimulator(
            network, sigma_correlated=0.35, sigma_independent=0.12,
            rng=self.rng(1))
        return network, simulator

    def _departure(self, state):
        return state["departure"] if self.replan else DEPARTURE

    def _observed(self, state):
        if self.replan:
            return state["trips"] + state["window"]
        return state["trips"]

    # -- stages ---------------------------------------------------------------

    def collect_fleet(self, state):
        """data: simulate the world and a map-matched GPS fleet."""
        span = self.probe.span
        with span("datasets.world", "datasets"):
            network, simulator = self.world()
            generator = TrajectoryGenerator(simulator, rng=self.rng(2))
        matcher = HmmMapMatcher(network, sigma=0.08, beta=0.5)
        origin, destination = (0, 0), (5, 5)
        with span("datatypes.k_shortest", "datatypes"):
            candidates = network.k_shortest_paths(origin, destination, 8)
        trips = []
        matched_ok = points = 0
        with span("datasets.generate", "datasets"):
            raw = generator.generate_on_paths(
                candidates * 40, departure_minute=DEPARTURE,
                sample_interval=0.4, noise_sigma=0.05)
        times_rng = self.rng(3)
        for true_path, trajectory in raw:
            with span("fusion.match", "fusion"):
                matched = matcher.matched_path(trajectory)
            with span("datatypes.paths", "datatypes"):
                if network.route_distance(true_path, matched) < 0.2:
                    matched_ok += 1
                edges = network.path_edges(true_path)
            with span("datasets.edge_times", "datasets"):
                times = simulator.sample_edge_times(edges, DEPARTURE,
                                                    rng=times_rng)
            points += len(trajectory)
            trips.append((true_path, times, float(DEPARTURE)))
        if self.probe.enabled:
            info = matcher.cache_info()
            for name, value in (
                    ("fusion.points", points),
                    ("fusion.traces", len(raw)),
                    ("fusion.recovered", matched_ok),
                    ("fusion.cache_hits", info["hits"]),
                    ("fusion.cache_lookups",
                     info["hits"] + info["misses"])):
                self.probe.count(name, value)
        state.update(network=network, simulator=simulator, origin=origin,
                     destination=destination, trips=trips)
        return (f"{len(raw)} trips, map matching recovered the route for "
                f"{matched_ok / len(raw):.0%}")

    def fit_edge_model(self, state):
        """governance: edge-centric travel-time distributions."""
        trips = self._observed(state)
        with self.probe.span("uncertainty.edge_fit", "uncertainty"):
            model = EdgeCentricModel().fit(trips)
        state["edge_model"] = model
        return f"edge-centric model covers {model.n_edges} edges"

    def fit_path_model(self, state):
        """governance: path-centric distributions (runs concurrently)."""
        trips = self._observed(state)
        with self.probe.span("uncertainty.path_fit", "uncertainty"):
            model = PathCentricModel(min_support=10,
                                     max_subpath_edges=10).fit(trips)
        state["path_model"] = model
        return f"path-centric model learned {model.n_subpaths} sub-paths"

    def candidate_routes(self, state):
        """analytics: candidate routes + their cost distributions."""
        network, model = state["network"], state["path_model"]
        origin, destination = state["origin"], state["destination"]
        departure = self._departure(state)
        with self.probe.span("decision.routes", "decision"):
            router = StochasticRouter(network, model, n_candidates=8)
            mean_path, mean_dist = router.mean_cost_route(
                origin, destination, departure_minute=departure)
        state.update(router=router, mean_path=mean_path,
                     mean_dist=mean_dist)
        return (f"fastest-on-average route: mean {mean_dist.mean():.1f} "
                f"min, std {mean_dist.std():.1f} min")

    def risk_profiles(self, state):
        """decision: deadline + three risk preferences."""
        router, mean_dist = state["router"], state["mean_dist"]
        origin, destination = state["origin"], state["destination"]
        departure = self._departure(state)
        with self.probe.span("decision.risk", "decision"):
            deadline = mean_dist.quantile(0.85)
            path, probability = router.on_time_route(
                origin, destination, deadline, departure_minute=departure)
            lines = [f"deadline {deadline:.1f} min -> best on-time route "
                     f"has P(on time) = {probability:.2f}"]
            for label, utility in [
                ("risk-neutral", RiskNeutralUtility()),
                ("risk-averse ", RiskAverseUtility(aversion=2.0,
                                                   scale=mean_dist.mean())),
                ("deadline    ", DeadlineUtility(deadline)),
            ]:
                chosen, distribution, _ = router.best_path(
                    origin, destination, utility,
                    departure_minute=departure)
                lines.append(f"  {label}: mean {distribution.mean():5.1f} "
                             f"min, std {distribution.std():4.1f} min, "
                             f"{len(chosen) - 1} edges")
        state["profile_lines"] = lines
        return (f"compared 3 risk profiles against deadline "
                f"{deadline:.1f} min")

    def time_energy_skyline(self, state):
        """decision: multi-objective route skyline (annotates the network).

        The replan variant costs time at the tick's departure; the
        example (and ``taxi-batch``) uses free-flow time.
        """
        network, simulator = state["network"], state["simulator"]
        origin = state["origin"]
        departure = self._departure(state)
        rng = self.rng(4)
        with self.probe.span("datatypes.annotate", "datatypes"):
            for u, v in network.edges():
                length = network.edge_length(u, v)
                if self.replan:
                    cost = simulator.mean_travel_time(u, v, departure)
                else:
                    cost = length / simulator.free_flow_speed(u, v)
                network.set_edge_attribute(u, v, "time", cost)
                network.set_edge_attribute(u, v, "energy",
                                           length * rng.uniform(0.6, 1.6))
        with self.probe.span("decision.skyline", "decision"):
            skyline = SkylineRouter(network, ["time", "energy"],
                                    max_labels=32).skyline(origin, (3, 3))
        state["skyline"] = sorted(skyline, key=lambda item: item[1][0])
        return f"{len(skyline)} non-dominated time/energy routes to the depot"

    def eco_driving(self, state):
        """decision: spend deadline slack on fuel along the chosen route."""
        network, mean_path = state["network"], state["mean_path"]
        with self.probe.span("decision.eco", "decision"):
            segments = [
                (10 * network.edge_length(u, v), 110.0)
                for u, v in network.path_edges(mean_path)
            ]
            planner = EcoDrivingPlanner()
            hurried = planner.baseline_at_limits(segments)
            saved, eco, _ = planner.savings(segments,
                                            hurried["travel_time"] * 1.25)
        state["eco"] = (hurried, eco, saved)
        return f"eco plan saves {saved:.0%} fuel with 25% time slack"

    # -- pipeline -------------------------------------------------------------

    def _stage(self, name, function):
        """``function`` inside a span over the whole stage body."""
        def stage(state):
            with self.probe.span(f"stage.{name}", "bench"):
                return function(state)
        return stage

    def build_pipeline(self):
        window = ("window",) if self.replan else ()
        departure = ("departure",) if self.replan else ()
        stage = self._stage
        pipeline = DecisionPipeline("autonomous taxi routing")
        pipeline.add_data(
            "fleet", stage("fleet", self.collect_fleet), reads=(),
            writes=("network", "simulator", "origin", "destination",
                    "trips"))
        pipeline.add_governance(
            "edge_model", stage("edge_model", self.fit_edge_model),
            reads=("trips",) + window, writes=("edge_model",))
        pipeline.add_governance(
            "path_model", stage("path_model", self.fit_path_model),
            reads=("trips",) + window, writes=("path_model",))
        pipeline.add_analytics(
            "routes", stage("routes", self.candidate_routes),
            reads=("network", "path_model", "origin", "destination")
            + departure,
            writes=("router", "mean_path", "mean_dist"))
        pipeline.add_decision(
            "risk_profiles", stage("risk_profiles", self.risk_profiles),
            reads=("router", "mean_dist", "origin", "destination")
            + departure,
            writes=("profile_lines",))
        pipeline.add_decision(
            "skyline", stage("skyline", self.time_energy_skyline),
            reads=("network", "simulator", "origin") + departure,
            writes=("skyline", "network"))
        pipeline.add_decision(
            "eco_driving", stage("eco_driving", self.eco_driving),
            reads=("network", "mean_path"), writes=("eco",))
        return pipeline

    def observation_pool(self):
        """taxi-replan's seeded windows: ``[(trips, departure), ...]``.

        Trips are drawn on the fleet's candidate routes in the fleet's
        own world, each window at its own departure minute.
        """
        network, simulator = self.world()
        candidates = network.k_shortest_paths((0, 0), (5, 5), 8)
        rng = self.rng(5)
        pool = []
        for _ in range(POOL_WINDOWS):
            departure = float(rng.integers(7 * 60, 10 * 60))
            window = []
            for _ in range(WINDOW_TRIPS):
                path = candidates[int(rng.integers(len(candidates)))]
                times = simulator.sample_edge_times(
                    network.path_edges(path), departure, rng=rng)
                window.append((path, times, departure))
            pool.append((window, departure))
        return pool


def run_digest(state, report):
    """What one taxi run decided: stage summaries, trips and decisions."""
    return digest(
        sorted((r.name, r.status, r.summary) for r in report.records),
        state["trips"], state["mean_path"], state["mean_dist"],
        state["profile_lines"], state["skyline"], state["eco"])


class _ShiftedNumpy:
    """numpy as the example module sees it under the gate.

    ``random.default_rng(k)`` returns ``default_rng(k + offset)``;
    every other attribute is numpy's own.
    """

    def __init__(self, offset):
        self.random = SimpleNamespace(
            default_rng=lambda k: np.random.default_rng(k + offset))

    def __getattr__(self, name):
        return getattr(np, name)


def run_example(offset):
    """Run ``examples/traffic_routing.py``'s own pipeline, its rng seeds
    shifted by ``offset``; returns ``(state, report)``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_traffic_routing_example", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.np = _ShiftedNumpy(offset)
    return module.build_pipeline().run(executor="thread")


# -- workloads ----------------------------------------------------------------

def _count_stages(probe, root, report):
    replayed = sum(record.cache_hit for record in report.records)
    probe.count("core.stages_replayed", replayed, op=root)
    probe.count("core.stages_executed", len(report.records) - replayed,
                op=root)


def _layer_metrics(probe, op_name):
    """The per-layer metrics of a traced taxi run's ops."""
    roots = probe.roots(op_name)
    self_times = probe.self_times()

    def ms(name):
        return 1e3 * median(probe.per_op(name, roots))

    def ratio(hits, attempts):
        pairs = zip(probe.op_counts(hits, roots),
                    probe.op_counts(attempts, roots))
        return median([a / b for a, b in pairs if b])

    points = probe.op_counts("fusion.points", roots)
    match = probe.per_op("fusion.match", roots)
    return {
        "fusion.match_ms": 1e3 * median(match),
        "fusion.match_us_per_point": median(
            [1e6 * m / p for m, p in zip(match, points) if p]),
        "fusion.points": median(points),
        "fusion.recovered_ratio": ratio("fusion.recovered",
                                        "fusion.traces"),
        "fusion.cache_hit_ratio": ratio("fusion.cache_hits",
                                        "fusion.cache_lookups"),
        "datasets.generate_ms": ms("datasets.generate"),
        "datasets.edge_times_ms": ms("datasets.edge_times"),
        "uncertainty.edge_fit_ms": ms("uncertainty.edge_fit"),
        "uncertainty.path_fit_ms": ms("uncertainty.path_fit"),
        "decision.routes_ms": ms("decision.routes"),
        "decision.risk_ms": ms("decision.risk"),
        "decision.skyline_ms": ms("decision.skyline"),
        "decision.eco_ms": ms("decision.eco"),
        "core.engine_ms": 1e3 * median([self_times[r] for r in roots]),
        "core.stages_executed": median(
            probe.op_counts("core.stages_executed", roots)),
        "core.stages_replayed": median(
            probe.op_counts("core.stages_replayed", roots)),
    }


class TaxiBatch:
    """``taxi-batch``: one op is one full ``run()`` of the scenario."""

    op_name = "taxi.run"
    #: Set-ups behind ``setup_s``; each includes a full first run.
    setup_samples = 3

    def __init__(self, seed, probe):
        self.probe = probe
        self.scenario = TaxiScenario(seed, probe)
        self.pipeline = self.scenario.build_pipeline()
        self.reference = None

    def _run(self, **options):
        # Pinned, so that REPRO_EXECUTOR cannot change what is measured.
        return self.pipeline.run(executor="thread", **options)

    def warm_up(self):
        """The first op; every later op must reproduce its digest."""
        self.reference = run_digest(*self._run())

    def step(self):
        start = time.perf_counter()
        with self.probe.op(self.op_name, "core") as root:
            state, report = self._run()
        elapsed = time.perf_counter() - start
        _count_stages(self.probe, root, report)
        return elapsed, [elapsed], int(run_digest(state, report)
                                       != self.reference)

    def check(self):
        """Gate: the first op equals the example's own pipeline."""
        state, report = run_example(self.scenario.offset)
        return 1, int(run_digest(state, report) != self.reference)

    def layer_metrics(self, untraced_p50_s):
        metrics = _layer_metrics(self.probe, self.op_name)
        start = time.perf_counter()
        self._run(profile=True)
        metrics["observability.profile_ratio"] = (
            (time.perf_counter() - start) / untraced_p50_s)
        return metrics

    def close(self):
        pass


class TaxiReplan:
    """``taxi-replan``: one op is one ``IncrementalSession.tick()``.

    Each tick brings the next pool window and its departure; ``fleet``
    replays from its carried delta and every other stage runs again.
    """

    op_name = "taxi.tick"
    #: Set-ups behind ``setup_s``; each includes the session's first tick.
    setup_samples = 3

    def __init__(self, seed, probe):
        self.probe = probe
        self.scenario = TaxiScenario(seed, probe, replan=True)
        self.pipeline = self.scenario.build_pipeline()
        self.pool = self.scenario.observation_pool()
        self.session = None
        self.ticks = 0
        #: The first digest of each pool window's ticks.  The scenario
        #: is deterministic, so every later tick on a window repeats it.
        self.digests = {}
        self.measured = []

    def inputs(self, tick):
        """The input state of tick number ``tick``."""
        window, departure = self.pool[tick % len(self.pool)]
        return {"window": window, "departure": departure}

    def _same_as_before(self, tick, state, report):
        """Whether a tick repeats the first digest of its pool window."""
        window = tick % len(self.pool)
        found = run_digest(state, report)
        return self.digests.setdefault(window, found) == found

    def warm_up(self):
        """Open the session; its first tick builds the fleet."""
        self.session = self.pipeline.stream(self.inputs(0),
                                            executor="thread")
        self._same_as_before(0, *self.session.tick())
        self.ticks = 1

    def step(self):
        tick = self.ticks
        self.ticks += 1
        changed = self.inputs(tick)
        start = time.perf_counter()
        with self.probe.op(self.op_name, "core") as root:
            state, report = self.session.tick(changed=changed)
        elapsed = time.perf_counter() - start
        _count_stages(self.probe, root, report)
        self.measured.append(tick % len(self.pool))
        return elapsed, [elapsed], int(
            not self._same_as_before(tick, state, report))

    def check(self):
        """Gate: the windows of the first, middle and last measured
        ticks equal a from-scratch ``run()`` on the same input state (a
        run costs about as much as ten ticks).  Every tick was already
        held to its window's first digest."""
        last = len(self.measured) - 1
        windows = dict.fromkeys(
            self.measured[i] for i in (0, last // 2, last))
        failed = 0
        for window in windows:
            scratch = self.pipeline.run(self.inputs(window),
                                        executor="thread")
            failed += run_digest(*scratch) != self.digests[window]
        return len(windows), failed

    def layer_metrics(self, untraced_p50_s):
        return _layer_metrics(self.probe, self.op_name)

    def close(self):
        pass
