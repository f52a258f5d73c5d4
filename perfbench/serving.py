"""The served-query workload: ``serve-route``.

One generator thread drives a closed loop of bursts against a
:class:`repro.DecisionServer` on the 6x6 grid.  It draws a burst of
route and distance queries from a small seeded pool, submits them,
waits for every answer, then checks each answer against the direct
router or ``dijkstra_array`` answer precomputed in set-up.  A burst is
exactly ``max_batch`` queries and the batch window is far longer than
a burst takes to submit, so every batch closes on size, never on the
dispatcher's timer.  The pool is small, so the router's memos stay hot
and serve dispatch plus the memo LRU carry the cost.
"""

import functools
import threading
import time

import numpy as np

from repro import DecisionServer, RoadNetwork
from repro.datasets import TrafficSimulator, TrajectoryGenerator
from repro.decision import DeadlineUtility, StochasticRouter
from repro.governance.uncertainty import EdgeCentricModel
from repro.serve import DistanceQuery, RouteQuery

from .measure import digest, median

BURST = 64
OD_PAIRS = 4
DEPARTURE = 480.0
CUTOFF = 5.0
DEADLINE = 12.0
#: Far longer than submitting a burst takes, so batches close on size.
BATCH_WINDOW = 0.25
#: Query kinds, alternating slot by slot in every burst.
KINDS = ("route", "distance")
#: The layer whose work answers each query kind.
SERVICE_LAYER = {"route": "decision", "distance": "datatypes"}


class _Resolutions:
    """When each request of a burst resolved, stamped by its future's
    done-callback.

    A future wakes its waiters before it runs its callbacks, so the
    burst waits here, for the last stamp, rather than on the futures.
    """

    def __init__(self, size):
        self.times = [0.0] * size
        self._left = size
        self._lock = threading.Lock()
        self._all = threading.Event()

    def stamp(self, slot, _future):
        self.times[slot] = time.perf_counter()
        with self._lock:
            self._left -= 1
            if not self._left:
                self._all.set()

    def wait(self):
        self._all.wait()
        return self.times


class ServeRoute:
    """``serve-route``: one op is one served request."""

    op_name = "serve.request"
    #: Set-ups behind ``setup_s``: one takes little more than ``import
    #: repro``, so many fit in a run.
    setup_samples = 5

    def __init__(self, seed, probe):
        self.probe = probe
        self.rng = rng = np.random.default_rng(seed)
        network = RoadNetwork.grid(6, 6)
        simulator = TrafficSimulator(network, rng=rng)
        generator = TrajectoryGenerator(simulator, rng=rng)
        od_pairs = []
        while len(od_pairs) < OD_PAIRS:
            pair = generator.random_od_pair(min_hops=4)
            if pair not in od_pairs:
                od_pairs.append(pair)
        # The cost model covers every candidate route of the pool.
        trips = []
        for origin, destination in od_pairs:
            for path in network.k_shortest_paths(origin, destination, 4):
                edges = network.path_edges(path)
                for _ in range(25):
                    times = simulator.sample_edge_times(edges, DEPARTURE,
                                                        rng=rng)
                    trips.append((path, times, DEPARTURE))
        model = EdgeCentricModel(n_bins=25).fit(trips)
        utility = DeadlineUtility(DEADLINE)

        # Expected answers come from a separate, cold router.
        direct = StochasticRouter(network, model, n_candidates=4)
        origins = list(dict.fromkeys(origin for origin, _ in od_pairs))
        self.pool = {
            "route": [
                (RouteQuery(origin, destination, DEPARTURE),
                 digest(direct.route_many(
                     [(origin, destination, DEPARTURE)], utility)[0]))
                for origin, destination in od_pairs],
            "distance": [
                (DistanceQuery(origin, cutoff=CUTOFF),
                 digest(network.dijkstra_array(origin, cutoff=CUTOFF)))
                for origin in origins],
        }
        self.router = StochasticRouter(network, model, n_candidates=4)
        self.server = DecisionServer(
            router=self.router, network=network, utility=utility,
            max_queue=4 * BURST, batch_window=BATCH_WINDOW,
            max_batch=BURST)
        self.warm_attempted = self.warm_failed = 0
        self.traced = []      # (kind, queue s, service s, batch, latency s)
        self.generate_s = []
        self._router_start = None

    def draw(self):
        """The next burst: ``[(kind, query, expected digest)]``.

        Kinds alternate slot by slot, so every burst has the same mix
        and the same batch groups in the same order; only which pool
        entry fills a slot is random.
        """
        drawn = []
        for slot, pick in enumerate(self.rng.random(BURST)):
            kind = KINDS[slot % len(KINDS)]
            entries = self.pool[kind]
            drawn.append((kind,) + entries[int(pick * len(entries))])
        return drawn

    def _serve(self, drawn):
        """Submit a burst and wait for it; answers are checked after
        the burst's end time is taken."""
        resolutions = _Resolutions(len(drawn))
        submitted = []
        futures = []
        for slot, (_, query, _) in enumerate(drawn):
            submitted.append(time.perf_counter())
            future = self.server.submit(query)
            future.add_done_callback(
                functools.partial(resolutions.stamp, slot))
            futures.append(future)
        resolved = resolutions.wait()
        end = time.perf_counter()
        results = [future.result() for future in futures]
        failed = sum(
            not result.ok or digest(result.value) != expected
            for (_, _, expected), result in zip(drawn, results))
        return end, submitted, resolved, results, failed

    def warm_up(self):
        """Serve every pool query at least once, in full bursts."""
        entries = [(kind,) + entry
                   for kind in KINDS for entry in self.pool[kind]]
        for _ in range(2):
            *_, failed = self._serve(
                [entries[i % len(entries)] for i in range(BURST)])
            self.warm_attempted += BURST
            self.warm_failed += failed
        self._router_start = self.router.cache_info()

    def step(self):
        start = time.perf_counter()
        drawn = self.draw()
        generated = time.perf_counter()
        end, submitted, resolved, results, failed = self._serve(drawn)
        latencies = [done - sent for done, sent in zip(resolved, submitted)]
        if self.probe.enabled:
            self._trace(drawn, submitted, resolved, results)
            self.generate_s.append(generated - start)
        return end - start, latencies, failed

    def _trace(self, drawn, submitted, resolved, results):
        """Spans of each request, rebuilt from its :class:`ServeResult`."""
        add = self.probe.add
        for slot, ((kind, _, _), result) in enumerate(zip(drawn, results)):
            sent, done = submitted[slot], resolved[slot]
            root = add(self.op_name, "serve", sent, done, lane=slot)
            add("serve.queue", "serve", sent, sent + result.queue_seconds,
                parent=root, lane=slot)
            add(f"serve.{kind}_service", SERVICE_LAYER[kind],
                done - result.service_seconds, done, parent=root,
                lane=slot)
            self.traced.append((kind, result.queue_seconds,
                                result.service_seconds, result.batch_size,
                                done - sent))

    def check(self):
        """Gate: the warm-up answers (the window's are checked per burst)."""
        return self.warm_attempted, self.warm_failed

    def layer_metrics(self, untraced_p50_s):
        def ms(values):
            return 1e3 * median(values)

        def service(kind):
            return ms([s for k, _, s, _, _ in self.traced if k == kind])

        now, before = self.router.cache_info(), self._router_start
        hits = now["hits"] - before["hits"]
        lookups = hits + now["misses"] - before["misses"]
        return {
            "serve.queue_wait_ms": ms([q for _, q, _, _, _ in self.traced]),
            "serve.route_service_ms": service("route"),
            "serve.distance_service_ms": service("distance"),
            "serve.batch_size": median([b for _, _, _, b, _ in self.traced]),
            "serve.handoff_ms": ms([latency - q - s for _, q, s, _, latency
                                    in self.traced]),
            "decision.router_hit_ratio": hits / lookups if lookups else 0.0,
            "bench.generate_ms": ms(self.generate_s),
        }

    def close(self):
        self.server.close()
