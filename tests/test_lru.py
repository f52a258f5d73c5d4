"""The metered LRU shared by the map matcher and the stochastic router.

Recency eviction, the ``usable`` miss, size-0 caches, ``sync``,
``clear``'s publish-then-zero order, the empty pickle with a fresh
lock, and exact registry reconciliation under an 8-thread race.
"""

import pickle
import sys

import numpy as np

from repro._lru import MeteredLRU
from repro.observability.metrics import use_registry

from .test_serving_concurrency import hammer

METRIC = "test.lru_lookups_total"


def lru(maxsize):
    return MeteredLRU(maxsize, METRIC, "test LRU lookups by outcome")


def published(registry):
    counter = registry.get(METRIC)
    if counter is None:
        return 0, 0
    return counter.value(outcome="hit"), counter.value(outcome="miss")


class TestLru:
    def test_eviction_follows_recency(self):
        cache = lru(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # "a" is now the most recent
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.info() == {"hits": 3, "misses": 1, "size": 2}

    def test_unusable_value_is_a_miss_and_keeps_its_place(self):
        cache = lru(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a", lambda value: value > 1) is None
        cache.put("c", 3)  # "a" was not refreshed, so it goes
        assert cache.get("a") is None
        assert cache.get("b", lambda value: value > 1) == 2
        assert cache.info() == {"hits": 1, "misses": 2, "size": 2}

    def test_size_zero_neither_stores_nor_counts(self):
        with use_registry() as registry:
            cache = lru(0)
            cache.put("a", 1)
            assert cache.get("a") is None
            assert cache.info() == {"hits": 0, "misses": 0, "size": 0}
            assert registry.get(METRIC) is None

    def test_sync_drops_entries_but_not_counters(self):
        cache = lru(4)
        cache.sync(1)
        cache.put("a", 1)
        assert cache.get("a") == 1
        cache.sync(1)
        assert cache.get("a") == 1
        cache.sync(2)
        assert cache.get("a") is None
        assert cache.info() == {"hits": 2, "misses": 1, "size": 0}

    def test_clear_publishes_pending_deltas_then_zeroes(self):
        with use_registry() as registry:
            cache = lru(4)
            assert cache.get("a") is None
            cache.put("a", 1)
            assert cache.get("a") == 1
            assert cache.get("a") == 1
            assert published(registry) == (0, 0)  # nothing flushed yet
            cache.clear()
            assert published(registry) == (2, 1)
            assert cache.info() == {"hits": 0, "misses": 0, "size": 0}
            assert cache.get("a") is None
            cache.publish()
            assert published(registry) == (2, 2)

    def test_pickle_round_trip_is_empty_with_a_working_lock(self):
        cache = lru(3)
        cache.put("a", np.arange(3))
        assert cache.get("a") is not None
        assert cache.get("b") is None
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.info() == {"hits": 0, "misses": 0, "size": 0}
        assert (clone.maxsize, clone.metric, clone.description) == \
            (cache.maxsize, cache.metric, cache.description)
        assert clone._lock is not cache._lock
        clone.put("a", 1)
        assert clone.get("a") == 1
        assert cache.info()["size"] == 1

    def test_registry_reconciles_exactly_under_threads(self):
        n_threads, n_lookups = 8, 2000
        with use_registry() as registry:
            cache = lru(16)

            def work(index):
                rng = np.random.default_rng(index)
                for key in rng.integers(0, 40, n_lookups).tolist():
                    if cache.get(key) is None:
                        cache.put(key, key)
                    if key % 7 == 0:
                        cache.publish()

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                hammer(n_threads, work)
            finally:
                sys.setswitchinterval(interval)
            info = cache.info()
            assert info["hits"] + info["misses"] == n_threads * n_lookups
            assert info["hits"] > 0 and info["misses"] > 0
            assert published(registry) == (info["hits"], info["misses"])
            assert info["size"] <= 16
