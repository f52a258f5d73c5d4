"""One metered LRU: the cache idiom shared by the matcher and the router.

A bounded, lock-guarded ``OrderedDict`` that counts its lookups and
flushes the hit/miss deltas to a named registry counter on demand, so
hot loops never pay for a labeled counter per probe.  Callers follow
the probe / compute / install idiom: :meth:`get` under the lock, the
expensive work outside it, :meth:`put` under the lock again -- two
threads missing one key may both compute it, but the cache never
corrupts and every lookup is counted exactly once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from .observability.metrics import get_registry

__all__ = ["MeteredLRU"]


class MeteredLRU:
    """At most ``maxsize`` entries, counted lookups, published deltas.

    ``maxsize`` 0 stores nothing and counts nothing.  Lookups are
    published as ``metric{outcome="hit"|"miss"}`` by :meth:`publish`.
    Pickles empty, with a fresh lock and zero counters.
    """

    def __init__(self, maxsize, metric, description):
        self.maxsize = int(maxsize)
        self.metric = metric
        self.description = description
        self._lock = threading.RLock()
        self._entries = OrderedDict()
        self._revision = None
        self._hits = 0
        self._misses = 0
        self._published_hits = 0
        self._published_misses = 0

    def __getstate__(self):
        return self.maxsize, self.metric, self.description

    def __setstate__(self, state):
        self.__init__(*state)

    def get(self, key, usable=None):
        """The cached value of ``key`` (and a hit), or ``None`` (and a
        miss).  A value that fails ``usable(value)`` is a miss too."""
        if not self.maxsize:
            return None
        with self._lock:
            value = self._entries.get(key)
            if value is not None and (usable is None or usable(value)):
                self._entries.move_to_end(key)
                self._hits += 1
                return value
            self._misses += 1
            return None

    def put(self, key, value):
        """Install ``value`` as the most recent entry, evicting the
        least recent ones past ``maxsize``."""
        if not self.maxsize:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def sync(self, revision):
        """Drop every entry, counters untouched, when ``revision`` (the
        version of whatever the entries were computed from) moved."""
        with self._lock:
            if revision != self._revision:
                self._entries.clear()
                self._revision = revision

    def publish(self):
        """Flush the hit/miss deltas since the last flush to the
        registry.  The delta read and the watermark advance are one
        atomic step, so concurrent flushers never double- or
        under-count a lookup; the counter increments run outside the
        lock."""
        with self._lock:
            hits = self._hits - self._published_hits
            misses = self._misses - self._published_misses
            if not hits and not misses:
                return
            self._published_hits = self._hits
            self._published_misses = self._misses
        counter = get_registry().counter(self.metric, self.description)
        if hits:
            counter.inc(hits, outcome="hit")
        if misses:
            counter.inc(misses, outcome="miss")

    def info(self):
        """Publish, then ``{"hits", "misses", "size"}``."""
        self.publish()
        with self._lock:
            return {"hits": self._hits, "misses": self._misses,
                    "size": len(self._entries)}

    def clear(self):
        """Publish pending deltas, then drop every entry and zero the
        counters."""
        self.publish()
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = 0
            self._published_hits = self._published_misses = 0
