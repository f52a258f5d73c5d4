"""Content-keyed stage-result cache.

A stage's cache key is a digest of everything that determines its
output: its name and layer, a fingerprint of its function's code and
closure, its declared contract, the cache keys of its *data*
dependencies (recursively, so the key encodes the whole upstream
cone), and a content fingerprint of any read keys that come straight
from the initial state.

That construction gives the reuse the E1 ablation needs for free:
removing a stage with :meth:`DecisionPipeline.without_stage` leaves
the keys of every stage outside the removed stage's downstream cone
unchanged, so a rerun against the same :class:`StageCache` replays
those stages from their stored state deltas and only re-executes the
cone.

Values that resist fingerprinting (unpicklable objects without a
stable byte form) silently exclude the stage from caching rather than
risking a stale hit, and anything data-dependent on an uncacheable
stage is itself uncacheable.

A stored record is the stage's full transactional outcome: the values
it committed *and* the keys it deleted (tombstones), so a cached
replay reproduces deletions exactly like a live run.  The record is
frozen at commit: its delta is pickled once (protocol 4, so a
read-only array thaws writeable, as a live run would produce it) and
every replay unpickles a fresh copy — a later stage mutating a
replayed numpy array or dict in place can therefore never corrupt the
record for future runs, while the record itself is shared by
reference.  A delta that cannot be pickled demotes its stage to
uncacheable instead.

Function fingerprints are *structural*: nested code objects (inner
lambdas, comprehensions, local functions) are recursed into and
hashed by their bytecode, names and constants — never by ``repr``,
which embeds memory addresses and made structurally identical
functions compiled separately (or in separate processes) hash
differently.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
import types

from . import dag as _dag

__all__ = ["StageCache", "Unfingerprintable", "fingerprint", "stage_keys"]

_ABSENT = "<absent>"


class Unfingerprintable(TypeError):
    """A value has no stable content fingerprint; skip caching."""


def _item_digests(pairs, depth):
    """Order-independent digesting: hash each item alone, sort digests.

    Used for dicts with unsortable keys and for sets, where iteration
    order is arbitrary and ``repr``-keyed sorting is address-dependent
    for plain objects.
    """
    digests = []
    for pair in pairs:
        digest = hashlib.sha256()
        for value in pair:
            _update(digest, value, depth)
        digests.append(digest.digest())
    return sorted(digests)


def _update(digest, value, _depth=0):
    if _depth > 16:
        raise Unfingerprintable("fingerprint recursion too deep")
    # numpy arrays: dtype + shape + raw bytes, no pickling overhead.
    tobytes = getattr(value, "tobytes", None)
    dtype = getattr(value, "dtype", None)
    if callable(tobytes) and dtype is not None:
        digest.update(b"ndarray")
        digest.update(str(dtype).encode())
        digest.update(repr(getattr(value, "shape", ())).encode())
        digest.update(value.tobytes())
        return
    if value is None or isinstance(value, (bool, int, float, complex,
                                           str)):
        digest.update(type(value).__name__.encode())
        digest.update(repr(value).encode())
        return
    if isinstance(value, (bytes, bytearray)):
        digest.update(b"bytes")
        digest.update(bytes(value))
        return
    if isinstance(value, (list, tuple)):
        digest.update(type(value).__name__.encode())
        for item in value:
            _update(digest, item, _depth + 1)
        return
    if isinstance(value, dict):
        digest.update(b"dict")
        try:
            items = sorted(value.items())
        except TypeError:
            # Unsortable keys: per-item digests, sorted, so the hash
            # is independent of insertion order.
            for item_digest in _item_digests(value.items(), _depth + 1):
                digest.update(item_digest)
            return
        for key, item in items:
            _update(digest, key, _depth + 1)
            _update(digest, item, _depth + 1)
        return
    if isinstance(value, (set, frozenset)):
        digest.update(b"set")
        for item_digest in _item_digests(((item,) for item in value),
                                         _depth + 1):
            digest.update(item_digest)
        return
    if isinstance(value, types.CodeType):
        _update_code(digest, value, _depth + 1)
        return
    # Arbitrary objects: pickle is content-stable for the numpy-backed
    # datatypes this library passes between stages.
    try:
        digest.update(b"pickle")
        digest.update(pickle.dumps(value, protocol=4))
    except Exception as exc:
        raise Unfingerprintable(
            f"cannot fingerprint {type(value).__name__}"
        ) from exc


def _update_code(digest, code, _depth=0):
    """Structural digest of a code object.

    Hashes bytecode, names and constants, recursing into nested code
    objects (lambdas, comprehensions, local defs).  ``repr`` of a
    code object embeds its memory address, so it must never reach the
    digest — two separately compiled but identical functions have to
    share a fingerprint, within a process and across processes.
    """
    if _depth > 16:
        raise Unfingerprintable("code fingerprint recursion too deep")
    digest.update(b"code")
    digest.update(code.co_code)
    for names in (code.co_names, code.co_varnames, code.co_freevars,
                  code.co_cellvars):
        digest.update(repr(names).encode())
    digest.update(repr((code.co_argcount, code.co_kwonlyargcount,
                        code.co_flags)).encode())
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            _update_code(digest, const, _depth + 1)
        else:
            _update(digest, const, _depth + 1)


def fingerprint(value):
    """Hex digest of a value's content; raises :class:`Unfingerprintable`."""
    digest = hashlib.sha256()
    _update(digest, value)
    return digest.hexdigest()


def _function_fingerprint(function):
    """Digest of a callable's behavior: code, constants and closure."""
    digest = hashlib.sha256()
    code = getattr(function, "__code__", None)
    if code is not None:
        _update_code(digest, code)
        closure = getattr(function, "__closure__", None) or ()
        for cell in closure:
            _update(digest, cell.cell_contents)
        defaults = getattr(function, "__defaults__", None) or ()
        for value in defaults:
            _update(digest, value)
        return digest.hexdigest()
    # Callable objects / builtins: pickle or give up.
    _update(digest, function)
    return digest.hexdigest()


def stage_keys(stages, deps, initial_state):
    """Per-stage cache keys, ``None`` where the stage is uncacheable.

    Must be called with the run's *initial* state, before any stage
    mutates it — external reads are fingerprinted from it.
    """
    data_deps = _dag.data_dependencies(stages, deps)
    keys = []
    for j, stage in enumerate(stages):
        upstream = [keys[i] for i in sorted(data_deps[j])]
        if any(key is None for key in upstream):
            keys.append(None)
            continue
        digest = hashlib.sha256()
        digest.update(stage.layer.encode())
        digest.update(stage.name.encode())
        digest.update(repr(sorted(stage.reads)).encode())
        digest.update(repr(sorted(stage.writes)).encode())
        for key in upstream:
            digest.update(key.encode())
        try:
            digest.update(_function_fingerprint(stage.function).encode())
            for read in sorted(_dag.external_reads(stages, deps, j)):
                digest.update(read.encode())
                value = initial_state.get(read, _ABSENT)
                digest.update(fingerprint(value).encode())
        except Unfingerprintable:
            keys.append(None)
            continue
        keys.append(digest.hexdigest())
    return keys


class CacheEntry:
    """A frozen stage outcome: summary, details, pickled delta, tombstones.

    Built once, when the stage commits.  ``written`` and ``deleted``
    are the keys the delta sets and removes; :meth:`snapshot` thaws
    a fresh copy of the delta for each replay.  Raises whatever
    :func:`pickle.dumps` raises when the delta cannot be pickled.
    """

    __slots__ = ("summary", "details", "written", "deleted", "_payload")

    def __init__(self, summary, details, delta, deleted=()):
        delta = dict(delta)
        fields = (summary, dict(details), frozenset(delta),
                  frozenset(deleted), pickle.dumps(delta, protocol=4))
        self.__setstate__(fields)

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, fields):
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("CacheEntry is frozen")

    def snapshot(self):
        """A replay-safe ``(delta, deleted)`` pair: the delta is a
        fresh unpickled copy, so in-place mutation of a replayed
        value cannot reach back into the record."""
        return pickle.loads(self._payload), self.deleted


class StageCache:
    """Thread-safe in-memory map from cache key to :class:`CacheEntry`.

    Pass one instance to several :meth:`DecisionPipeline.run` calls
    (including runs of ``without_stage`` copies) to reuse results
    whose whole upstream cone is unchanged.

    Every lookup publishes an ``engine.stage_cache_lookups_total``
    counter sample (labeled ``outcome=hit|miss``) and the entry count
    is mirrored to the ``engine.stage_cache_entries`` gauge in the
    process-global :class:`~repro.observability.MetricsRegistry`, so
    hit rates are visible without holding a reference to the cache.
    """

    def __init__(self):
        self._entries = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __getstate__(self):
        """Pickle without the lock; entries (plain data) ride along,
        so a warm cache can ship to another process intact."""
        with self._lock:
            state = self.__dict__.copy()
            state["_entries"] = dict(self._entries)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    @staticmethod
    def _metrics():
        from ..observability.metrics import get_registry

        return get_registry()

    def _publish_size(self, size):
        self._metrics().gauge(
            "engine.stage_cache_entries",
            "Entries currently stored in the StageCache").set(size)

    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
        self._metrics().counter(
            "engine.stage_cache_lookups_total",
            "StageCache lookups by outcome").inc(
                outcome="miss" if entry is None else "hit")
        return entry

    def __setitem__(self, key, entry):
        _check_entry(key, entry)
        with self._lock:
            self._entries[key] = entry
            size = len(self._entries)
        self._publish_size(size)

    def merge(self, other):
        """Fold another cache's entries into this one.

        Content keys are process-independent by construction — the
        function fingerprint is structural (bytecode, names,
        constants), never address-based — so entries computed in a
        worker process or by a different run of the same pipeline are
        valid here verbatim.  On key collision the existing entry
        wins: two caches can only disagree about a key's value if one
        of them is corrupt, and the local one is the devil we know.
        Returns the number of entries added.
        """
        if isinstance(other, StageCache):
            with other._lock:
                entries = dict(other._entries)
        else:
            entries = dict(other)
        added = 0
        with self._lock:
            for key, entry in entries.items():
                _check_entry(key, entry)
                if key not in self._entries:
                    self._entries[key] = entry
                    added += 1
            size = len(self._entries)
        self._publish_size(size)
        return added

    def clear(self):
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __repr__(self):
        return (f"StageCache(entries={len(self)}, hits={self.hits}, "
                f"misses={self.misses})")


def _check_entry(key, entry):
    if not isinstance(entry, CacheEntry):
        raise TypeError(f"cache entry for key {key!r} is "
                        f"{type(entry).__name__}, not CacheEntry")
