"""Latency summaries and answer digests shared by the workloads."""

import hashlib
import statistics

import numpy as np

__all__ = ["digest", "median", "percentile", "tail"]


def percentile(samples, q):
    """The ``q``-quantile (0..1) of ``samples``, linearly interpolated."""
    if not len(samples):
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=float), 100 * q))


def tail(samples, q):
    """The ``q``-quantile, lowered until ten samples lie beyond it.

    A tail read from fewer samples than that does not repeat from run
    to run, so a run too short for ``q`` reports the highest quantile
    it supports, and never less than the median.
    """
    if len(samples):
        q = max(0.5, min(q, 1.0 - 10.0 / len(samples)))
    return percentile(samples, q)


def digest(*values):
    """Hex digest of nested answers: floats bit-exact, arrays by bytes."""
    state = hashlib.sha256()
    for value in values:
        _feed(state, value)
    return state.hexdigest()


def _feed(state, value):
    if isinstance(value, np.ndarray) and value.dtype != object:
        state.update(f"A{value.dtype}{value.shape}".encode())
        state.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, np.ndarray):
        _feed(state, value.tolist())
    elif isinstance(value, np.generic):
        _feed(state, value.item())
    elif isinstance(value, float):
        state.update(b"F" + value.hex().encode())
    elif value is None or isinstance(value, (bool, int, str)):
        text = repr(value)
        state.update(f"S{len(text)}:{text}".encode())
    elif isinstance(value, (list, tuple)):
        state.update(f"L{len(value)}".encode())
        for item in value:
            _feed(state, item)
    elif isinstance(value, dict):
        state.update(f"D{len(value)}".encode())
        for key in sorted(value, key=repr):
            _feed(state, key)
            _feed(state, value[key])
    elif hasattr(value, "__dict__"):
        state.update(f"O{type(value).__name__}".encode())
        _feed(state, vars(value))
    elif hasattr(type(value), "__slots__"):
        state.update(f"O{type(value).__name__}".encode())
        _feed(state, [getattr(value, slot)
                      for slot in type(value).__slots__])
    else:
        raise TypeError(f"cannot digest a {type(value).__name__}")


def median(samples):
    """``statistics.median``, or 0.0 for no samples (a layer the
    workload does not exercise)."""
    return statistics.median(samples) if len(samples) else 0.0
