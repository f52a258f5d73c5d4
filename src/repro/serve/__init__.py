"""Serving layer: request batching, deadlines and admission control.

The request-facing end of the Figure-1 paradigm — a long-lived
embedded :class:`DecisionServer` that coalesces concurrent route /
match / distance queries into the library's batch APIs, enforces
per-request deadline budgets, and sheds load it cannot serve in time
instead of queueing doomed work.  ``docs/SERVING.md`` is the guide.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "requests": (
        "DistanceQuery", "MatchQuery", "Overloaded", "RouteQuery",
        "ServeResult",
    ),
    "server": ("DecisionServer",),
})
