"""Dependency resolution: stage contracts -> an execution DAG.

Stages are ordered layer-major (data, governance, analytics,
decision; insertion order within a layer), and a stage depends on an
*earlier* stage whenever their contracts can touch a common key:

* read-after-write — the earlier stage writes a key this one reads,
* write-after-read — this one overwrites a key the earlier one reads,
* write-after-write — both write the same key.

Because edges only ever point backwards in layer-major order, the
result is a DAG by construction and cross-layer ordering is
preserved wherever contracts actually interact: a decision stage can
never observe a governance key before the governance stage that
produces it has run.
"""

from __future__ import annotations

__all__ = [
    "Frontier",
    "resolve_dependencies",
    "data_dependencies",
    "external_reads",
    "critical_path_seconds",
]


def resolve_dependencies(stages):
    """Per-stage dependency index sets over the layer-major order.

    Returns a list ``deps`` where ``deps[j]`` is the set of indices
    ``i < j`` that stage ``j`` must wait for.
    """
    deps = [set() for _ in stages]
    for j, later in enumerate(stages):
        for i in range(j):
            earlier = stages[i]
            if not (earlier.writes.isdisjoint(later.reads)
                    and earlier.reads.isdisjoint(later.writes)
                    and earlier.writes.isdisjoint(later.writes)):
                deps[j].add(i)
    return deps


def data_dependencies(stages, deps):
    """The subset of ``deps`` that actually feeds each stage's inputs.

    Anti- (write-after-read) and output- (write-after-write) edges
    order execution but do not change what a stage *consumes*, so the
    cache keys stages on read-after-write edges only: ``i`` is a data
    dependency of ``j`` iff ``i in deps[j]`` and ``i`` writes a key
    ``j`` reads.
    """
    data_deps = []
    for j, stage in enumerate(stages):
        data_deps.append({
            i for i in deps[j]
            if not stages[i].writes.isdisjoint(stage.reads)
        })
    return data_deps


def external_reads(stages, deps, index):
    """Read keys of stage ``index`` not written by any dependency.

    These keys come from the run's initial state; the cache
    fingerprints their values.
    """
    provided = set()
    for i in deps[index]:
        provided |= stages[i].writes
    return stages[index].reads - provided


class Frontier:
    """Ready-queue bookkeeping over a resolved DAG.

    ``ready`` lists the runnable stages (every dependency finished)
    that nobody has claimed, in the order they became runnable;
    :meth:`claim` takes one for execution and :meth:`unstarted`
    names those never claimed.  Pure DAG mechanics — no threads,
    pools, futures or locks — so any execution backend drives an
    instance the same way; the caller serializes access (the
    scheduler touches it only from its one loop).
    """

    def __init__(self, deps):
        self._remaining = [len(d) for d in deps]
        self._dependents = [[] for _ in deps]
        for j, dep_set in enumerate(deps):
            for i in dep_set:
                self._dependents[i].append(j)
        self._claimed = set()
        self.ready = [i for i, left in enumerate(self._remaining)
                      if left == 0]

    def claim(self, index):
        """Take one ready index for execution."""
        self.ready.remove(index)
        self._claimed.add(index)

    def complete(self, index):
        """Mark a claimed index finished; return the dependents it
        made runnable, which join :attr:`ready` unclaimed (so an
        aborting run leaves them for :meth:`unstarted`)."""
        unblocked = []
        for j in self._dependents[index]:
            self._remaining[j] -= 1
            if self._remaining[j] == 0:
                unblocked.append(j)
        self.ready.extend(unblocked)
        return unblocked

    def unstarted(self):
        """Indices never claimed — recorded as cancelled on abort."""
        return [i for i in range(len(self._remaining))
                if i not in self._claimed]


def critical_path_seconds(durations, deps):
    """Length of the longest duration-weighted path through the DAG.

    The lower bound on wall-clock time with unlimited parallelism;
    the report contrasts it with the observed wall clock and the
    sequential sum.
    """
    longest = [0.0] * len(durations)
    for j in range(len(durations)):
        upstream = max((longest[i] for i in deps[j]), default=0.0)
        longest[j] = upstream + float(durations[j])
    return max(longest, default=0.0)
