"""Trajectories (paper Definition 3).

A trajectory is a sequence of ``(location, time)`` pairs capturing the
positions of a moving object.  Trajectories are the raw material for map
matching (governance), path representation learning (analytics), and
learning-based routing (decision making), so the type carries the
operations those layers need: resampling, noise injection, length/
duration accessors, and conversion to edge paths once matched to a road
network.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .._validation import check_non_negative, check_positive, ensure_rng

__all__ = ["GpsPoint", "Trajectory"]


class GpsPoint:
    """A single timestamped location sample."""

    __slots__ = ("x", "y", "t")

    def __init__(self, x, y, t):
        self.x = float(x)
        self.y = float(y)
        self.t = float(t)

    def distance_to(self, other):
        """Euclidean distance to another point (planar coordinates)."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def __repr__(self):
        return f"GpsPoint(x={self.x:.3f}, y={self.y:.3f}, t={self.t:.1f})"

    def __eq__(self, other):
        if not isinstance(other, GpsPoint):
            return NotImplemented
        return (self.x, self.y, self.t) == (other.x, other.y, other.t)

    def __hash__(self):
        return hash((self.x, self.y, self.t))


class Trajectory:
    """An ordered sequence of :class:`GpsPoint` with increasing timestamps.

    Stored as columns: one ``(n, 2)`` float array of ``(x, y)``
    positions and one ``(n,)`` array of times.  :class:`GpsPoint`
    objects are built only on access (iteration, indexing,
    :attr:`points`), so ``traj[0] is traj[0]`` is ``False``.

    Parameters
    ----------
    points:
        Iterable of :class:`GpsPoint` or ``(x, y, t)`` triples.
    object_id:
        Optional identifier of the moving object.
    """

    def __init__(self, points, object_id=None):
        rows = []
        for point in points:
            if isinstance(point, GpsPoint):
                rows.append((point.x, point.y, point.t))
            else:
                x, y, t = point
                rows.append((float(x), float(y), float(t)))
        columns = np.array(rows, dtype=float).reshape(-1, 3)
        self._set_columns(columns[:, :2], columns[:, 2], object_id)

    @classmethod
    def _from_columns(cls, xy, times, object_id=None):
        """A trajectory over ``(n, 2)`` positions and ``(n,)`` times,
        validated as the public constructor does, without building a
        :class:`GpsPoint` per sample.  Takes ownership of the arrays
        (and makes them read-only) instead of copying them."""
        trajectory = cls.__new__(cls)
        trajectory._set_columns(xy, times, object_id)
        return trajectory

    def _set_columns(self, xy, times, object_id):
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        times = np.asarray(times, dtype=float).reshape(-1)
        if len(times) < 2:
            raise ValueError("a trajectory needs at least two points")
        # Strictly increasing times are all finite iff both ends are
        # (a NaN fails every comparison).
        increasing = (times[1:] > times[:-1]).all()
        if not (increasing and math.isfinite(times[0])
                and math.isfinite(times[-1])):
            finite = np.isfinite(times)
            if not finite.all():
                index = int(np.argmin(finite))
                raise ValueError(
                    f"trajectory timestamp {index} is not finite: "
                    f"{float(times[index])!r}")
            raise ValueError(
                "trajectory timestamps must be strictly increasing")
        xy.flags.writeable = times.flags.writeable = False
        self._xy = xy
        self._t = times
        self.object_id = object_id

    # -- protocol --------------------------------------------------------

    def __len__(self):
        return len(self._t)

    def __iter__(self):
        return map(GpsPoint, self._xy[:, 0].tolist(),
                   self._xy[:, 1].tolist(), self._t.tolist())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.points[index]
        index = operator.index(index)
        x, y = self._xy[index].tolist()
        return GpsPoint(x, y, self._t[index])

    def __repr__(self):
        return (
            f"Trajectory(id={self.object_id!r}, points={len(self)}, "
            f"duration={self.duration():.1f})"
        )

    # -- accessors -------------------------------------------------------

    @property
    def points(self):
        return list(self)

    def coordinates(self):
        """Return an ``(n, 2)`` array of ``(x, y)`` positions (a copy)."""
        return self._xy.copy()

    def times(self):
        """Return the ``(n,)`` array of timestamps (a copy)."""
        return self._t.copy()

    def duration(self):
        """Elapsed time between first and last sample."""
        return float(self._t[-1] - self._t[0])

    def length(self):
        """Total travelled Euclidean distance along the samples.

        Summed segment by segment in order, as a loop over the points
        would.
        """
        with np.errstate(over="ignore"):  # inf, as float subtraction gives
            steps = np.diff(self._xy, axis=0)
        return float(sum(map(math.hypot, steps[:, 0].tolist(),
                             steps[:, 1].tolist())))

    def average_speed(self):
        """Mean speed = length / duration."""
        return self.length() / self.duration()

    # -- transformations ---------------------------------------------------

    def resample(self, interval):
        """Linearly resample positions every ``interval`` time units.

        Models low-frequency GPS devices; the first and last samples are
        always kept.
        """
        check_positive(interval, "interval")
        ts = self._t
        new_times = np.arange(ts[0], ts[-1], interval)
        if new_times[-1] < ts[-1]:
            new_times = np.append(new_times, ts[-1])
        xy = np.column_stack([np.interp(new_times, ts, self._xy[:, 0]),
                              np.interp(new_times, ts, self._xy[:, 1])])
        return Trajectory._from_columns(xy, new_times, self.object_id)

    def with_noise(self, sigma, rng=None):
        """Add isotropic Gaussian measurement noise of scale ``sigma``.

        ``sigma`` must be finite and ``>= 0``.
        """
        check_non_negative(sigma, "sigma")
        if not math.isfinite(sigma):
            raise ValueError(f"sigma must be finite, got {sigma!r}")
        rng = ensure_rng(rng)
        noise = rng.normal(0.0, sigma, size=(len(self), 2))
        return Trajectory._from_columns(self._xy + noise, self._t,
                                        self.object_id)

    def dropped(self, keep_fraction, rng=None):
        """Randomly keep roughly ``keep_fraction`` of interior samples.

        Endpoints are always retained so the trip is still recognizable —
        this models the sparse trajectories [56] the decision layer learns
        from.
        """
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError(
                f"keep_fraction must be in (0, 1], got {keep_fraction!r}"
            )
        rng = ensure_rng(rng)
        kept = np.concatenate(
            [[True], rng.random(len(self) - 2) < keep_fraction, [True]])
        return Trajectory._from_columns(self._xy[kept], self._t[kept],
                                        self.object_id)

    def segment_speeds(self):
        """Speed of each consecutive segment, shape ``(n-1,)``."""
        distances = np.linalg.norm(np.diff(self._xy, axis=0), axis=1)
        return distances / np.diff(self._t)
