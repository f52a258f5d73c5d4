"""Tests for repro.datatypes.trajectory."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GpsPoint, Trajectory
from tests.oracles import PointTrajectory


def straight_line(n=10, speed=2.0):
    return Trajectory([(speed * t, 0.0, float(t)) for t in range(n)])


class TestGpsPoint:
    def test_distance(self):
        assert GpsPoint(0, 0, 0).distance_to(GpsPoint(3, 4, 1)) == 5.0

    def test_equality_and_hash(self):
        assert GpsPoint(1, 2, 3) == GpsPoint(1, 2, 3)
        assert hash(GpsPoint(1, 2, 3)) == hash(GpsPoint(1, 2, 3))


class TestConstruction:
    def test_accepts_tuples_and_points(self):
        trajectory = Trajectory([(0, 0, 0), GpsPoint(1, 0, 1)])
        assert len(trajectory) == 2

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            Trajectory([(0, 0, 0)])

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            Trajectory([(0, 0, 1), (1, 0, 1)])


class TestMeasures:
    def test_duration(self):
        assert straight_line(5).duration() == 4.0

    def test_length(self):
        assert straight_line(5, speed=2.0).length() == pytest.approx(8.0)

    def test_average_speed(self):
        assert straight_line(5, speed=2.0).average_speed() == pytest.approx(2.0)

    def test_segment_speeds_constant(self):
        speeds = straight_line(6, speed=3.0).segment_speeds()
        assert np.allclose(speeds, 3.0)


class TestTransformations:
    def test_resample_interval(self):
        resampled = straight_line(10).resample(2.0)
        gaps = np.diff(resampled.times())
        assert np.all(gaps > 0)
        assert resampled.times()[0] == 0.0
        assert resampled.times()[-1] == 9.0

    def test_resample_positions_on_line(self):
        resampled = straight_line(10, speed=2.0).resample(0.5)
        xs = resampled.coordinates()
        assert np.allclose(xs[:, 0], 2.0 * resampled.times())

    def test_resample_invalid(self):
        with pytest.raises(ValueError):
            straight_line().resample(0.0)

    def test_noise_zero_sigma_identity(self):
        original = straight_line()
        noisy = original.with_noise(0.0, np.random.default_rng(0))
        assert np.allclose(noisy.coordinates(), original.coordinates())

    def test_noise_displaces_points(self):
        original = straight_line(50)
        noisy = original.with_noise(0.5, np.random.default_rng(0))
        displacement = np.linalg.norm(
            noisy.coordinates() - original.coordinates(), axis=1
        )
        assert displacement.mean() > 0.1
        assert np.array_equal(noisy.times(), original.times())

    def test_noise_negative_sigma(self):
        with pytest.raises(ValueError):
            straight_line().with_noise(-1.0)

    def test_dropped_keeps_endpoints(self):
        original = straight_line(50)
        sparse = original.dropped(0.1, np.random.default_rng(0))
        assert sparse[0] == original[0]
        assert sparse[-1] == original[-1]
        assert len(sparse) < len(original)

    def test_dropped_full_keep(self):
        original = straight_line(10)
        assert len(original.dropped(1.0, np.random.default_rng(0))) == 10

    def test_dropped_invalid_fraction(self):
        with pytest.raises(ValueError):
            straight_line().dropped(0.0)


@settings(deadline=None, max_examples=30)
@given(
    n=st.integers(min_value=3, max_value=30),
    interval=st.floats(min_value=0.2, max_value=5.0),
)
def test_resample_preserves_endpoints_and_length_upper_bound(n, interval):
    """Resampling keeps endpoints and can only shorten the polyline
    (piecewise-linear interpolation never adds length)."""
    rng = np.random.default_rng(n)
    points = [(rng.normal(), rng.normal(), float(t)) for t in range(n)]
    trajectory = Trajectory(points)
    resampled = trajectory.resample(interval)
    assert resampled.times()[0] == trajectory.times()[0]
    assert resampled.times()[-1] == trajectory.times()[-1]
    assert resampled.length() <= trajectory.length() + 1e-9


def bits(values):
    """The float64 bytes of ``values``: equal bits, NaN and -0.0 too."""
    return np.asarray(values, dtype=float).tobytes()


def point_bits(points):
    return bits([(p.x, p.y, p.t) for p in points])


def outcome(call):
    """``("ok", value)`` or ``("error", type, message)`` of ``call()``."""
    try:
        return "ok", call()
    except (ValueError, IndexError) as error:
        return "error", type(error), str(error)


#: Coordinates that tie each other or overflow their differences.
SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 5e-324,
                           1e154, -1e154, 1e300, -1e300, 1.7e308])
#: Per trajectory: mixed coordinates, or city-sized ones only, whose
#: segment lengths a sum in another order rounds differently.
COORDINATES = st.sampled_from([
    st.one_of(SPECIAL, st.floats(allow_nan=False, allow_infinity=False)),
    st.floats(min_value=-1e3, max_value=1e3),
])


@st.composite
def trajectories(draw):
    """``(rows, object_id)``: 2-60 ``(x, y, t)`` rows, strictly
    increasing finite times."""
    n = draw(st.integers(min_value=2, max_value=60))
    times = draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=n, max_size=n, unique=True))
    coordinate = draw(COORDINATES)
    rows = [(draw(coordinate), draw(coordinate), t) for t in sorted(times)]
    return rows, draw(st.sampled_from([None, "taxi-7", 3]))


class TestColumnarDifferential:
    """The columnar ``Trajectory`` against the per-point one it
    replaced (``tests.oracles.PointTrajectory``), bit for bit."""

    @settings(deadline=None, max_examples=80)
    @given(case=trajectories())
    def test_accessors(self, case):
        rows, object_id = case
        columnar = Trajectory(rows, object_id=object_id)
        reference = PointTrajectory(rows, object_id=object_id)
        assert len(columnar) == len(reference)
        assert point_bits(columnar) == point_bits(reference)
        assert point_bits(columnar.points) == point_bits(reference.points)
        for index in range(-len(rows), len(rows)):
            assert point_bits([columnar[index]]) == \
                point_bits([reference[index]])
        assert point_bits(columnar[1:-1]) == point_bits(reference[1:-1])
        assert outcome(lambda: columnar[len(rows)])[:2] == \
            outcome(lambda: reference[len(rows)])[:2] == ("error", IndexError)
        assert bits(columnar.coordinates()) == bits(reference.coordinates())
        assert columnar.coordinates().shape == (len(rows), 2)
        assert bits(columnar.times()) == bits(reference.times())
        assert bits(columnar.length()) == bits(reference.length())
        assert bits(columnar.duration()) == bits(reference.duration())
        with np.errstate(all="ignore"):
            assert bits(columnar.segment_speeds()) == \
                bits(reference.segment_speeds())
        assert columnar.object_id == object_id

    @settings(deadline=None, max_examples=60)
    @given(case=trajectories(), steps=st.integers(min_value=1,
                                                 max_value=150))
    def test_resample(self, case, steps):
        rows, object_id = case
        columnar = Trajectory(rows, object_id=object_id)
        reference = PointTrajectory(rows, object_id=object_id)
        interval = reference.duration() / steps
        with np.errstate(all="ignore"):
            got = outcome(lambda: columnar.resample(interval))
            want = outcome(lambda: reference.resample(interval))
        assert got[0] == want[0]
        if got[0] == "error":
            assert got == want
        else:
            assert point_bits(got[1]) == point_bits(want[1])
            assert got[1].object_id == object_id

    @settings(deadline=None, max_examples=60)
    @given(case=trajectories(), seed=st.integers(0, 2**32 - 1),
           sigma=st.sampled_from([0.0, 1e-3, 0.05, 1.0, 1e6]))
    def test_with_noise_same_draws(self, case, seed, sigma):
        rows, _ = case
        rng_a, rng_b = (np.random.default_rng(seed) for _ in range(2))
        with np.errstate(all="ignore"):
            noisy = Trajectory(rows).with_noise(sigma, rng_a)
            expected = PointTrajectory(rows).with_noise(sigma, rng_b)
        assert point_bits(noisy) == point_bits(expected)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @settings(deadline=None, max_examples=60)
    @given(case=trajectories(), seed=st.integers(0, 2**32 - 1),
           keep=st.sampled_from([1e-9, 0.1, 0.5, 0.9, 1.0]))
    def test_dropped_same_draws(self, case, seed, keep):
        rows, _ = case
        rng_a, rng_b = (np.random.default_rng(seed) for _ in range(2))
        sparse = Trajectory(rows).dropped(keep, rng_a)
        expected = PointTrajectory(rows).dropped(keep, rng_b)
        assert point_bits(sparse) == point_bits(expected)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_points_built_on_access(self):
        trajectory = straight_line(4)
        assert trajectory[0] == trajectory[0]
        assert trajectory[0] is not trajectory[0]

    def test_columns_are_copies(self):
        trajectory = straight_line(4)
        trajectory.coordinates()[0] = 99.0
        trajectory.times()[0] = 99.0
        assert trajectory[0] == GpsPoint(0.0, 0.0, 0.0)

    def test_pickle_round_trip(self):
        trajectory = straight_line(6).with_noise(
            0.1, np.random.default_rng(3))
        trajectory.object_id = "taxi-7"
        restored = pickle.loads(pickle.dumps(trajectory))
        assert restored.object_id == "taxi-7"
        assert point_bits(restored) == point_bits(trajectory)
        assert bits(restored.length()) == bits(trajectory.length())
        assert len(restored.resample(0.5)) == len(trajectory.resample(0.5))


class TestNonFiniteInputs:
    @pytest.mark.parametrize("index, bad", [
        (1, math.nan), (2, math.inf), (0, -math.inf), (0, math.nan)])
    def test_rejects_non_finite_timestamp(self, index, bad):
        rows = [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0)]
        rows[index] = (*rows[index][:2], bad)
        message = f"timestamp {index} is not finite"
        with pytest.raises(ValueError, match=message):
            Trajectory(rows)
        with pytest.raises(ValueError, match=message):
            Trajectory([GpsPoint(*row) for row in rows])

    def test_first_non_finite_timestamp_is_named(self):
        with pytest.raises(ValueError, match="timestamp 1 is not finite"):
            Trajectory([(0, 0, 0), (1, 1, math.nan), (2, 2, 3),
                        (3, 3, math.inf)])

    def test_non_finite_coordinates_are_accepted(self):
        # Map matching names such a point itself.
        trajectory = Trajectory([(0, 0, 0), (math.nan, math.inf, 1)])
        assert np.isnan(trajectory.coordinates()[1, 0])

    @pytest.mark.parametrize("sigma, message", [
        (math.nan, "must be >= 0"), (-math.inf, "must be >= 0"),
        (math.inf, "must be finite")])
    def test_with_noise_rejects_non_finite_sigma(self, sigma, message):
        with pytest.raises(ValueError, match=message):
            straight_line().with_noise(sigma, np.random.default_rng(0))
