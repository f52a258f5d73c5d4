"""Tests for the shared validation helpers."""

import numpy as np
import pytest

from repro._validation import (
    as_float_array,
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability_vector,
    ensure_rng,
)


class TestAsFloatArray:
    def test_converts_lists(self):
        result = as_float_array([1, 2, 3], "x")
        assert result.dtype == float
        assert result.shape == (3,)

    def test_ndim_enforced(self):
        with pytest.raises(ValueError):
            as_float_array([[1.0]], "x", ndim=1)

    def test_empty_rejected_by_default(self):
        with pytest.raises(ValueError):
            as_float_array([], "x")

    def test_empty_allowed_when_requested(self):
        assert as_float_array([], "x", allow_empty=True).size == 0


class TestCheckFraction:
    def test_accepts_bounds(self):
        assert check_fraction(0.0, "x") == 0.0
        assert check_fraction(1.0, "x") == 1.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValueError):
            check_fraction(0.0, "x", inclusive_low=False)
        with pytest.raises(ValueError):
            check_fraction(1.0, "x", inclusive_high=False)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_fraction(1.5, "x")
        with pytest.raises(ValueError):
            check_fraction(-0.1, "x")

    def test_rejects_bool_and_strings(self):
        with pytest.raises(TypeError):
            check_fraction(True, "x")
        with pytest.raises(TypeError):
            check_fraction("0.5", "x")


class TestPositivity:
    def test_check_positive(self):
        assert check_positive(2, "x") == 2
        with pytest.raises(ValueError):
            check_positive(0, "x")
        with pytest.raises(TypeError):
            check_positive(True, "x")

    def test_check_non_negative(self):
        assert check_non_negative(0, "x") == 0
        with pytest.raises(ValueError):
            check_non_negative(-1, "x")

    def test_check_non_negative_rejects_nan(self):
        # ``nan < 0`` is False, so a bare comparison lets NaN through.
        with pytest.raises(ValueError, match="x must be >= 0, got nan"):
            check_non_negative(float("nan"), "x")
        with pytest.raises(ValueError):
            check_non_negative(np.float64("nan"), "x")
        assert check_non_negative(float("inf"), "x") == float("inf")


class TestProbabilityVector:
    def test_normalizes(self):
        result = check_probability_vector([2.0, 2.0], "x")
        assert np.allclose(result, [0.5, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_probability_vector([-1.0, 2.0], "x")

    def test_rejects_zero_sum(self):
        with pytest.raises(ValueError):
            check_probability_vector([0.0, 0.0], "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_probability_vector([np.nan, 1.0], "x")


class TestEnsureRng:
    def test_passes_generator_through(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_seed_creates_deterministic_generator(self):
        a = ensure_rng(42).normal()
        b = ensure_rng(42).normal()
        assert a == b

    def test_none_creates_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)
