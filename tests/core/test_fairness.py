"""Tests for fairness/convergence metrics."""

import numpy as np
import pytest

from repro.core import jain_index, time_to_fair


class TestJain:
    def test_equal(self):
        assert jain_index(np.array([3.0, 3.0, 3.0, 3.0])) == pytest.approx(1.0)

    def test_hog(self):
        assert jain_index(np.array([9.0, 0.0, 0.0])) == pytest.approx(1 / 3)

    def test_intermediate_monotone(self):
        fairer = jain_index(np.array([4.0, 5.0, 6.0]))
        worse = jain_index(np.array([1.0, 5.0, 9.0]))
        assert fairer > worse

    def test_degenerate(self):
        assert np.isnan(jain_index(np.array([])))
        assert np.isnan(jain_index(np.zeros(4)))


class TestTimeToFair:
    def test_converging_series(self):
        t = np.arange(5.0)
        # Two flows: unfair at first, equal from sample 2 on.
        series = np.array([
            [10.0, 8.0, 5.0, 5.0, 5.0],
            [0.0, 2.0, 5.0, 5.0, 5.0],
        ])
        assert time_to_fair(t, series, threshold=0.99, sustain=2) == 2.0

    def test_never_fair(self):
        t = np.arange(4.0)
        series = np.array([[10.0] * 4, [0.1] * 4])
        assert time_to_fair(t, series, threshold=0.95) == np.inf

    def test_sustain_requires_consecutive(self):
        t = np.arange(6.0)
        # Fair at t=1 only, then fair from t=3.
        series = np.array([
            [9.0, 5.0, 9.0, 5.0, 5.0, 5.0],
            [1.0, 5.0, 1.0, 5.0, 5.0, 5.0],
        ])
        assert time_to_fair(t, series, threshold=0.99, sustain=3) == 3.0

    def test_validation(self):
        t = np.arange(3.0)
        with pytest.raises(ValueError):
            time_to_fair(t, np.zeros((2, 5)))
        with pytest.raises(ValueError):
            time_to_fair(t, np.zeros((2, 3)), threshold=0.0)
        with pytest.raises(ValueError):
            time_to_fair(t, np.zeros((2, 3)), sustain=0)
