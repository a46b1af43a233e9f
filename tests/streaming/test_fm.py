"""Unit tests for the Flajolet-Martin distinct counter."""

import pytest

from repro.exceptions import StreamingError
from repro.streaming.fm import FlajoletMartin


class TestBasics:
    def test_empty_estimate_zero(self):
        assert FlajoletMartin().estimate() == 0.0

    def test_duplicates_do_not_inflate(self):
        sketch = FlajoletMartin(num_registers=64, seed=0)
        for _ in range(100):
            sketch.add("same-item")
        assert sketch.estimate() == pytest.approx(1.0, abs=0.5)

    def test_invalid_registers(self):
        with pytest.raises(StreamingError):
            FlajoletMartin(num_registers=0)

    def test_repr(self):
        assert "FlajoletMartin" in repr(FlajoletMartin())


class TestAccuracy:
    @pytest.mark.parametrize("true_count", [1, 5, 20, 100, 1000])
    def test_relative_error_reasonable(self, true_count):
        sketch = FlajoletMartin(num_registers=64, seed=0)
        for i in range(true_count):
            sketch.add(f"item-{i}")
        estimate = sketch.estimate()
        assert 0.5 * true_count <= estimate <= 2.0 * true_count, (
            true_count,
            estimate,
        )

    def test_small_range_uses_linear_counting(self):
        """In-degree-scale cardinalities (1-20) must be near-exact, since
        the streaming UT signature divides by these estimates."""
        for true_count in range(1, 21):
            sketch = FlajoletMartin(num_registers=64, seed=3)
            for i in range(true_count):
                sketch.add(f"src-{i}")
            assert sketch.estimate() == pytest.approx(true_count, rel=0.35, abs=1.0)

    def test_monotone_in_cardinality_on_average(self):
        estimates = []
        for true_count in (10, 100, 1000):
            sketch = FlajoletMartin(num_registers=64, seed=1)
            for i in range(true_count):
                sketch.add(f"x-{i}")
            estimates.append(sketch.estimate())
        assert estimates[0] < estimates[1] < estimates[2]


class TestMerge:
    def test_memory_cells(self):
        assert FlajoletMartin(num_registers=16).memory_cells() == 16
