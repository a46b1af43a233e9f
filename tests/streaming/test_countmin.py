"""Unit tests for the Count-Min sketch."""

import numpy as np
import pytest

from repro.exceptions import StreamingError
from repro.streaming.countmin import CountMinSketch


class TestSizing:
    def test_from_guarantees(self):
        sketch = CountMinSketch(epsilon=0.01, delta=0.01)
        assert sketch.width >= np.e / 0.01 - 1
        assert sketch.depth >= np.log(1 / 0.01) - 1

    def test_explicit_dimensions(self):
        sketch = CountMinSketch(width=100, depth=4)
        assert sketch.width == 100
        assert sketch.depth == 4
        assert sketch.memory_cells() == 400

    def test_partial_dimensions_rejected(self):
        with pytest.raises(StreamingError):
            CountMinSketch(width=100)

    @pytest.mark.parametrize("kwargs", [
        {"epsilon": 0.0}, {"epsilon": 1.0}, {"delta": 0.0},
        {"width": 0, "depth": 4},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(StreamingError):
            CountMinSketch(**kwargs)


class TestEstimates:
    def test_never_underestimates(self):
        sketch = CountMinSketch(width=50, depth=4)
        truth = {}
        rng = np.random.default_rng(0)
        for _ in range(2000):
            key = f"key-{rng.integers(0, 200)}"
            sketch.update(key)
            truth[key] = truth.get(key, 0) + 1
        for key, count in truth.items():
            assert sketch.estimate(key) >= count

    def test_error_within_bound(self):
        sketch = CountMinSketch(epsilon=0.01, delta=0.01)
        truth = {}
        rng = np.random.default_rng(1)
        for _ in range(5000):
            key = f"key-{rng.integers(0, 500)}"
            sketch.update(key)
            truth[key] = truth.get(key, 0) + 1
        bound = sketch.error_bound()
        violations = sum(
            1 for key, count in truth.items() if sketch.estimate(key) > count + bound
        )
        # Guarantee holds per-query with prob 1-delta; allow slack.
        assert violations <= 0.05 * len(truth)

    def test_unseen_key_can_be_zero(self):
        sketch = CountMinSketch(width=1000, depth=4)
        sketch.update("only-key", 5)
        assert sketch.estimate("some-other-key") <= 5

    def test_weighted_updates(self):
        sketch = CountMinSketch(width=100, depth=4)
        sketch.update("k", 2.5)
        sketch.update("k", 0.5)
        assert sketch.estimate("k") >= 3.0
        assert sketch.total == pytest.approx(3.0)

    def test_zero_update_noop(self):
        sketch = CountMinSketch(width=10, depth=2)
        sketch.update("k", 0.0)
        assert sketch.total == 0.0

    def test_negative_update_rejected(self):
        sketch = CountMinSketch(width=10, depth=2)
        with pytest.raises(StreamingError):
            sketch.update("k", -1.0)


class TestMerge:
    def test_repr(self):
        sketch = CountMinSketch(width=10, depth=2)
        assert "CountMinSketch" in repr(sketch)
