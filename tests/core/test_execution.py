"""The execution factory and the engine contract ``compute_all`` relies on."""

import pytest

from repro.core.execution import DEFAULT_BUDGET_BYTES, make_engine
from repro.core.scheme import create_scheme
from repro.core.signature import Signature
from repro.exceptions import (
    ExperimentError,
    PipelineError,
    SchemeError,
    ServiceError,
)
from repro.experiments.config import ExperimentConfig
from repro.graph.comm_graph import CommGraph
from repro.graph.delta import WindowDelta
from repro.parallel.shm import ShmEngine
from repro.pipeline import PipelineConfig
from repro.service import ServiceConfig
from repro.streaming.tier import SketchTierEngine


class RecordingEngine:
    """A fake engine answering in-process and recording each batch."""

    def __init__(self, exact):
        self.exact = exact
        self.batches = []

    def compute_batch(self, scheme, graph, targets=None):
        self.batches.append(list(targets))
        return scheme._compute_batch(graph, list(targets))

    def close(self):
        pass


def window_pair():
    before = CommGraph([("a", "x", 2.0), ("a", "y", 1.0), ("b", "x", 3.0)])
    after = CommGraph([("a", "x", 2.0), ("a", "y", 1.0), ("b", "z", 3.0)])
    return before, after, WindowDelta.from_graphs(before, after)


class TestMakeEngine:
    def test_serial_is_no_engine(self):
        assert make_engine("serial", jobs=4, sketch_budget_bytes=1 << 10) is None

    def test_shm_pool_sized_by_jobs(self):
        engine = make_engine("shm", jobs=3, sketch_budget_bytes=1 << 10)
        try:
            assert isinstance(engine, ShmEngine)
            assert engine.exact
            assert engine.workers == 3
        finally:
            engine.close()
        assert engine.closed

    def test_sketch_tier_sized_by_budget_and_seed(self):
        engine = make_engine("sketch", jobs=3, sketch_budget_bytes=1 << 14, seed=9)
        assert isinstance(engine, SketchTierEngine)
        assert not engine.exact
        assert (engine.budget_bytes, engine.seed) == (1 << 14, 9)
        assert make_engine("sketch").budget_bytes == DEFAULT_BUDGET_BYTES
        engine.close()

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"jobs": -1}, "jobs"),
            ({"sketch_budget_bytes": 0}, "sketch_budget_bytes"),
        ],
    )
    def test_bad_parameters_rejected(self, kwargs, match):
        with pytest.raises(SchemeError, match=match):
            make_engine("shm", **kwargs)


class TestConfigsShareTheValidator:
    @pytest.mark.parametrize(
        "config,error",
        [
            (PipelineConfig, PipelineError),
            (ServiceConfig, ServiceError),
            (ExperimentConfig, ExperimentError),
        ],
    )
    def test_unknown_strategy_uses_own_error_type(self, config, error):
        with pytest.raises(error, match="unknown strategy 'teleport'"):
            config(strategy="teleport")


class TestComputeAllEngineContract:
    def test_exact_engine_gets_only_the_dirty_set(self):
        before, after, delta = window_pair()
        scheme = create_scheme("tt", k=3)
        previous = scheme.compute_all(before)
        engine = RecordingEngine(exact=True)
        result = scheme.compute_all(after, delta=delta, previous=previous, engine=engine)
        assert result == scheme.compute_all(after)
        assert engine.batches and "a" not in engine.batches[0]

    def test_non_exact_engine_ignores_delta_and_previous(self):
        before, after, delta = window_pair()
        scheme = create_scheme("tt", k=3)
        # If reuse happened, these would leak through for the clean owner "a".
        poisoned = {node: Signature(node, {"bogus": 1.0}) for node in before.nodes()}
        engine = RecordingEngine(exact=False)
        result = scheme.compute_all(after, delta=delta, previous=poisoned, engine=engine)
        assert engine.batches == [after.nodes()]
        assert result == scheme.compute_all(after)
