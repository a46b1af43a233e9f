"""The execution factory, and what ``compute_all`` counts per call."""

import pytest

from repro import obs
from repro.core.execution import DEFAULT_BUDGET_BYTES, make_engine
from repro.core.scheme import create_scheme
from repro.exceptions import (
    ExperimentError,
    PipelineError,
    SchemeError,
    ServiceError,
)
from repro.experiments.config import ExperimentConfig
from repro.graph.comm_graph import CommGraph
from repro.parallel.shm import ShmEngine
from repro.pipeline import PipelineConfig
from repro.service import ServiceConfig
from repro.streaming.tier import SketchTierEngine


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


def test_every_target_counts_dirty_and_none_reused():
    # benchmarks/e2e/serve.py reads reused / (dirty + reused) from
    # /metrics, so both counters exist after every call: each target is
    # computed on its own window's graph, so all count dirty, none reused.
    graph = CommGraph([("a", "x", 2.0), ("a", "y", 1.0), ("b", "x", 3.0)])
    targets = graph.nodes() + ["absent"]
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        create_scheme("tt", k=5).compute_all(graph, targets)
        create_scheme("rwr", k=5).compute_all(graph, targets)
    flat = registry.counters_flat()
    for name in ("tt", "rwr"):
        assert flat[f"incremental.dirty_nodes{{scheme={name}}}"] == len(targets)
        assert flat[f"incremental.reused_signatures{{scheme={name}}}"] == 0
