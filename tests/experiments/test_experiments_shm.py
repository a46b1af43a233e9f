"""Experiment grids on more than one worker.

``jobs`` fans the grid cells out over a process pool; the experiments
build no shared-memory engine, give the one-worker result, and leave no
worker process or ``/dev/shm`` segment behind.
"""

import multiprocessing

from repro import obs
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig1_properties import run_fig1
from repro.experiments.fig3_auc import run_fig3
from repro.parallel.shm import active_segment_names

POOLED = ExperimentConfig(scale="small", jobs=2)


class TestExperimentShmStrategy:
    def test_fig1_matches_serial(self):
        serial = run_fig1("network", ExperimentConfig(scale="small"))
        assert run_fig1("network", POOLED) == serial
        assert active_segment_names() == []

    def test_runs_release_their_pool(self):
        run_fig1("network", POOLED)
        run_fig3("network", POOLED)
        assert active_segment_names() == []
        assert multiprocessing.active_children() == []

    def test_grid_cells_build_no_engine(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            run_fig1("network", POOLED)
        assert registry.counter_value("parallel.maps") >= 1
        assert not any(
            key.startswith("shm.") for key in registry.counters_flat()
        )
