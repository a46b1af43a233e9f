"""Experiment-grid integration of the shared-memory recompute engine."""

import multiprocessing

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig1_properties import run_fig1
from repro.experiments.fig3_auc import run_fig3
from repro.parallel.shm import active_segment_names

SHM = ExperimentConfig(scale="small", strategy="shm", jobs=2)


class TestExperimentShmStrategy:
    def test_fig1_matches_serial(self):
        serial = run_fig1("network", ExperimentConfig(scale="small"))
        assert run_fig1("network", SHM) == serial
        assert active_segment_names() == []

    def test_runs_release_their_pool(self):
        run_fig1("network", SHM)
        run_fig3("network", SHM)
        assert active_segment_names() == []
        assert multiprocessing.active_children() == []

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ExperimentError, match="strategy"):
            ExperimentConfig(strategy="quantum")

    def test_cell_jobs_collapses_under_shm(self):
        # The engine pool owns the CPUs; nesting a grid process pool on
        # top would oversubscribe, so grid cells run in-process.
        assert ExperimentConfig(jobs=4).cell_jobs == 4
        assert ExperimentConfig(jobs=4, strategy="shm").cell_jobs == 1
