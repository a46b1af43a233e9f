"""PipelineConfig.history_dir: the pipeline checkpoints every window it
closes into the history store there, and nowhere else."""

from __future__ import annotations

from repro.pipeline import (
    CheckpointStore,
    IterableRecordSource,
    PipelineConfig,
    SignaturePipeline,
)
from repro.store import HistoryStore
from repro.store.segments import SEGMENT_SUFFIX


def records(n=90, hosts=5, services=7):
    return [
        (float(i), f"h-{i % hosts}", f"s-{(i * 3) % services}", 1.0 + i % 4)
        for i in range(n)
    ]


def test_pipeline_archives_every_window(tmp_path):
    config = PipelineConfig(
        scheme="tt", k=4, num_windows=3, history_dir=str(tmp_path / "hist")
    )
    store = CheckpointStore(tmp_path / "ckpt")
    result = SignaturePipeline(
        IterableRecordSource(records()), store, config
    ).run()
    history = HistoryStore(tmp_path / "hist")
    assert history.windows() == [0, 1, 2]
    for window, signatures in enumerate(result.signatures):
        archived = history.load_window(window)
        assert {
            owner: dict(sig.entries) for owner, sig in archived.items()
        } == {owner: dict(sig.entries) for owner, sig in signatures.items()}
    assert history.window_meta(0).get("num_records", 0) > 0


def test_fresh_run_clears_stale_history(tmp_path):
    config = PipelineConfig(
        scheme="tt", k=4, num_windows=3, history_dir=str(tmp_path / "hist")
    )
    SignaturePipeline(
        IterableRecordSource(records()), CheckpointStore(tmp_path / "c1"), config
    ).run()
    # A fresh (non-resume) run must not leave the previous run's windows
    # visible beyond what it writes itself.
    SignaturePipeline(
        IterableRecordSource(records(60)), CheckpointStore(tmp_path / "c2"),
        PipelineConfig(
            scheme="tt", k=4, num_windows=2, history_dir=str(tmp_path / "hist")
        ),
    ).run()
    assert HistoryStore(tmp_path / "hist").windows() == [0, 1]


def test_history_dir_matching_backend_store_is_not_duplicated(tmp_path):
    # When the checkpoint store already lives in history_dir, the runner
    # must not append every window twice.
    config = PipelineConfig(
        scheme="tt", k=4, num_windows=3, history_dir=str(tmp_path / "hist")
    )
    store = CheckpointStore(tmp_path / "hist")
    SignaturePipeline(IterableRecordSource(records()), store, config).run()
    history = HistoryStore(tmp_path / "hist")
    assert history.windows() == [0, 1, 2]
    assert len(history.segment_records()) == 3


def test_history_dir_elsewhere_leaves_the_store_directory_empty(tmp_path):
    config = PipelineConfig(
        scheme="tt", k=4, num_windows=3, history_dir=str(tmp_path / "b")
    )
    SignaturePipeline(
        IterableRecordSource(records()), CheckpointStore(tmp_path / "a"), config
    ).run()
    assert len(list((tmp_path / "b").glob(f"*{SEGMENT_SUFFIX}"))) == 3
    assert list((tmp_path / "a").iterdir()) == []
